import tracemalloc
from dataclasses import FrozenInstanceError, astuple, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from transduct import solver
from transduct.solver import (
    gmm_log_probs,
    init_state,
    mu_step,
    run,
    sigma_step,
    z_step,
)
from transduct.types import (
    VAR_FLOOR,
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    Hyperparams,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
)
from transduct.fewshot import search_gamma
from transduct.synth import generate_task
from transduct.zeroshot import compute_soft_labels, hard_predict, log_soft_labels
from helpers import objective, random_task, row_softmax, unit_rows
import oracles


class TestGmmLogProbs:
    def test_zero_at_mean_with_unit_variance(self, rng):
        f = unit_rows(rng, 1, 4)
        gmm = GmmParams(f.copy(), np.ones(4))
        np.testing.assert_allclose(gmm_log_probs(f, gmm), 0.0, atol=1e-14)

    def test_scalar_case_matches_precision_oracle(self):
        # one dimension: f=2, mean=0, variance=4
        gmm = GmmParams(np.array([[0.0]]), np.array([4.0]))
        got = gmm_log_probs(np.array([[2.0]]), gmm)[0, 0]
        with mpmath.workdps(50):
            want = float(-(mpmath.log(4) + 1) / 2)
        assert abs(got - want) < 1e-12
        assert abs(got - (-1.193147)) < 5e-7

    def test_two_dim_case(self):
        gmm = GmmParams(np.array([[0.0, 0.0]]), np.array([1.0, 1.0]))
        got = gmm_log_probs(np.array([[1.0, 0.0]]), gmm)[0, 0]
        assert abs(got - (-0.5)) < 1e-12


def _single_query_state(rng, d=5, kl_weight=1.0):
    """Two labeled shots (one per class) plus one query sample, k_nn=1."""
    support = SupportSet(EmbeddingMatrix(unit_rows(rng, 2, d)), np.array([0, 1]))
    spec = TaskSpec(
        query=EmbeddingMatrix(unit_rows(rng, 1, d)),
        text=EmbeddingMatrix(unit_rows(rng, 2, d)),
        support=support,
        temperature=12.0,
        hyper=Hyperparams(kl_weight=kl_weight, support_weight=0.1, k_nn=1),
    )
    return spec, init_state(spec)


def _sweep(state, spec):
    """z_step with the base logits run passes for the current gmm."""
    return z_step(state, spec, solver._base_logits(state, spec, solver._reach(state)))


def _mean_step(state, spec):
    return mu_step(state, spec, solver._group_moments(state, spec))


def _variance_step(state, spec):
    return sigma_step(state, spec, solver._group_moments(state, spec))


def _count_calls(monkeypatch, name):
    """Patch ``solver.<name>`` to note each call; returns the list of notes."""
    calls = []
    original = getattr(solver, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solver, name, counting)
    return calls


class TestZStep:
    def test_uniform_density_and_no_graph_returns_prior(self, rng):
        spec = random_task(rng, n_query=6, n_classes=3, dim=4, k_nn=0)
        state = init_state(spec)
        # identical means and variances make the density constant over classes
        state = replace(
            state, gmm=GmmParams(np.tile(state.gmm.means[:1], (3, 1)), state.gmm.variances)
        )
        out = _sweep(state, spec)
        np.testing.assert_allclose(out, state.soft_labels.z, atol=1e-12)

    def test_no_prior_and_no_graph_is_density_posterior(self, rng):
        spec = random_task(rng, n_query=6, n_classes=3, dim=4, k_nn=0, kl_weight=0.0)
        state = init_state(spec)
        out = _sweep(state, spec)
        log_p = gmm_log_probs(spec.query.data, state.gmm)
        want = np.exp(log_p - log_p.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_matches_projected_gradient_minimizer(self, rng):
        # the query row's surrogate is z.a + z.log z with the coefficients
        # below; its simplex minimizer must equal the sweep output
        spec, state = _single_query_state(rng)
        query_node = spec.n_support
        idx, w = state.graph.neighbors(query_node)
        neighbor_sum = np.zeros(2)
        for j, wt in zip(idx, w):
            neighbor_sum += wt * state.z[j]
        a = -(
            spec.hyper.kl_weight * np.log(state.soft_labels.z[0])
            + gmm_log_probs(spec.query.data, state.gmm)[0]
            + neighbor_sum
        )
        got = _sweep(state, spec)[query_node]
        pg = oracles.simplex_pg_minimize(a)
        np.testing.assert_allclose(got, pg, atol=1e-6)
        closed = np.exp(-a - (-a).max())
        closed /= closed.sum()
        np.testing.assert_allclose(got, closed, atol=1e-12)

    def test_support_rows_untouched(self, rng):
        spec, state = _single_query_state(rng)
        before = state.z[: spec.n_support].tobytes()
        out = _sweep(state, spec)
        assert out[: spec.n_support].tobytes() == before

    def test_rows_stay_on_simplex(self, rng):
        spec = random_task(rng, n_query=40, n_classes=7, dim=9)
        state = init_state(spec)
        for _ in range(4):
            state = replace(state, z=_sweep(state, spec))
            z = state.z
            assert np.all(z >= 0)
            np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-9)

    def test_jacobi_order_independence(self, rng):
        # every row reads only the previous iterate, so a row-by-row
        # reference in any order matches the vectorized sweep bitwise
        spec = random_task(rng, n_query=12, n_classes=4, dim=6)
        state = init_state(spec)
        swept = _sweep(state, spec)

        log_p = gmm_log_probs(state.features, state.gmm)
        prior = spec.hyper.kl_weight * np.log(state.soft_labels.z)
        z_prev = state.z
        for order in (range(12), reversed(range(12))):
            ref = z_prev.copy()
            for i in order:
                nbr = np.zeros(4)
                idx, w = state.graph.neighbors(i)
                for j, wt in zip(idx, w):
                    nbr += wt * z_prev[j]
                logits = prior[i] + log_p[i] + nbr
                e = np.exp(logits - logits.max())
                ref[i] = e / e.sum()
            assert np.abs(ref - swept).max() <= 1e-15


def _fraction_weighted_mean(z_s, f_s, z_q, f_q, gamma):
    """Rational-arithmetic evaluation of the weighted-mean update."""
    n_s, n_q = len(f_s), len(f_q)
    k_count, d = len(z_q[0]), len(f_q[0])
    out = []
    for k in range(k_count):
        num = [Fraction(0)] * d
        den = Fraction(0)
        for i in range(n_s):
            wz = Fraction(gamma) / n_s * Fraction(z_s[i][k])
            den += wz
            for dd in range(d):
                num[dd] += wz * Fraction(f_s[i][dd])
        for i in range(n_q):
            wz = Fraction(1, n_q) * Fraction(z_q[i][k])
            den += wz
            for dd in range(d):
                num[dd] += wz * Fraction(f_q[i][dd])
        out.append([float(n / den) for n in num])
    return np.array(out)


class TestMuStep:
    def test_hard_assignments_give_class_means(self, rng):
        spec = random_task(rng, n_query=9, n_classes=3, dim=5, k_nn=0)
        state = init_state(spec)
        labels = np.repeat(np.arange(3), 3)
        state = replace(state, z=SimplexAssignments.one_hot(labels, 3).z)
        means = _mean_step(state, spec)
        for cls in range(3):
            np.testing.assert_allclose(
                means[cls], spec.query.data[labels == cls].mean(axis=0), atol=1e-12
            )

    def test_equal_weights_give_midpoint(self, rng):
        support = SupportSet(EmbeddingMatrix(unit_rows(rng, 1, 4)), np.array([0]))
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 1, 4)),
            text=EmbeddingMatrix(unit_rows(rng, 1, 4)),
            support=support,
            hyper=Hyperparams(support_weight=1.0),
        )
        state = init_state(spec)
        means = _mean_step(state, spec)
        mid = 0.5 * (support.embeddings.data[0] + spec.query.data[0])
        np.testing.assert_allclose(means[0], mid, atol=1e-14)

    def test_matches_rational_oracle(self, rng):
        gamma = 0.2
        support = SupportSet(
            EmbeddingMatrix(unit_rows(rng, 2, 4)), np.array([0, 1])
        )
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 3, 4)),
            text=EmbeddingMatrix(unit_rows(rng, 2, 4)),
            support=support,
            hyper=Hyperparams(support_weight=gamma),
        )
        state = init_state(spec)
        # a couple of sweeps to land on generic soft assignments
        state = replace(state, z=_sweep(state, spec))
        state = replace(state, z=_sweep(state, spec))
        means = _mean_step(state, spec)
        want = _fraction_weighted_mean(
            state.z[:2].tolist(),
            support.embeddings.data.tolist(),
            state.z[2:].tolist(),
            spec.query.data.tolist(),
            gamma,
        )
        np.testing.assert_allclose(means, want, atol=1e-12)

    def test_empty_class_keeps_previous_mean(self, rng):
        spec = random_task(rng, n_query=4, n_classes=3, dim=5, k_nn=0)
        state = init_state(spec)
        z = np.zeros((4, 3))
        z[:, 0] = 1.0  # classes 1 and 2 get zero mass
        state = replace(state, z=z)
        before = state.gmm.means.copy()
        means = _mean_step(state, spec)
        np.testing.assert_array_equal(means[1:], before[1:])
        assert not np.array_equal(means[0], before[0])


def _fraction_shared_variance(z_s, f_s, mu, z_q, f_q, gamma):
    n_s, n_q = len(f_s), len(f_q)
    k_count, d = len(mu), len(f_q[0])
    out = []
    for dd in range(d):
        total = Fraction(0)
        for i in range(n_s):
            for k in range(k_count):
                diff = Fraction(f_s[i][dd]) - Fraction(mu[k][dd])
                total += Fraction(gamma) / n_s * Fraction(z_s[i][k]) * diff * diff
        for i in range(n_q):
            for k in range(k_count):
                diff = Fraction(f_q[i][dd]) - Fraction(mu[k][dd])
                total += Fraction(1, n_q) * Fraction(z_q[i][k]) * diff * diff
        out.append(float(total / (Fraction(gamma) + 1)))
    return np.array(out)


class TestSigmaStep:
    def test_zero_scatter_hits_floor(self, rng):
        row = unit_rows(rng, 1, 4)
        spec = TaskSpec(
            query=EmbeddingMatrix(np.tile(row, (3, 1))),
            text=EmbeddingMatrix(unit_rows(rng, 1, 4)),
            hyper=Hyperparams(k_nn=0),
        )
        state = init_state(spec)
        state = replace(state, gmm=GmmParams(row.copy(), state.gmm.variances))
        np.testing.assert_array_equal(_variance_step(state, spec), 1e-12)

    def test_single_class_gives_population_variance(self, rng):
        spec = random_task(rng, n_query=10, n_classes=1, dim=6, k_nn=0)
        state = init_state(spec)
        means = _mean_step(state, spec)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        got = _variance_step(state, spec)
        want = np.mean((spec.query.data - means[0]) ** 2, axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_rational_oracle(self, rng):
        gamma = 0.2
        support = SupportSet(
            EmbeddingMatrix(unit_rows(rng, 2, 3)), np.array([0, 1])
        )
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 4, 3)),
            text=EmbeddingMatrix(unit_rows(rng, 2, 3)),
            support=support,
            hyper=Hyperparams(support_weight=gamma),
        )
        state = init_state(spec)
        state = replace(state, z=_sweep(state, spec))
        means = _mean_step(state, spec)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        got = _variance_step(state, spec)
        want = _fraction_shared_variance(
            state.z[:2].tolist(),
            support.embeddings.data.tolist(),
            means.tolist(),
            state.z[2:].tolist(),
            spec.query.data.tolist(),
            gamma,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestObjective:
    def test_kl_vanishes_at_prior_with_uniform_density(self, rng):
        # all samples sit exactly on the single shared mean and the
        # variances are chosen so each class density is exactly 1/K
        k, d, n = 4, 6, 5
        v = unit_rows(rng, 1, d)
        spec = TaskSpec(
            query=EmbeddingMatrix(np.tile(v, (n, 1))),
            text=EmbeddingMatrix(unit_rows(rng, k, d)),
            hyper=Hyperparams(k_nn=0),
        )
        state = init_state(spec)
        state = replace(state, gmm=GmmParams(np.tile(v, (k, 1)), np.full(d, k ** (2.0 / d))))
        assert abs(objective(state, spec, "normalized") - np.log(k)) < 1e-10
        assert abs(objective(state, spec, "update_consistent") - n * np.log(k)) < 1e-9

    def test_one_hot_matches_textbook_likelihood(self, rng):
        # lambda=0, no graph, one-hot assignments: the objective is the
        # query-averaged complete-data negative log-likelihood of a
        # balanced mixture, up to the dropped constants
        n, k, d = 12, 3, 5
        spec = random_task(rng, n_query=n, n_classes=k, dim=d, k_nn=0, kl_weight=0.0)
        state = init_state(spec)
        labels = rng.integers(0, k, size=n)
        state = replace(state, z=SimplexAssignments.one_hot(labels, k).z)
        got = objective(state, spec, "normalized")

        nll = 0.0
        for i in range(n):
            log_n = norm.logpdf(
                spec.query.data[i],
                state.gmm.means[labels[i]],
                np.sqrt(state.gmm.variances),
            ).sum()
            nll -= np.log(1.0 / k) + log_n
        want = (nll - n * np.log(k) - n * d / 2 * np.log(2 * np.pi)) / n
        assert abs(got - want) < 1e-10

    def test_graph_term_is_linear_in_weights(self, rng):
        spec = random_task(rng, n_query=15, n_classes=3, dim=6)
        state = init_state(spec)
        g1 = state.graph

        def scaled(c):
            return AffinityGraph(g1.indptr, g1.indices, c * g1.weights)

        vals = {}
        for name, g in (("w", g1), ("2w", scaled(2.0)), ("0", scaled(0.0))):
            state = replace(state, graph=g)
            vals[name] = objective(state, spec, "update_consistent")
        np.testing.assert_allclose(
            vals["2w"] - vals["0"], 2.0 * (vals["w"] - vals["0"]), rtol=1e-12
        )


class TestRun:
    def test_zero_outer_iters_returns_prior_argmax(self, rng):
        spec = random_task(rng, n_query=25, n_classes=5, dim=8, outer_iters=0)
        assignments, state = run(spec)
        soft = compute_soft_labels(spec.query, spec.text, spec.temperature)
        assert np.array_equal(hard_predict(assignments), hard_predict(soft))
        assert assignments.z.tobytes() == soft.z.tobytes()

    def test_single_class_everything_is_class_zero(self, rng, monkeypatch):
        spec = random_task(rng, n_query=10, n_classes=1, dim=4)
        seen = []

        def recording(state, spec, base):
            seen.append(z_step(state, spec, base))
            return seen[-1]

        monkeypatch.setattr(solver, "z_step", recording)
        assignments, _ = run(spec)
        assert np.array_equal(hard_predict(assignments), np.zeros(10, dtype=int))
        # each outer iteration's first sweep returns its input, all ones, so
        # its other four are skipped
        assert len(seen) == 10
        for z in seen:
            np.testing.assert_array_equal(z, 1.0)

    def test_support_rows_frozen_bitwise(self, rng):
        spec = random_task(rng, n_query=20, n_classes=4, dim=6, shots_per_class=2,
                           support_weight=0.1)
        one_hot = SimplexAssignments.one_hot(spec.support.labels, 4).z.tobytes()
        _, state = run(spec)
        assert state.z[: spec.n_support].tobytes() == one_hot

    def test_trace_layout(self, rng):
        spec = random_task(rng, n_query=8, n_classes=3, dim=5)
        _, state = run(spec, record_trace=True)
        blocks = [r.block for r in state.trace]
        assert blocks == ["init"] + (["z"] * 5 + ["mu", "sigma"]) * 10
        assert len([r.update_consistent for r in state.trace]) == 71
        # the trace is a value: a tuple of frozen rows
        assert type(state.trace) is tuple
        with pytest.raises(FrozenInstanceError):
            state.trace[0].normalized = 0.0

    def test_deterministic_across_runs_and_threads(self, rng):
        spec = random_task(rng, n_query=60, n_classes=6, dim=12)
        a1, s1 = run(spec, record_trace=True)
        a2, s2 = run(spec, record_trace=True)
        assert a1.z.tobytes() == a2.z.tobytes()
        assert ([r.update_consistent for r in s1.trace]
                == [r.update_consistent for r in s2.trace])

    def test_temperature_rescaling_keeps_structure(self, rng):
        base = random_task(rng, n_query=15, n_classes=4, dim=6, temperature=10.0)
        import dataclasses

        for tau in (10.0, 100.0):
            spec = dataclasses.replace(base, temperature=tau)
            assignments, _ = run(spec)
            z = assignments.z
            assert np.all(z >= 0)
            np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-9)


class TestPlainArrays:
    """The solver keeps assignments as read-only arrays and works through
    gmm_log_probs in _CHUNK_ROWS blocks, which no task in the suite is large
    enough to fill, so the block size is shrunk here."""

    @pytest.mark.parametrize("shots", [0, 1])
    def test_z_is_read_only(self, rng, shots):
        # z starts as the prepared state's z, which every solve of the task
        # shares, and run returns a view of the final z: an in-place write
        # would change another solve's start or the caller's assignments
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1)
        state = init_state(spec)
        for z in (state.z, _sweep(state, spec), run(spec, record_trace=False)[1].z):
            assert isinstance(z, np.ndarray) and not z.flags.writeable
            with pytest.raises(ValueError):
                z[-1, 0] = 0.5

    @pytest.mark.parametrize("shots", [0, 2])
    def test_mixture_steps_are_shared_not_copied(self, rng, monkeypatch, shots):
        # the mean and variance steps return read-only arrays, which GmmParams
        # keeps: an outer iteration's two parameter sets share their means
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1, outer_iters=2)
        made = []
        for name in ("mu_step", "sigma_step"):
            original = getattr(solver, name)

            def keeping(*args, original=original):
                made.append(original(*args))
                return made[-1]

            monkeypatch.setattr(solver, name, keeping)
        _, state = run(spec, record_trace=True)
        assert len(made) == 4
        assert all(not arr.flags.writeable for arr in made)
        assert np.shares_memory(state.gmm.means, made[2])
        assert np.shares_memory(state.gmm.variances, made[3])

    def test_small_blocks_cover_every_row(self, rng, monkeypatch):
        feats = unit_rows(rng, 50, 6)
        gmm = GmmParams(unit_rows(rng, 4, 6), rng.uniform(0.5, 2.0, size=6))
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        got = gmm_log_probs(feats, gmm)
        diff = feats[:, None, :] - gmm.means[None, :, :]
        want = -0.5 * (np.log(gmm.variances).sum() + (diff**2 / gmm.variances).sum(axis=2))
        assert got.shape == (50, 4)
        assert np.abs(got - want).max() <= 1e-12
        # the in-place arithmetic is the expanded formula, bit for bit: the
        # class terms from one GEMM per block, less half the row term, whose
        # einsum gives a row the same bits in any block
        inv_var = 1.0 / gmm.variances
        scaled = gmm.means * inv_var
        bias = -0.5 * np.einsum("kd,kd->k", gmm.means, scaled)
        for lo in range(0, 50, 7):
            block = feats[lo : lo + 7]
            row = 0.5 * (np.einsum("nd,nd,d->n", block, block, inv_var)
                         + float(np.log(gmm.variances).sum()))
            expanded = (block @ scaled.T + bias) - row[:, None]
            assert got[lo : lo + 7].tobytes() == expanded.tobytes()

    def test_small_blocks_give_the_same_run(self, rng, monkeypatch):
        spec = random_task(rng, n_query=50, n_classes=5, dim=8)
        want, _ = run(spec, record_trace=False)
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        got, _ = run(spec, record_trace=False)
        np.testing.assert_array_equal(hard_predict(got), hard_predict(want))
        assert np.abs(got.z - want.z).max() <= 1e-12


class TestMemory:
    """A solve holds its assignments, the new sweep and the base logits,
    builds the base logits from one GEMM of the query rows, and drops them
    before the mean step; the state holds no N x K array but ``z``."""

    def test_run_peak_in_n_by_k_arrays(self, rng):
        # K >> d, so the N x d and K x d arrays are small beside N x K; above
        # the initial state's arrays the peak is z, the sweep's new z and the
        # base logits being rebuilt, and the result is a view of the final z
        n, k = 2000, 400
        spec = random_task(rng, n_query=n, n_classes=k, dim=6, outer_iters=2)
        prepared = init_state(spec)
        one = n * k * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assignments, state = run(spec, prepared=prepared)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 3.25 * one
        assert held - base <= 1.1 * one

    def test_base_logits_are_dead_before_the_mean_step(self, rng, monkeypatch):
        # at the moments pass only z is left above the initial state's arrays:
        # the base logits the sweeps shared have been dropped
        n, k = 2000, 400
        spec = random_task(rng, n_query=n, n_classes=k, dim=6, outer_iters=2)
        prepared = init_state(spec)
        seen = []
        group_moments = solver._group_moments

        def measuring(*args):
            seen.append(tracemalloc.get_traced_memory()[0])
            return group_moments(*args)

        monkeypatch.setattr(solver, "_group_moments", measuring)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(spec, prepared=prepared)
        finally:
            tracemalloc.stop()
        assert seen and max(seen) - base <= 1.1 * n * k * 8

    def test_untraced_run_keeps_no_log_densities(self, rng, monkeypatch):
        # one base-logit pass per outer iteration, none when no sweep reads
        # them, and no log-density or log-prior pass at all
        assert self._passes(rng, monkeypatch, record_trace=False) == (3, 0, 0)
        assert self._passes(rng, monkeypatch, record_trace=False, inner_z_iters=0) == (0, 0, 0)

    def test_traced_run_makes_one_pass_per_gmm(self, rng, monkeypatch):
        # beside the base logits, one log-density pass for the initial gmm and
        # one after each mean and variance update serve every trace row, and
        # one log prior serves the whole solve
        assert self._passes(rng, monkeypatch, record_trace=True) == (3, 1 + 2 * 3, 1)

    def test_kl_weight_zero_makes_no_log_prior(self, rng, monkeypatch):
        # at kl_weight 0 the objective leaves out the prior cross-term, so
        # neither a traced solve nor objective() builds the log prior
        calls = _count_calls(monkeypatch, "log_soft_labels")
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, kl_weight=0.0, outer_iters=3)
        _, state = run(spec, record_trace=True)
        objective(state, spec)
        assert len(state.trace) == 1 + 3 * (spec.hyper.inner_z_iters + 2)
        assert len(calls) == 0

    @staticmethod
    def _passes(rng, monkeypatch, record_trace, **hyper):
        """Calls of (_base_logits, gmm_log_probs, log_soft_labels) in a solve."""
        counted = [_count_calls(monkeypatch, name)
                   for name in ("_base_logits", "gmm_log_probs", "log_soft_labels")]
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=2,
                           support_weight=0.1, outer_iters=3, **hyper)
        run(spec, record_trace=record_trace)
        return tuple(len(calls) for calls in counted)

    @pytest.mark.parametrize("kl_weight", [0.0, 0.5, 1.0])
    def test_base_logits_are_prior_plus_log_densities(self, rng, monkeypatch, kl_weight):
        # up to a constant per row, which the sweep's softmax cancels; the
        # 12 support rows are not in the GEMM, whose 7-row blocks start at
        # the first query row
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=3,
                           support_weight=0.1, kl_weight=kl_weight)
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        state = init_state(spec)
        state = replace(state, z=_sweep(state, spec))
        state = replace(state, gmm=GmmParams(_mean_step(state, spec), state.gmm.variances))
        got = solver._base_logits(state, spec, solver._reach(state))
        # the fused formula, bit for bit
        scaled = state.gmm.means * (1.0 / state.gmm.variances)
        bias = -0.5 * np.einsum("kd,kd->k", state.gmm.means, scaled)
        weights = scaled + (kl_weight * spec.temperature) * spec.text.data
        for lo in range(0, 30, 7):
            fused = spec.query.data[lo : lo + 7] @ weights.T + bias
            assert got[lo : lo + 7].tobytes() == fused.tobytes()
        # the unfused sum, up to a row constant: within 64 ulp of the largest
        # magnitude either side holds in the row
        want = (kl_weight * log_soft_labels(spec.query, spec.text, spec.temperature)
                + gmm_log_probs(state.features, state.gmm)[12:])
        offset = want - got
        scale = np.maximum(np.abs(want).max(axis=1), np.abs(got).max(axis=1))
        spread = offset.max(axis=1) - offset.min(axis=1)
        assert np.all(spread <= 64 * np.spacing(scale))

    def test_fewshot_init_state_holds_z0_alone(self):
        # z0 has the support rows too: 1.2 N_q x K here; no soft labels and
        # no log prior are held beside it
        task = generate_task(n_classes=400, dim=8, n_query_per_class=5, shots_per_class=1,
                             seed=3)
        spec = task.spec
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prepared = init_state(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert prepared.z.shape == (spec.n_support + spec.query.n_rows, spec.n_classes)
        # beside z0, the support rows' sums of the moments: K x d and smaller
        sums = sum(part.nbytes for part in prepared.support_sums)
        assert sums == (spec.n_classes * (spec.query.dim + 1) + spec.query.dim) * 8
        assert held - base <= 1.25 * spec.query.n_rows * spec.n_classes * 8 + sums

    def test_zero_shot_run_peak_with_init_state(self, rng):
        # init_state included: z0 is the soft labels and is dropped after the
        # first sweep that moves, so at most z, the new z and the base logits
        # are live at once
        n, k = 2000, 400
        spec = random_task(rng, n_query=n, n_classes=k, dim=6, outer_iters=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assignments, state = run(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 3.3 * n * k * 8
        assert held - base <= 1.1 * n * k * 8

    @pytest.mark.parametrize("shots", [0, 2])
    def test_graph_is_built_on_the_held_features(self, rng, monkeypatch, shots):
        seen = []
        build = solver.build_knn

        def spy(embeddings, k, symmetrize=False):
            seen.append(embeddings.data)
            return build(embeddings, k, symmetrize=symmetrize)

        monkeypatch.setattr(solver, "build_knn", spy)
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots)
        state = init_state(spec)
        assert len(seen) == 1 and seen[0] is state.features
        if not shots:
            assert state.features is spec.query.data

    @pytest.mark.parametrize("shots", [0, 2])
    def test_assignments_are_a_read_only_view_of_z(self, rng, shots):
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1)
        assignments, state = run(spec)
        assert np.shares_memory(assignments.z, state.z)
        assert assignments.z.base is state.z
        assert not assignments.z.flags.writeable
        assert assignments.z.tobytes() == state.z[state.n_support :].tobytes()


class TestEmEquivalence:
    def test_matches_reference_em_iterate_for_iterate(self, rng):
        # no prior, no graph, no support: the sweep/mean alternation is
        # exactly balanced EM with a fixed shared covariance
        for trial in range(3):
            r = np.random.default_rng(500 + trial)
            spec = random_task(r, n_query=40, n_classes=4, dim=8, kl_weight=0.0, k_nn=0)
            state = init_state(spec)
            mu0 = state.gmm.means.copy()
            var0 = state.gmm.variances.copy()
            for it in range(1, 6):
                state = replace(state, z=_sweep(state, spec))
                means = _mean_step(state, spec)
                state = replace(state, gmm=GmmParams(means, state.gmm.variances))
                resp, em_means = oracles.em_reference(
                    spec.query.data, 4, mu0, var0, it
                )
                assert np.abs(resp - state.z).max() <= 1e-10
                assert np.abs(em_means - state.gmm.means).max() <= 1e-10


def _old_moments(z, feats, n_s, gamma):
    """Support- and query-weighted moments, computed afresh on every call."""
    n_q = z.shape[0] - n_s
    zq, fq = z[n_s:], feats[n_s:]
    mass = zq.sum(axis=0) / n_q
    first = (zq.T @ fq) / n_q
    sq = np.einsum("n,nd,nd->d", zq.sum(axis=1), fq, fq) / n_q
    if n_s and gamma > 0:
        zs, fs = z[:n_s], feats[:n_s]
        w = gamma / n_s
        mass = mass + w * zs.sum(axis=0)
        first = first + w * (zs.T @ fs)
        sq = sq + w * np.einsum("n,nd,nd->d", zs.sum(axis=1), fs, fs)
    return mass, first, sq


def _old_sweep(state, spec):
    """One assignment sweep with the logits rebuilt from scratch: the fused
    prior and class terms of the query rows plus their neighbor sums."""
    n_s, z, gmm = state.n_support, state.z, state.gmm
    scaled = gmm.means * (1.0 / gmm.variances)
    weights = scaled + (spec.hyper.kl_weight * spec.temperature) * spec.text.data
    bias = -0.5 * np.einsum("kd,kd->k", gmm.means, scaled)
    logits = state.graph.propagate(z)[n_s:] + (state.features[n_s:] @ weights.T + bias)
    return np.concatenate([z[:n_s], row_softmax(logits)])


def _old_mu(state, spec):
    mass, first, _ = _old_moments(state.z, state.features, state.n_support,
                                  spec.hyper.support_weight)
    means = state.gmm.means.copy()
    live = mass >= 1e-12
    means[live] = first[live] / mass[live, None]
    return means


def _old_sigma(state, spec):
    gamma = spec.hyper.support_weight
    mass, first, sq = _old_moments(state.z, state.features, state.n_support, gamma)
    means = state.gmm.means
    scatter = sq - 2.0 * np.einsum("kd,kd->d", means, first) + np.einsum(
        "kd,kd,k->d", means, means, mass
    )
    return np.maximum(scatter / (gamma + 1.0), VAR_FLOOR)


def _both_flavors(state, spec):
    return objective(state, spec, "normalized"), objective(state, spec)


def _reference_run(spec):
    """run() as a plain loop that caches nothing between block updates, runs
    every sweep and evaluates the objective for every trace row. Also
    returns how many sweeps run() makes, those of each outer iteration up to
    and including the first that returns its input, and how many of those
    moved the iterate."""
    state = init_state(spec)
    trace = [_both_flavors(state, spec)]
    n_s, sweeps, moved = state.n_support, 0, 0
    for _ in range(spec.hyper.outer_iters):
        settled = False
        for _ in range(spec.hyper.inner_z_iters):
            z = _old_sweep(state, spec)
            if not settled:
                sweeps += 1
                settled = z[n_s:].tobytes() == state.z[n_s:].tobytes()
                moved += not settled
            state = replace(state, z=z)
            trace.append(_both_flavors(state, spec))
        means = _old_mu(state, spec)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        trace.append(_both_flavors(state, spec))
        state = replace(state, gmm=GmmParams(means, _old_sigma(state, spec)))
        trace.append(_both_flavors(state, spec))
    return state, trace, sweeps, moved


def _assert_run_matches_reference(spec, monkeypatch):
    """run(), traced and untraced, against ``_reference_run``, bit for bit;
    returns the sweeps each run made and the sweeps scheduled. The traced
    run evaluates the objective once per row but those of a sweep that
    settles and of the sweeps it skips, whose rows repeat the one before
    them. The reference sweeps every class, so run takes its dense path
    throughout."""
    monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
    want, want_trace, want_sweeps, want_moved = _reference_run(spec)
    want_bytes = np.array(want_trace).tobytes()
    calls = _count_calls(monkeypatch, "z_step")
    evaluations = _count_calls(monkeypatch, "_objective_terms")
    # the untraced run must not depend on the objective calls' caching
    for record_trace in (False, True):
        calls.clear()
        _, got = run(spec, record_trace=record_trace)
        assert got.z.tobytes() == want.z.tobytes()
        assert got.gmm.means.tobytes() == want.gmm.means.tobytes()
        assert got.gmm.variances.tobytes() == want.gmm.variances.tobytes()
        rows = [(row.normalized, row.update_consistent) for row in got.trace]
        assert np.array(rows).tobytes() == (want_bytes if record_trace else b"")
        assert len(calls) == want_sweeps
    assert len(evaluations) == 1 + want_moved + 2 * spec.hyper.outer_iters
    # a skipped sweep's row is the row before it, the same object
    scheduled = spec.hyper.outer_iters * spec.hyper.inner_z_iters
    repeats = sum(a is b for a, b in zip(got.trace, got.trace[1:]))
    assert repeats == scheduled - want_sweeps
    return want_sweeps, scheduled


class TestSameBits:
    """run() ends an outer iteration's sweeps at one whose query rows have
    the bits of its input; _same_bits compares them in row blocks."""

    def test_equal_arrays(self, rng):
        a = rng.standard_normal((7, 3))
        assert solver._same_bits(a, a.copy())

    def test_signed_zeros_differ(self):
        a = np.zeros((2, 3))
        b = a.copy()
        b[1, 2] = -0.0
        assert a.tolist() == b.tolist() and not solver._same_bits(a, b)

    @pytest.mark.parametrize("rows", [9, 10])
    def test_difference_in_the_last_block_is_found(self, rng, monkeypatch, rows):
        # blocks of 2 rows; a last block of one row or of two
        monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", 2 * 8 * 3)
        a = rng.standard_normal((rows, 3))
        b = a.copy()
        b[-1, 1] = np.nextafter(b[-1, 1], np.inf)
        assert not solver._same_bits(a, b)
        assert solver._same_bits(a[:-1], b[:-1])


# tasks whose sweeps settle from a few outer iterations on, with the graph,
# the prior and, few-shot, the support rows, by test id
_SETTLING = {
    # every sweep of one class returns the all-ones input
    "single-class": lambda: random_task(np.random.default_rng(900), n_query=20, n_classes=1,
                                        dim=5),
    "zero-shot": lambda: generate_task(n_classes=20, dim=39, n_query_per_class=2, class_sep=3.3,
                                       prototype_noise=0.06, temperature=49.0, seed=9037).spec,
    "few-shot": lambda: generate_task(n_classes=6, dim=47, n_query_per_class=3,
                                      shots_per_class=1, class_sep=2.6, prototype_noise=0.8,
                                      temperature=38.0, seed=9018).spec.with_hyper(
                                          support_weight=0.2),
}


class TestCachedBlocks:
    """run() builds the sweep-invariant logits once per outer iteration and
    hands one moments pass to both the mean and the variance update; its
    results must equal, bit for bit, a loop that recomputes both on every
    call."""

    @pytest.mark.parametrize(
        "shots, hyper",
        [
            (0, {}),
            (0, {"outer_iters": 0}),
            (0, {"inner_z_iters": 0}),
            (0, {"k_nn": 0}),
            (0, {"kl_weight": 0.0, "outer_iters": 3}),
            (2, {"support_weight": 0.0, "kl_weight": 0.5}),
            (3, {"support_weight": 0.2, "kl_weight": 0.5}),
            (2, {"support_weight": 0.01, "k_nn": 0, "inner_z_iters": 0}),
            (1, {"support_weight": 0.1, "outer_iters": 0}),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_matches_uncached_loop(self, seed, shots, hyper, monkeypatch):
        r = np.random.default_rng(900 + seed)
        spec = random_task(r, n_query=int(r.integers(15, 60)), n_classes=int(r.integers(2, 7)),
                           dim=int(r.integers(3, 12)), shots_per_class=shots, **hyper)
        _assert_run_matches_reference(spec, monkeypatch)

    @pytest.mark.parametrize("name", list(_SETTLING))
    def test_run_matches_uncached_loop_when_sweeps_settle(self, name, monkeypatch):
        # run() skips the sweeps after one that returns its input; the
        # reference runs them all and must still agree bit for bit
        made, scheduled = _assert_run_matches_reference(_SETTLING[name](), monkeypatch)
        assert made < scheduled

    @pytest.mark.parametrize(
        "name, candidates, pair_moments",
        [
            ("single-class", False, False),
            ("zero-shot", True, False),
            ("few-shot", False, False),
            # no graph: each outer iteration's second sweep returns the first
            ("wide", True, True),
        ],
    )
    def test_default_run_when_sweeps_settle(self, name, candidates, pair_moments, monkeypatch):
        # the reference sweeps every class; at the default share a solve may
        # sweep the candidates and sum the moments over them. Its sweeps
        # settle all the same, the trace leaves them as they were, every
        # moments pass is that of the z it reads, and the solve tracks the
        # dense one
        spec = (_SETTLING[name]() if name in _SETTLING
                else _wide_task().spec.with_hyper(k_nn=0))
        kinds = _base_kinds(monkeypatch)
        calls = _count_calls(monkeypatch, "z_step")
        took_pairs = _count_calls(monkeypatch, "_pair_first_moments")
        original = solver._group_moments

        def checked(state, spec):
            got = original(state, spec)
            want = _old_moments(solver._dense_z(state), state.features, state.n_support,
                                spec.hyper.support_weight)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
            return got

        monkeypatch.setattr(solver, "_group_moments", checked)
        solves = []
        for record_trace in (False, True):
            calls.clear()
            solves.append((*run(spec, record_trace=record_trace), len(calls)))
        (got, state, made), (_, traced, traced_made) = solves
        scheduled = spec.hyper.outer_iters * spec.hyper.inner_z_iters
        assert made == traced_made < scheduled
        for part in (lambda s: s.z, lambda s: s.gmm.means, lambda s: s.gmm.variances):
            assert part(traced).tobytes() == part(state).tobytes()
        repeats = sum(a is b for a, b in zip(traced.trace, traced.trace[1:]))
        assert repeats == scheduled - made
        assert any(kinds) == candidates and bool(took_pairs) == pair_moments

        monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
        want, dense = run(spec)
        assert np.array_equal(hard_predict(got), hard_predict(want))
        if candidates:
            assert np.abs(state.z - dense.z).max() <= 1e-12
        else:
            assert state.z.tobytes() == dense.z.tobytes()

    @pytest.mark.parametrize("shots", [0, 2])
    def test_solves_start_from_the_prepared_state(self, rng, shots):
        # the initial state is the first iterate of every solve: frozen, so
        # a solve steps away from it and leaves it, trace included, as it was
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1)
        prepared = init_state(spec)
        z0, gmm0 = prepared.z, prepared.gmm
        with pytest.raises(FrozenInstanceError):
            prepared.z = z0
        _, state = run(spec, record_trace=True, prepared=prepared)
        assert state.trace and prepared.trace == ()
        assert prepared.z is z0 and prepared.gmm is gmm0
        for name in ("graph", "features", "task"):
            assert getattr(state, name) is getattr(prepared, name)

    def test_sigma_step_reuses_the_mean_step_pass(self, rng, monkeypatch):
        # one moments pass per outer iteration serves both updates
        calls = _count_calls(monkeypatch, "_group_moments")
        run(random_task(rng, n_query=20, n_classes=3, dim=5, outer_iters=4))
        assert len(calls) == 4


def _wide_task(class_sep=12.0, prototype_noise=0.6, **kwargs):
    """200 classes of 4 queries in 64 dimensions, as ``transduct synth
    --classes 200 --dim 64 --per-class 4 --class-sep 12 --seed 6``: from
    its second outer iteration on, few classes can matter to a row."""
    return generate_task(n_classes=200, dim=64, n_query_per_class=4, class_sep=class_sep,
                         prototype_noise=prototype_noise, seed=6, **kwargs)


def _base_kinds(monkeypatch):
    """Patch ``solver._base_logits`` to note whether each outer iteration
    took the candidates; returns the list of notes."""
    kinds = []
    original = solver._base_logits

    def noting(*args):
        base = original(*args)
        kinds.append(isinstance(base, solver.PairValues))
        return base

    monkeypatch.setattr(solver, "_base_logits", noting)
    return kinds


def _peak_task(temperature=100.0):
    """2000 queries over 1000 classes in 32 dimensions: N x K is far above d
    and the fixed byte budgets of the screen and the pair dots. At tau 100
    every outer iteration takes the candidates, at tau 30 all but the first."""
    return generate_task(n_classes=1000, dim=32, n_query_per_class=2, class_sep=12.0,
                         prototype_noise=0.3, temperature=temperature, seed=6).spec


def _dense_loop(spec, record_trace):
    """run() as a loop that makes a dense z of every sweep: a candidate
    sweep's pair values are scattered into zeros at once, the settle check
    compares dense query rows, and the moments read the pairs of the last
    sweep that moved, where they are few, from that dense z. Returns the
    final state and the trace rows, each evaluated afresh."""
    state = init_state(spec)
    n_s = state.n_support
    log_prior = (log_soft_labels(spec.query, spec.text, spec.temperature)
                 if record_trace and spec.hyper.kl_weight else None)
    trace = []

    def record():
        if record_trace:
            log_p = gmm_log_probs(state.features, state.gmm)
            trace.append(solver._objective_terms(state, spec, log_p, log_prior))

    record()
    z_pairs = None
    for _ in range(spec.hyper.outer_iters):
        base = (solver._base_logits(state, spec, solver._reach(state))
                if spec.hyper.inner_z_iters else None)
        settled = False
        for _ in range(spec.hyper.inner_z_iters):
            if not settled:
                z = solver._dense_z(replace(state, z=z_step(state, spec, base)))
                settled = z[n_s:].tobytes() == state.z[n_s:].tobytes()
                if not settled:
                    state = replace(state, z=z)
                    z_pairs = base.pairs if isinstance(base, solver.PairValues) else None
            record()
        iterate = state
        if (z_pairs is not None
                and z_pairs.rows.size * solver._PAIR_SHARE <= state.n_query * spec.n_classes):
            values = state.z[n_s:][z_pairs.rows, z_pairs.cols]
            iterate = replace(state, z=solver.PairValues(z_pairs, values))
        moments = solver._group_moments(iterate, spec)
        means = mu_step(state, spec, moments)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        record()
        state = replace(state, gmm=GmmParams(means, sigma_step(state, spec, moments)))
        record()
    return state, trace


class TestCandidates:
    """An outer iteration whose candidate classes are few sweeps them alone
    and sets every other query entry to 0, which the bound certifies below
    _CANDIDATE_EPS times its row's largest; the moments then sum over the
    candidate pairs. Other outer iterations keep the dense path and its
    bytes."""

    @pytest.mark.parametrize("outer, share", [(0, 1), (1, None), (3, None)])
    def test_candidate_sweep_certifies_what_it_zeroes(self, monkeypatch, outer, share):
        # share 1 takes the candidates whatever their count
        if share is not None:
            monkeypatch.setattr(solver, "_DENSE_SHARE", share)
        spec = _wide_task().spec
        state = run(spec.with_hyper(outer_iters=outer))[1] if outer else init_state(spec)
        candidates = solver._base_logits(state, spec, solver._reach(state))
        assert isinstance(candidates, solver.PairValues)
        monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
        dense = solver._base_logits(state, spec, solver._reach(state))
        assert isinstance(dense, np.ndarray)

        n_s = state.n_support
        got = solver._dense_z(replace(state, z=z_step(state, spec, candidates)))[n_s:]
        want = z_step(state, spec, dense)[n_s:]
        zeroed = got == 0.0
        assert zeroed.any()
        bound = np.broadcast_to(solver._CANDIDATE_EPS * want.max(axis=1, keepdims=True), want.shape)
        assert np.all(want[zeroed] < bound[zeroed])
        assert np.abs(got - want)[~zeroed].max() <= 1e-12
        assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))

    @pytest.mark.parametrize("block_rows", [None, 3])
    @pytest.mark.parametrize("shots", [0, 1])
    def test_pair_moments_match_the_dense_product(self, monkeypatch, shots, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(solver, "_PAIR_BYTES", block_rows * 8 * 64)
        spec = _wide_task(shots_per_class=shots).spec.with_hyper(support_weight=0.2, outer_iters=4)
        # the states of the solve's moments passes, each holding the query
        # rows of z on pairs, and the states the mean steps see: the last is
        # the final, dense one
        passes, steps = [], []
        original, mean_step = solver._group_moments, solver.mu_step
        monkeypatch.setattr(solver, "_group_moments",
                            lambda *args: passes.append(args) or original(*args))
        monkeypatch.setattr(solver, "mu_step",
                            lambda *args: steps.append(args[0]) or mean_step(*args))
        _, final = run(spec)
        for state, _ in passes[-2:]:
            assert isinstance(state.z, solver.PairValues)
            assert state.z.pairs.rows.size * solver._PAIR_SHARE <= state.n_query * spec.n_classes
            got = original(state, spec)
            want = original(replace(state, z=solver._dense_z(state)), spec)
            for g, w in zip(got, want):
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
        # the last moments pass read the pairs of the final z
        state, _ = passes[-1]
        assert steps[-1].z is final.z
        assert solver._dense_z(state).tobytes() == final.z.tobytes()

    @pytest.mark.parametrize("shots", [0, 4])
    def test_dense_tasks_keep_their_bytes(self, monkeypatch, shots):
        # the seed-7 task: every outer iteration keeps more than an eighth of
        # the entries, so the solve is the forced-dense one bit for bit
        spec = generate_task(n_classes=10, dim=32, n_query_per_class=200, class_sep=3.0,
                             prototype_noise=0.6, temperature=30.0, seed=7,
                             shots_per_class=shots).spec.with_hyper(support_weight=0.2)
        kinds = _base_kinds(monkeypatch)
        _, got = run(spec)
        assert kinds and not any(kinds)
        monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
        _, want = run(spec)
        assert got.z.tobytes() == want.z.tobytes()
        assert got.gmm.means.tobytes() == want.gmm.means.tobytes()
        assert got.gmm.variances.tobytes() == want.gmm.variances.tobytes()

    def test_wide_task_tracks_the_dense_solve(self, monkeypatch):
        kinds = _base_kinds(monkeypatch)
        spec = _wide_task().spec
        got, state = run(spec)
        assert kinds.count(True) >= 8 and kinds[-1]
        # the trace reads the state and leaves the sweeps as they were
        traced, _ = run(spec, record_trace=True)
        assert traced.z.tobytes() == got.z.tobytes()
        monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
        want, _ = run(spec)
        assert np.array_equal(hard_predict(got), hard_predict(want))
        assert np.abs(got.z - want.z).max() <= 1e-12

    def test_saturated_task_holds_no_subnormal(self, monkeypatch):
        # class_sep 24: the dense sweeps leave thousands of subnormal
        # entries; a kept candidate entry is at least eps * exp(-2 D_i) / K
        kinds = _base_kinds(monkeypatch)
        _, state = run(_wide_task(class_sep=24.0, prototype_noise=0.15).spec)
        z = state.z[state.n_support :]
        assert kinds[-1]
        assert not np.any((z > 0.0) & (z < np.finfo(np.float64).tiny))
        assert np.count_nonzero(z == 0.0) > 0.99 * z.size

    def test_candidate_solve_peak_in_n_by_k_arrays(self, monkeypatch):
        # as test_run_peak_in_n_by_k_arrays, on a task whose outer iterations
        # all take the candidates; K >> d, and N x K far above the fixed byte
        # budgets of the screen and the pair dots. No outer iteration holds a
        # dense base or a dense z beside its pairs: the peak is one dense z,
        # built for a moments pass or for the final state, plus the pairs
        kinds = _base_kinds(monkeypatch)
        assert self._peak_above_prepared(_peak_task(), kinds, dense=()) <= 1.5

    def test_dense_first_round_sets_the_peak(self, monkeypatch):
        # at tau 30 the same task's first outer iteration is dense: it holds z,
        # the new z and the base logits, and the candidate rounds stay below
        kinds = _base_kinds(monkeypatch)
        assert self._peak_above_prepared(_peak_task(30.0), kinds, dense=(0,)) <= 3.25

    def test_dense_rounds_after_candidate_rounds_keep_the_peak(self, monkeypatch):
        # the same task with every even outer iteration made dense, and at
        # tau 100 with every odd one: each dense round after the first follows
        # a candidate round and makes the iterate's pairs a dense z once,
        # before its first sweep, which holds that z, the new z and the base
        # logits, within the dense-first round's bound. Every sweep handed
        # dense base logits reads a dense z
        sweep, dense_reads = solver.z_step, []

        def checked(state, spec, base):
            if isinstance(base, np.ndarray):
                dense_reads.append(isinstance(state.z, np.ndarray))
            return sweep(state, spec, base)

        monkeypatch.setattr(solver, "z_step", checked)
        for tau, dense in ((30.0, range(0, 10, 2)), (100.0, range(1, 10, 2))):
            with monkeypatch.context() as m:
                kinds = _base_kinds(m)
                noting = solver._base_logits

                def alternating(*args):
                    if len(kinds) not in dense:
                        return noting(*args)
                    with monkeypatch.context() as forced:
                        forced.setattr(solver, "_DENSE_SHARE", 10**9)
                        return noting(*args)

                m.setattr(solver, "_base_logits", alternating)
                assert self._peak_above_prepared(_peak_task(tau), kinds, dense) <= 3.25
        assert dense_reads and all(dense_reads)

    @staticmethod
    def _peak_above_prepared(spec, kinds, dense):
        """A solve's tracemalloc peak above its prepared state, in N x K
        arrays, having checked that the outer iterations in ``dense``, and
        only those, took the dense path, as noted in ``kinds``, and that the
        final state holds about one N x K array."""
        prepared = init_state(spec)
        one = spec.query.n_rows * spec.n_classes * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, state = run(spec, prepared=prepared)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [not k for k in kinds] == [i in dense for i in range(spec.hyper.outer_iters)]
        assert held - base <= 1.1 * one
        return (peak - base) / one

    def test_candidate_solve_peak_with_init_state(self, monkeypatch):
        # init_state included: the soft labels are z0, ranked for the initial
        # means a column block at a time, and z0 is dropped once the first
        # candidate sweep has read it
        kinds = _base_kinds(monkeypatch)
        spec = _peak_task()
        one = spec.query.n_rows * spec.n_classes * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, state = run(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(kinds)
        assert peak - base <= 2.25 * one
        assert held - base <= 1.1 * one

    @pytest.mark.parametrize("kind", ["zero-shot", "few-shot", "no graph", "symmetrized",
                                      "alternating"])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_held_pairs_give_the_dense_loop_bytes(self, monkeypatch, kind, record_trace):
        # run holds a candidate round's iterate on its pairs; the loop below
        # makes a dense z of every sweep instead, settles on dense rows and
        # reads the moments' pairs from the dense z, and its bytes, trace
        # included, must be run's
        spec = _wide_task(shots_per_class=1 if kind == "few-shot" else 0).spec
        spec = spec.with_hyper(**{"few-shot": {"support_weight": 0.2}, "no graph": {"k_nn": 0},
                                  "symmetrized": {"symmetrize_graph": True}}.get(kind, {}))
        kinds = _base_kinds(monkeypatch)
        if kind == "alternating":
            # every second outer iteration takes the dense path: its first
            # sweep reads a dense z built from the held pairs and settles
            # against them, and the next round screens its dense base first
            noting = solver._base_logits

            def alternating(*args):
                if len(kinds) % 2 == 0:
                    return noting(*args)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_DENSE_SHARE", 10**9)
                    return noting(*args)

            monkeypatch.setattr(solver, "_base_logits", alternating)
        got = run(spec, record_trace)[1]
        assert kinds.count(True) >= 4
        kinds.clear()
        want, want_trace = _dense_loop(spec, record_trace)
        for part in (lambda s: s.z, lambda s: s.gmm.means, lambda s: s.gmm.variances):
            assert part(got).tobytes() == part(want).tobytes()
        rows = [(row.normalized, row.update_consistent) for row in got.trace]
        assert np.array(rows).tobytes() == np.array(want_trace).tobytes()
        assert len(rows) == (1 + spec.hyper.outer_iters * (spec.hyper.inner_z_iters + 2)
                             if record_trace else 0)

    def test_grid_search_leaves_the_prepared_state(self, monkeypatch):
        # the search's solves share one prepared state and drop its z for
        # their pairs: it keeps its bits, so a solve from it after the search
        # repeats the search's winning run
        kinds = _base_kinds(monkeypatch)
        task = _wide_task(shots_per_class=1, n_validation_per_class=1)
        spec = task.spec.with_hyper(kl_weight=0.5)
        prepared = init_state(spec)
        z0 = prepared.z.tobytes()
        gamma, _, (_, best) = search_gamma(spec, task.validation, prepared=prepared)
        assert any(kinds)
        assert prepared.z.tobytes() == z0
        _, again = run(spec.with_hyper(support_weight=gamma), prepared=prepared)
        assert again.z.tobytes() == best.z.tobytes()

    def test_settle_check_reads_pairs_as_the_dense_rows(self):
        # pair values equal pair values when, as dense query rows, they have
        # the same bits: equal at the pairs and +0.0 off them
        spec = _wide_task().spec
        state = run(spec.with_hyper(outer_iters=1))[1]
        new = z_step(state, spec, solver._base_logits(state, spec, solver._reach(state)))
        pairs = new.pairs
        dense = solver._dense_z(replace(state, z=new))
        extra = next(k for k in range(spec.n_classes) if k not in pairs.cols[pairs.rows == 0])
        # pairs against a dense iterate, either way round, are never the
        # same, not even against the dense rows of the same bits
        for same in (lambda a, b: solver._same_query_rows(a, b, 0),
                     lambda a, b: solver._same_query_rows(b, a, 0)):
            assert not same(new, dense)
            assert not same(new, state.z)
        # on the same pairs the values are compared bit for bit
        assert solver._same_query_rows(new, solver.PairValues(pairs, new.values.copy()), 0)
        for changed in (np.nextafter(new.values[0], 1.0), -0.0):
            values = new.values.copy()
            values[0] = changed
            assert not solver._same_query_rows(new, solver.PairValues(pairs, values), 0)
        # on other pairs, a pair of value 0 is no change, but any other value is
        keys = np.union1d(pairs.keys, [extra])
        rows, cols = np.divmod(keys, spec.n_classes)
        other = solver.Candidates(rows, cols, pairs.starts, keys)
        values = np.zeros(keys.size)
        values[np.searchsorted(keys, pairs.keys)] = new.values
        assert solver._same_query_rows(new, solver.PairValues(other, values), 0)
        values[np.searchsorted(keys, extra)] = 1e-300
        assert not solver._same_query_rows(new, solver.PairValues(other, values), 0)


def _bound_checks(monkeypatch):
    """Patch ``solver._base_logits`` so that every call given the last
    round's bound is compared with the full screen it stands for, the same
    call with the bound's ``upper`` at +inf: the same kind of base, and
    dense logits or candidate keys and values with the same bits. The bound
    each candidate round returns is checked against the round's dense
    logits: ``upper`` lies above every class outside the pairs. Returns
    one [query rows the call's GEMMs took, whether it had a bound, whether
    it took the candidates] per call; the full screens' GEMMs are not
    counted."""
    calls = []
    original, gemm = solver._base_logits, solver._gemm_rows

    def counting(rows, weights, bias):
        calls[-1][0] += rows.shape[0]
        return gemm(rows, weights, bias)

    def checked(state, spec, reach, dense_first=False):
        last = state.screen
        calls.append([0, last is not None, False])
        got = original(state, spec, reach, dense_first)
        calls[-1][2] = isinstance(got, solver.PairValues)
        if calls[-1][2]:
            new = got.bound
            weights, bias = solver._base_terms(new.gmm, spec)
            dense = state.features[state.n_support :] @ weights.T + bias
            dense[got.pairs.rows, got.pairs.cols] = -np.inf
            assert np.all(dense.max(axis=1) <= new.upper + 1e-12 * new.size)
        if last is not None:
            taken = calls[-1][0]
            bound = last.bound
            unbounded = replace(bound, upper=np.full(bound.upper.shape, np.inf))
            full = original(replace(state, screen=replace(last, bound=unbounded)), spec, reach,
                            dense_first)
            calls[-1][0] = taken
            assert type(got) is type(full)
            if isinstance(got, np.ndarray):
                assert got.tobytes() == full.tobytes()
            else:
                assert got.pairs.keys.tobytes() == full.pairs.keys.tobytes()
                assert got.values.tobytes() == full.values.tobytes()
        return got

    monkeypatch.setattr(solver, "_gemm_rows", counting)
    monkeypatch.setattr(solver, "_base_logits", checked)
    return calls


class TestDriftBound:
    """A candidate round hands the next a bound on the base logits of the
    classes it left out; the next round keeps a row's pairs as its screen,
    without the row's GEMM, where the bound plus the largest class drift
    stays below the row's cut. The candidates are then those of a full
    screen, bit for bit."""

    @pytest.mark.parametrize("kind", ["zero-shot", "few-shot", "symmetrized", "no graph",
                                      "alternating"])
    def test_bound_screen_gives_the_full_screen(self, monkeypatch, kind):
        spec = _wide_task(shots_per_class=1 if kind == "few-shot" else 0).spec
        spec = spec.with_hyper(**{"few-shot": {"support_weight": 0.2}, "no graph": {"k_nn": 0},
                                  "symmetrized": {"symmetrize_graph": True}}.get(kind, {}))
        calls = _bound_checks(monkeypatch)
        if kind == "alternating":
            # every second outer iteration is made dense, one given a bound
            # among them: it drops the bound, and the next screens every row
            checked = solver._base_logits

            def alternating(*args):
                if len(calls) % 2 == 0:
                    return checked(*args)
                with monkeypatch.context() as m:
                    m.setattr(solver, "_DENSE_SHARE", 10**9)
                    return checked(*args)

            monkeypatch.setattr(solver, "_base_logits", alternating)
        run(spec)
        _, bounded, took = zip(*calls)
        # a round has a bound exactly when the round before took the candidates
        assert bounded == (False,) + took[:-1]
        assert sum(bounded) >= 4
        n = spec.query.n_rows
        if kind == "alternating":
            assert not any(b and t for b, t in zip(bounded, took))
        else:
            # on this task a few classes keep moving, but some bound round
            # still keeps rows from the GEMM
            assert any(rows < n for rows, b, _ in calls if b)

    @pytest.mark.parametrize("kind", ["few-shot", "saturated"])
    def test_later_rounds_skip_the_gemm(self, monkeypatch, kind):
        # from the fifth outer iteration on, the largest class drift is far
        # below every row's slack, so at most 1 % of the rows are computed
        spec = (_wide_task(shots_per_class=1).spec.with_hyper(support_weight=0.2)
                if kind == "few-shot" else _wide_task(class_sep=24.0, prototype_noise=0.15).spec)
        calls = _bound_checks(monkeypatch)
        run(spec)
        assert len(calls) == spec.hyper.outer_iters
        assert all(b and rows <= 0.01 * spec.query.n_rows for rows, b, _ in calls[4:])

    def test_a_moved_class_is_screened_again(self, monkeypatch):
        # the fifth mean step puts one class's mean on another's: the drift
        # bound fails, the next round screens every row, and the moved class
        # enters rows that had left it out; the pairs are still the full
        # screen's
        spec = _wide_task(shots_per_class=1).spec.with_hyper(support_weight=0.2)
        moved, onto = 3, 4
        steps = []
        original = solver.mu_step

        def moving(state, spec, moments):
            means = original(state, spec, moments)
            steps.append(None)
            if len(steps) == 5:
                means = means.copy()
                means[moved] = means[onto]
                means.setflags(write=False)
            return means

        monkeypatch.setattr(solver, "mu_step", moving)
        calls = _bound_checks(monkeypatch)
        bases = []
        checked = solver._base_logits
        monkeypatch.setattr(solver, "_base_logits",
                            lambda *args: bases.append(checked(*args)) or bases[-1])
        run(spec)
        assert calls[4][0] == 0 and calls[5][1] and calls[5][0] == spec.query.n_rows
        before, after = (base.pairs for base in bases[4:6])
        gained = np.setdiff1d(after.keys, before.keys)
        assert np.any(gained % spec.n_classes == moved)

    def test_dense_first_screen_leaves_the_dense_logits(self, monkeypatch):
        # one-row screen blocks: the screen marks each block's kept entries
        # while it takes the row maxima of the rest, so it must mark copies,
        # and leave the dense logits of the blocks it passed before the count
        # ran over
        spec = generate_task(n_classes=10, dim=32, n_query_per_class=200, class_sep=3.0,
                             prototype_noise=0.6, temperature=30.0, seed=7).spec
        state = init_state(spec)
        monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", 8 * spec.n_classes)
        reach = solver._reach(state)
        got = solver._base_logits(state, spec, reach, True)
        assert isinstance(got, np.ndarray)
        monkeypatch.setattr(solver, "_DENSE_SHARE", 10**9)
        assert got.tobytes() == solver._base_logits(state, spec, reach, True).tobytes()

    @pytest.mark.parametrize("known", [False, True])
    def test_candidate_cut_raises_the_bound(self, rng, known):
        # the entries the einsum cut leaves out raise their row's bound to
        # their logits, also where they come with their logits known
        features, weights = unit_rows(rng, 4, 6), 10.0 * unit_rows(rng, 5, 6)
        bias, reach = np.zeros(5), np.full(4, 1.0)
        logits = np.einsum("ik,jk->ij", features, weights)
        upper = np.full(4, -100.0)
        flat, given = np.arange(20), None
        if known:
            # rows 1 and 3 come with their logits
            mine = np.isin(flat // 5, [1, 3])
            flat, given = flat[~mine], (flat[mine], logits.reshape(-1)[mine])
        base = solver._candidates(features, weights, bias, reach, flat, upper, given)
        cut = logits < logits.max(axis=1, keepdims=True) - 1.0
        assert np.array_equal(base.pairs.keys, np.flatnonzero(~cut))
        assert base.values.tobytes() == logits[~cut].tobytes()
        want = np.where(cut, logits, -100.0).max(axis=1)
        np.testing.assert_allclose(upper, want, rtol=1e-12)


def _same_solve(got, want):
    """Whether two final states hold the same bits, trace rows included."""
    parts = (lambda s: s.z, lambda s: s.gmm.means, lambda s: s.gmm.variances)
    return (all(part(got).tobytes() == part(want).tobytes() for part in parts)
            and [astuple(row) for row in got.trace] == [astuple(row) for row in want.trace])


class TestFirstRound:
    """A ``FirstRound`` holds outer iteration 1 of a task's solves up to its
    mean step; an untraced solve whose spec differs from the record's in
    its support weight alone goes on from it, with the bits of a solve from
    the initial state, and any other solve starts from that state."""

    @pytest.mark.parametrize("hyper, sweeps", [
        ({}, None),
        # no graph: the first round's second sweep returns the first
        ({"k_nn": 0}, 2),
        ({"inner_z_iters": 0}, 0),
        ({"outer_iters": 0}, None),
        ({"outer_iters": 1}, None),
    ])
    def test_solves_from_the_record_are_fresh_solves(self, monkeypatch, hyper, sweeps):
        spec = _wide_task(prototype_noise=0.15, shots_per_class=1).spec.with_hyper(**hyper)
        prepared = init_state(spec)
        calls = _count_calls(monkeypatch, "z_step")
        record = solver.first_round(prepared, spec)
        assert sweeps is None or len(calls) == sweeps
        # the round swept candidate pairs and, with a round after it, handed
        # its bound on
        assert (isinstance(record.state.z, solver.PairValues)
                == bool(spec.hyper.inner_z_iters))
        assert (record.state.screen is not None) == (bool(spec.hyper.inner_z_iters)
                                                     and spec.hyper.outer_iters > 1)
        for gamma in (0.0, 0.01, 0.2):
            other = spec.with_hyper(support_weight=gamma)
            _, got = run(other, prepared=record)
            _, want = run(other)
            assert _same_solve(got, want)
            assert got.graph is prepared.graph

    @pytest.mark.parametrize("change, record_trace", [
        (dict(kl_weight=0.5), False),
        (dict(inner_z_iters=2), False),
        (dict(outer_iters=3), False),
        ({}, True),
    ])
    def test_record_is_ignored_for_other_solves(self, monkeypatch, change, record_trace):
        # such a solve makes every sweep of a solve from the initial state,
        # its first round's included, and has its bits
        spec = _wide_task(prototype_noise=0.15, shots_per_class=1).spec
        prepared = init_state(spec)
        record = solver.first_round(prepared, spec)
        other = spec.with_hyper(support_weight=0.2, **change)
        calls = _count_calls(monkeypatch, "z_step")
        _, got = run(other, record_trace=record_trace, prepared=record)
        made = len(calls)
        calls.clear()
        _, want = run(other, record_trace=record_trace, prepared=prepared)
        assert made == len(calls)
        assert _same_solve(got, want) and bool(got.trace) == record_trace

    def test_record_of_another_task_is_rejected(self, rng):
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=2)
        record = solver.first_round(init_state(spec), spec)
        with pytest.raises(ValueError, match="different task"):
            run(spec.with_hyper(k_nn=2), prepared=record)
        with pytest.raises(ValueError, match="different task"):
            solver.first_round(record.prepared, spec.with_hyper(k_nn=2))

    def test_record_leaves_its_arrays(self):
        # the candidates share the record: its iterate is frozen and its
        # query sums are read-only
        spec = _wide_task(prototype_noise=0.15, shots_per_class=1).spec
        record = solver.first_round(init_state(spec), spec)
        z = record.state.z
        values = z.values.tobytes()
        run(spec.with_hyper(support_weight=0.2), prepared=record)
        assert record.state.z is z and z.values.tobytes() == values
        assert not z.values.flags.writeable
        assert not any(part.flags.writeable for part in record.query_sums)
