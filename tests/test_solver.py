import tracemalloc
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from transduct import solver
from transduct.solver import (
    PRIOR_LOG_FLOOR,
    gmm_log_probs,
    init_state,
    mu_step,
    objective,
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
from transduct.synth import generate_task
from transduct.zeroshot import compute_soft_labels, hard_predict
from helpers import random_task, row_softmax, unit_rows
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
    return z_step(state, spec, solver._base_logits(state, spec))


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
        assert len(seen) == 50
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
        assert len(state.objective_trace) == 71

    def test_deterministic_across_runs_and_threads(self, rng):
        spec = random_task(rng, n_query=60, n_classes=6, dim=12)
        a1, s1 = run(spec, record_trace=True)
        a2, s2 = run(spec, record_trace=True)
        assert a1.z.tobytes() == a2.z.tobytes()
        assert s1.objective_trace == s2.objective_trace

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

    def test_small_blocks_cover_every_row(self, rng, monkeypatch):
        feats = unit_rows(rng, 50, 6)
        gmm = GmmParams(unit_rows(rng, 4, 6), rng.uniform(0.5, 2.0, size=6))
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        got = gmm_log_probs(feats, gmm)
        diff = feats[:, None, :] - gmm.means[None, :, :]
        want = -0.5 * (np.log(gmm.variances).sum() + (diff**2 / gmm.variances).sum(axis=2))
        assert got.shape == (50, 4)
        assert np.abs(got - want).max() <= 1e-12
        # the in-place arithmetic is the expanded formula, bit for bit, with
        # the squared norms of a whole block in one einsum
        inv_var = 1.0 / gmm.variances
        scaled = gmm.means * inv_var
        mean_sq = np.einsum("kd,kd->k", gmm.means, scaled)
        for lo in range(0, 50, 7):
            block = feats[lo : lo + 7]
            feat_sq = np.einsum("nd,d->n", block * block, inv_var)
            expanded = -0.5 * (float(np.log(gmm.variances).sum()) + feat_sq[:, None]
                               - 2.0 * (block @ scaled.T) + mean_sq[None, :])
            assert got[lo : lo + 7].tobytes() == expanded.tobytes()
        # squared norms taken in sub-blocks of 1, 2 and 3 rows, which split
        # the 7-row blocks unevenly, give the same bits
        for sub_rows in (1, 2, 3):
            monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", sub_rows * 8 * 6)
            assert gmm_log_probs(feats, gmm).tobytes() == got.tobytes()

    def test_small_blocks_give_the_same_run(self, rng, monkeypatch):
        spec = random_task(rng, n_query=50, n_classes=5, dim=8)
        want, _ = run(spec, record_trace=False)
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        got, _ = run(spec, record_trace=False)
        np.testing.assert_array_equal(hard_predict(got), hard_predict(want))
        assert np.abs(got.z - want.z).max() <= 1e-12


class TestMemory:
    """A solve holds its assignments, the new sweep and the base logits,
    builds the base logits in the query rows of one log-density output, and
    drops them before the mean step."""

    def test_run_peak_in_n_by_k_arrays(self, rng):
        # K >> d, so the N x d and K x d arrays are small beside N x K; above
        # the prepared arrays the peak is z, the sweep's new z and the base
        # logits being rebuilt, and the result is a view of the final z
        n, k = 2000, 400
        spec = random_task(rng, n_query=n, n_classes=k, dim=6, outer_iters=2)
        prepared = solver.prepare(spec)
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
        # at the moments pass only z is left above the prepared arrays: the
        # base logits the sweeps shared have been dropped
        n, k = 2000, 400
        spec = random_task(rng, n_query=n, n_classes=k, dim=6, outer_iters=2)
        prepared = solver.prepare(spec)
        seen = []
        group_moments = solver._group_moments

        def measuring(state, spec):
            seen.append(tracemalloc.get_traced_memory()[0])
            return group_moments(state, spec)

        monkeypatch.setattr(solver, "_group_moments", measuring)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(spec, prepared=prepared)
        finally:
            tracemalloc.stop()
        assert seen and max(seen) - base <= 1.1 * n * k * 8

    def test_untraced_run_keeps_no_log_densities(self, rng, monkeypatch):
        # one log-density pass per outer iteration builds the base logits,
        # none when no sweep reads them, and nothing else asks for them
        assert self._log_density_passes(rng, monkeypatch, record_trace=False) == 3
        assert self._log_density_passes(rng, monkeypatch, record_trace=False,
                                        inner_z_iters=0) == 0

    def test_traced_run_makes_one_pass_per_gmm(self, rng, monkeypatch):
        # beside the base logits, one pass for the initial gmm and one after
        # each mean and variance update serve every trace row
        assert self._log_density_passes(rng, monkeypatch, record_trace=True) == 1 + 3 * 3

    @staticmethod
    def _log_density_passes(rng, monkeypatch, record_trace, **hyper):
        calls = _count_calls(monkeypatch, "gmm_log_probs")
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=2,
                           support_weight=0.1, outer_iters=3, **hyper)
        run(spec, record_trace=record_trace)
        return len(calls)

    @pytest.mark.parametrize("kl_weight", [0.0, 0.5, 1.0])
    def test_base_logits_are_prior_plus_log_densities(self, rng, monkeypatch, kl_weight):
        # 12 support rows: the 7-row GEMM block over rows 7..13 straddles the
        # support/query boundary, and the prior is added in 3-row blocks
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=3,
                           support_weight=0.1, kl_weight=kl_weight)
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        monkeypatch.setattr(solver, "_ROW_BLOCK_BYTES", 3 * 8 * 4)
        state = init_state(spec)
        state = replace(state, z=_sweep(state, spec))
        state = replace(state, gmm=GmmParams(_mean_step(state, spec), state.gmm.variances))
        want = kl_weight * state.log_prior + gmm_log_probs(state.features, state.gmm)[12:]
        assert solver._base_logits(state, spec).tobytes() == want.tobytes()

    def test_fewshot_prepare_holds_the_soft_labels_once(self):
        # the soft labels are a view of z0's query rows, so the prepared
        # state holds z0 (support rows too) and the log prior: 2.2 N_q x K
        task = generate_task(n_classes=400, dim=8, n_query_per_class=5, shots_per_class=1,
                             seed=3)
        spec = task.spec
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            prepared = solver.prepare(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert prepared.soft_labels.z.base is prepared.z
        assert held - base <= 2.3 * spec.n_query * spec.n_classes * 8

    @pytest.mark.parametrize("shots", [0, 2])
    def test_graph_is_built_on_the_held_features(self, rng, monkeypatch, shots):
        seen = []
        build = solver.build_knn

        def spy(embeddings, k, symmetrize=False):
            seen.append(embeddings.data)
            return build(embeddings, k, symmetrize=symmetrize)

        monkeypatch.setattr(solver, "build_knn", spy)
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots)
        prepared = solver.prepare(spec)
        assert len(seen) == 1 and seen[0] is prepared.features
        if not shots:
            assert prepared.features is spec.query.data

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
    sq = (zq.sum(axis=1) @ (fq * fq)) / n_q
    if n_s and gamma > 0:
        zs, fs = z[:n_s], feats[:n_s]
        w = gamma / n_s
        mass = mass + w * zs.sum(axis=0)
        first = first + w * (zs.T @ fs)
        sq = sq + w * (zs.sum(axis=1) @ (fs * fs))
    return mass, first, sq


def _old_sweep(state, spec):
    """One assignment sweep with the logits rebuilt from scratch."""
    n_s, z = state.n_support, state.z
    log_prior = np.log(np.maximum(state.soft_labels.z, PRIOR_LOG_FLOOR))
    logits = (
        spec.hyper.kl_weight * log_prior
        + gmm_log_probs(state.features, state.gmm)[n_s:]
        + state.graph.propagate(z)[n_s:]
    )
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


def _reference_run(spec):
    """run() as a plain loop that caches nothing between block updates."""
    state = init_state(spec)
    trace = [objective(state, spec)]
    for _ in range(spec.hyper.outer_iters):
        for _ in range(spec.hyper.inner_z_iters):
            state = replace(state, z=_old_sweep(state, spec))
            trace.append(objective(state, spec))
        means = _old_mu(state, spec)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        trace.append(objective(state, spec))
        state = replace(state, gmm=GmmParams(means, _old_sigma(state, spec)))
        trace.append(objective(state, spec))
    return state, trace


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
    def test_run_matches_uncached_loop(self, seed, shots, hyper):
        r = np.random.default_rng(900 + seed)
        spec = random_task(r, n_query=int(r.integers(15, 60)), n_classes=int(r.integers(2, 7)),
                           dim=int(r.integers(3, 12)), shots_per_class=shots, **hyper)
        want, want_trace = _reference_run(spec)
        # the untraced run must not depend on the objective calls' caching
        for record_trace in (False, True):
            _, got = run(spec, record_trace=record_trace)
            assert got.z.tobytes() == want.z.tobytes()
            assert got.gmm.means.tobytes() == want.gmm.means.tobytes()
            assert got.gmm.variances.tobytes() == want.gmm.variances.tobytes()
            assert got.objective_trace == (want_trace if record_trace else [])

    def test_solves_share_the_prepared_log_prior(self, rng):
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=2)
        prepared = solver.prepare(spec)
        for gamma in (0.01, 0.2):
            _, state = run(spec.with_hyper(support_weight=gamma), prepared=prepared)
            assert state.log_prior is prepared.log_prior
        assert not prepared.log_prior.flags.writeable
        want = np.log(np.maximum(prepared.soft_labels.z, PRIOR_LOG_FLOOR))
        assert prepared.log_prior.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shots", [0, 2])
    def test_solves_start_from_the_prepared_state(self, rng, shots):
        # the prepared state is the first iterate of every solve: frozen, so
        # a solve steps away from it and leaves it, trace included, as it was
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1)
        prepared = solver.prepare(spec)
        z0, gmm0 = prepared.z, prepared.gmm
        assert init_state(spec, prepared) is prepared
        with pytest.raises(FrozenInstanceError):
            prepared.z = z0
        _, state = run(spec, record_trace=True, prepared=prepared)
        assert state.trace and prepared.trace == []
        assert prepared.z is z0 and prepared.gmm is gmm0
        for name in ("graph", "features", "log_prior", "soft_labels"):
            assert getattr(state, name) is getattr(prepared, name)

    def test_sigma_step_reuses_the_mean_step_pass(self, rng, monkeypatch):
        # one moments pass per outer iteration serves both updates
        calls = _count_calls(monkeypatch, "_group_moments")
        run(random_task(rng, n_query=20, n_classes=3, dim=5, outer_iters=4))
        assert len(calls) == 4
