from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.stats import norm

from transduct import solver
from transduct.solver import (
    PRIOR_LOG_FLOOR,
    SolverState,
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


class TestZStep:
    def test_uniform_density_and_no_graph_returns_prior(self, rng):
        spec = random_task(rng, n_query=6, n_classes=3, dim=4, k_nn=0)
        state = init_state(spec)
        # identical means and variances make the density constant over classes
        state.gmm = GmmParams(
            np.tile(state.gmm.means[:1], (3, 1)), state.gmm.variances
        )
        out = z_step(state, spec)
        np.testing.assert_allclose(out, state.soft_labels.z, atol=1e-12)

    def test_no_prior_and_no_graph_is_density_posterior(self, rng):
        spec = random_task(rng, n_query=6, n_classes=3, dim=4, k_nn=0, kl_weight=0.0)
        state = init_state(spec)
        out = z_step(state, spec)
        log_p = gmm_log_probs(spec.query, state.gmm)
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
            + gmm_log_probs(spec.query, state.gmm)[0]
            + neighbor_sum
        )
        got = z_step(state, spec)[query_node]
        pg = oracles.simplex_pg_minimize(a)
        np.testing.assert_allclose(got, pg, atol=1e-6)
        closed = np.exp(-a - (-a).max())
        closed /= closed.sum()
        np.testing.assert_allclose(got, closed, atol=1e-12)

    def test_support_rows_untouched(self, rng):
        spec, state = _single_query_state(rng)
        before = state.z[: spec.n_support].tobytes()
        out = z_step(state, spec)
        assert out[: spec.n_support].tobytes() == before

    def test_rows_stay_on_simplex(self, rng):
        spec = random_task(rng, n_query=40, n_classes=7, dim=9)
        state = init_state(spec)
        for _ in range(4):
            state.z = z_step(state, spec)
            z = state.z
            assert np.all(z >= 0)
            np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-9)

    def test_jacobi_order_independence(self, rng):
        # every row reads only the previous iterate, so a row-by-row
        # reference in any order matches the vectorized sweep bitwise
        spec = random_task(rng, n_query=12, n_classes=4, dim=6)
        state = init_state(spec)
        swept = z_step(state, spec)

        log_p = state.log_probs()
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
        state.z = SimplexAssignments.one_hot(labels, 3).z
        means = mu_step(state, spec)
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
        means = mu_step(state, spec)
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
        state.z = z_step(state, spec)
        state.z = z_step(state, spec)
        means = mu_step(state, spec)
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
        state.z = z
        before = state.gmm.means.copy()
        means = mu_step(state, spec)
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
        state.gmm = GmmParams(row.copy(), state.gmm.variances)
        np.testing.assert_array_equal(sigma_step(state, spec), 1e-12)

    def test_single_class_gives_population_variance(self, rng):
        spec = random_task(rng, n_query=10, n_classes=1, dim=6, k_nn=0)
        state = init_state(spec)
        means = mu_step(state, spec)
        state.gmm = GmmParams(means, state.gmm.variances)
        got = sigma_step(state, spec)
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
        state.z = z_step(state, spec)
        means = mu_step(state, spec)
        state.gmm = GmmParams(means, state.gmm.variances)
        got = sigma_step(state, spec)
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
        state.gmm = GmmParams(np.tile(v, (k, 1)), np.full(d, k ** (2.0 / d)))
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
        state.z = SimplexAssignments.one_hot(labels, k).z
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
            csr = g1.csr
            return AffinityGraph(csr_matrix((c * csr.data, csr.indices, csr.indptr), shape=csr.shape))

        vals = {}
        for name, g in (("w", g1), ("2w", scaled(2.0)), ("0", scaled(0.0))):
            state.graph = g
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

        def recording(state, spec):
            seen.append(z_step(state, spec))
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
        # the moments cache is dropped only when z is assigned, so an in-place
        # write would hand stale moments to the mean and variance updates
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=shots,
                           support_weight=0.1)
        state = init_state(spec)
        for z in (state.z, z_step(state, spec), run(spec, record_trace=False)[1].z):
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
        # the in-place arithmetic is the expanded formula, bit for bit
        inv_var = 1.0 / gmm.variances
        scaled = gmm.means * inv_var
        mean_sq = np.einsum("kd,kd->k", gmm.means, scaled)
        for lo in range(0, 50, 7):
            block = feats[lo : lo + 7]
            feat_sq = np.einsum("nd,d->n", block * block, inv_var)
            expanded = -0.5 * (float(np.log(gmm.variances).sum()) + feat_sq[:, None]
                               - 2.0 * (block @ scaled.T) + mean_sq[None, :])
            assert got[lo : lo + 7].tobytes() == expanded.tobytes()

    def test_small_blocks_give_the_same_run(self, rng, monkeypatch):
        spec = random_task(rng, n_query=50, n_classes=5, dim=8)
        want, _ = run(spec, record_trace=False)
        monkeypatch.setattr(solver, "_CHUNK_ROWS", 7)
        got, _ = run(spec, record_trace=False)
        np.testing.assert_array_equal(hard_predict(got), hard_predict(want))
        assert np.abs(got.z - want.z).max() <= 1e-12


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
                state.z = z_step(state, spec)
                means = mu_step(state, spec)
                state.gmm = GmmParams(means, state.gmm.variances)
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
            state.z = _old_sweep(state, spec)
            trace.append(objective(state, spec))
        means = _old_mu(state, spec)
        state.gmm = GmmParams(means, state.gmm.variances)
        trace.append(objective(state, spec))
        state.gmm = GmmParams(means, _old_sigma(state, spec))
        trace.append(objective(state, spec))
    return state, trace


def _fresh(state):
    """A copy of the state with every cache empty."""
    return SolverState(z=state.z, gmm=state.gmm, soft_labels=state.soft_labels,
                       log_prior=state.log_prior, graph=state.graph, features=state.features,
                       n_support=state.n_support)


class TestCachedBlocks:
    """run() caches the sweep-invariant logits and the moments shared by the
    mean and variance updates; its results must equal, bit for bit, a loop
    that recomputes both on every call."""

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

    def test_replacing_gmm_gives_fresh_logits(self, rng):
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=1,
                           support_weight=0.1)
        state = init_state(spec)
        state.z = z_step(state, spec)
        state.gmm = GmmParams(_old_mu(state, spec), state.gmm.variances * 0.5)
        assert z_step(state, spec).tobytes() == _old_sweep(state, spec).tobytes()
        assert objective(state, spec) == objective(_fresh(state), spec)
        # another kl_weight on the same state rebuilds the cached part too
        other = spec.with_hyper(kl_weight=0.25)
        assert z_step(state, other).tobytes() == _old_sweep(state, other).tobytes()

    def test_replacing_z_gives_fresh_moments(self, rng):
        spec = random_task(rng, n_query=30, n_classes=4, dim=6, shots_per_class=2,
                           support_weight=0.3)
        state = init_state(spec)
        for _ in range(20):
            z_next = z_step(state, spec)
            mu_step(state, spec)
            # drop the z the moments were computed from before building the
            # next one: CPython then often reuses its address, so a cache
            # keyed on id() would hand back stale moments
            state.z = None
            state.z = z_next.copy()
            assert mu_step(state, spec).tobytes() == _old_mu(state, spec).tobytes()
            assert sigma_step(state, spec).tobytes() == _old_sigma(state, spec).tobytes()
        # another support weight on the same z recomputes the moments
        other = spec.with_hyper(support_weight=0.7)
        assert sigma_step(state, other).tobytes() == _old_sigma(state, other).tobytes()

    def test_solves_share_the_prepared_log_prior(self, rng):
        spec = random_task(rng, n_query=20, n_classes=3, dim=5, shots_per_class=2)
        prepared = solver.prepare(spec)
        for gamma in (0.01, 0.2):
            _, state = run(spec.with_hyper(support_weight=gamma), prepared=prepared)
            assert state.log_prior is prepared.log_prior
        assert not prepared.log_prior.flags.writeable
        want = np.log(np.maximum(prepared.soft_labels.z, PRIOR_LOG_FLOOR))
        assert prepared.log_prior.tobytes() == want.tobytes()

    def test_sigma_step_reuses_the_mean_step_pass(self, rng):
        spec = random_task(rng, n_query=20, n_classes=3, dim=5)
        state = init_state(spec)
        mu_step(state, spec)
        moments = state._moments[1]
        got = sigma_step(state, spec)
        assert state._moments[1] is moments
        assert got.tobytes() == sigma_step(_fresh(state), spec).tobytes()
