import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from transduct.errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteValue,
    NormTooFarFromUnit,
)
from transduct import types
from transduct.solver import run
from transduct.types import (
    KL_LOGIT_MAX,
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    Hyperparams,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
    validate_task,
)
from helpers import objective, unit_rows


class TestEmbeddingMatrix:
    def test_accepts_unit_rows(self, rng):
        m = EmbeddingMatrix(unit_rows(rng, 5, 8))
        assert m.n_rows == 5 and m.dim == 8
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), 1.0, atol=1e-4)

    def test_renormalizes_near_unit_rows(self, rng):
        rows = unit_rows(rng, 4, 6) * 1.009  # within the 1e-2 gate
        m = EmbeddingMatrix(rows)
        np.testing.assert_allclose(np.linalg.norm(m.data, axis=1), 1.0, atol=1e-12)

    def test_rejects_far_from_unit(self, rng):
        rows = unit_rows(rng, 4, 6)
        rows[2] *= 1.05
        with pytest.raises(NormTooFarFromUnit):
            EmbeddingMatrix(rows)

    def test_rejects_non_finite(self, rng):
        rows = unit_rows(rng, 3, 4)
        rows[1, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            EmbeddingMatrix(rows)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingMatrix(np.ones(4))

    def test_rejects_zero_rows(self):
        with pytest.raises(DimensionMismatch, match="degenerate shape"):
            EmbeddingMatrix(np.empty((0, 4)))

    def test_zero_columns_fail_before_any_row_is_read(self):
        # normalizing first would hold N-length norms and masks (8 MB here)
        data = np.empty((10**6, 0))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match=r"^degenerate shape \(1000000, 0\)$"):
                EmbeddingMatrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_construction_is_bitwise_idempotent(self, rng):
        first = EmbeddingMatrix(unit_rows(rng, 6, 10) * (1 + 5e-3))
        second = EmbeddingMatrix(first.data)
        assert first.data.tobytes() == second.data.tobytes()

    def test_data_is_read_only(self, rng):
        m = EmbeddingMatrix(unit_rows(rng, 3, 4))
        with pytest.raises(ValueError):
            m.data[0, 0] = 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-9e-3, 9e-3))
    def test_renormalization_preserves_cosine_argmax(self, seed, scale_off):
        # scaling a row by a positive factor cannot change which prototype
        # it is most similar to
        r = np.random.default_rng(seed)
        raw = unit_rows(r, 6, 5) * (1.0 + scale_off)
        protos = unit_rows(r, 3, 5)
        before = np.argmax(raw @ protos.T, axis=1)
        after = np.argmax(EmbeddingMatrix(raw).data @ protos.T, axis=1)
        assert np.array_equal(before, after)


def _normalize_by_whole_matrix(data):
    """The earlier normalization: whole-matrix norms, a copy, then the rows
    more than 1e-12 off unit norm divided through a fancy index."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.linalg.norm(data, axis=1)
    fix = np.abs(norms - 1.0) > 1e-12
    if np.any(fix):
        data = data.copy()
        data[fix] /= norms[fix, None]
    return data


def _near_unit_rows(rng, n, d, dtype):
    # every third row is left 2e-13 off unit norm, which the normalization
    # skips; the float32 rounding moves the others far enough to be divided
    rows = unit_rows(rng, n, d) * (1.0 + 2e-3 * rng.standard_normal((n, 1)))
    rows[::3] /= np.linalg.norm(rows[::3], axis=1, keepdims=True)
    rows[::3] *= 1.0 + 2e-13
    return rows.astype(dtype)


class TestEmbeddingCopies:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,d,block_bytes", [
        (1, 5, None), (50, 7, None), (2500, 17, None), (1100, 512, None),
        (9, 3, 48), (10, 3, 48), (11, 3, 48), (1, 3, 1),
    ])
    def test_bits_match_whole_matrix_normalization(self, rng, monkeypatch, dtype, n, d, block_bytes):
        if block_bytes is not None:  # 48 bytes: two rows of three per block
            monkeypatch.setattr(types, "_ROW_BLOCK_BYTES", block_bytes)
        rows = _near_unit_rows(rng, n, d, dtype)
        expected = _normalize_by_whole_matrix(rows)
        assert EmbeddingMatrix(rows).data.tobytes() == expected.tobytes()

    def test_memory_layout_does_not_change_the_bits(self, rng):
        rows = _near_unit_rows(rng, 300, 40, np.float32)
        c_order = EmbeddingMatrix(rows).data
        for layout in (np.asfortranarray(rows), np.asfortranarray(rows.astype(np.float64)),
                       np.repeat(rows, 2, axis=1)[:, ::2]):
            data = EmbeddingMatrix(layout).data
            assert data.flags.c_contiguous
            assert data.tobytes() == c_order.tobytes()

    @pytest.mark.parametrize("off", [0.0, 5e-3])
    def test_caller_input_is_never_shared(self, rng, off):
        # off = 0: rows already unit, so normalization returns the input
        # itself and the constructor must copy; off = 5e-3: the rows are
        # divided, which must happen in a copy, not in the caller's array
        rows = unit_rows(rng, 6, 4) * (1.0 + off)
        before = rows.copy()
        m = EmbeddingMatrix(rows)
        np.testing.assert_array_equal(rows, before)
        kept = m.data.copy()
        rows[:] = 7.0
        np.testing.assert_array_equal(m.data, kept)
        assert not np.shares_memory(m.data, rows)

    def test_read_only_input_is_divided_in_a_copy(self, rng):
        rows = unit_rows(rng, 5, 4) * 1.005
        rows.setflags(write=False)
        np.testing.assert_allclose(
            np.linalg.norm(EmbeddingMatrix(rows).data, axis=1), 1.0, atol=1e-12
        )

    def test_float32_input_allocates_one_float64_matrix(self, rng):
        rows = _near_unit_rows(rng, 4000, 256, np.float32)
        one_matrix = rows.size * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            m = EmbeddingMatrix(rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - base >= one_matrix  # the result itself is traced
        assert peak - base <= 1.25 * one_matrix
        assert m.data.dtype == np.float64 and not m.data.flags.writeable


class TestSimplexAssignments:
    def test_valid_rows(self):
        a = SimplexAssignments(np.array([[0.25, 0.75], [1.0, 0.0]]))
        assert a.n_rows == 2 and a.n_classes == 2

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            SimplexAssignments(np.array([[0.5, 0.6]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            SimplexAssignments(np.array([[-0.1, 1.1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_before_range(self, bad):
        for row in ([bad, 1.0], [bad, -0.5], [1.5, bad]):
            with pytest.raises(NonFiniteValue):
                SimplexAssignments(np.array([row, [0.5, 0.5]]))

    @pytest.mark.parametrize("row", [[1.5, -0.5], [-0.5, 1.5], [0.0, 1.0 + 1e-15]])
    def test_rejects_entries_outside_the_unit_interval(self, row):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimplexAssignments(np.array([[0.5, 0.5], row]))

    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2)])
    def test_rejects_wrong_rank(self, shape):
        with pytest.raises(DimensionMismatch, match="2-d"):
            SimplexAssignments(np.full(shape, 0.5))

    def test_one_hot(self):
        a = SimplexAssignments.one_hot(np.array([2, 0]), 3)
        np.testing.assert_array_equal(a.z, [[0, 0, 1], [1, 0, 0]])

    def test_writable_input_is_copied(self):
        z = np.array([[0.25, 0.75], [1.0, 0.0]])
        a = SimplexAssignments(z)
        assert not np.shares_memory(a.z, z)
        assert not a.z.flags.writeable and z.flags.writeable

    def test_read_only_contiguous_input_is_kept(self):
        z = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        z.setflags(write=False)
        assert SimplexAssignments(z).z is z
        rows = z[1:]
        assert SimplexAssignments(rows).z is rows
        # a read-only column slice is not C-contiguous: copied
        wide = np.array([[0.5, 0.5, 9.0], [0.0, 1.0, 9.0]])
        wide.setflags(write=False)
        got = SimplexAssignments(wide[:, :2]).z
        assert got.flags.c_contiguous and not np.shares_memory(got, wide)


class TestGmmParams:
    def test_valid(self, rng):
        g = GmmParams(rng.standard_normal((3, 4)), np.full(4, 0.25))
        assert g.means.shape == (3, 4) and g.variances.shape == (4,)

    def test_rejects_below_variance_floor(self, rng):
        with pytest.raises(ValueError):
            GmmParams(rng.standard_normal((2, 3)), np.array([1.0, 0.0, 1.0]))

    def test_rejects_non_finite_means(self):
        with pytest.raises(NonFiniteValue):
            GmmParams(np.array([[np.inf, 0.0]]), np.ones(2))

    def test_rejects_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            GmmParams(rng.standard_normal((2, 3)), np.ones(4))

    @pytest.mark.parametrize("means, variances", [((3,), (3,)), ((2, 3), (1, 3))])
    def test_rejects_wrong_rank(self, means, variances):
        with pytest.raises(DimensionMismatch, match="K x d"):
            GmmParams(np.zeros(means), np.ones(variances))

    def test_writable_input_is_copied(self, rng):
        means, variances = rng.standard_normal((2, 3)), np.ones(3)
        g = GmmParams(means, variances)
        assert not np.shares_memory(g.means, means)
        assert not np.shares_memory(g.variances, variances)
        assert not g.means.flags.writeable and not g.variances.flags.writeable

    def test_read_only_contiguous_input_is_kept(self, rng):
        g = GmmParams(rng.standard_normal((2, 3)), np.ones(3))
        # another GmmParams's arrays are read-only already: shared, not copied
        again = GmmParams(g.means, g.variances)
        assert again.means is g.means and again.variances is g.variances
        # a read-only column slice is not C-contiguous: copied
        wide = rng.standard_normal((2, 5))
        wide.setflags(write=False)
        got = GmmParams(wide[:, :3], g.variances).means
        assert got.flags.c_contiguous and not np.shares_memory(got, wide)
        # a float32 array is converted, and the float64 copy is frozen
        narrow = np.ones((2, 3), dtype=np.float32)
        narrow.setflags(write=False)
        got = GmmParams(narrow, g.variances).means
        assert got.dtype == np.float64 and not got.flags.writeable


class TestAffinityGraph:
    def test_valid_graph(self):
        g = AffinityGraph([[1, 2], [0, 2], [0, 1]], [[0.9, 0.1], [0.5, 0.2], [0.3, 0.0]])
        idx, w = g.neighbors(0)
        np.testing.assert_array_equal(idx, [1, 2])
        np.testing.assert_allclose(w, [0.9, 0.1])
        assert g.n_nodes == 3
        assert g.n_edges == 6

    @pytest.mark.parametrize("indices, weights", [
        ([1, 0], [0.5, 0.5]),
        ([[1], [0]], [[0.5, 0.5], [0.5, 0.5]]),
    ], ids=["one-dimensional", "shapes-differ"])
    def test_rejects_arrays_of_no_common_n_by_k_shape(self, indices, weights):
        with pytest.raises(DimensionMismatch):
            AffinityGraph(indices, weights)

    def test_propagate_matches_manual_sum(self, rng):
        g = AffinityGraph([[1, 2], [0, 0], [1, 0]], [[0.5, 0.25], [1.0, 0.0], [0.0, 0.0]])
        values = rng.standard_normal((3, 4))
        out = g.propagate(values)
        np.testing.assert_allclose(out[0], 0.5 * values[1] + 0.25 * values[2])
        np.testing.assert_allclose(out[1], values[0])
        np.testing.assert_allclose(out[2], 0.0)

    def test_arrays_are_read_only_views_of_the_inputs(self):
        arrays = np.array([[1], [0]]), np.array([[0.5], [0.5]])
        g = AffinityGraph(*arrays)
        for given_arr, held in zip(arrays, (g.indices, g.weights)):
            assert np.shares_memory(given_arr, held)
            assert not held.flags.writeable and given_arr.flags.writeable

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_propagate_is_bitwise_the_csr_product(self, data):
        # oracle: scipy's CSR product, which adds each row's entries left to
        # right from +0.0, so a lone zero weight times a negative value,
        # -0.0, must come out as +0.0; a lone row (n = 1, or start = n - 1)
        # takes propagate's slot loop, and no slot (k = 0) gives zeros
        n = data.draw(st.one_of(st.just(1), st.integers(2, 40)), label="n")
        n_cols = data.draw(st.sampled_from([1, 2, 3, 100]), label="K")
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        k = data.draw(st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1)), label="k")
        indices = r.integers(0, n, size=(n, k))  # repeats allowed
        weights = r.random((n, k))
        weights[r.random(weights.shape) < 0.2] = 0.0
        values = r.standard_normal((n, n_cols))
        start = data.draw(st.one_of(st.integers(0, n), st.just(n - 1)), label="start")
        budget = data.draw(st.sampled_from([1, 4096, types._ROW_BLOCK_BYTES]), label="budget")
        indptr = np.arange(n + 1) * k
        csr = csr_matrix((weights.reshape(-1), indices.reshape(-1), indptr), shape=(n, n))
        expected = (csr @ values)[start:]
        g = AffinityGraph(indices, weights)
        saved = types._ROW_BLOCK_BYTES
        types._ROW_BLOCK_BYTES = budget
        try:
            got = g.propagate(values, start=start)
            into = np.full((n - start, n_cols), np.nan)
            returned = g.propagate(values, start=start, out=into)
        finally:
            types._ROW_BLOCK_BYTES = saved
        assert returned is into
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes() == into.tobytes()


class TestHyperparams:
    def test_reference_defaults(self):
        h = Hyperparams()
        assert h.kl_weight == 1.0
        assert h.support_weight == 0.0
        assert (h.outer_iters, h.inner_z_iters) == (10, 5)
        assert (h.k_nn, h.init_top_m) == (3, 8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kl_weight": -0.1},
            {"support_weight": -1.0},
            {"outer_iters": -1},
            {"inner_z_iters": -2},
            {"k_nn": -1},
            {"init_top_m": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    @pytest.mark.parametrize("name", ["kl_weight", "support_weight"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_weights(self, name, value):
        with pytest.raises(ValueError, match=name):
            Hyperparams(**{name: value})

    def test_large_finite_kl_weight_is_a_valid_setting(self):
        # the bound on the prior weight depends on the temperature, so it is
        # a task check, in validate_task
        assert Hyperparams(kl_weight=1e308).kl_weight == 1e308


class TestValidateTask:
    def test_accepts_well_formed(self, rng):
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
            text=EmbeddingMatrix(unit_rows(rng, 2, 8)),
        )
        assert validate_task(spec) is spec

    def test_idempotent(self, rng):
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
            text=EmbeddingMatrix(unit_rows(rng, 2, 8)),
        )
        once = validate_task(spec)
        assert validate_task(once) is once

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            TaskSpec(
                query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
                text=EmbeddingMatrix(unit_rows(rng, 2, 16)),
            )

    def test_support_label_out_of_range(self, rng):
        k = 2
        with pytest.raises(LabelOutOfRange):
            TaskSpec(
                query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
                text=EmbeddingMatrix(unit_rows(rng, k, 8)),
                support=SupportSet(
                    EmbeddingMatrix(unit_rows(rng, 2, 8)), np.array([0, k])
                ),
            )

    def test_support_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            TaskSpec(
                query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
                text=EmbeddingMatrix(unit_rows(rng, 2, 8)),
                support=SupportSet(EmbeddingMatrix(unit_rows(rng, 2, 4)), np.array([0, 1])),
            )

    def test_support_label_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch, match="one entry per support row"):
            SupportSet(EmbeddingMatrix(unit_rows(rng, 3, 8)), np.array([0, 1]))

    def test_rejects_non_positive_temperature(self, rng):
        with pytest.raises(ValueError):
            TaskSpec(
                query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
                text=EmbeddingMatrix(unit_rows(rng, 2, 8)),
                temperature=0.0,
            )

    @pytest.mark.parametrize("tau", [30.0, 1e300])
    def test_kl_weight_times_temperature_bound(self, rng, tau):
        # the largest weight whose product with tau is at most KL_LOGIT_MAX
        # is accepted and solves to finite assignments and a trace without
        # NaN (pytest makes an overflow warning an error); the next float up
        # is rejected
        largest = KL_LOGIT_MAX / tau
        while largest * tau > KL_LOGIT_MAX:
            largest = math.nextafter(largest, 0.0)
        while math.nextafter(largest, math.inf) * tau <= KL_LOGIT_MAX:
            largest = math.nextafter(largest, math.inf)
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 12, 8)),
            text=EmbeddingMatrix(unit_rows(rng, 3, 8)),
            temperature=tau,
            hyper=Hyperparams(kl_weight=largest, outer_iters=2),
        )
        assert validate_task(spec) is spec
        assignments, state = run(spec, record_trace=True)
        assert np.all(np.isfinite(assignments.z))
        assert not any(math.isnan(row.normalized) or math.isnan(row.update_consistent)
                       for row in state.trace)
        with pytest.raises(ValueError, match="kl_weight"):
            spec.with_hyper(kl_weight=math.nextafter(largest, math.inf))

    def test_temperature_bound(self, rng):
        # the largest temperature, KL_LOGIT_MAX, is accepted and, with no
        # prior weight, solves to finite assignments and a finite trace
        # (pytest makes an overflow warning an error): the objective leaves
        # out the prior term, whose entries reach 2 tau; the next float up
        # is rejected
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 12, 8)),
            text=EmbeddingMatrix(unit_rows(rng, 5, 8)),
            temperature=KL_LOGIT_MAX,
            hyper=Hyperparams(kl_weight=0.0, outer_iters=2),
        )
        assert validate_task(spec) is spec
        assignments, state = run(spec, record_trace=True)
        assert np.all(np.isfinite(assignments.z))
        assert all(math.isfinite(row.normalized) and math.isfinite(row.update_consistent)
                   for row in state.trace)
        assert math.isfinite(objective(state, spec, "normalized"))
        with pytest.raises(ValueError, match="temperature"):
            replace(spec, temperature=math.nextafter(KL_LOGIT_MAX, math.inf))

    def test_no_path_builds_a_spec_out_of_bounds(self, rng):
        # at tau = 20 a prior weight of 1e307 breaks the kl_weight * temperature
        # bound: the constructor, replace and with_hyper all raise, so neither
        # run(..., prepared=init_state(spec)) nor search_gamma can receive it
        spec = TaskSpec(
            query=EmbeddingMatrix(unit_rows(rng, 20, 5)),
            text=EmbeddingMatrix(unit_rows(rng, 3, 5)),
            temperature=20.0,
        )
        heavy = Hyperparams(kl_weight=1e307)
        bound = r"kl_weight \* temperature"
        with pytest.raises(ValueError, match=bound):
            spec.with_hyper(kl_weight=1e307)
        with pytest.raises(ValueError, match=bound):
            replace(spec, hyper=heavy)
        with pytest.raises(ValueError, match=bound):
            TaskSpec(query=spec.query, text=spec.text, temperature=20.0, hyper=heavy)

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_rejects_non_finite_temperature(self, rng, tau):
        with pytest.raises(ValueError, match="temperature"):
            TaskSpec(
                query=EmbeddingMatrix(unit_rows(rng, 4, 8)),
                text=EmbeddingMatrix(unit_rows(rng, 2, 8)),
                temperature=tau,
            )
