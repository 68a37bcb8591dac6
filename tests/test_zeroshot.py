import tracemalloc

import mpmath
import numpy as np
import pytest

from transduct.affinity import top_k
from transduct.errors import DimensionMismatch, EmptyClass
from transduct import types
from transduct.types import EmbeddingMatrix, SimplexAssignments
from transduct.zeroshot import (
    compute_soft_labels,
    hard_predict,
    init_prototypes_support,
    init_prototypes_topk,
)
from helpers import row_softmax, unit_rows


def _mp_softmax(logits):
    """Arbitrary-precision softmax used as an independent oracle."""
    with mpmath.workdps(60):
        exps = [mpmath.exp(x) for x in logits]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


class TestComputeSoftLabels:
    def test_single_class_gives_ones(self, rng):
        out = compute_soft_labels(
            EmbeddingMatrix(unit_rows(rng, 5, 4)),
            EmbeddingMatrix(unit_rows(rng, 1, 4)),
            temperature=17.0,
        )
        np.testing.assert_array_equal(out.z, np.ones((5, 1)))

    def test_zero_temperature_gives_uniform(self, rng):
        out = compute_soft_labels(
            EmbeddingMatrix(unit_rows(rng, 4, 6)),
            EmbeddingMatrix(unit_rows(rng, 5, 6)),
            temperature=0.0,
        )
        np.testing.assert_allclose(out.z, 0.2, atol=1e-15)

    def test_axis_aligned_pair_matches_precision_oracle(self):
        # logits are (1, 0) for the single query row
        q = EmbeddingMatrix(np.array([[1.0, 0.0]]))
        t = EmbeddingMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = compute_soft_labels(q, t, temperature=1.0)
        np.testing.assert_allclose(out.z[0], _mp_softmax([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(out.z[0], [0.731059, 0.268941], atol=5e-7)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            compute_soft_labels(
                EmbeddingMatrix(unit_rows(rng, 2, 4)),
                EmbeddingMatrix(unit_rows(rng, 2, 6)),
                temperature=1.0,
            )

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((10, 7))
        shifted = logits + rng.standard_normal((10, 1))
        assert np.abs(row_softmax(logits) - row_softmax(shifted)).max() <= 1e-12

    @pytest.mark.parametrize("tau", [0.0, 1.0, 30.0, 1000.0])
    @pytest.mark.parametrize("n,k,d", [(1, 1, 4), (40, 7, 16), (300, 120, 32)])
    def test_bits_match_out_of_place_softmax(self, rng, tau, n, k, d):
        # the in-place softmax must give the bits of the expression it replaced
        q = EmbeddingMatrix(unit_rows(rng, n, d))
        t = EmbeddingMatrix(unit_rows(rng, k, d))
        expected = SimplexAssignments(row_softmax(tau * (q.data @ t.data.T)))
        assert compute_soft_labels(q, t, tau).z.tobytes() == expected.z.tobytes()

    def test_argmax_independent_of_temperature(self, rng):
        q = EmbeddingMatrix(unit_rows(rng, 30, 8))
        t = EmbeddingMatrix(unit_rows(rng, 5, 8))
        base = hard_predict(compute_soft_labels(q, t, 1.0))
        for tau in (0.1, 3.0, 45.0, 200.0):
            assert np.array_equal(base, hard_predict(compute_soft_labels(q, t, tau)))

    def test_peak_is_the_soft_labels_alone(self, rng):
        # the softmax runs in the one N x K product, which is kept, not copied,
        # and validated without N x K masks; numpy's row reductions buffer
        # about 80 KB, 0.013 N x K here
        n, k = 2000, 400
        q = EmbeddingMatrix(unit_rows(rng, n, 6))
        t = EmbeddingMatrix(unit_rows(rng, k, 6))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            soft = compute_soft_labels(q, t, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not soft.z.flags.writeable
        assert peak - base <= 1.02 * n * k * 8


class TestHardPredict:
    def test_unique_argmax(self):
        a = SimplexAssignments(np.array([[0.2, 0.5, 0.3]]))
        assert hard_predict(a)[0] == 1

    def test_tie_goes_to_lower_index(self):
        a = SimplexAssignments(np.array([[0.5, 0.5]]))
        assert hard_predict(a)[0] == 0

    def test_uniform_rows_all_zero(self):
        a = SimplexAssignments(np.full((4, 5), 0.2))
        np.testing.assert_array_equal(hard_predict(a), 0)


class TestInitPrototypesTopk:
    def test_top1_is_most_confident_sample(self, rng):
        data = unit_rows(rng, 6, 4)
        soft = SimplexAssignments(row_softmax(rng.standard_normal((6, 3))))
        means = init_prototypes_topk(EmbeddingMatrix(data), soft, top_m=1)
        for cls in range(3):
            best = int(np.argmax(soft.z[:, cls]))
            np.testing.assert_allclose(means[cls], EmbeddingMatrix(data).data[best])

    def test_truncates_to_available_samples(self, rng):
        data = EmbeddingMatrix(unit_rows(rng, 3, 5))
        soft = SimplexAssignments(row_softmax(rng.standard_normal((3, 2))))
        means = init_prototypes_topk(data, soft, top_m=8)
        np.testing.assert_allclose(means[0], data.data.mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(means[1], data.data.mean(axis=0), atol=1e-15)

    def test_matches_exhaustive_sort_oracle(self, rng):
        n, k, m = 5, 2, 3
        data = EmbeddingMatrix(unit_rows(rng, n, 4))
        soft = SimplexAssignments(row_softmax(rng.standard_normal((n, k))))
        means = init_prototypes_topk(data, soft, top_m=m)
        for cls in range(k):
            ranked = sorted(range(n), key=lambda i: (-soft.z[i, cls], i))[:m]
            expected = data.data[ranked].mean(axis=0)
            np.testing.assert_array_equal(means[cls], expected)

    def test_rows_are_subunit_norm(self, rng):
        data = EmbeddingMatrix(unit_rows(rng, 40, 8))
        soft = SimplexAssignments(row_softmax(rng.standard_normal((40, 6))))
        means = init_prototypes_topk(data, soft, top_m=8)
        assert np.all(np.linalg.norm(means, axis=1) <= 1.0 + 1e-12)


def _tie_heavy_cases(rng, n=60, k=7, d=5):
    """(name, query, soft labels) whose columns are full of ties."""
    query = unit_rows(rng, n, d)
    text = unit_rows(rng, k, d)
    # soft labels rounded to 4 levels: most of a column ties
    quantized = np.round(row_softmax(rng.standard_normal((n, k))) * 3) / 3
    quantized[:, 0] += 1.0 - quantized.sum(axis=1)
    quantized = np.clip(quantized, 0.0, 1.0)
    quantized /= quantized.sum(axis=1, keepdims=True)
    # tau = 1000 saturates the softmax: exact 0 and 1 entries
    saturated = compute_soft_labels(EmbeddingMatrix(query), EmbeddingMatrix(text), 1000.0)
    assert np.count_nonzero(saturated.z == 0.0) > n
    # every query row three times: equal scores at three indices
    dup_query = np.repeat(query[: n // 3], 3, axis=0)
    dup = compute_soft_labels(EmbeddingMatrix(dup_query), EmbeddingMatrix(text), 30.0)
    return [
        ("quantized", query, SimplexAssignments(quantized)),
        ("saturated", query, saturated),
        ("duplicate rows", dup_query, dup),
    ]


class TestTopkSelection:
    """The per-class top-m selection equals a stable argsort down each
    column, so the means are those of the sorted order, bit for bit."""

    @pytest.mark.parametrize("top_m", [1, 8, "n-1", "n", "n+3"])
    def test_matches_stable_argsort(self, rng, top_m):
        for name, query, soft in _tie_heavy_cases(rng):
            n = soft.n_rows
            m = {"n-1": n - 1, "n": n, "n+3": n + 3}.get(top_m, top_m)
            take = min(m, n)
            reference = np.argsort(-soft.z, axis=0, kind="stable")[:take].T
            np.testing.assert_array_equal(top_k(soft.z.T.copy(), take)[0], reference, err_msg=name)
            data = EmbeddingMatrix(query)
            expected = np.stack([data.data[idx].mean(axis=0) for idx in reference])
            means = init_prototypes_topk(data, soft, top_m=m)
            assert means.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("block_classes", [1, 3])
    @pytest.mark.parametrize("top_m", [1, 8, "n"])
    def test_column_blocks_give_the_full_transpose(self, rng, monkeypatch, block_classes, top_m):
        # the classes are ranked a block of columns at a time, here 1 or 3 of
        # the 7 (a last block of 1), and each block's selection is exact, so
        # the means are those of one top_k over the whole transpose
        for name, query, soft in _tie_heavy_cases(rng):
            n = soft.n_rows
            take = min({"n": n}.get(top_m, top_m), n)
            data = EmbeddingMatrix(query)
            order, _ = top_k(np.ascontiguousarray(soft.z.T), take)
            expected = np.stack([data.data[idx].mean(axis=0) for idx in order])
            monkeypatch.setattr(types, "_ROW_BLOCK_BYTES", block_classes * 8 * n)
            means = init_prototypes_topk(data, soft, top_m=take)
            assert means.tobytes() == expected.tobytes(), name

    def test_ranking_makes_no_transposed_copy(self, rng):
        # blocks of about types._ROW_BLOCK_BYTES: the peak is far below one N x K array
        n, k = 4000, 300
        soft = SimplexAssignments(row_softmax(rng.standard_normal((n, k))))
        data = EmbeddingMatrix(unit_rows(rng, n, 4))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            init_prototypes_topk(data, soft, top_m=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 0.5 * n * k * 8


class TestInitPrototypesSupport:
    def test_single_shot_is_the_shot(self, rng):
        data = EmbeddingMatrix(unit_rows(rng, 3, 6))
        means = init_prototypes_support(data, np.array([0, 1, 2]), 3)
        np.testing.assert_array_equal(means, data.data)

    def test_duplicate_shots_keep_the_vector(self, rng):
        row = unit_rows(rng, 1, 5)
        data = EmbeddingMatrix(np.vstack([row, row]))
        means = init_prototypes_support(data, np.array([0, 0]), 1)
        np.testing.assert_allclose(means[0], data.data[0], atol=1e-15)

    def test_matches_per_class_mean_oracle(self, rng):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        data = EmbeddingMatrix(unit_rows(rng, 8, 7))
        means = init_prototypes_support(data, labels, 2)
        for cls in (0, 1):
            expected = data.data[labels == cls].mean(axis=0)
            np.testing.assert_allclose(means[cls], expected, atol=1e-12)

    def test_empty_class(self, rng):
        data = EmbeddingMatrix(unit_rows(rng, 2, 4))
        with pytest.raises(EmptyClass):
            init_prototypes_support(data, np.array([0, 0]), 2)
