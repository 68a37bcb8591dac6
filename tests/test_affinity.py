import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import affinity
from transduct.affinity import build_knn
from transduct.fileio import dump_edges
from transduct.types import EmbeddingMatrix
from helpers import unit_rows
import oracles


def test_two_nodes_link_to_each_other(rng):
    data = EmbeddingMatrix(unit_rows(rng, 2, 4))
    g = build_knn(data, k=3)
    for i in (0, 1):
        idx, w = g.neighbors(i)
        assert list(idx) == [1 - i]
        np.testing.assert_allclose(
            w, [max(0.0, float(data.data[0] @ data.data[1]))]
        )


def test_antipodal_vectors_get_zero_weight():
    data = EmbeddingMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    g = build_knn(data, k=1)
    for i in (0, 1):
        _, w = g.neighbors(i)
        np.testing.assert_array_equal(w, [0.0])


def test_matches_brute_force_oracle(rng):
    data = EmbeddingMatrix(unit_rows(rng, 5, 4))
    g = build_knn(data, k=3)
    expected = oracles.brute_force_knn(data.data, 3)
    for i in range(5):
        idx, w = g.neighbors(i)
        exp_idx = [j for j, _ in expected[i]]
        exp_w = [wt for _, wt in expected[i]]
        assert list(idx) == exp_idx
        np.testing.assert_allclose(w, exp_w, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(0, 14))
def test_structural_invariants(seed, n, k):
    r = np.random.default_rng(seed)
    data = EmbeddingMatrix(unit_rows(r, n, 5))
    g = build_knn(data, k=k)
    assert g.n_nodes == n
    for i in range(n):
        idx, w = g.neighbors(i)
        assert len(idx) == min(k, n - 1)
        assert i not in idx
        assert np.all(w >= 0) and np.all(w <= 1 + 1e-9)
        assert np.all(np.diff(w) <= 0)


def test_deterministic(rng):
    data = EmbeddingMatrix(unit_rows(rng, 30, 6))
    a = build_knn(data, k=3)
    b = build_knn(data, k=3)
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.weights, b.weights)):
        assert x.tobytes() == y.tobytes()


def test_k_zero_gives_empty_graph(rng):
    g = build_knn(EmbeddingMatrix(unit_rows(rng, 4, 3)), k=0)
    assert g.n_edges == 0
    np.testing.assert_array_equal(g.propagate(np.ones((4, 2))), 0.0)


def test_tie_break_prefers_lower_index():
    # nodes 1 and 2 are identical, so node 0 sees a tie
    base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    g = build_knn(EmbeddingMatrix(base), k=1)
    idx, _ = g.neighbors(0)
    assert list(idx) == [1]


def test_symmetrize_gives_union_of_directions(rng):
    # the 200-node input has hubs, whose lists grow past 2k
    longest = {}
    for n, d, k in ((12, 3, 2), (200, 16, 3)):
        data = EmbeddingMatrix(unit_rows(rng, n, d))
        directed = build_knn(data, k=k)
        sym = build_knn(data, k=k, symmetrize=True)
        out_edges = {i: {int(j) for j in directed.neighbors(i)[0]} for i in range(n)}
        in_edges = {i: set() for i in range(n)}
        for i, targets in out_edges.items():
            for j in targets:
                in_edges[j].add(i)
        lookup = {}
        for i in range(n):
            idx, w = sym.neighbors(i)
            # k out-edges plus the in-edges that are not already out-edges
            assert len(idx) == k + len(in_edges[i] - out_edges[i])
            assert set(idx.tolist()) == out_edges[i] | in_edges[i]
            lookup.update(((i, int(j)), float(wt)) for j, wt in zip(idx, w))
        longest[n] = max(len(sym.neighbors(i)[0]) for i in range(n))
        # weights agree in both directions
        for (i, j), wt in lookup.items():
            assert lookup[(j, i)] == wt
    assert longest[200] > 2 * 3


def test_dump_edges_format(rng, tmp_path):
    data = EmbeddingMatrix(unit_rows(rng, 4, 3))
    g = build_knn(data, k=2)
    out = tmp_path / "edges.txt"
    dump_edges(g, out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == g.n_edges
    i, j, w = lines[0].split()
    assert int(i) == 0 and 0 <= int(j) < 4
    assert 0.0 <= float(w) <= 1.0 + 1e-9


def _tied_rows(r, n, d=16, pool=60):
    """n unit rows drawn with repetition from a pool of quantized rows.

    Pool rows have either 4 entries of +-1/2 or d entries of +-1/4, so every
    cosine is a multiple of 1/16 and exact under any summation order. The
    repeated rows and the coarse cosines make ties at every rank.
    """
    rows = np.zeros((pool, d))
    for p in range(pool):
        signs = r.choice([-1.0, 1.0], size=d)
        if p % 2:
            rows[p] = 0.25 * signs
        else:
            cols = r.choice(d, size=4, replace=False)
            rows[p, cols] = 0.5 * signs[:4]
    return rows[r.integers(0, pool, size=n)]


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 10_000), st.integers(1, 60), st.booleans(), st.booleans())
def test_csr_invariants(data, seed, n, tied, symmetrize):
    r = np.random.default_rng(seed)
    # tie-heavy rows: few distinct quantized rows, so duplicates and equal
    # cosines appear at every rank
    rows = _tied_rows(r, n, pool=8) if tied else unit_rows(r, n, 5)
    k = data.draw(st.integers(0, n + 2), label="k")
    g = build_knn(EmbeddingMatrix(rows), k=k, symmetrize=symmetrize)
    indptr, indices, w = g.indptr, g.indices, g.weights
    assert g.n_nodes == n and indptr.shape == (n + 1,)
    assert indptr[0] == 0 and indptr[-1] == g.n_edges == indices.size == w.size
    degree = np.diff(indptr)
    assert np.all(degree >= 0)
    src = np.repeat(np.arange(n), degree)
    assert np.all((indices >= 0) & (indices < n))
    assert not np.any(indices == src)
    assert np.unique(src * n + indices).size == indices.size
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    same_row = src[1:] == src[:-1]
    assert not np.any(same_row & (np.diff(w) > 0))
    if symmetrize:
        tie = same_row & (np.diff(w) == 0)
        assert np.all(np.diff(indices.astype(np.int64))[tie] > 0)
    else:
        assert np.all(degree == min(k, n - 1))
    for arr in (indptr, indices, w):
        assert not arr.flags.writeable


def _stable_reference(data, k, symmetrize):
    """Per-row (indices, weights) from a stable argsort of every full row."""
    n = data.shape[0]
    sims = data @ data.T
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")[:, : min(k, n - 1)]
    if not symmetrize:
        return [(row, np.maximum(0.0, sims[i, row])) for i, row in enumerate(order)]
    linked = np.zeros((n, n), dtype=bool)
    linked[np.repeat(np.arange(n), order.shape[1]), order.reshape(-1)] = True
    linked |= linked.T
    out = []
    for i in range(n):
        cols = np.flatnonzero(linked[i])
        w = np.maximum(0.0, sims[i, cols])
        keep = np.lexsort((cols, -w))
        out.append((cols[keep], w[keep]))
    return out


def _assert_matches_reference(g, data, k, symmetrize):
    for i, (exp_idx, exp_w) in enumerate(_stable_reference(data, k, symmetrize)):
        idx, w = g.neighbors(i)
        np.testing.assert_array_equal(idx, exp_idx)
        np.testing.assert_allclose(w, exp_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("symmetrize", [False, True])
@pytest.mark.parametrize("k_from_n", [lambda n: 1, lambda n: 3, lambda n: n - 2,
                                      lambda n: n - 1, lambda n: n + 2],
                         ids=["1", "3", "n-2", "n-1", "n+2"])
@pytest.mark.parametrize("n", [700, 1300])
def test_ties_across_row_blocks_match_stable_sort(n, k_from_n, symmetrize):
    r = np.random.default_rng(n)
    data = EmbeddingMatrix(_tied_rows(r, n))
    k = k_from_n(n)
    g = build_knn(data, k=k, symmetrize=symmetrize)
    _assert_matches_reference(g, data.data, k, symmetrize)


def test_one_row_blocks_give_the_same_graph(monkeypatch):
    r = np.random.default_rng(11)
    data = EmbeddingMatrix(_tied_rows(r, 600))
    monkeypatch.setattr(affinity, "_BLOCK_BYTES", 1)
    for k in (1, 3, 598):
        g = build_knn(data, k=k)
        _assert_matches_reference(g, data.data, k, symmetrize=False)


def test_dump_edges_matches_per_edge_format(rng, tmp_path):
    rows = unit_rows(rng, 40, 3)
    # a cosine of about 1e-6 exercises the exponent form of %.9g
    ortho = rows[1] - (rows[1] @ rows[0]) * rows[0]
    rows[1] = ortho / np.linalg.norm(ortho) + 1e-6 * rows[0]
    # k = 25 of 39 reaches negative cosines, so zero weights appear too
    g = build_knn(EmbeddingMatrix(rows), k=25, symmetrize=True)
    expected = "".join(
        f"{i} {j} {weight:.9g}\n"
        for i in range(g.n_nodes)
        for j, weight in zip(*g.neighbors(i))
    )
    assert " 0\n" in expected and "e-" in expected
    out = tmp_path / "edges.txt"
    dump_edges(g, out)
    assert out.read_bytes() == expected.encode("ascii")


def _near_tie_rows(r, n, d, n_close):
    """Random unit rows, of which n_close, spread over every column chunk,
    are one base row plus perturbations of about 1e-7: their cosines differ
    by about 1e-14, far inside the float32 rounding of the screen."""
    rows = unit_rows(r, n, d)
    base = unit_rows(r, 1, d)[0]
    close = np.linspace(0, n - 1, n_close).astype(np.int64)
    rows[close] = base + 1e-7 * r.standard_normal((n_close, d))
    return rows


def _einsum_reference(data, k):
    """Each row's k neighbors by a stable (-cosine, index) sort of einsum
    dots over all pairs, and their weights max(0, cosine)."""
    n = data.shape[0]
    i, j = np.divmod(np.arange(n * n), n)
    sims = np.einsum("ij,ij->i", data[i], data[j]).reshape(n, n)
    np.fill_diagonal(sims, -np.inf)
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return order, np.maximum(0.0, np.take_along_axis(sims, order, axis=1))


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(0, 10_000), st.integers(100, 300), st.sampled_from([8, 32, 128]),
       st.integers(1, 6))
def test_near_ties_match_einsum_reference_bitwise(draws, seed, n, d, k):
    # at most n / 5 close rows keep the candidates below an eighth of the
    # block, so the float32 screen and its margin decide them
    n_close = draws.draw(st.integers(k + 2, n // 5), label="n_close")
    r = np.random.default_rng(seed)
    rows = EmbeddingMatrix(_near_tie_rows(r, n, d, n_close)).data
    g = build_knn(EmbeddingMatrix(rows), k=k)
    exp_idx, exp_w = _einsum_reference(rows, k)
    np.testing.assert_array_equal(g.indices.reshape(n, k), exp_idx)
    assert g.weights.tobytes() == exp_w.tobytes()


@pytest.mark.parametrize("near_ties", [False, True])
def test_symmetrized_weights_are_bitwise_symmetric(near_ties):
    r = np.random.default_rng(5)
    rows = _near_tie_rows(r, 600, 32, 40) if near_ties else unit_rows(r, 600, 32)
    g = build_knn(EmbeddingMatrix(rows), k=5, symmetrize=True)
    src = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    w = {(i, j): x for i, j, x in zip(src.tolist(), g.indices.tolist(), g.weights.tolist())}
    assert all(w[(j, i)] == x for (i, j), x in w.items())


@pytest.mark.parametrize("symmetrize", [False, True])
def test_both_sides_of_the_dense_switch_agree_bitwise(monkeypatch, symmetrize):
    # _DENSE_SHARE = 0 keeps every block on the screened path, a huge value
    # sends every block to its dense einsum product
    r = np.random.default_rng(9)
    for rows in (unit_rows(r, 700, 16), _near_tie_rows(r, 700, 16, 120), _tied_rows(r, 700)):
        data = EmbeddingMatrix(rows)
        graphs = []
        for share in (0, 10**9):
            monkeypatch.setattr(affinity, "_DENSE_SHARE", share)
            graphs.append(build_knn(data, k=4, symmetrize=symmetrize))
        a, b = graphs
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.weights, b.weights)):
            assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("k, seconds, peak_mib", [(3, 1.48, 35.4), (2999, 1.86, 207.6)],
                         ids=["k=3", "k=2999"])
def test_identical_rows_stay_bounded(k, seconds, peak_mib):
    """3000 identical unit rows tie every pair: the screen keeps every
    column, so each block is ranked from its dense product. The time may be
    twice, and the tracemalloc peak at most, that of the argpartition
    selection this replaced (0.74 s / 0.93 s and 35.4 / 207.6 MiB at
    k = 3 / 2999 on a 2-core Xeon)."""
    r = np.random.default_rng(0)
    data = EmbeddingMatrix(np.tile(unit_rows(r, 1, 128), (3000, 1)))
    start = time.perf_counter()
    build_knn(data, k=k)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        g = build_knn(data, k=k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # ties go to the lower index: the k lowest indices other than the row's own
    others = np.arange(3000)[None, :] + (np.arange(3000)[None, :] >= np.arange(3000)[:, None])
    np.testing.assert_array_equal(g.indices.reshape(3000, k), others[:, :k])
    assert np.unique(g.weights).size == 1
    assert elapsed <= seconds, f"build took {elapsed:.2f} s"
    assert peak <= peak_mib * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MiB"
