"""Sparse k-nearest-neighbor affinity graph over unit-norm embeddings.

Exact construction: all pairwise cosines are evaluated blockwise as
``data[lo:hi] @ data.T`` (O(N^2 d) time), with the row count of a block
set by a byte budget so one block of similarities stays near 32 MiB
whatever N is (at most 512 rows). Within a block each row keeps its k
most similar other rows: a linear-time partition picks k candidates, which
are then ordered by (descending cosine, ascending index). A row whose k-th
best cosine is tied with a row outside the candidates falls back to a full
stable sort, so ties always resolve to the lower index and the result
equals a stable sort of every row. Weights are cosines clipped at zero.
The graph is one read-only scipy CSR matrix that keeps each row in this
order; ``scipy.sparse`` is imported by the first build, not at start-up.
"""

from __future__ import annotations

import numpy as np

from .types import AffinityGraph, EmbeddingMatrix

_MAX_BLOCK_ROWS = 512
# bytes of float64 similarities per row block
_BLOCK_BYTES = 32 * 2**20


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of ``values``
    (1 <= k <= row length), ordered by (value, index): the first k of a
    stable argsort, without sorting whole rows unless the k-th value is
    tied past the k-th place."""
    cand = np.sort(np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
    cand_vals = np.take_along_axis(values, cand, axis=1)
    # stable on index-sorted candidates, so equal values keep index order
    order = np.take_along_axis(cand, np.argsort(cand_vals, axis=1, kind="stable"), axis=1)
    kth = cand_vals.max(axis=1, keepdims=True)
    tied = np.flatnonzero(np.count_nonzero(values <= kth, axis=1) > k)
    if tied.size:
        order[tied] = np.argsort(values[tied], axis=1, kind="stable")[:, :k]
    return order


def _graph(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> AffinityGraph:
    """The graph whose CSR rows hold exactly these arrays, in this order, made
    read-only so that no call such as ``sort_indices`` can reorder a row."""
    from scipy.sparse import csr_matrix

    csr = csr_matrix((weights, indices, indptr), shape=(indptr.size - 1,) * 2)
    for arr in (csr.data, csr.indices, csr.indptr):
        arr.setflags(write=False)
    return AffinityGraph(csr)


def build_knn(embeddings: EmbeddingMatrix, k: int, symmetrize: bool = False) -> AffinityGraph:
    """Directed graph linking each row to its k most cosine-similar others.

    Neighbors are selected by raw cosine (ties to the lower index) and
    stored by descending weight max(0, cosine). Self-edges are excluded;
    k >= N-1 degrades to the full graph. With symmetrize=True the edge set
    is the union of both directions: a node keeps its k out-edges plus
    every in-edge, so a hub's list may hold up to N-1 entries.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    data = embeddings.data
    n = data.shape[0]
    k_eff = min(k, n - 1)
    if k_eff == 0:
        return _graph(np.zeros(n + 1, np.int64), np.zeros(0, np.int64), np.zeros(0))

    neighbor_idx = np.empty((n, k_eff), dtype=np.int64)
    neighbor_w = np.empty((n, k_eff))
    block = max(1, min(_MAX_BLOCK_ROWS, _BLOCK_BYTES // (8 * n)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        neg_sims = data[lo:hi] @ data.T
        np.negative(neg_sims, out=neg_sims)
        neg_sims[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        order = smallest_k(neg_sims, k_eff)
        neighbor_idx[lo:hi] = order
        neighbor_w[lo:hi] = np.maximum(0.0, -np.take_along_axis(neg_sims, order, axis=1))
    # free the last row block first, so scipy.sparse's import in _graph misses the peak
    del neg_sims, order

    if not symmetrize:
        return _graph(np.arange(n + 1) * k_eff, neighbor_idx.reshape(-1), neighbor_w.reshape(-1))

    src = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    dst = neighbor_idx.reshape(-1)
    w = neighbor_w.reshape(-1)
    # union with the reversed edges; the weight of (j, i) equals that of
    # (i, j) because the clipped cosine is symmetric
    src2 = np.concatenate([src, dst])
    dst2 = np.concatenate([dst, src])
    w2 = np.concatenate([w, w])
    keys, first = np.unique(src2 * n + dst2, return_index=True)
    src2, dst2, w2 = src2[first], dst2[first], w2[first]
    order = np.lexsort((dst2, -w2, src2))
    src2, dst2, w2 = src2[order], dst2[order], w2[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src2, minlength=n), out=indptr[1:])
    return _graph(indptr, dst2, w2)


def dump_edges(graph: AffinityGraph, path) -> None:
    """Write one 'i j w' line per stored edge, in storage order."""
    coo = graph.csr.tocoo()  # keeps the CSR's storage order
    edges = zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(map("%d %d %.9g\n".__mod__, edges))
