"""Sparse k-nearest-neighbor affinity graph over unit-norm embeddings.

Exact construction in row blocks, each screened in float32 and ranked in
float64. A block's row count is set by a byte budget, so its similarities
stay near 32 MiB of float64 (16 MiB of float32) whatever N is, at most 512
rows.

- **Screen.** ``S = X32[lo:hi] @ X32.T`` from a float32 copy of the unit
  rows, with the diagonal at -inf. The row maxima of column chunks (about
  128 columns each, and at least 4k chunks) give a bound T: the k-th
  largest chunk maximum, which at least k entries of the row reach.
- **Margin.** For unit rows, a float32 dot differs from the exact cosine
  by at most gamma32_{d+2} (the rounding of the inputs and of the d-term
  sum), and the float64 dot below by at most gamma64_d, where
  gamma_m = m u / (1 - m u) (Higham, *Accuracy and Stability of Numerical
  Algorithms*, section 3.1). One more term in each gamma covers row norms
  up to 1 + 1e-12, which ``normalize_rows`` guarantees, and float32
  underflow. So each S is within eps = gamma32_{d+3} + gamma64_{d+1} of its
  float64 dot, and any column with S < T - 2 eps is beaten by k columns in
  float64: the candidates are the columns with S >= T - margin, margin =
  2 eps. The cut is computed in float64, rounded to float32 and stepped one
  float32 ulp down, so its own rounding cannot narrow the window. Tied
  columns are all candidates.
- **Rerank.** Each candidate's cosine is recomputed in float64 by
  ``np.einsum`` on the two rows. Candidates are ordered by (descending
  cosine, ascending index) and each row keeps k. Weights are cosines
  clipped at zero.

A block whose candidates exceed an eighth of its entries (near-duplicate
rows, or k above N/8) is ranked from its dense float64 einsum product
instead, which costs less than gathering that many row pairs. The dense
product has the same bits as the per-pair dots, so the two paths agree.

The sgemm only chooses candidates and the margin covers its rounding, so
the graph does not depend on the BLAS or its thread count. The einsum dots
do not call the BLAS and are bitwise symmetric, so w(i, j) == w(j, i). The
graph holds the rows in CSR form, as three read-only numpy arrays (row
pointers, neighbor indices, weights) that keep each row in this order.
"""

from __future__ import annotations

import numpy as np

from .types import AffinityGraph, EmbeddingMatrix, _block_rows

# rows and bytes of float64 similarities per row block of the screen's
# sgemm; the two set its rate (large blocks run it near the full sgemm rate)
_MAX_BLOCK_ROWS = 512
_BLOCK_BYTES = 32 * 2**20
# columns per chunk whose row maxima bound the k-th largest value
_CHUNK = 128
# a row block with more candidates than 1 / _DENSE_SHARE of its entries is
# ranked from its dense float64 product
_DENSE_SHARE = 8


def _gamma(m: int, dtype) -> float:
    """Higham's gamma_m = m u / (1 - m u), the relative error bound of an
    m-term dot product with unit roundoff u of ``dtype``."""
    mu = m * float(np.finfo(dtype).eps) / 2
    return mu / (1 - mu)


def _screen(values: np.ndarray, k: int, margin: float = 0.0):
    """Row-major flat indices of every entry of ``values`` that can be among
    its row's k largest when each entry may be off by up to margin / 2, or
    None when those would be more than 1 / _DENSE_SHARE of all entries.

    The k-th largest chunk maximum is a value T that at least k entries of
    the row reach; the screen keeps the entries >= T - margin. With more than
    k chunks, T is finite even if one chunk holds only a -inf diagonal, and
    with 4k chunks it lies close to the row's k-th largest value.
    """
    n = values.shape[1]
    if k * _DENSE_SHARE > n:
        return None
    n_chunks = max(4 * k, -(-n // _CHUNK))
    chunk_max = np.maximum.reduceat(values, (np.arange(n_chunks) * n) // n_chunks, axis=1)
    cut = np.partition(chunk_max, n_chunks - k, axis=1)[:, n_chunks - k]
    if margin:
        cut = (cut.astype(np.float64) - margin).astype(values.dtype)
        cut = np.nextafter(cut, values.dtype.type(-np.inf))
    mask = values >= cut[:, None]
    if np.count_nonzero(mask) * _DENSE_SHARE > values.size:
        return None
    return np.flatnonzero(mask)


def _first_k(values: np.ndarray, k: int) -> np.ndarray:
    """Mask of exactly k entries per row: those above the row's k-th largest
    value, then the lowest-index entries equal to it."""
    n = values.shape[1]
    kth = np.partition(values, n - k, axis=1)[:, n - k, None]
    take = values > kth
    tied = values == kth
    fill = k - np.count_nonzero(take, axis=1, keepdims=True)
    take |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= fill)
    return take


def _rank(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, k: int):
    """The first k candidates of each row by (descending value, ascending
    column), as two (rows, k) arrays of columns and values.

    ``rows``/``cols`` list the candidates in row-major order, at least k in
    every row from 0 on; ``vals`` holds their finite values.
    """
    counts = np.bincount(rows)
    first = np.cumsum(counts) - counts
    # one padded row per candidate list; the stable sort keeps equal values
    # in ascending column order and the +inf padding last
    neg = np.full((counts.size, counts.max()), np.inf)
    neg[rows, np.arange(rows.size) - first[rows]] = -vals
    pick = first[:, None] + np.argsort(neg, axis=1, kind="stable")[:, :k]
    return cols[pick], vals[pick]


def top_k(values: np.ndarray, k: int):
    """Column indices and values of the k largest entries of each row of
    ``values`` (1 <= k <= row length), ordered by (descending value,
    ascending index): the first k of a stable sort of each negated row.

    The graph's chunk-maxima screen, with no margin, picks the candidates.
    Where it would keep more than an eighth of the entries (heavy ties, or
    large k), an exact tie-filled selection picks k per row instead.
    """
    flat = _screen(values, k)
    if flat is None:
        flat = np.flatnonzero(_first_k(values, k))
    rows, cols = np.divmod(flat, values.shape[1])
    return _rank(rows, cols, values.reshape(-1)[flat], k)


def _pair_dots(left: np.ndarray, right: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> np.ndarray:
    """Float64 dots of the row pairs (left[rows[i]], right[cols[i]]), in
    slices of ``types._block_rows`` gathered pairs, which keep them in cache."""
    out = np.empty(rows.size)
    step = _block_rows(16 * left.shape[1])
    for lo in range(0, rows.size, step):
        sl = slice(lo, lo + step)
        out[sl] = np.einsum("ij,ij->i", left[rows[sl]], right[cols[sl]])
    return out


def _dense_rows(data, lo, hi, k, neighbor_idx, neighbor_w) -> None:
    """Rank rows lo:hi from their dense float64 einsum product, whose bits
    equal ``_pair_dots``, in slices of ``types._block_rows`` rows, which keep
    the selection passes over each in cache."""
    n = data.shape[0]
    step = _block_rows(8 * n)
    for a in range(lo, hi, step):
        b = min(a + step, hi)
        sims = np.einsum("ik,jk->ij", data[a:b], data)
        sims[np.arange(b - a), np.arange(a, b)] = -np.inf
        neighbor_idx[a:b], w = top_k(sims, k)
        np.maximum(w, 0.0, out=neighbor_w[a:b])


def build_knn(embeddings: EmbeddingMatrix, k: int, symmetrize: bool = False) -> AffinityGraph:
    """Directed graph linking each row to its k most cosine-similar others.

    Neighbors are selected by raw float64 cosine (ties to the lower index)
    and stored by descending weight max(0, cosine). Self-edges are excluded;
    k >= N-1 degrades to the full graph. With symmetrize=True the edge set
    is the union of both directions: a node keeps its k out-edges plus
    every in-edge, so a hub's list may hold up to N-1 entries.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    data = embeddings.data
    n, d = data.shape
    k_eff = min(k, n - 1)
    if k_eff == 0:
        return AffinityGraph(np.zeros(n + 1, np.int64), np.zeros(0, np.int64), np.zeros(0))

    neighbor_idx = np.empty((n, k_eff), dtype=np.int64)
    neighbor_w = np.empty((n, k_eff))
    block = max(1, min(_MAX_BLOCK_ROWS, _BLOCK_BYTES // (8 * n)))
    margin = 2 * (_gamma(d + 3, np.float32) + _gamma(d + 1, np.float64))
    data32 = data.astype(np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        sims = data32[lo:hi] @ data32.T
        sims[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        flat = _screen(sims, k_eff, margin)
        del sims
        if flat is None:
            _dense_rows(data, lo, hi, k_eff, neighbor_idx, neighbor_w)
            continue
        rows, cols = np.divmod(flat, n)
        idx, w = _rank(rows, cols, _pair_dots(data, data, rows + lo, cols), k_eff)
        neighbor_idx[lo:hi] = idx
        np.maximum(w, 0.0, out=neighbor_w[lo:hi])
        del flat, rows, cols, idx, w
    del data32  # before the symmetrized union allocates its edge arrays

    if not symmetrize:
        return AffinityGraph(
            np.arange(n + 1) * k_eff, neighbor_idx.reshape(-1), neighbor_w.reshape(-1)
        )

    src = np.repeat(np.arange(n, dtype=np.int64), k_eff)
    dst = neighbor_idx.reshape(-1)
    w = neighbor_w.reshape(-1)
    # union with the reversed edges; the weight of (j, i) equals that of
    # (i, j) because the clipped einsum cosine is bitwise symmetric
    src2 = np.concatenate([src, dst])
    dst2 = np.concatenate([dst, src])
    w2 = np.concatenate([w, w])
    keys, first = np.unique(src2 * n + dst2, return_index=True)
    src2, dst2, w2 = src2[first], dst2[first], w2[first]
    order = np.lexsort((dst2, -w2, src2))
    src2, dst2, w2 = src2[order], dst2[order], w2[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src2, minlength=n), out=indptr[1:])
    return AffinityGraph(indptr, dst2, w2)
