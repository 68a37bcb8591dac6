"""Output checks for the transduct benchmark, written apart from the program.

Everything here uses numpy and the documented file formats only; nothing
imports ``transduct``, so a fault in the program cannot hide in the
checker. Every check raises ``CheckFailed`` with a short reason.
"""

from __future__ import annotations

import io
import re
import struct

import numpy as np

# Probabilities are printed with 9 significant digits, so each printed value
# is within a relative 5e-9 of the true one and a row of them sums to 1
# within 5e-9; the per-class term covers parsing and summation rounding.
PRINT_REL_ERR = 5e-9

_EMB1 = struct.Struct("<4sII")


class CheckFailed(Exception):
    pass


def read_emb1(path) -> np.ndarray:
    """Read an EMB1 file (magic, uint32 rows, uint32 dim, float32 payload)."""
    with open(path, "rb") as fh:
        magic, n_rows, dim = _EMB1.unpack(fh.read(_EMB1.size))
        if magic != b"EMB1":
            raise CheckFailed(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != n_rows * dim:
        raise CheckFailed(f"{path}: payload holds {data.size} values, header {n_rows}x{dim}")
    return data.reshape(n_rows, dim).astype(np.float64)


def read_int_lines(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return np.array([int(line) for line in fh.read().split()], dtype=np.int64)


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def per_sample_correct(query: np.ndarray, text: np.ndarray, truth: np.ndarray) -> int:
    """Correct count of the per-sample rule: argmax over classes of the
    query/prototype cosine, ties to the lower class."""
    preds = np.argmax(unit_rows(query) @ unit_rows(text).T, axis=1)
    return int(np.sum(preds == truth))


def format_predictions(probs: np.ndarray) -> str:
    """The predictions CSV for a probability matrix, as the format specifies:
    index, argmax class, its probability, then every probability, 9
    significant digits."""
    n, k = probs.shape
    preds = np.argmax(probs, axis=1)
    out = ["index,pred,conf," + ",".join(f"p_{c}" for c in range(k))]
    for i in range(n):
        cells = [f"{p:.9g}" for p in probs[i]]
        out.append(f"{i},{preds[i]},{cells[preds[i]]}," + ",".join(cells))
    return "\n".join(out) + "\n"


def check_predictions(text: str, n_rows: int, n_classes: int) -> np.ndarray:
    """Check a predictions CSV and return its ``pred`` column.

    Checks the header, the row count and width, the index column, that
    every probability lies in [0, 1], that each row sums to 1 within the
    print precision, that ``pred`` is the row argmax with ties to the
    lower index, and that ``conf`` equals ``p_pred``.
    """
    header, _, body = text.partition("\n")
    want = "index,pred,conf," + ",".join(f"p_{c}" for c in range(n_classes))
    if header != want:
        raise CheckFailed(f"header {header[:60]!r}... is not the {n_classes}-class header")
    if body.count("\n") != n_rows or not body.endswith("\n"):
        raise CheckFailed(f"expected {n_rows} newline-terminated rows")
    try:
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"unparseable rows: {exc}") from exc
    if table.shape != (n_rows, 3 + n_classes):
        raise CheckFailed(f"table shape {table.shape}, expected {(n_rows, 3 + n_classes)}")
    if not np.array_equal(table[:, 0], np.arange(n_rows)):
        raise CheckFailed("index column is not 0..N-1")
    probs = table[:, 3:]
    if not np.all(np.isfinite(probs)) or probs.min() < 0.0 or probs.max() > 1.0:
        raise CheckFailed("a probability lies outside [0, 1]")
    sums = probs.sum(axis=1)
    tol = PRINT_REL_ERR + n_classes * 1e-15
    bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
    if bad.size:
        raise CheckFailed(f"row {bad[0]} sums to {sums[bad[0]]!r}")
    preds = table[:, 1]
    argmax = np.argmax(probs, axis=1)
    bad = np.flatnonzero(preds != argmax)
    if bad.size:
        raise CheckFailed(f"row {bad[0]}: pred {preds[bad[0]]:g}, row argmax {argmax[bad[0]]}")
    if not np.array_equal(table[:, 2], probs[np.arange(n_rows), argmax]):
        raise CheckFailed("conf differs from p_pred")
    return argmax


def check_gamma_choice(stdout: str, score_table_text: str, grid) -> float:
    """Check that the printed support weight is the smallest grid value
    with the highest validation accuracy in the written score table."""
    lines = score_table_text.split("\n")
    if lines[0] != "gamma,validation_accuracy":
        raise CheckFailed("score table header missing")
    rows = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:] if ln]
    gammas = [g for g, _ in rows]
    if not np.allclose(gammas, grid, rtol=1e-9, atol=0.0):
        raise CheckFailed(f"score table covers {gammas}, expected grid {list(grid)}")
    if any(not 0.0 <= acc <= 1.0 for _, acc in rows):
        raise CheckFailed("validation accuracy outside [0, 1]")
    best = max(acc for _, acc in rows)
    expected = min(g for g, acc in rows if acc == best)
    match = re.search(r"^support weight: (\S+)$", stdout, flags=re.M)
    if match is None:
        raise CheckFailed("no 'support weight' line on stdout")
    printed = float(match.group(1))
    if not np.isclose(printed, expected, rtol=1e-5, atol=0.0):
        raise CheckFailed(f"printed support weight {printed:g}, table picks {expected:g}")
    return printed


def check_knn(data: np.ndarray, neighbors, rows, k: int) -> None:
    """Check the graph rows ``rows``: neighbours are the top-k other rows
    by (-cosine, index) and their weights are max(0, cosine).

    ``neighbors(i)`` returns node i's (indices, weights). An order that
    differs from the reference only among cosines equal within 1e-12 is
    accepted, since two matrix products may round such near-ties apart.
    """
    sims = data[rows] @ data.T
    sims[np.arange(len(rows)), rows] = -np.inf
    index = np.arange(data.shape[0])
    for row, s in zip(rows, sims):
        idx, w = (np.asarray(a) for a in neighbors(row))
        ref = np.lexsort((index, -s))[:k]
        if idx.shape != (k,):
            raise CheckFailed(f"node {row} has {idx.size} neighbours, expected {k}")
        if not np.array_equal(idx, ref) and not np.allclose(s[idx], s[ref], rtol=0.0, atol=1e-12):
            raise CheckFailed(f"node {row}: neighbours {idx.tolist()}, top-k {ref.tolist()}")
        if not np.allclose(w, np.maximum(0.0, s[idx]), rtol=0.0, atol=1e-12):
            raise CheckFailed(f"node {row}: weights are not max(0, cosine)")


def _row_weights(n_rows: int, n_support: int, support_weight: float) -> np.ndarray:
    """Likelihood weight of each row: 1/n_query for queries, gamma/n_support
    for labeled shots."""
    w = np.full(n_rows, 1.0 / (n_rows - n_support))
    w[:n_support] = support_weight / n_support if n_support else 0.0
    return w


def check_means(z, features, n_support, support_weight, prev_means, means) -> None:
    """Check a mean update: each class mean is the z-weighted average of
    the features (shots weighted gamma/n_support, queries 1/n_query); a
    class with no mass keeps its previous mean."""
    wz = z * _row_weights(z.shape[0], n_support, support_weight)[:, None]
    mass = wz.sum(axis=0)
    live = mass >= 1e-12
    expected = np.array(prev_means, dtype=np.float64)
    expected[live] = (wz[:, live].T @ features) / mass[live, None]
    err = np.abs(np.asarray(means) - expected).max()
    if not err <= 1e-9:
        raise CheckFailed(f"class means differ from the weighted averages by {err:.3g}")


def objective_value(z, means, variances, features, n_support, prior, edges,
                    kl_weight, support_weight) -> float:
    """The solver's objective in its update-consistent weighting, without
    the constant -(d/2) log(2 pi):

        - sum_q z.log N(f | mu, diag var)
        + sum_q z.log z - kl_weight * sum_q z.log prior
        - sum_(i,j) w_ij z_i.z_j
        + gamma * n_query / n_support * (- sum_s z.log N(f | mu, diag var))
    """
    n_q = z.shape[0] - n_support
    inv_var = 1.0 / variances
    sq_dist = (
        (features * features) @ inv_var
    )[:, None] - 2.0 * features @ (means * inv_var).T + ((means * means) @ inv_var)[None, :]
    log_dens = -0.5 * (np.log(variances).sum() + sq_dist)
    zq = z[n_support:]
    positive = zq > 0
    entropy = float(np.sum(zq[positive] * np.log(zq[positive])))
    value = -float(np.sum(zq * log_dens[n_support:]))
    value += entropy - kl_weight * float(np.sum(zq * np.log(np.maximum(prior, 1e-300))))
    src, dst, w = edges
    value -= float(np.sum(w * np.einsum("ek,ek->e", z[src], z[dst])))
    if n_support and support_weight > 0:
        support_nll = -float(np.sum(z[:n_support] * log_dens[:n_support]))
        value += support_weight * n_q / n_support * support_nll
    return value
