"""Block optimizer for the transductive assignment objective.

The objective couples three blocks of variables: per-sample class
assignments constrained to the probability simplex, class means, and one
shared diagonal covariance. Each outer iteration runs up to
``inner_z_iters`` simultaneous (Jacobi) assignment sweeps, then refreshes
the means and variances with their closed-form minimizers. A sweep is a
pure function of the iterate and the outer iteration's base logits, so once
one returns its query rows bit for bit unchanged, in the form it read them,
every later sweep of that outer iteration would too: the round ends there,
and a trace repeats the row before it for that sweep and the ones it skips,
so the result, trace included, is that of running them all. Assignment
rows belonging to labeled support samples stay frozen at their one-hot
labels.

Two flavors of the objective are recorded in a trace. ``normalized`` averages the GMM
term over the query set and weighs the support term by gamma / n_support.
``update_consistent`` weighs each query sample by 1 and the support term
by gamma * n_query / n_support; it is the exact Lyapunov function of the
implemented updates (the sweep minimizes its per-sample convex surrogate,
and the mean/variance formulas are its stationary points), and descent
diagnostics use it. The two differ by a positive rescaling of the
likelihood terms, so they share the mean/variance stationary points but
weigh the assignment trade-off differently.

The solver works on plain float64 arrays. Assignments are validated as
``SimplexAssignments`` where they enter (the soft labels and the support
one-hot rows) and once where they leave (the query rows ``run`` returns, a
read-only view of ``state.z``); the sweeps in between produce row
softmaxes, which lie on the simplex by construction. ``state.z`` is always
read-only, and each sweep replaces it. Everything runs in the calling
thread.

The log prior, log softmax(tau * Q T^T), is tau * f_i . t_k less a row
constant, and the log-density is f_i . mu_k / var - mu_k . mu_k / (2 var)
less another; the sweep's softmax cancels row constants. So an outer
iteration's base logits are one GEMM of the query rows against
mu_k / var + kl_weight * tau * t_k, plus a class bias, and no log prior or
soft labels are held. The objective takes the exact log-softmax, with no
floor, and its log-densities omit the constant -(d/2) log(2 pi), which
offsets both flavors by an assignment-independent constant. The GEMMs run
in fixed blocks of ``_CHUNK_ROWS`` rows, whose boundaries are part of the
output bits of larger tasks.

Certified candidate classes. A sweep's neighbor term for class k of query
row i lies in [0, D_i], where D_i = sum_j w_ij, since the rows of z lie on
the simplex and the weights are non-negative. So when class k's base logit
lies more than D_i + ln(1 / eps) below the row's largest, its sweep entry
is below eps times the row's largest entry (up to the rounding of ``exp``),
with eps = ``_CANDIDATE_EPS`` = 1e-16. The other classes are the row's
candidates. An outer iteration whose screened candidates are at most
1 / ``_DENSE_SHARE`` = 1/8 of the query entries sweeps the candidates alone
and sets every other query entry to exact 0, and its moments sum over the
candidate pairs where those are at most 1 / ``_PAIR_SHARE`` = 1/64 of the
entries; one above 1/8 runs the dense path, and its bytes are those of a
solve that never prunes. Tasks whose classes overlap, such
as the frozen seed-7 task or the benchmark's ``zs-graph`` and ``fs-search``
shapes, keep more than an eighth of their entries in every outer iteration,
so their outputs do not change; on wide, well-separated tasks about one
class per row is left from the second outer iteration on. The path is
chosen from the observed share alone: no setting turns it on or off.

A candidate round holds no N x K array of its own. Unless the round before
it was dense, it screens base logits computed in row blocks of about
``_BASE_BLOCK_BYTES`` and at most an eighth of the rows, and builds the
dense ones only when the running count passes the limit. Its sweeps return
the query rows of z as ``PairValues`` on the candidate pairs, and read a
neighbor's entry from its pair, 0 where it has none. ``state.z`` holds the
iterate in whichever form the last sweep that moved returned. The settle
check compares two iterates of one form only: iterates of different forms
never settle against each other. The other functions that read ``state.z``
take either form: a support row is read as its one-hot label while the
query rows are on pairs, and a dense z is built from the pairs only for a
moments pass over more than 1 / 64 of the entries, for each row of a trace,
once before the first sweep of a dense round that follows, and once for
the final state. Each holds the bits the dense loop would have held.

Drift-bounded screens (Elkan, ICML 2003; Hamerly, SDM 2010). A candidate
round hands the next its ``LeftOut``: for each query row i an upper bound
U_i on the exact base logit of every class outside the row's pairs, and the
round's mixture, from which its GEMM weights w and bias b are made again
with the same bits. Rows are unit to 1 + 1e-12, so no logit moves by more
than delta = max_k (||w'_k - w_k||_2 + |b'_k - b_k|) into the next round;
the computed delta is raised by a factor (1 + 1e-12)(1 + 2 gamma_{d+4}) for
the row norm and the rounding of the difference, its norm and the sum. A
row's largest logit is at least that of any one class, so L_i, the largest
einsum logit of the row's previous pairs, bounds it from below. Where
U_i + delta < L_i - reach_i - margin, no class left out can reach the new
cut: its einsum logit is at most U_i + delta + gamma_{d+3} s, and
margin = 4 gamma_{d+3} s + 2 e (s + max reach), with s the larger of the
two rounds' size bounds and e the float64 machine epsilon, covers that, the
rounding of L_i and of the cut; a relative term of 4 e on every operand
covers the rounding of the test itself. Such a row is cleared: its screen
is its previous pairs, and it takes no GEMM. The other rows are gathered
into row-block GEMMs and screened as above. Every candidate of a cleared
row, its largest included, is then among its previous pairs, and
``_candidates`` takes the einsum logits and the cut of every screened entry
as before, so the kept pairs and their values have the bits of a full
screen. The next bound of a screened row is the largest GEMM logit it left
out, or einsum logit the cut left out, plus gamma_{d+3} s and the rounding
of that sum; a cleared row also keeps U_i + delta. The first round and any
round after a dense one have no bound and screen every row, and a round
that turns dense drops it. The count that chooses the dense path takes a
cleared row's previous pairs as its screened entries: like a full screen's,
they hold all its candidates. On wide tasks the class drift falls below 1
after a few rounds, against a median slack of about 140 between a row's cut
and its largest left-out logit, and the later rounds compute almost no GEMM
row.

``init_state`` builds a task's initial ``SolverState``, once per task: the
stacked support-then-query features, the kNN graph, the starting
assignments, the initial mixture and the support rows' sums of the
moments. None of these depend on the term weights, so ``run`` also starts
from a given initial state, and the solves of a few-shot grid search share
one graph. A ``SolverState`` is frozen: ``run`` steps it with
``dataclasses.replace``, so every state of a task shares the initial
state's arrays, and gives the final state its trace, a tuple of frozen
rows. A state holds the whole iterate of a round: its ``z``, dense or on
pairs, and the pairs and bound of the last candidate round's base, which
the next screen reads. ``run`` owns the rest of what a solve reuses: each
query row's reach, the base logits or candidates an outer iteration's
sweeps share, the moments its mean and variance steps share and, traced,
the objective's log-densities and log prior.

The support weight gamma enters an outer iteration only at its moments:
the base logits, the sweeps and the query sums before them read the
iterate, the mixture, the graph and the prior alone. So the first outer
iteration of every support weight's solve is the same up to its mean step,
from the same initial state. ``first_round`` runs that half once and keeps
it as a ``FirstRound``; ``run`` given one goes on from it to the mean step
of its own weight, so the candidates of a grid search pay for the first
round's base logits and sweeps once in all. Each solve has the bits of a
solve from the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .affinity import _gamma, _pair_dots, build_knn
from .types import (
    PRIOR_LOG_FLOOR,
    VAR_FLOOR,
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    SimplexAssignments,
    TaskSpec,
)
from .zeroshot import (
    compute_soft_labels,
    init_prototypes_support,
    init_prototypes_topk,
    log_soft_labels,
)

# gmm_log_probs and the base logits work through the rows in blocks of this
# many, one GEMM each. Changing it can change the last bits of the output for
# tasks with more rows than this.
_CHUNK_ROWS = 8192

# _same_bits compares rows in blocks of about this many bytes.
_ROW_BLOCK_BYTES = 256 * 1024

# Classes whose mean-update denominator falls below this keep their
# previous prototype instead of dividing by ~0.
_EMPTY_CLASS_EPS = 1e-12

# A class whose base logit lies more than D_i + ln(1 / _CANDIDATE_EPS) below
# the largest of query row i, D_i the row's graph weight sum, gets a sweep
# entry below _CANDIDATE_EPS times the row's largest, and the sweep sets it
# to 0; the other classes are the row's candidates.
_CANDIDATE_EPS = 1e-16
_LOG_INV_EPS = math.log(1.0 / _CANDIDATE_EPS)
# an outer iteration whose screened candidates exceed 1 / _DENSE_SHARE of its
# query entries runs the dense path, at the share affinity.build_knn uses
_DENSE_SHARE = 8
# the moments sum over the candidate pairs only where they are at most
# 1 / _PAIR_SHARE of the query entries. Single-threaded at 2000 x 500 x 512,
# the pair sums overtake the dense product between 1/42 and 1/25 of the
# entries, and take about 0.6 of its time at 1/64
_PAIR_SHARE = 64
# the pair moments gather about this many bytes of feature rows per einsum
_PAIR_BYTES = 4 * 2**20
# a screen that does not start from a dense base computes the base logits in
# row blocks of about this many bytes, one GEMM each
_BASE_BLOCK_BYTES = 2**20


@dataclass(frozen=True, eq=False)
class Candidates:
    """An outer iteration's candidate classes: the (query row, class) pairs
    in row-major order. Every query row has at least one pair, its largest
    base logit, and ``starts`` holds the position of each row's first pair.
    ``keys`` are the pairs' row-major flat indices, row * K + class, in
    ascending order."""

    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    keys: np.ndarray


@dataclass(frozen=True, eq=False)
class LeftOut:
    """A candidate round's bound for the next round's screen: ``upper[i]``
    is at least the exact base logit, under the GEMM weights and bias of the
    round's ``gmm``, of every class of query row i outside the pairs of the
    ``PairValues`` it rides on. ``size`` is the round's s, which bounds
    ||w_k||_2 + |bias_k|. The bound holds the means the state holds until
    the mean step, not the K x d weights made from them, so holding it
    through that step raises no peak."""

    upper: np.ndarray
    gmm: GmmParams
    size: float


@dataclass(frozen=True, eq=False)
class PairValues:
    """Query rows of an N x K array on candidate pairs: ``values`` at the
    pairs of ``pairs``, in their order. As an outer iteration's base logits,
    the other classes are those the screen left out, and ``bound`` is the
    round's ``LeftOut``; the next round's screen reads these two alone, from
    the base without its ``values`` in ``SolverState.screen``. As the query
    rows of an iterate, ``SolverState.z``, every other entry is 0."""

    pairs: Candidates
    values: Optional[np.ndarray]
    bound: Optional[LeftOut] = None


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    block: str
    normalized: float
    update_consistent: float


@dataclass(frozen=True, eq=False)
class SolverState:
    """One iterate of a solve plus the task's arrays, all read-only.

    ``z`` is the iterate, in one of two forms. Dense, it is a float64
    N x K array: rows 0..n_support-1 are the one-hot support labels and
    are never modified; the remaining rows are the query assignments.
    Mid-solve, after a candidate round's sweep, it is the query rows as
    ``PairValues`` on the round's candidate pairs, 0 off them, and the
    support rows are the one-hot rows of ``task.support.labels``; the
    wrappers of ``z_step`` and ``mu_step`` see such states, and every state
    that ``init_state`` or ``run`` returns is dense. ``screen`` is the last
    candidate round's base, its pairs and ``LeftOut`` bound without values,
    for the next round's screen; it is None after a dense round and after
    the last round. ``features`` stacks support embeddings above query
    embeddings in the same order as ``z`` and the graph nodes. ``task`` is
    the spec the state was built from; ``run`` checks a spec against it.
    ``z`` is the only N x K array held: the soft labels are computed afresh
    on request. ``trace`` holds the rows of a traced solve, and is empty
    otherwise.
    ``support_sums`` holds the support rows' terms of ``_group_moments``
    before their weight: the one-hot rows' class counts, their sums of
    feature rows and the sum of their squared features, or None without
    support rows.
    """

    z: Union[np.ndarray, PairValues]
    gmm: GmmParams
    graph: AffinityGraph
    features: np.ndarray
    n_support: int
    task: TaskSpec
    support_sums: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    screen: Optional[PairValues] = None
    trace: tuple[TraceRow, ...] = ()

    @property
    def soft_labels(self) -> SimplexAssignments:
        """The task's soft labels, computed afresh."""
        task = self.task
        return compute_soft_labels(task.query, task.text, task.temperature)

    @property
    def n_query(self) -> int:
        return self.features.shape[0] - self.n_support

    def matches(self, spec: TaskSpec) -> bool:
        """Whether ``spec`` is the task this state was built from: the
        same query, text and support objects and the same temperature, graph
        and initialization settings."""
        task = self.task
        return (
            spec.query is task.query
            and spec.text is task.text
            and spec.support is task.support
            and spec.temperature == task.temperature
            and spec.hyper.k_nn == task.hyper.k_nn
            and spec.hyper.symmetrize_graph == task.hyper.symmetrize_graph
            and spec.hyper.init_top_m == task.hyper.init_top_m
        )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays of one shape hold the same bits.

    The rows are compared as uint64 in blocks of about ``_ROW_BLOCK_BYTES``,
    up to the first block that differs, so arrays that differ early cost one
    block; -0.0 and 0.0 differ, and a NaN equals its own bits.
    """
    a, b = a.view(np.uint64), b.view(np.uint64)
    step = max(1, _ROW_BLOCK_BYTES // (8 * a.shape[1]))
    return all(
        np.array_equal(a[lo : lo + step], b[lo : lo + step])
        for lo in range(0, a.shape[0], step)
    )


def _gemm_rows(rows: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``rows @ weights.T + bias``, one GEMM per block of ``_CHUNK_ROWS`` rows,
    with the bias added in place."""
    out = np.empty((rows.shape[0], weights.shape[0]))
    for lo in range(0, rows.shape[0], _CHUNK_ROWS):
        part = out[lo : lo + _CHUNK_ROWS]
        np.matmul(rows[lo : lo + _CHUNK_ROWS], weights.T, out=part)
        part += bias
    return out


def _class_terms(gmm: GmmParams):
    """The class terms of a log-density: mu_k / var and -0.5 * mu_k . mu_k / var."""
    scaled_means = gmm.means * (1.0 / gmm.variances)
    return scaled_means, -0.5 * np.einsum("kd,kd->k", gmm.means, scaled_means)


def _base_terms(gmm: GmmParams, spec: TaskSpec):
    """The weights mu_k / var + kl_weight * tau * t_k and class bias of the
    base logits' GEMM under ``gmm``."""
    scaled_means, bias = _class_terms(gmm)
    # summed in place: K x d is as large as a quarter of N x K on wide tasks
    weights = (spec.hyper.kl_weight * spec.temperature) * spec.text.data
    weights += scaled_means
    return weights, bias


def gmm_log_probs(features: np.ndarray, gmm: GmmParams) -> np.ndarray:
    """Per-sample, per-class Gaussian log-densities under a shared diagonal
    covariance, without the 2*pi constant.

    Entry (i, k) is -0.5 * sum_d [log var_d + (f_id - mean_kd)^2 / var_d].
    """
    out = _gemm_rows(features, *_class_terms(gmm))
    # less half of log det + sum_d f_d^2 / var_d, from an einsum that makes
    # no N x d temporary
    row = np.einsum("nd,nd,d->n", features, features, 1.0 / gmm.variances)
    out -= 0.5 * (row + float(np.log(gmm.variances).sum()))[:, None]
    return out


def _reach(state: SolverState) -> np.ndarray:
    """D_i + ln(1 / _CANDIDATE_EPS) for each query row i, where D_i, the
    sum of the row's graph weights in stored order, bounds its neighbor sums:
    the rows of z lie on the simplex and the weights are non-negative."""
    ptr = state.graph.indptr[state.n_support :]
    rows = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    sums = np.bincount(rows, weights=state.graph.weights[ptr[0] : ptr[-1]], minlength=ptr.size - 1)
    return sums + _LOG_INV_EPS


def _screen(blocks, reach: np.ndarray, margin: float, limit: float, count: int,
            below: list) -> Optional[np.ndarray]:
    """Row-major flat indices of the base-logit entries that lie within
    reach + margin of their row's largest, over ``blocks``, the (first row,
    values) row blocks of the base logits in order; None as soon as they,
    counted on from ``count``, number more than ``limit``. Each block's kept
    entries are set to -inf, and ``below`` gets the block's row maxima of
    the rest."""
    found = [np.empty(0, np.intp)]
    for lo, values in blocks:
        cut = values.max(axis=1) - (reach[lo : lo + values.shape[0]] + margin)
        keep = np.flatnonzero(values >= cut[:, None])
        count += keep.size
        if count > limit:
            return None
        found.append(keep + lo * values.shape[1])
        values.reshape(-1)[keep] = -np.inf
        below.append(values.max(axis=1))
    return np.concatenate(found)


def _candidates(features, weights, bias, reach, flat, upper, known=None) -> PairValues:
    """The candidates among the screened entries ``flat`` with their
    float64 einsum logits, cut again at the row's largest less its reach.
    ``known`` holds more screened entries, of other rows, whose logits were
    taken already, as (flat indices, logits). ``upper`` is raised, in place,
    to the logit of every entry that the cut leaves out."""
    n_classes = weights.shape[0]

    def starts(rows):
        counts = np.bincount(rows, minlength=features.shape[0])
        return np.cumsum(counts) - counts

    rows, cols = np.divmod(flat, n_classes)
    logits = _pair_dots(features, weights, rows, cols)
    logits += bias[cols]
    if known is not None:
        flat = np.concatenate([known[0], flat])
        order = np.argsort(flat, kind="stable")
        flat, logits = flat[order], np.concatenate([known[1], logits])[order]
        rows, cols = np.divmod(flat, n_classes)
    keep = logits >= (np.maximum.reduceat(logits, starts(rows)) - reach)[rows]
    np.maximum.at(upper, rows[~keep], logits[~keep])
    # a round holds its pairs throughout: int32 rows and classes take less
    rows, cols = rows[keep].astype(np.int32), cols[keep].astype(np.int32)
    return PairValues(Candidates(rows, cols, starts(rows), flat[keep]), logits[keep])


def _cleared(rows, weights, bias, size, peak, reach, last: PairValues, spec: TaskSpec):
    """The query rows whose classes outside ``last.pairs`` provably stay
    out of this round's candidates, under the GEMM ``weights`` and ``bias``
    of size bound ``size`` and largest ||w_k||_2 + bias_k ``peak``, given
    the last round's base ``last``; see the module docstring. Returns them
    as a mask, with the drift bound delta and their previous pairs with
    this round's einsum logits, as (flat indices, logits)."""
    n, d = rows.shape
    bound = last.bound
    eps = float(np.finfo(np.float64).eps)
    # the last round's weights, made again with the same bits, less these
    diff, last_bias = _base_terms(bound.gmm, spec)
    diff -= weights
    drift = np.sqrt(np.einsum("kd,kd->k", diff, diff)) + np.abs(bias - last_bias)
    del diff
    delta = float(drift.max()) * (1 + 1e-12) * (1 + 2 * _gamma(d + 4, np.float64))
    s = max(size, bound.size)
    margin = 4 * _gamma(d + 3, np.float64) * s + 2 * eps * (s + float(reach.max()))
    # no logit exceeds peak by more than a rounding, so a row whose bound
    # does not clear peak is screened without a dot
    rise = bound.upper + delta
    maybe = rise < peak - reach
    pairs = last.pairs
    at = np.flatnonzero(maybe[pairs.rows])
    cols = pairs.cols[at]
    logits = _pair_dots(rows, weights, pairs.rows[at], cols)
    logits += bias[cols]
    # any of a row's logits bounds its largest from below
    low = np.full(n, -np.inf)
    np.maximum.at(low, pairs.rows[at], logits)
    i = np.flatnonzero(maybe)
    room = reach[i] + margin
    slack = 4 * eps * (np.abs(bound.upper[i]) + delta + np.abs(low[i]) + room)
    clear = np.zeros(n, bool)
    clear[i] = rise[i] + slack < low[i] - room
    mine = clear[pairs.rows[at]]
    return clear, delta, (pairs.keys[at[mine]], logits[mine])


def _base_logits(state: SolverState, spec: TaskSpec, reach: np.ndarray,
                 dense_first: bool = False) -> Union[np.ndarray, PairValues]:
    """The sweep-invariant part of the query logits, ``kl_weight * log prior
    + log-densities``, up to a constant per row: the query rows against
    mu_k / var + kl_weight * tau * t_k, plus the class bias, one GEMM per
    ``_CHUNK_ROWS`` rows.

    Returned on the ``Candidates``, as ``PairValues``, when a screen keeps at most
    1 / _DENSE_SHARE of the entries, and else as the dense array. The
    screen keeps every entry that can be a candidate: a float64 dot, of a
    GEMM or of an einsum, is within gamma_{d+3} * s of the exact logit,
    where s bounds ||w_k||_2 + |bias_k| (Higham, as in ``affinity``), so a
    margin of four times that, plus the rounding of the cut, covers both. The
    candidates' logits then come from float64 einsum dots, and the cut is
    taken again on those, so the pairs kept do not depend on the GEMM's bits.
    The returned pairs carry the ``LeftOut`` bound of this round.

    With ``dense_first``, or when one block holds every row, the screen
    reads copies of the dense array's row blocks, since it marks them, and
    a dense array returned keeps its bits. Otherwise it computes the base
    logits in row blocks of about ``_BASE_BLOCK_BYTES`` and at most an
    eighth of the rows, so no N x K array is made unless the running count
    passes the limit; the dense array then comes from ``_gemm_rows``, as
    with ``dense_first``.
    Given ``state.screen``, the previous round's base on its candidate
    pairs, the blocked screen keeps the previous pairs of the rows its
    ``LeftOut`` clears as their screen, and computes the others alone, in
    gathered row blocks. ``reach`` is ``_reach(state)``.
    """
    weights, bias = _base_terms(state.gmm, spec)
    rows = state.features[state.n_support :]
    eps = float(np.finfo(np.float64).eps)
    norms = np.sqrt(np.einsum("kd,kd->k", weights, weights))
    size = float(norms.max() + np.abs(bias).max())
    err = _gamma(rows.shape[1] + 3, np.float64) * size
    margin = 4 * err + 2 * eps * (size + float(reach.max()))
    n, k = rows.shape[0], weights.shape[0]
    limit = n * k / _DENSE_SHARE
    step = max(1, _BASE_BLOCK_BYTES // (8 * k))
    pick, clear, known, count, dense = np.arange(n), None, None, 0, None
    if dense_first or step >= n:
        dense = _gemm_rows(rows, weights, bias)
        # the screen marks the blocks it reads, so it reads copies
        step = max(1, _ROW_BLOCK_BYTES // (8 * k))
        blocks = ((lo, dense[lo : lo + step].copy()) for lo in range(0, n, step))
    else:
        # an eighth of the rows at most, so a dense round shows after a few
        step = min(step, -(-n // _DENSE_SHARE))
        if state.screen is not None:
            clear, delta, known = _cleared(rows, weights, bias, size, float((norms + bias).max()),
                                           reach, state.screen, spec)
            pick = np.flatnonzero(~clear)
            count = known[0].size
        # the screen reads the rows of pick, in order, as rows 0, 1, ...
        blocks = ((lo, _gemm_rows(rows[lo : lo + step] if pick.size == n
                                  else rows[pick[lo : lo + step]], weights, bias))
                  for lo in range(0, pick.size, step))
    below = []
    flat = _screen(blocks, reach[pick], margin, limit, count, below)
    if flat is None:
        return _gemm_rows(rows, weights, bias) if dense is None else dense
    del dense
    if pick.size < n:
        at, cols = np.divmod(flat, k)
        flat = pick[at] * k + cols
    # the largest logit each row leaves out; -s where it leaves none out
    raw = np.full(n, -size)
    raw[pick] = np.maximum(np.concatenate([np.empty(0), *below]), -size)
    base = _candidates(rows, weights, bias, reach, flat, raw, known)
    upper = raw + (err + eps * (np.abs(raw) + err))
    if clear is not None:
        carried = state.screen.bound.upper[clear]
        carried = carried + (delta + eps * (np.abs(carried) + delta))
        upper[clear] = np.maximum(upper[clear], carried)
    return replace(base, bound=LeftOut(upper, state.gmm, size))


def _pair_sums(state: SolverState, nodes: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The neighbor sums sum_j w_ij z[j, k] of the (node i, class k) pairs,
    each node's neighbors added in stored order from 0, as
    ``AffinityGraph.propagate`` adds them; the pairs are taken in blocks of
    ``_ROW_BLOCK_BYTES`` of float64, which bounds the temporaries.

    z[j, k] is read from ``state.z`` when dense, and else from the one-hot
    support labels and each query entry from its pair, 0 where it has none.
    """
    graph, z, n_s = state.graph, state.z, state.n_support
    out = np.zeros(nodes.size)
    step = _ROW_BLOCK_BYTES // 8
    for lo in range(0, nodes.size, step):
        block, klass = nodes[lo : lo + step], cols[lo : lo + step]
        first = graph.indptr[block]
        degree = graph.indptr[block + 1] - first
        live = np.arange(block.size)
        for j in range(int(degree.max(initial=0))):
            live = live[degree[live] > j]
            pos = first[live] + j
            nb, k = graph.indices[pos], klass[live]
            if not isinstance(z, PairValues):
                entries = z[nb, k]
            else:
                # a support row's key is negative and matches no pair
                keys = (nb - n_s) * state.task.n_classes + k
                at = np.minimum(np.searchsorted(z.pairs.keys, keys), z.pairs.keys.size - 1)
                entries = z.values[at]
                entries[z.pairs.keys[at] != keys] = 0.0
                if n_s:
                    support = np.flatnonzero(nb < n_s)
                    entries[support] = state.task.support.labels[nb[support]] == k[support]
            out[lo + live] += graph.weights[pos] * entries
    return out


def z_step(state: SolverState, spec: TaskSpec,
           base: Union[np.ndarray, PairValues]) -> Union[np.ndarray, PairValues]:
    """One simultaneous sweep of the query assignments.

    Every query row i becomes the softmax over classes of

        kl_weight * log prior_i + log_density_i + sum_j w_ij z_j

    where the neighbor sum reads the previous iterate for all j (support
    rows contribute their one-hot labels). The softmax is the exact
    minimizer of the per-row convex surrogate, so each sweep cannot
    increase the surrogate objective. Support rows are returned untouched.
    The first two terms are ``base``, from ``_base_logits`` for the current
    ``state.gmm``, up to a row constant; only the neighbor sum is computed
    afresh, for the query rows alone.

    The sweep reads the previous iterate from ``state.z``. From a dense
    ``base`` it reads a dense ``state.z``, and its neighbor sums go
    straight into the query rows of the new read-only ``z``, where the
    softmax then runs in place. From base logits on candidate pairs it
    reads ``state.z`` in either form, the neighbor sums, the softmax and its
    normalization run over those pairs alone, and the sweep returns the new
    query rows as ``PairValues`` on them: every other query entry is 0.
    """
    n_s = state.n_support
    if isinstance(base, PairValues):
        pairs = base.pairs
        logits = _pair_sums(state, pairs.rows + n_s, pairs.cols)
        logits += base.values
        logits -= np.maximum.reduceat(logits, pairs.starts)[pairs.rows]
        np.exp(logits, out=logits)
        logits /= np.add.reduceat(logits, pairs.starts)[pairs.rows]
        logits.setflags(write=False)
        return PairValues(pairs, logits)
    z = state.z
    z_new = np.empty_like(z)
    z_new[:n_s] = z[:n_s]
    logits = state.graph.propagate(z, start=n_s, out=z_new[n_s:])
    logits += base
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    z_new.setflags(write=False)
    return z_new


def _same_query_rows(new: Union[np.ndarray, PairValues], old: Union[np.ndarray, PairValues],
                     n_s: int) -> bool:
    """Whether two iterates of one form have the same query rows: two dense
    z compared from row ``n_s`` on by ``_same_bits``, or two sets of query
    rows on pairs by their entries whose bits are not 0, so -0.0 and 0.0
    differ in either form. Iterates of different forms are never the same."""
    if isinstance(new, PairValues) != isinstance(old, PairValues):
        return False
    if not isinstance(new, PairValues):
        return _same_bits(new[n_s:], old[n_s:])
    bits, other = new.values.view(np.uint64), old.values.view(np.uint64)
    mine, theirs = bits != 0, other != 0
    return (np.array_equal(new.pairs.keys[mine], old.pairs.keys[theirs])
            and np.array_equal(bits[mine], other[theirs]))


def _dense_z(state: SolverState) -> np.ndarray:
    """The read-only dense z of ``state``: ``state.z`` when dense, and else
    the one-hot support labels above the query rows on their pairs."""
    if not isinstance(state.z, PairValues):
        return state.z
    n_s, pairs = state.n_support, state.z.pairs
    z = np.zeros((n_s + state.n_query, state.task.n_classes))
    if n_s:
        z[np.arange(n_s), state.task.support.labels] = 1.0
    z[n_s + pairs.rows, pairs.cols] = state.z.values
    z.setflags(write=False)
    return z


def _pair_first_moments(features: np.ndarray, values: np.ndarray,
                        pairs: Candidates, n_classes: int) -> np.ndarray:
    """Per class, the sum of values * features[row] over its pairs, one
    einsum per block of about ``_PAIR_BYTES`` of gathered rows."""
    order = np.argsort(pairs.cols, kind="stable")
    bounds = np.searchsorted(pairs.cols[order], np.arange(n_classes + 1))
    out = np.zeros((n_classes, features.shape[1]))
    step = max(1, _PAIR_BYTES // (8 * features.shape[1]))
    for k in np.flatnonzero(np.diff(bounds)).tolist():
        for lo in range(bounds[k], bounds[k + 1], step):
            pick = order[lo : min(lo + step, bounds[k + 1])]
            out[k] += np.einsum("p,pd->d", values[pick], features[pairs.rows[pick]])
    return out


def _query_moments(state: SolverState):
    """The query rows' sums of ``_group_moments``, each over n_query: (z-mass
    per class, z'F, sum of z row-sums times f^2).

    The sums run over the pairs of ``state.z`` where it is on pairs and
    those are at most 1 / ``_PAIR_SHARE`` of the query entries, and else
    over the dense query rows, of a z built for this pass alone when
    ``state.z`` is on pairs.
    """
    z = state.z
    n_s, n_q, n_classes = state.n_support, state.n_query, state.task.n_classes
    fq = state.features[n_s:]
    if isinstance(z, PairValues) and z.pairs.rows.size * _PAIR_SHARE > n_q * n_classes:
        z = _dense_z(state)
    if not isinstance(z, PairValues):
        zq = z[n_s:]
        mass = zq.sum(axis=0) / n_q
        first = (zq.T @ fq) / n_q
        row_mass = zq.sum(axis=1)
    else:
        pairs, values = z.pairs, z.values
        mass = np.bincount(pairs.cols, weights=values, minlength=n_classes) / n_q
        first = _pair_first_moments(fq, values, pairs, n_classes) / n_q
        row_mass = np.add.reduceat(values, pairs.starts)
    # one einsum, so no rows x d square is made
    sq = np.einsum("n,nd,nd->d", row_mass, fq, fq) / n_q
    return mass, first, sq


def _add_support(state: SolverState, spec: TaskSpec, query):
    """``query``, the ``_query_moments`` of an iterate, plus the support rows'
    ``state.support_sums`` at weight gamma / n_support."""
    mass, first, sq = query
    gamma = spec.hyper.support_weight
    if state.n_support and gamma > 0:
        counts, sums, squares = state.support_sums
        w = gamma / state.n_support
        mass = mass + w * counts
        first = first + w * sums
        sq = sq + w * squares
    return mass, first, sq


def _group_moments(state: SolverState, spec: TaskSpec):
    """Support- and query-weighted first moments shared by the mean and
    variance updates. Returns (weighted z-mass per class, weighted z'F,
    weighted sum of z row-sums times f^2): the ``_query_moments`` of
    ``state.z`` plus the support rows' terms.
    """
    return _add_support(state, spec, _query_moments(state))


def mu_step(state: SolverState, spec: TaskSpec, moments) -> np.ndarray:
    """Closed-form mean update: per class, the support/query weighted
    average of embeddings under the current assignments, whose
    ``_group_moments`` are ``moments``.

    A class whose total assignment mass is ~0 keeps its previous mean.
    The result is read-only, so ``GmmParams`` keeps it without a copy.
    """
    mass, first, _ = moments
    means = state.gmm.means.copy()
    live = mass >= _EMPTY_CLASS_EPS
    np.divide(first, mass[:, None], out=means, where=live[:, None])
    means.setflags(write=False)
    return means


def sigma_step(state: SolverState, spec: TaskSpec, moments) -> np.ndarray:
    """Closed-form shared-variance update, floored at VAR_FLOOR; read-only,
    like the mean update's result.

    Expects the means in ``state.gmm`` to be the ones produced this outer
    iteration (block order: assignments, means, variances) and ``moments``
    to be the ``_group_moments`` the mean update read.
    """
    mass, first, sq = moments
    means = state.gmm.means
    gamma = spec.hyper.support_weight
    scatter = sq - 2.0 * np.einsum("kd,kd->d", means, first) + np.einsum(
        "kd,kd,k->d", means, means, mass
    )
    variances = np.maximum(scatter / (gamma + 1.0), VAR_FLOOR)
    variances.setflags(write=False)
    return variances


def _entropy_sum(z: np.ndarray) -> float:
    """sum of z * log z with the 0 log 0 = 0 convention."""
    return float(np.sum(z * np.log(np.maximum(z, PRIOR_LOG_FLOOR))))


def _objective_terms(state: SolverState, spec: TaskSpec, log_p: np.ndarray,
                     log_prior: Optional[np.ndarray]) -> tuple[float, float]:
    """Both flavors of the objective, ``(normalized, update_consistent)``,
    given the ``gmm_log_probs`` of every row under ``state.gmm`` and the
    task's ``log_soft_labels``, at the dense z of ``state``. The graph term
    sums w_ij z_i . z_j over the stored directed edges (each ordered pair
    once). At ``kl_weight`` 0 the prior cross-term, whose sum overflows near
    the temperature bound, is 0 and ``log_prior`` is None."""
    n_s, n_q = state.n_support, state.n_query
    z = _dense_z(state)
    zq = z[n_s:]
    gamma = spec.hyper.support_weight

    nll_query = -float(np.sum(zq * log_p[n_s:]))
    prior = float(np.sum(zq * log_prior)) if spec.hyper.kl_weight else 0.0
    kl = _entropy_sum(zq) - spec.hyper.kl_weight * prior
    laplacian = -float(np.sum(z * state.graph.propagate(z)))
    support = 0.0
    if n_s and gamma > 0:
        support = gamma / n_s * -float(np.sum(z[:n_s] * log_p[:n_s]))
    return (nll_query / n_q + kl + laplacian + support,
            nll_query + kl + laplacian + n_q * support)


def init_state(spec: TaskSpec) -> SolverState:
    """Build the initial state of a task's solves, from a spec checked when built.

    Soft labels come from the temperature softmax of query/text cosines;
    the graph spans support-then-query rows; means start from labeled
    class averages (few-shot) or each class's most confident queries
    (zero-shot), and every variance at 1/d; query assignments start at the
    soft labels and support rows at their one-hot labels, whose sums of the
    moments are taken here once. None of these depend on the term weights,
    so one initial state serves every support-weight candidate.
    """
    # The graph is built on the held rows: wrapping them in another
    # EmbeddingMatrix would copy them, as it copies any array it did not
    # make. The stacked rows are unit already, so wrapping them changes no bit.
    if spec.support is not None:
        rows = EmbeddingMatrix(np.concatenate([spec.support.embeddings.data, spec.query.data]))
    else:
        rows = spec.query
    # The graph comes first: its row blocks are the largest temporaries of a
    # solve, and the arrays made after it reuse the heap space they free.
    # Built last, that space stays resident beside them: with glibc malloc
    # the zero-shot peak RSS at 5000 x 100 x 128 rose by about 4 MiB.
    graph = build_knn(rows, spec.hyper.k_nn, symmetrize=spec.hyper.symmetrize_graph)
    soft = compute_soft_labels(spec.query, spec.text, spec.temperature)
    if spec.support is not None:
        means = init_prototypes_support(
            spec.support.embeddings, spec.support.labels, spec.n_classes
        )
        one_hot = SimplexAssignments.one_hot(spec.support.labels, spec.n_classes)
        z0 = np.concatenate([one_hot.z, soft.z])
        z0.setflags(write=False)
        # the support rows' terms of every moments pass of the task's solves
        zs, fs = z0[: spec.n_support], rows.data[: spec.n_support]
        support_sums = (zs.sum(axis=0), zs.T @ fs, np.einsum("n,nd,nd->d", zs.sum(axis=1), fs, fs))
        for part in support_sums:
            part.setflags(write=False)
    else:
        means = init_prototypes_topk(spec.query, soft, spec.hyper.init_top_m)
        z0 = soft.z  # already read-only
        support_sums = None
    # the state holds no soft labels and no log prior: the sweeps take the
    # prior from the text rows, so z0 is the only N x K array held
    return SolverState(
        z=z0,
        gmm=GmmParams(means, np.full(spec.query.dim, 1.0 / spec.query.dim)),
        graph=graph,
        features=rows.data,
        n_support=spec.n_support,
        task=spec,
        support_sums=support_sums,
    )


def _sweep_round(iterate: list, spec: TaskSpec, it: int, reach: np.ndarray,
                 after: Optional[Callable] = None) -> SolverState:
    """Outer iteration ``it`` of a solve up to its moments: the half that no
    support weight enters. ``iterate`` is [state], the iterate; the list is
    emptied on entry, so a caller that drops its own name holds none of the
    arrays the round replaces. Computes the base logits of ``state.gmm``,
    screened from ``state.screen``, and runs up to ``inner_z_iters`` sweeps,
    returning at the first whose query rows equal its input in the same
    form (see ``_same_query_rows``): that sweep leaves the state as it was,
    and so would every later one. A dense round makes ``state.z`` dense
    before its first sweep. Returns the state after the sweeps, whose
    ``screen`` is the base's pairs and bound for the next round's screen,
    or None. ``after(state)`` is called after each sweep that moved the
    iterate."""
    state = iterate.pop()
    base = (_base_logits(state, spec, reach, it > 1 and state.screen is None)
            if spec.hyper.inner_z_iters else None)
    # the next screen reads the base's pairs and bound alone; the last
    # round's base is dead before its mean step
    screen = (replace(base, values=None)
              if isinstance(base, PairValues) and it < spec.hyper.outer_iters else None)
    # a dense sweep reads a dense z: built here, the pairs are dropped with it
    state = replace(state, z=_dense_z(state) if isinstance(base, np.ndarray) else state.z,
                    screen=screen)
    for _ in range(spec.hyper.inner_z_iters):
        new = z_step(state, spec, base)
        # the equal copy lives until the round returns, not through the mean
        # step, where it would raise the peak by one N x K array
        if _same_query_rows(new, state.z, state.n_support):
            break
        state = replace(state, z=new)
        if after is not None:
            after(state)
    # the base, N x K when dense, is dead before the moments pass
    return state


@dataclass(frozen=True, eq=False)
class FirstRound:
    """Outer iteration 1 of a task's solves up to its mean step, made by
    ``first_round`` from the initial state ``prepared`` under ``spec``:
    the state after the round's sweeps as ``state``, its ``z`` and
    ``screen`` as ``run`` holds them, and the ``_query_moments`` of its
    iterate, read-only, as ``query_sums``. ``run`` goes on from it for a
    spec that differs from ``spec`` in its support weight alone."""

    prepared: SolverState
    spec: TaskSpec
    state: SolverState
    query_sums: tuple[np.ndarray, np.ndarray, np.ndarray]

    def serves(self, spec: TaskSpec) -> bool:
        """Whether ``spec``'s hyper-parameters are those of the record's
        spec but for the support weight; ``run`` checks the task apart."""
        mine = self.spec.hyper
        return replace(spec.hyper, support_weight=mine.support_weight) == mine


def first_round(prepared: SolverState, spec: TaskSpec) -> FirstRound:
    """Run outer iteration 1 of ``spec``'s solve from the initial state
    ``prepared`` up to its mean step, for ``run`` to go on from at any
    support weight; raises ValueError when ``prepared`` was built from a
    different task."""
    if not prepared.matches(spec):
        raise ValueError("prepared state was made from a different task")
    state = _sweep_round([prepared], spec, 1, _reach(prepared))
    sums = _query_moments(state)
    for part in sums:
        part.setflags(write=False)
    return FirstRound(prepared, spec, state, sums)


def run(
    spec: TaskSpec,
    record_trace: bool = False,
    prepared: Union[SolverState, FirstRound, None] = None,
) -> tuple[SimplexAssignments, SolverState]:
    """Full transduction pipeline; returns query assignments and final state.

    Runs ``outer_iters`` rounds of at most ``inner_z_iters`` assignment
    sweeps followed by one mean and one variance refresh. A round's sweeps
    end at the first whose query rows have the bits of its input, in the
    same form; the state keeps its own ``z``, and the skipped sweeps would
    have returned the same bits. With record_trace, both objective flavors
    are recorded after every block update, and the final state's ``trace``
    holds the rows; the sweep that settles and the sweeps it skips leave the
    state, so their rows are one row, labelled as the round's sweeps, that
    repeats the flavors of the row before them. A round whose candidate
    classes are few (see the module docstring) sweeps them alone and sets
    the other query entries to 0: its sweeps return the query rows as values
    on those pairs, and ``state.z`` holds them so until a dense round makes
    it dense again, once, before its first sweep. The sweeps, the settle
    check and the moments read the pairs as they are, and the final state's
    dense z is built once, after the last moments pass and before the last
    mean step, so every state ``run`` returns holds a dense ``z``. Each
    candidate round hands its base's pairs and ``LeftOut`` bound to the next
    round's screen in ``state.screen``, and that screen then computes base
    logits only for the rows the bound does not clear (see the module
    docstring); a round that follows a dense one screens the dense base
    logits first, and the last round drops its base before its mean step.
    The final prediction for query row i is the argmax of its assignment
    row. The returned assignments are validated and hold a read-only view
    of the query rows of ``state.z``, not a copy. The solve starts from
    ``prepared``, an ``init_state`` of the same task, or else from a fresh
    ``init_state(spec)``; raises ValueError when ``prepared`` was built from
    a different task. ``prepared`` may also be a ``FirstRound`` of the
    task: an untraced solve whose spec differs from the record's in its
    support weight alone goes on from the record's first round, with the
    bits of a solve from its initial state, and any other solve starts
    from that initial state. The BLAS may sum the solve's products in an
    order that depends on its thread count; the CLI pins it to one thread
    around this call, and a library caller that needs the same bits at any
    thread count pins it likewise.
    """
    shared = None  # the first round this solve goes on from
    if isinstance(prepared, FirstRound):
        shared = prepared if not record_trace and prepared.serves(spec) else None
        prepared = prepared.prepared
    if prepared is None:
        state = init_state(spec)
    elif prepared.matches(spec):
        state = prepared
    else:
        raise ValueError("prepared state was made from a different task")
    log_p = None  # a traced solve's log-densities under state.gmm
    log_prior = (log_soft_labels(spec.query, spec.text, spec.temperature)
                 if record_trace and spec.hyper.kl_weight else None)
    trace: list[TraceRow] = []

    def record(iteration: int, block: str, state: SolverState) -> None:
        nonlocal log_p
        if log_p is None:
            log_p = gmm_log_probs(state.features, state.gmm)
        flavors = _objective_terms(state, spec, log_p, log_prior)
        trace.append(TraceRow(iteration, block, *flavors))

    def after_sweep(state: SolverState) -> None:
        record(it, "z", state)

    if record_trace:
        record(0, "init", state)
    n_s = state.n_support
    reach = _reach(state)
    for it in range(1, spec.hyper.outer_iters + 1):
        if it == 1 and shared is not None:
            state = shared.state
            moments = _add_support(state, spec, shared.query_sums)
        else:
            # handed over whole: the sweeps drop the z and the screen they replace
            iterate = [state]
            del state
            rows = len(trace)
            state = _sweep_round(iterate, spec, it, reach, after_sweep if record_trace else None)
            if record_trace:
                # a sweep that settles leaves the state, and so do the sweeps
                # after it: their rows repeat the row before them
                skipped = spec.hyper.inner_z_iters - (len(trace) - rows)
                trace += [replace(trace[-1], iteration=it, block="z")] * skipped
            moments = _group_moments(state, spec)
        # the last mean step, and any wrapper of it, sees the final dense z
        if it == spec.hyper.outer_iters:
            state = replace(state, z=_dense_z(state))
        means = mu_step(state, spec, moments)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        log_p = None
        if record_trace:
            record(it, "mu", state)
        variances = sigma_step(state, spec, moments)
        del moments  # K x d, as large as a quarter of N x K on wide tasks
        state = replace(state, gmm=GmmParams(means, variances))
        log_p = None
        if record_trace:
            record(it, "sigma", state)

    state = replace(state, trace=tuple(trace))
    return SimplexAssignments(state.z[n_s:]), state
