"""Block optimizer for the transductive assignment objective.

The objective couples three blocks of variables: per-sample class
assignments constrained to the probability simplex, class means, and one
shared diagonal covariance. Each outer iteration runs several simultaneous
(Jacobi) assignment sweeps, then refreshes the means and variances with
their closed-form minimizers. Assignment rows belonging to labeled support
samples stay frozen at their one-hot labels.

Two flavors of the objective are exposed:

* ``normalized``: the GMM term is averaged over the query set and the
  support term carries weight gamma / n_support.
* ``update_consistent``: every query sample contributes at unit weight and
  the support term carries gamma * n_query / n_support. This is the exact
  Lyapunov function of the implemented updates: the assignment sweep
  minimizes its per-sample convex surrogate, and the mean/variance formulas
  are its stationary points. Descent diagnostics use this flavor.

The two differ by a positive rescaling of the likelihood terms relative to
the graph and prior terms, so they share the mean/variance stationary
points but weigh the assignment trade-off differently.

The solver works on plain float64 arrays. Assignments are validated as
``SimplexAssignments`` where they enter (the soft labels and the support
one-hot rows) and once where they leave (the query rows ``run`` returns,
a read-only view of ``state.z``, not a copy); the sweeps in between
produce row softmaxes, which lie on the simplex by construction.
``state.z`` is always a read-only array, and each sweep replaces it rather
than writing into it. Everything runs in the calling thread.
``gmm_log_probs`` walks the rows in fixed blocks of ``_CHUNK_ROWS``, one
GEMM each, and squares the features in sub-blocks of about
``_ROW_BLOCK_BYTES``, so it makes no N x d temporary; the GEMM block
boundaries are part of the output bits of larger tasks.

Log-density values omit the constant -(d/2) log(2 pi): it cancels in every
row softmax and offsets both objectives by an assignment-independent
constant, so tests compare objective differences rather than absolute
likelihoods.

Work that does not depend on the term weights is done once per task by
``prepare``: the soft labels and their log prior, the stacked
support-then-query features, the kNN graph, the starting assignments and
the initial mixture. It returns the initial ``SolverState``, which ``run``
and ``init_state`` accept, so solves that differ only in ``support_weight``
(the few-shot grid search) share one graph. Without a prepared state,
``init_state`` prepares the task itself.

A ``SolverState`` is frozen: ``run`` steps it with ``dataclasses.replace``,
so every state of a task shares the prepared state's arrays. ``run`` owns
what an outer iteration reuses: the base logits its sweeps share, the
moments its mean and variance steps share and, traced, the objective's
log-densities.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .affinity import build_knn
from .types import (
    PRIOR_LOG_FLOOR,
    VAR_FLOOR,
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    SimplexAssignments,
    TaskSpec,
    validate_task,
)
from .zeroshot import compute_soft_labels, init_prototypes_support, init_prototypes_topk

# gmm_log_probs works through the rows in blocks of this many, one GEMM each.
# Changing it can change the last bits of the output for tasks with more rows
# than this.
_CHUNK_ROWS = 8192

# Row-wise passes whose bits do not depend on the row count (the squared
# feature norms, the prior added into the base logits) take rows in blocks
# of about this many bytes, which bounds their temporaries.
_ROW_BLOCK_BYTES = 256 * 1024

# Classes whose mean-update denominator falls below this keep their
# previous prototype instead of dividing by ~0.
_EMPTY_CLASS_EPS = 1e-12


@dataclass
class TraceRow:
    iteration: int
    block: str
    normalized: float
    update_consistent: float


@dataclass(frozen=True, eq=False)
class SolverState:
    """One iterate of a solve plus the task's arrays, all read-only.

    ``z`` is a float64 array. Rows 0..n_support-1 are the one-hot support
    labels and are never modified; the remaining rows are the query
    assignments.
    ``features`` stacks support embeddings above query embeddings in the
    same order as ``z`` and the graph nodes; ``log_prior`` is the log of
    the soft labels floored at ``PRIOR_LOG_FLOOR``. ``task`` is the spec the
    state was prepared from; ``init_state`` checks a spec against it.
    """

    z: np.ndarray
    gmm: GmmParams
    soft_labels: SimplexAssignments
    log_prior: np.ndarray
    graph: AffinityGraph
    features: np.ndarray
    n_support: int
    task: TaskSpec
    trace: list = field(default_factory=list)

    @property
    def objective_trace(self) -> list:
        return [row.update_consistent for row in self.trace]

    @property
    def n_query(self) -> int:
        return self.features.shape[0] - self.n_support

    def matches(self, spec: TaskSpec) -> bool:
        """Whether ``spec`` is the task this state was prepared from: the
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


def _rows_per_block(width: int) -> int:
    """Rows of ``width`` float64 values in about ``_ROW_BLOCK_BYTES``."""
    return max(1, _ROW_BLOCK_BYTES // (8 * width))


def gmm_log_probs(features: np.ndarray, gmm: GmmParams) -> np.ndarray:
    """Per-sample, per-class Gaussian log-densities under a shared diagonal
    covariance, without the 2*pi constant.

    Entry (i, k) is -0.5 * sum_d [log var_d + (f_id - mean_kd)^2 / var_d].
    """
    inv_var = 1.0 / gmm.variances
    log_det = float(np.log(gmm.variances).sum())
    scaled_means = gmm.means * inv_var
    mean_sq = np.einsum("kd,kd->k", gmm.means, scaled_means)
    out = np.empty((features.shape[0], gmm.n_classes))
    step = _rows_per_block(features.shape[1])
    for lo in range(0, features.shape[0], _CHUNK_ROWS):
        block = features[lo : lo + _CHUNK_ROWS]
        # a row's einsum bits do not depend on the rows beside it, so the
        # squares are taken in sub-blocks, not as one rows x d temporary
        feat_sq = np.empty(block.shape[0])
        for a in range(0, block.shape[0], step):
            part = block[a : a + step]
            np.einsum("nd,d->n", part * part, inv_var, out=feat_sq[a : a + step])
        # -0.5 * (log_det + feat_sq - 2 * cross + mean_sq), built in place in
        # the output rows so no N x K temporary is allocated
        rows = out[lo : lo + _CHUNK_ROWS]
        np.matmul(block, scaled_means.T, out=rows)
        rows *= 2.0
        np.subtract((log_det + feat_sq)[:, None], rows, out=rows)
        rows += mean_sq
        rows *= -0.5
    return out


def _base_logits(state: SolverState, spec: TaskSpec) -> np.ndarray:
    """The sweep-invariant part of the query logits:
    ``kl_weight * log prior + log-densities`` of the query rows.

    Built in the query rows of one ``gmm_log_probs`` output, which the prior
    is added into in row blocks, so no second N x K array is made; IEEE
    addition commutes, so the bits are those of the sum in either order.
    """
    base = gmm_log_probs(state.features, state.gmm)[state.n_support :]
    kl_weight = spec.hyper.kl_weight
    step = _rows_per_block(base.shape[1])
    for lo in range(0, base.shape[0], step):
        base[lo : lo + step] += kl_weight * state.log_prior[lo : lo + step]
    return base


def z_step(state: SolverState, spec: TaskSpec, base: np.ndarray) -> np.ndarray:
    """One simultaneous sweep of the query assignments.

    Every query row i becomes the softmax over classes of

        kl_weight * log prior_i + log_density_i + sum_j w_ij z_j

    where the neighbor sum reads the previous iterate for all j (support
    rows contribute their one-hot labels). The softmax is the exact
    minimizer of the per-row convex surrogate, so each sweep cannot
    increase the surrogate objective. Support rows are returned untouched.
    The first two terms are ``base``, from ``_base_logits`` for the current
    ``state.gmm``; only the neighbor sum is computed afresh, for the query
    rows alone, straight into the query rows of the new read-only ``z``,
    where the softmax then runs in place.
    """
    n_s = state.n_support
    z_new = np.empty_like(state.z)
    z_new[:n_s] = state.z[:n_s]
    logits = state.graph.propagate(state.z, start=n_s, out=z_new[n_s:])
    logits += base
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    z_new.setflags(write=False)
    return z_new


def _group_moments(state: SolverState, spec: TaskSpec):
    """Support- and query-weighted first moments shared by the mean and
    variance updates. Returns (weighted z-mass per class, weighted z'F,
    weighted sum of z row-sums times f^2).
    """
    gamma = spec.hyper.support_weight
    z = state.z
    feats = state.features
    n_s, n_q = state.n_support, state.n_query

    zq, fq = z[n_s:], feats[n_s:]
    mass = zq.sum(axis=0) / n_q
    first = (zq.T @ fq) / n_q
    row_tot = zq.sum(axis=1)
    sq = (row_tot @ (fq * fq)) / n_q
    if n_s and gamma > 0:
        zs, fs = z[:n_s], feats[:n_s]
        w = gamma / n_s
        mass = mass + w * zs.sum(axis=0)
        first = first + w * (zs.T @ fs)
        sq = sq + w * (zs.sum(axis=1) @ (fs * fs))
    return mass, first, sq


def mu_step(state: SolverState, spec: TaskSpec, moments) -> np.ndarray:
    """Closed-form mean update: per class, the support/query weighted
    average of embeddings under the current assignments, whose
    ``_group_moments`` are ``moments``.

    A class whose total assignment mass is ~0 keeps its previous mean.
    """
    mass, first, _ = moments
    means = state.gmm.means.copy()
    live = mass >= _EMPTY_CLASS_EPS
    means[live] = first[live] / mass[live, None]
    return means


def sigma_step(state: SolverState, spec: TaskSpec, moments) -> np.ndarray:
    """Closed-form shared-variance update, floored at VAR_FLOOR.

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
    return np.maximum(scatter / (gamma + 1.0), VAR_FLOOR)


def _entropy_sum(z: np.ndarray) -> float:
    """sum of z * log z with the 0 log 0 = 0 convention."""
    return float(np.sum(z * np.log(np.maximum(z, PRIOR_LOG_FLOOR))))


def _objective_terms(state: SolverState, spec: TaskSpec, log_p: np.ndarray):
    """Raw objective pieces: query likelihood, prior penalty, graph term,
    support likelihood, given the ``gmm_log_probs`` of every row under
    ``state.gmm``. The graph term sums w_ij z_i . z_j over the stored
    directed edges (each ordered pair once)."""
    n_s = state.n_support
    z = state.z
    zq = z[n_s:]

    nll_query = -float(np.sum(zq * log_p[n_s:]))
    kl = _entropy_sum(zq) - spec.hyper.kl_weight * float(np.sum(zq * state.log_prior))
    laplacian = -float(np.sum(z * state.graph.propagate(z)))
    nll_support = 0.0
    if n_s and spec.hyper.support_weight > 0:
        nll_support = -float(np.sum(z[:n_s] * log_p[:n_s]))
    return nll_query, kl, laplacian, nll_support


def _assemble(terms, state: SolverState, spec: TaskSpec, which: str) -> float:
    nll_query, kl, laplacian, nll_support = terms
    n_s, n_q = state.n_support, state.n_query
    gamma = spec.hyper.support_weight
    support = gamma / n_s * nll_support if (n_s and gamma > 0) else 0.0
    if which == "normalized":
        return nll_query / n_q + kl + laplacian + support
    return nll_query + kl + laplacian + n_q * support


def objective(state: SolverState, spec: TaskSpec, which: str = "update_consistent") -> float:
    """Evaluate the full objective for the current state.

    ``which`` selects between the two weightings described in the module
    docstring.
    """
    if which not in ("normalized", "update_consistent"):
        raise ValueError(f"unknown objective flavor {which!r}")
    log_p = gmm_log_probs(state.features, state.gmm)
    return _assemble(_objective_terms(state, spec, log_p), state, spec, which)


def prepare(spec: TaskSpec) -> SolverState:
    """Validate a task and build the initial state of its solves.

    Soft labels come from the temperature softmax of query/text cosines;
    the graph spans support-then-query rows; means start from labeled
    class averages (few-shot) or each class's most confident queries
    (zero-shot), and every variance at 1/d; query assignments start at the
    soft labels and support rows at their one-hot labels. None of these
    depend on the term weights, so one prepared state serves every
    support-weight candidate.
    """
    spec = validate_task(spec)
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
        z0 = np.concatenate(
            [SimplexAssignments.one_hot(spec.support.labels, spec.n_classes).z, soft.z]
        )
        z0.setflags(write=False)
        # the query rows of z0 are the soft labels: keep them once, as a view
        soft = SimplexAssignments(z0[spec.n_support :])
    else:
        means = init_prototypes_topk(spec.query, soft, spec.hyper.init_top_m)
        z0 = soft.z  # already read-only
    log_prior = np.maximum(soft.z, PRIOR_LOG_FLOOR)
    np.log(log_prior, out=log_prior)
    log_prior.setflags(write=False)

    return SolverState(
        z=z0,
        gmm=GmmParams(means, np.full(spec.query.dim, 1.0 / spec.query.dim)),
        soft_labels=soft,
        log_prior=log_prior,
        graph=graph,
        features=rows.data,
        n_support=spec.n_support,
        task=spec,
    )


def init_state(spec: TaskSpec, prepared: Optional[SolverState] = None) -> SolverState:
    """The initial solver state of a task: ``prepared`` itself, or a fresh
    ``prepare(spec)`` when it is None.

    Raises ValueError when ``prepared`` was made from a different task.
    """
    if prepared is None:
        return prepare(spec)
    if not prepared.matches(spec):
        raise ValueError("prepared state was made from a different task")
    return prepared


def run(
    spec: TaskSpec,
    record_trace: bool = False,
    prepared: Optional[SolverState] = None,
) -> tuple[SimplexAssignments, SolverState]:
    """Full transduction pipeline; returns query assignments and final state.

    Runs ``outer_iters`` rounds of ``inner_z_iters`` assignment sweeps
    followed by one mean and one variance refresh. With record_trace, both
    objective flavors are logged after every block update. The final
    prediction for query row i is the argmax of its assignment row. The
    returned assignments are validated and hold a read-only view of the
    query rows of ``state.z``, not a copy. ``prepared`` is passed on to
    ``init_state``; the solve starts from it with a trace of its own.
    """
    state = replace(init_state(spec, prepared), trace=[])
    log_p = None  # a traced solve's log-densities under state.gmm

    def record(iteration: int, block: str) -> None:
        nonlocal log_p
        if record_trace:
            if log_p is None:
                log_p = gmm_log_probs(state.features, state.gmm)
            terms = _objective_terms(state, spec, log_p)
            state.trace.append(
                TraceRow(
                    iteration,
                    block,
                    _assemble(terms, state, spec, "normalized"),
                    _assemble(terms, state, spec, "update_consistent"),
                )
            )

    record(0, "init")
    for it in range(1, spec.hyper.outer_iters + 1):
        base = _base_logits(state, spec) if spec.hyper.inner_z_iters else None
        for _ in range(spec.hyper.inner_z_iters):
            state = replace(state, z=z_step(state, spec, base))
            record(it, "z")
        del base  # N x K, dead before the mean step
        moments = _group_moments(state, spec)
        means = mu_step(state, spec, moments)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))
        log_p = None
        record(it, "mu")
        variances = sigma_step(state, spec, moments)
        state = replace(state, gmm=GmmParams(means, variances))
        log_p = None
        record(it, "sigma")

    return SimplexAssignments(state.z[state.n_support :]), state
