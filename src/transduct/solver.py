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
one-hot rows) and once where they leave (the query rows ``run`` returns);
the sweeps in between produce row softmaxes, which lie on the simplex by
construction. ``state.z`` is always a read-only array, and each sweep
replaces it rather than writing into it. Everything runs in the calling
thread. ``gmm_log_probs`` walks the rows in fixed blocks of
``_CHUNK_ROWS`` to bound its temporaries; the block boundaries are part
of the output bits of larger tasks.

Log-density values omit the constant -(d/2) log(2 pi): it cancels in every
row softmax and offsets both objectives by an assignment-independent
constant, so tests compare objective differences rather than absolute
likelihoods.

Work that does not depend on the term weights is done once per task by
``prepare``: the soft labels and their log prior, the stacked
support-then-query features, the kNN graph, the starting assignments and
the initial means. It returns a frozen ``PreparedTask`` that ``run`` and
``init_state`` accept, so solves that differ only in ``support_weight``
(the few-shot grid search) share one graph. Without a record,
``init_state`` prepares the task itself.

``SolverState`` caches what one solve reuses between block updates and
drops it when the value it came from is assigned. ``z`` (a read-only
array) and ``gmm`` (a frozen record) are immutable, so assignment is the
only way they change:

* assigning ``gmm`` drops the GMM log-densities and the sweep-invariant
  logits ``kl_weight * log prior + log-densities``, which the first sweep
  of an outer iteration builds and the others reuse;
* assigning ``z`` drops the moments that ``mu_step`` computes and
  ``sigma_step`` reuses, keyed on the support weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .affinity import build_knn
from .types import (
    VAR_FLOOR,
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    SimplexAssignments,
    TaskSpec,
    validate_task,
)
from .zeroshot import compute_soft_labels, init_prototypes_support, init_prototypes_topk

# Floor applied inside log() so exactly-zero prior entries stay finite.
PRIOR_LOG_FLOOR = 1e-300

# gmm_log_probs works through the rows in blocks of this many, which bounds
# its rows x d temporary. Changing it can change the last bits of the output
# for tasks with more rows than this.
_CHUNK_ROWS = 8192

# Classes whose mean-update denominator falls below this keep their
# previous prototype instead of dividing by ~0.
_EMPTY_CLASS_EPS = 1e-12


@dataclass
class TraceRow:
    iteration: int
    block: str
    normalized: float
    update_consistent: float


@dataclass
class SolverState:
    """Everything the block updates read and write.

    ``z`` is a read-only float64 array. Rows 0..n_support-1 are the one-hot
    support labels and are never modified; the remaining rows are the query
    assignments.
    ``features`` stacks support embeddings above query embeddings in the
    same order as ``z`` and the graph nodes; ``log_prior`` is the log of
    the soft labels, shared with the ``PreparedTask``.
    """

    z: np.ndarray
    gmm: GmmParams
    soft_labels: SimplexAssignments
    log_prior: np.ndarray
    graph: AffinityGraph
    features: np.ndarray
    n_support: int
    trace: list = field(default_factory=list)
    _log_probs: Optional[np.ndarray] = None
    # (kl_weight, array) for base_logits
    _base_logits: Optional[tuple] = None
    # (support_weight, moments) for _group_moments
    _moments: Optional[tuple] = None

    def __setattr__(self, name, value):
        if name == "gmm":
            self._log_probs = self._base_logits = None
        elif name == "z":
            self._moments = None
        object.__setattr__(self, name, value)

    @property
    def objective_trace(self) -> list:
        return [row.update_consistent for row in self.trace]

    @property
    def n_query(self) -> int:
        return self.features.shape[0] - self.n_support

    def log_probs(self) -> np.ndarray:
        if self._log_probs is None:
            self._log_probs = gmm_log_probs(self.features, self.gmm)
        return self._log_probs

    def base_logits(self, kl_weight: float) -> np.ndarray:
        """The sweep-invariant part of the query logits:
        ``kl_weight * log prior + log-densities`` of the query rows."""
        if self._base_logits is None or self._base_logits[0] != kl_weight:
            base = kl_weight * self.log_prior
            base += self.log_probs()[self.n_support :]
            self._base_logits = (kl_weight, base)
        return self._base_logits[1]


def gmm_log_probs(features, gmm: GmmParams) -> np.ndarray:
    """Per-sample, per-class Gaussian log-densities under a shared diagonal
    covariance, without the 2*pi constant.

    Entry (i, k) is -0.5 * sum_d [log var_d + (f_id - mean_kd)^2 / var_d].
    """
    data = features.data if isinstance(features, EmbeddingMatrix) else np.asarray(features)
    inv_var = 1.0 / gmm.variances
    log_det = float(np.log(gmm.variances).sum())
    scaled_means = gmm.means * inv_var
    mean_sq = np.einsum("kd,kd->k", gmm.means, scaled_means)
    out = np.empty((data.shape[0], gmm.n_classes))
    for lo in range(0, data.shape[0], _CHUNK_ROWS):
        block = data[lo : lo + _CHUNK_ROWS]
        feat_sq = np.einsum("nd,d->n", block * block, inv_var)
        # -0.5 * (log_det + feat_sq - 2 * cross + mean_sq), built in place in
        # the output rows so no N x K temporary is allocated
        rows = out[lo : lo + _CHUNK_ROWS]
        np.matmul(block, scaled_means.T, out=rows)
        rows *= 2.0
        np.subtract((log_det + feat_sq)[:, None], rows, out=rows)
        rows += mean_sq
        rows *= -0.5
    return out


def z_step(state: SolverState, spec: TaskSpec) -> np.ndarray:
    """One simultaneous sweep of the query assignments.

    Every query row i becomes the softmax over classes of

        kl_weight * log prior_i + log_density_i + sum_j w_ij z_j

    where the neighbor sum reads the previous iterate for all j (support
    rows contribute their one-hot labels). The softmax is the exact
    minimizer of the per-row convex surrogate, so each sweep cannot
    increase the surrogate objective. Support rows are returned untouched.
    The first two terms come from ``state.base_logits``; only the neighbor
    sum is computed afresh. The softmax runs in place in the fresh neighbor
    sum, which becomes the new read-only ``z``.
    """
    n_s = state.n_support
    # the cached part first: building it is the sweep's largest allocation
    base = state.base_logits(spec.hyper.kl_weight)
    z_new = state.graph.propagate(state.z)
    z_new[:n_s] = state.z[:n_s]
    logits = z_new[n_s:]
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

    The result is cached on the state until ``z`` is assigned, keyed on the
    support weight, so the variance update reuses the mean update's pass.
    """
    gamma = spec.hyper.support_weight
    cached = state._moments
    if cached is not None and cached[0] == gamma:
        return cached[1]
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
    state._moments = (gamma, (mass, first, sq))
    return mass, first, sq


def mu_step(state: SolverState, spec: TaskSpec) -> np.ndarray:
    """Closed-form mean update: per class, the support/query weighted
    average of embeddings under the current assignments.

    A class whose total assignment mass is ~0 keeps its previous mean.
    """
    mass, first, _ = _group_moments(state, spec)
    means = state.gmm.means.copy()
    live = mass >= _EMPTY_CLASS_EPS
    means[live] = first[live] / mass[live, None]
    return means


def sigma_step(state: SolverState, spec: TaskSpec) -> np.ndarray:
    """Closed-form shared-variance update, floored at VAR_FLOOR.

    Expects the means in ``state.gmm`` to be the ones produced this outer
    iteration (block order: assignments, means, variances). The moments
    come from the preceding ``mu_step`` when ``state.z`` is unchanged.
    """
    mass, first, sq = _group_moments(state, spec)
    means = state.gmm.means
    gamma = spec.hyper.support_weight
    scatter = sq - 2.0 * np.einsum("kd,kd->d", means, first) + np.einsum(
        "kd,kd,k->d", means, means, mass
    )
    return np.maximum(scatter / (gamma + 1.0), VAR_FLOOR)


def _entropy_sum(z: np.ndarray) -> float:
    """sum of z * log z with the 0 log 0 = 0 convention."""
    return float(np.sum(z * np.log(np.maximum(z, PRIOR_LOG_FLOOR))))


def _objective_terms(state: SolverState, spec: TaskSpec):
    """Raw objective pieces: query likelihood, prior penalty, graph term,
    support likelihood. The graph term sums w_ij z_i . z_j over the stored
    directed edges (each ordered pair once)."""
    n_s = state.n_support
    z = state.z
    zq = z[n_s:]
    log_p = state.log_probs()

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
    return _assemble(_objective_terms(state, spec), state, spec, which)


@dataclass(frozen=True, eq=False)
class PreparedTask:
    """The task-invariant part of a solve, shared by solves that differ only
    in the term weights or iteration counts.

    ``features`` stacks support rows above query rows; ``log_prior`` is the
    log of the soft labels floored at ``PRIOR_LOG_FLOOR``; ``z0`` is the
    starting assignment (one-hot support rows, then the soft labels) and
    ``means`` the initial class means. Every array is read-only. ``task`` is
    the spec the record was made from; ``init_state`` checks a spec against it.
    """

    features: np.ndarray
    soft_labels: SimplexAssignments
    log_prior: np.ndarray
    z0: np.ndarray
    means: np.ndarray
    graph: AffinityGraph
    n_support: int
    task: TaskSpec

    def matches(self, spec: TaskSpec) -> bool:
        """Whether ``spec`` is the task this record was made from: the same
        query, text and support objects and the same temperature, graph and
        initialization settings."""
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


def prepare(spec: TaskSpec) -> PreparedTask:
    """Validate a task and build the task-invariant inputs of its solves.

    Soft labels come from the temperature softmax of query/text cosines;
    the graph spans support-then-query rows; means start from labeled
    class averages (few-shot) or each class's most confident queries
    (zero-shot); query assignments start at the soft labels and support
    rows at their one-hot labels. None of these depend on the term
    weights, so one record serves every support-weight candidate.
    """
    spec = validate_task(spec)
    if spec.support is not None:
        features = np.concatenate([spec.support.embeddings.data, spec.query.data])
        features.setflags(write=False)
    else:
        features = spec.query.data
    # The graph comes first: its row blocks are the largest temporaries of a
    # solve, and the arrays made after it reuse the heap space they free.
    # Built last, that space stays resident beside them: with glibc malloc
    # the zero-shot peak RSS at 5000 x 100 x 128 rose by about 4 MiB.
    graph = build_knn(
        EmbeddingMatrix(features), spec.hyper.k_nn, symmetrize=spec.hyper.symmetrize_graph
    )
    soft = compute_soft_labels(spec.query, spec.text, spec.temperature)
    if spec.support is not None:
        means = init_prototypes_support(
            spec.support.embeddings, spec.support.labels, spec.n_classes
        )
        z0 = np.concatenate(
            [SimplexAssignments.one_hot(spec.support.labels, spec.n_classes).z, soft.z]
        )
        z0.setflags(write=False)
    else:
        means = init_prototypes_topk(spec.query, soft, spec.hyper.init_top_m)
        z0 = soft.z  # already read-only
    means.setflags(write=False)
    log_prior = np.maximum(soft.z, PRIOR_LOG_FLOOR)
    np.log(log_prior, out=log_prior)
    log_prior.setflags(write=False)

    return PreparedTask(
        features=features,
        soft_labels=soft,
        log_prior=log_prior,
        z0=z0,
        means=means,
        graph=graph,
        n_support=spec.n_support,
        task=spec,
    )


def init_state(spec: TaskSpec, prepared: Optional[PreparedTask] = None) -> SolverState:
    """Build the initial solver state for a validated task.

    The task-invariant inputs come from ``prepared``, or from a fresh
    ``prepare(spec)`` when it is None; a record that matches ``spec`` was
    made from a validated task. Every variance starts at 1/d. Raises
    ValueError when ``prepared`` was made from a different task.
    """
    if prepared is None:
        prepared = prepare(spec)
    elif not prepared.matches(spec):
        raise ValueError("prepared task was made from a different task")
    variances = np.full(spec.query.dim, 1.0 / spec.query.dim)
    return SolverState(
        z=prepared.z0,
        gmm=GmmParams(prepared.means, variances),
        soft_labels=prepared.soft_labels,
        log_prior=prepared.log_prior,
        graph=prepared.graph,
        features=prepared.features,
        n_support=prepared.n_support,
    )


def run(
    spec: TaskSpec,
    record_trace: bool = False,
    prepared: Optional[PreparedTask] = None,
) -> tuple[SimplexAssignments, SolverState]:
    """Full transduction pipeline; returns query assignments and final state.

    Runs ``outer_iters`` rounds of ``inner_z_iters`` assignment sweeps
    followed by one mean and one variance refresh. With record_trace, both
    objective flavors are logged after every block update. The final
    prediction for query row i is the argmax of its assignment row. The
    returned assignments are validated; ``state.z`` is the plain array.
    ``prepared`` is passed on to ``init_state``.
    """
    state = init_state(spec, prepared)

    def record(iteration: int, block: str) -> None:
        if record_trace:
            terms = _objective_terms(state, spec)
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
        for _ in range(spec.hyper.inner_z_iters):
            state.z = z_step(state, spec)
            record(it, "z")
        means = mu_step(state, spec)
        state.gmm = GmmParams(means, state.gmm.variances)
        record(it, "mu")
        variances = sigma_step(state, spec)
        state.gmm = GmmParams(means, variances)
        record(it, "sigma")

    query_assignments = SimplexAssignments(state.z[state.n_support :])
    return query_assignments, state
