"""Validated data types for transductive embedding classification.

All types are immutable after construction (arrays are marked read-only)
and safe to share across threads. Input arrays are copied unless the type
can keep them: an ``AffinityGraph`` keeps read-only views of the arrays it
is given, and a ``SimplexAssignments`` or ``GmmParams`` keeps a float64
array that is already read-only and C-contiguous, such as the solver's
assignment rows or means, and copies a writable one. The only algorithms
here are row normalization and the graph's weighted neighbor sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    LabelOutOfRange,
    NonFiniteValue,
    NormTooFarFromUnit,
)

# Row norms may deviate this much from 1.0 before the row is rejected as
# corrupt instead of silently renormalized.
NORM_GATE = 1e-2
# Rows already this close to unit norm are left untouched, which makes
# normalization bitwise idempotent.
_NORM_SKIP = 1e-12

# Assignment rows must sum to 1 within this tolerance.
ROW_SUM_TOL = 1e-9

# Lower bound applied to every per-dimension variance.
VAR_FLOOR = 1e-12

# Floor applied inside log() so exactly-zero assignments stay finite in z log z.
PRIOR_LOG_FLOOR = 1e-300

# The sweep's logits carry kl_weight * temperature * f . t_k, |f . t_k| <= 1,
# beside far smaller terms, and the soft labels' logits temperature * f . t_k;
# each max-shift takes the difference of two. With kl_weight * temperature
# and temperature at most a quarter of the largest float, all stay finite.
KL_LOGIT_MAX = float(np.finfo(np.float64).max) / 4


# normalize_rows checks and measures rows in blocks of about this many
# bytes, which bounds its temporaries; a row's norm does not depend on the
# block it is in.
_NORM_BLOCK_BYTES = 256 * 1024

# AffinityGraph.propagate gathers neighbor rows in row blocks of about this
# many bytes, small enough to stay in cache; the block does not change the
# result.
_PROPAGATE_BYTES = 512 * 1024


def _freeze(arr: np.ndarray, source=None) -> np.ndarray:
    """Read-only C-contiguous `arr`, copied unless it is a new array.

    With `source`, the caller's input that `arr` was derived from, the copy
    is made only when `arr` may share memory with it; otherwise `arr` is
    taken to be the caller's and always copied.
    """
    out = np.ascontiguousarray(arr)
    if out is arr and (source is None or np.may_share_memory(out, source)):
        out = arr.copy()
    out.setflags(write=False)
    return out


def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Return `data` with unit-norm rows, rejecting rows too far from unit.

    Rows whose norm deviates from 1 by more than NORM_GATE raise
    NormTooFarFromUnit; rows within _NORM_SKIP are returned unchanged so
    repeated normalization is a bitwise no-op. The rows are read in C
    order, so the result does not depend on the input's memory layout. The
    input is never written: rows are divided in place only in a new float64
    conversion, and in a copy otherwise.
    """
    arr = np.asarray(data, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {arr.shape}")
    norms = np.empty(arr.shape[0])
    block = max(1, _NORM_BLOCK_BYTES // (8 * max(1, arr.shape[1])))
    for lo in range(0, arr.shape[0], block):
        rows = arr[lo : lo + block]
        if not np.all(np.isfinite(rows)):
            raise NonFiniteValue("embedding matrix contains non-finite entries")
        norms[lo : lo + block] = np.linalg.norm(rows, axis=1)
    off = np.abs(norms - 1.0)
    if np.any(off > NORM_GATE):
        worst = int(np.argmax(off))
        raise NormTooFarFromUnit(
            f"row {worst} has norm {norms[worst]:.6f}, "
            f"further than {NORM_GATE} from 1.0"
        )
    fix = off > _NORM_SKIP
    if np.any(fix):
        if np.may_share_memory(arr, data):
            arr = arr.copy()
        np.divide(arr, norms[:, None], out=arr, where=fix[:, None])
    return arr


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """N x d matrix of unit-norm feature vectors (rows)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(normalize_rows(self.data), self.data))
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DimensionMismatch(f"degenerate shape {self.data.shape}")

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, eq=False)
class SimplexAssignments:
    """N x K matrix of per-row probability vectors over classes.

    A float64 array that is already read-only and C-contiguous is kept as
    given, not copied, as ``AffinityGraph`` keeps its arrays: the solver
    hands over read-only views of its assignments. A writable array is
    copied.
    """

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
            raise DimensionMismatch(f"expected a 2-d matrix, got shape {z.shape}")
        # a NaN propagates through both extremes and an infinity is one of
        # them, so no N x K mask is made
        lo, hi = z.min(), z.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise NonFiniteValue("assignment matrix contains non-finite entries")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("assignment entries must lie in [0, 1]")
        if np.any(np.abs(z.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("assignment rows must sum to 1")
        if z.flags.writeable or not z.flags.c_contiguous:
            z = _freeze(z)
        object.__setattr__(self, "z", z)

    @classmethod
    def one_hot(cls, labels: np.ndarray, n_classes: int) -> "SimplexAssignments":
        labels = np.asarray(labels, dtype=np.int64)
        z = np.zeros((labels.shape[0], n_classes))
        z[np.arange(labels.shape[0]), labels] = 1.0
        return cls(z)

    @property
    def n_rows(self) -> int:
        return self.z.shape[0]

    @property
    def n_classes(self) -> int:
        return self.z.shape[1]


@dataclass(frozen=True, eq=False)
class GmmParams:
    """K class means plus one shared vector of per-dimension variances.

    Like ``SimplexAssignments``, a float64 array that is already read-only
    and C-contiguous is kept as given: the solver's mean and variance steps
    return read-only arrays, and an outer iteration's two parameter sets
    share their means. A writable array is copied.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 2 or variances.ndim != 1:
            raise DimensionMismatch("means must be K x d, variances a d-vector")
        if means.shape[1] != variances.shape[0]:
            raise DimensionMismatch(
                f"means dim {means.shape[1]} != variances dim {variances.shape[0]}"
            )
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(variances))):
            raise NonFiniteValue("GMM parameters contain non-finite entries")
        if np.any(variances < VAR_FLOOR):
            raise ValueError(f"variances must be >= {VAR_FLOOR}")
        for name, arr in (("means", means), ("variances", variances)):
            if arr.flags.writeable or not arr.flags.c_contiguous:
                arr = _freeze(arr)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class AffinityGraph:
    """Sparse directed nearest-neighbor graph in compressed sparse row form.

    Node i's neighbors are ``indices[indptr[i]:indptr[i + 1]]`` with the
    non-negative ``weights`` at the same positions, by descending weight,
    without self-edges. ``affinity.build_knn`` makes this hold; nothing
    re-checks it. Row order is part of ``propagate``'s bits. The three
    arrays are read-only views of the ones given, never copies.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("weights", np.float64)):
            view = np.asarray(getattr(self, name), dtype=dtype).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def n_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        return self.indices.size

    def neighbors(self, i: int):
        """(indices, weights) views for node i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def propagate(self, values: np.ndarray, start: int = 0, out: Optional[np.ndarray] = None):
        """Weighted neighbor sums of nodes start..N-1: row r of the result is
        sum_j w_ij * values[j] for node i = start + r. Written into ``out``
        when given, and returned.

        Each node's neighbors are added left to right in stored order,
        starting from 0, as a sequential CSR matrix product adds them; the
        bits do not depend on the row blocks.
        The c slots that every row has are summed by one slot-major einsum
        per row block; each further slot j is added to the rows whose
        degree exceeds j.
        """
        values = np.asarray(values, dtype=np.float64)
        ptr = self.indptr[start:]
        degree = np.diff(ptr)
        m = degree.size
        if out is None:
            out = np.empty((m, values.shape[1]))
        # einsum adds in slot order while the slots are its outer loop, as they
        # are in slot-major blocks of two rows or more; for one row of one
        # column they would be its inner loop, summed out of order, so a lone
        # row takes the slot loop below
        c = int(degree.min()) if m > 1 else 0
        if c == 0:
            out[...] = 0.0
        else:
            slots = np.arange(c)[:, None]
            n_blocks = max(1, min(m // 2, m * c * values.shape[1] * 8 // _PROPAGATE_BYTES))
            bounds = np.arange(n_blocks + 1) * m // n_blocks
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                pos = ptr[a:b] + slots
                np.einsum("kn,knc->nc", self.weights[pos], values[self.indices[pos]], out=out[a:b])
        heavy = np.flatnonzero(degree > c)
        if heavy.size:
            # the rows with a slot j, by descending degree, are a prefix of
            # these; their sums are carried in one compact copy
            heavy = heavy[np.argsort(-degree[heavy], kind="stable")]
            neg_degree = -degree[heavy]
            first = ptr[heavy]
            acc = out[heavy]
            for j in range(c, -int(neg_degree[0])):
                rows = np.searchsorted(neg_degree, -j)
                pos = first[:rows] + j
                term = values[self.indices[pos]]
                term *= self.weights[pos, None]
                acc[:rows] += term
            out[heavy] = acc
        return out


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Labeled shots: embeddings plus one class index per row."""

    embeddings: EmbeddingMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != self.embeddings.n_rows:
            raise DimensionMismatch(
                "labels must be a vector with one entry per support row"
            )
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def n_rows(self) -> int:
        return self.embeddings.n_rows


@dataclass(frozen=True)
class Hyperparams:
    """Solver knobs. Defaults reproduce the reference zero-shot configuration."""

    kl_weight: float = 1.0        # weight of the text-prior KL penalty
    support_weight: float = 0.0   # weight of the labeled-shot likelihood term
    outer_iters: int = 10
    inner_z_iters: int = 5
    k_nn: int = 3
    init_top_m: int = 8           # confident samples averaged per class at init
    symmetrize_graph: bool = False

    def __post_init__(self):
        for name in ("kl_weight", "support_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
        if self.outer_iters < 0 or self.inner_z_iters < 0:
            raise ValueError("iteration counts must be non-negative")
        if self.k_nn < 0:
            raise ValueError("k_nn must be non-negative")
        if self.init_top_m < 1:
            raise ValueError("init_top_m must be at least 1")


FEWSHOT_KL_WEIGHT = 0.5
GAMMA_GRID = (0.002, 0.01, 0.02, 0.2)


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """One transduction problem: query embeddings, class-text prototypes,
    optional labeled support set, softmax temperature, and hyper-parameters.

    The class count K is the number of text-prototype rows.
    """

    query: EmbeddingMatrix
    text: EmbeddingMatrix
    support: Optional[SupportSet] = None
    temperature: float = 30.0
    hyper: Hyperparams = field(default_factory=Hyperparams)

    def __post_init__(self):
        validate_task(self)

    @property
    def n_classes(self) -> int:
        return self.text.n_rows

    @property
    def n_support(self) -> int:
        return 0 if self.support is None else self.support.n_rows

    def with_hyper(self, **kwargs) -> "TaskSpec":
        return replace(self, hyper=replace(self.hyper, **kwargs))


def validate_task(spec: TaskSpec) -> TaskSpec:
    """Check every cross-field invariant of a task; returns the spec unchanged.

    ``TaskSpec`` runs this at construction, so ``replace`` and ``with_hyper``
    raise its errors too, and no spec that breaks a bound exists; calling it
    again re-checks a spec. The temperature, and its product with the prior
    weight, must be at most ``KL_LOGIT_MAX``, so the soft labels' and the
    sweep's logits stay finite.
    """
    if spec.text.dim != spec.query.dim:
        raise DimensionMismatch(f"text dim {spec.text.dim} != query dim {spec.query.dim}")
    if spec.support is not None:
        if spec.support.embeddings.dim != spec.query.dim:
            raise DimensionMismatch(
                f"support dim {spec.support.embeddings.dim} != query dim {spec.query.dim}"
            )
        labels = spec.support.labels
        if labels.size and (labels.min() < 0 or labels.max() >= spec.n_classes):
            raise LabelOutOfRange(f"support labels must lie in [0, {spec.n_classes})")
    if not 0 < spec.temperature <= KL_LOGIT_MAX:
        raise ValueError(f"temperature must be positive and at most {KL_LOGIT_MAX!r}, "
                         f"got {spec.temperature}")
    if not float(spec.hyper.kl_weight) * float(spec.temperature) <= KL_LOGIT_MAX:
        raise ValueError(f"kl_weight * temperature must be at most {KL_LOGIT_MAX!r}, "
                         f"got {spec.hyper.kl_weight} * {spec.temperature}")
    return spec
