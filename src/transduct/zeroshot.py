"""Text-driven soft labels and prototype initialization.

All functions are pure and deterministic; ranking ties are broken by the
lower sample index.
"""

from __future__ import annotations

import numpy as np

from .affinity import top_k
from .errors import DimensionMismatch, EmptyClass
from .types import EmbeddingMatrix, SimplexAssignments, _block_rows


def _shifted_logits(query: EmbeddingMatrix, text: EmbeddingMatrix, temperature: float):
    """t * f_i . t_k less its row's maximum, so large logits cannot overflow."""
    if query.dim != text.dim:
        raise DimensionMismatch(f"query dim {query.dim} != text dim {text.dim}")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    logits = query.data @ text.data.T
    logits *= temperature
    logits -= logits.max(axis=1, keepdims=True)
    return logits


def compute_soft_labels(
    query: EmbeddingMatrix, text: EmbeddingMatrix, temperature: float
) -> SimplexAssignments:
    """Temperature-scaled softmax of query/prototype cosine similarities.

    Entry (i, k) is exp(t * f_i . t_k) normalized over k. A temperature of 0
    yields uniform rows.
    """
    # the softmax runs in place in the one N x K product
    logits = _shifted_logits(query, text, temperature)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    # read-only, so SimplexAssignments keeps it rather than copying it
    logits.setflags(write=False)
    return SimplexAssignments(logits)


def log_soft_labels(query: EmbeddingMatrix, text: EmbeddingMatrix, temperature: float):
    """The log of ``compute_soft_labels`` as a log-softmax, finite also where
    a soft label underflows to 0."""
    logits = _shifted_logits(query, text, temperature)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def hard_predict(assignments: SimplexAssignments) -> np.ndarray:
    """Per-row argmax class; ties go to the lowest class index."""
    return np.argmax(assignments.z, axis=1)


def init_prototypes_topk(
    query: EmbeddingMatrix, soft_labels: SimplexAssignments, top_m: int
) -> np.ndarray:
    """Class means over each class's top-m most confident query samples.

    Samples are ranked per class by their soft-label column, descending,
    with index as tiebreaker; a sample may be picked by several classes.
    The columns are ranked in blocks of ``types._block_rows`` transposed
    rows, so no transposed copy of the whole N x K array is made. Returns a K x d array
    (not renormalized).
    """
    if top_m < 1:
        raise ValueError("top_m must be at least 1")
    n, k = soft_labels.n_rows, soft_labels.n_classes
    take = min(top_m, n)
    means = np.empty((k, query.dim))
    step = _block_rows(8 * n)
    for lo in range(0, k, step):
        # row c of the transpose ranks class lo + c's samples, lower indices
        # first among equal labels; top_k selects exactly, whatever the block
        order, _ = top_k(np.ascontiguousarray(soft_labels.z[:, lo : lo + step].T), take)
        for cls, picked in enumerate(order, start=lo):
            means[cls] = query.data[picked].mean(axis=0)
    return means


def init_prototypes_support(support: EmbeddingMatrix, labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Class-wise arithmetic mean of the labeled shot embeddings.

    Every class in [0, n_classes) must own at least one shot.
    """
    labels = np.asarray(labels, dtype=np.int64)
    means = np.empty((n_classes, support.dim))
    for cls in range(n_classes):
        rows = support.data[labels == cls]
        if rows.shape[0] == 0:
            raise EmptyClass(f"class {cls} has no labeled shot")
        means[cls] = rows.mean(axis=0)
    return means
