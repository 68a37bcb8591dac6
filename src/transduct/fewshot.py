"""Few-shot protocol: shot splitting, support-weight grid search, final solve.

The support weight is selected by solving the task once per candidate
value and scoring each run on held-out labeled samples with a 1-nearest-
neighbor rule: every validation embedding inherits the transduced class of
its most cosine-similar query sample. Validation samples are never part of
the query or support sets of those search runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientShots
from .solver import SolverState, run
from .types import (
    FEWSHOT_KL_WEIGHT,
    GAMMA_GRID,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
    validate_task,
)
from .zeroshot import hard_predict

# Per-class validation count: min(_MAX_VALIDATION_PER_CLASS, class shot count).
_MAX_VALIDATION_PER_CLASS = 4


def split_shots(
    support: SupportSet,
    n_classes: int,
    seed: int = 0,
    validation_pool: Optional[SupportSet] = None,
) -> tuple[SupportSet, SupportSet]:
    """Split labeled data into train shots and validation samples.

    Per class, the validation count is min(4, shots in that class). With a
    validation pool the whole support set stays for training and the
    validation samples are drawn from the pool without replacement;
    otherwise they are carved out of the support itself, shrinking the
    effective shot count. Raises InsufficientShots when a class cannot
    supply the requested counts (carving needs at least one leftover
    training shot per class).
    """
    rng = np.random.default_rng(seed)
    labels = support.labels
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for cls in range(n_classes):
        rows = np.flatnonzero(labels == cls)
        if rows.size == 0:
            raise InsufficientShots(f"class {cls} has no shots")
        n_val = min(_MAX_VALIDATION_PER_CLASS, rows.size)
        if validation_pool is not None:
            pool_rows = np.flatnonzero(validation_pool.labels == cls)
            if pool_rows.size < n_val:
                raise InsufficientShots(
                    f"validation pool has {pool_rows.size} samples for class {cls}, "
                    f"need {n_val}"
                )
            train_idx.append(rows)
            val_idx.append(rng.choice(pool_rows, size=n_val, replace=False))
        else:
            if rows.size - n_val < 1:
                raise InsufficientShots(
                    f"class {cls} has {rows.size} shots; carving {n_val} validation "
                    "samples would leave no training shot (provide a validation pool)"
                )
            picked = rng.choice(rows, size=n_val, replace=False)
            val_idx.append(picked)
            train_idx.append(np.setdiff1d(rows, picked))

    train_rows = np.sort(np.concatenate(train_idx))
    val_rows = np.sort(np.concatenate(val_idx))
    source = validation_pool if validation_pool is not None else support
    train = SupportSet(
        embeddings=type(support.embeddings)(support.embeddings.data[train_rows]),
        labels=labels[train_rows],
    )
    validation = SupportSet(
        embeddings=type(source.embeddings)(source.embeddings.data[val_rows]),
        labels=source.labels[val_rows],
    )
    return train, validation


def _nearest_query_accuracy(
    assignments: SimplexAssignments, spec: TaskSpec, validation: SupportSet
) -> float:
    """Score transduced assignments on validation samples via 1-NN cosine."""
    preds = hard_predict(assignments)
    sims = validation.embeddings.data @ spec.query.data.T
    nearest = np.argmax(sims, axis=1)  # ties resolve to the lower query index
    return float(np.mean(preds[nearest] == validation.labels))


def search_gamma(
    spec_base: TaskSpec,
    validation: SupportSet,
    grid: Sequence[float] = GAMMA_GRID,
) -> tuple[float, list[tuple[float, float]]]:
    """Grid-search the support weight by validation accuracy.

    Runs the solver once per candidate, scores it with the 1-NN rule, and
    returns the best value (ties go to the smaller weight) plus the full
    score table in grid order.
    """
    if len(grid) == 0:
        raise ValueError("support-weight grid must be non-empty")
    table: list[tuple[float, float]] = []
    for gamma in grid:
        assignments, _ = run(
            spec_base.with_hyper(support_weight=float(gamma)), record_trace=False
        )
        table.append((float(gamma), _nearest_query_accuracy(assignments, spec_base, validation)))
    best_acc = max(acc for _, acc in table)
    best_gamma = min(g for g, acc in table if acc == best_acc)
    return best_gamma, table


@dataclass
class FewShotResult:
    assignments: SimplexAssignments
    state: SolverState
    gamma: float
    score_table: list  # [(gamma, validation accuracy)] in grid order; empty if no search
    train_support: SupportSet
    validation: Optional[SupportSet]


def run_fewshot(
    spec: TaskSpec,
    grid: Sequence[float] = GAMMA_GRID,
    gamma: Optional[float] = None,
    kl_weight: float = FEWSHOT_KL_WEIGHT,
    validation_pool: Optional[SupportSet] = None,
    seed: int = 0,
    record_trace: bool = True,
) -> FewShotResult:
    """Few-shot pipeline: pick the support weight, then solve on the full
    support set.

    An explicit ``gamma`` skips the search. Otherwise shots are split per
    ``split_shots`` and the weight is selected on the held-out samples; the
    final solve then uses every provided support shot, and records the
    objective trace only when ``record_trace`` is set.
    """
    spec = validate_task(spec)
    if spec.support is None:
        raise ValueError("few-shot run requires a support set")
    spec = spec.with_hyper(kl_weight=kl_weight)

    validation = None
    table: list[tuple[float, float]] = []
    if gamma is None:
        train, validation = split_shots(
            spec.support, spec.n_classes, seed=seed, validation_pool=validation_pool
        )
        search_spec = replace(spec, support=train)
        gamma, table = search_gamma(search_spec, validation, grid=grid)
        train_support = train
    else:
        gamma = float(gamma)
        train_support = spec.support

    final_spec = spec.with_hyper(support_weight=gamma)
    assignments, state = run(final_spec, record_trace=record_trace)
    return FewShotResult(
        assignments=assignments,
        state=state,
        gamma=gamma,
        score_table=table,
        train_support=train_support,
        validation=validation,
    )
