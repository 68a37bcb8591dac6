"""Few-shot protocol: shot splitting, support-weight grid search, final solve.

The support weight is selected by solving the task once per candidate
value and scoring each run on held-out labeled samples with a 1-nearest-
neighbor rule: every validation embedding inherits the transduced class of
its most cosine-similar query sample. Validation samples are never part of
the query or support sets of those search runs.

The support weight only reweights the labeled-shot likelihood term, so the
candidates share one prepared state from ``solver.prepare``: one set of
soft labels and their log prior, one kNN graph and one set of initial
means for the whole search, and one validation-to-query nearest-neighbor
index. With a validation pool no shot is carved out, the search runs on the
full support set, and the winning search run is the final result; it is
solved again from the same prepared state only when the objective trace is
requested. When shots are carved, the final solve prepares the
full-support task once more, so a few-shot run builds at most two graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientShots
from .solver import SolverState, prepare, run
from .types import (
    FEWSHOT_KL_WEIGHT,
    GAMMA_GRID,
    EmbeddingMatrix,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
    validate_task,
)
from .zeroshot import hard_predict

# Per-class validation count: min(_MAX_VALIDATION_PER_CLASS, class shot count).
_MAX_VALIDATION_PER_CLASS = 4
# bytes of float64 validation-to-query cosines per block of validation rows.
# Splitting a product's rows can change its last bits, so every task that
# fits one block keeps the bits of the whole product.
_NEAREST_BYTES = 32 * 2**20


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
    training shot per class). With a validation pool nothing is carved and
    the returned training set is ``support`` itself.
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

    if validation_pool is not None:
        train, source = support, validation_pool
    else:
        train_rows = np.sort(np.concatenate(train_idx))
        train = SupportSet(
            embeddings=type(support.embeddings)(support.embeddings.data[train_rows]),
            labels=labels[train_rows],
        )
        source = support
    val_rows = np.sort(np.concatenate(val_idx))
    validation = SupportSet(
        embeddings=type(source.embeddings)(source.embeddings.data[val_rows]),
        labels=source.labels[val_rows],
    )
    return train, validation


def _nearest_queries(validation: EmbeddingMatrix, query: EmbeddingMatrix) -> np.ndarray:
    """Each validation row's most cosine-similar query row, ties to the
    lower index, from the product taken in blocks of validation rows."""
    nearest = np.empty(validation.n_rows, dtype=np.intp)
    step = max(1, _NEAREST_BYTES // (8 * query.n_rows))
    for lo in range(0, validation.n_rows, step):
        sims = validation.data[lo : lo + step] @ query.data.T
        np.argmax(sims, axis=1, out=nearest[lo : lo + step])
    return nearest


def search_gamma(
    spec_base: TaskSpec,
    validation: SupportSet,
    grid: Sequence[float] = GAMMA_GRID,
    prepared: Optional[SolverState] = None,
) -> tuple[float, list[tuple[float, float]], tuple[SimplexAssignments, SolverState]]:
    """Grid-search the support weight by validation accuracy.

    Runs the solver once per candidate from one shared ``prepared`` state
    (built here when None), scores each run with the 1-NN rule, and returns
    the best value (ties go to the smaller weight, whatever the grid
    order), the full score table in grid order, and the best candidate's
    ``(assignments, state)``. Only the best run so far is kept alive.
    """
    if len(grid) == 0:
        raise ValueError("support-weight grid must be non-empty")
    if prepared is None:
        prepared = prepare(spec_base)
    nearest = _nearest_queries(validation.embeddings, spec_base.query)
    table: list[tuple[float, float]] = []
    best_gamma, best_acc, best = 0.0, -1.0, None
    for gamma in map(float, grid):
        result = run(spec_base.with_hyper(support_weight=gamma), prepared=prepared)
        acc = float(np.mean(hard_predict(result[0])[nearest] == validation.labels))
        table.append((gamma, acc))
        if acc > best_acc or (acc == best_acc and gamma < best_gamma):
            best_gamma, best_acc, best = gamma, acc, result
        del result
    return best_gamma, table, best


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
    record_trace: bool = False,
) -> FewShotResult:
    """Few-shot pipeline: pick the support weight, then solve on the full
    support set.

    An explicit ``gamma`` skips the search. Otherwise shots are split per
    ``split_shots`` and the weight is selected on the held-out samples. The
    final solve uses every provided support shot and records the objective
    trace only when ``record_trace`` is set. When the search already ran on
    the full support set (a validation pool) and no trace is requested, the
    winning search run is the final result.
    """
    spec = validate_task(spec)
    if spec.support is None:
        raise ValueError("few-shot run requires a support set")
    spec = spec.with_hyper(kl_weight=kl_weight)
    # an empty grid and a weight that Hyperparams rejects fail here, before
    # any graph is built
    candidates = grid if gamma is None else (gamma,)
    if len(candidates) == 0:
        raise ValueError("support-weight grid must be non-empty")
    for value in candidates:
        spec.with_hyper(support_weight=float(value))

    validation = None
    table: list[tuple[float, float]] = []
    train_support = spec.support
    prepared = final = None
    if gamma is None:
        train_support, validation = split_shots(
            spec.support, spec.n_classes, seed=seed, validation_pool=validation_pool
        )
        search_spec = replace(spec, support=train_support)
        prepared = prepare(search_spec)
        gamma, table, best = search_gamma(search_spec, validation, grid=grid, prepared=prepared)
        if train_support is not spec.support:
            prepared = None  # the final task gets the carved shots back
        elif not record_trace:
            final = best  # the winning search run solved the final task
        del best  # a re-solve starts with no search run alive
    else:
        gamma = float(gamma)

    if final is None:
        final = run(
            spec.with_hyper(support_weight=gamma), record_trace=record_trace, prepared=prepared
        )
    assignments, state = final
    return FewShotResult(
        assignments=assignments,
        state=state,
        gamma=gamma,
        score_table=table,
        train_support=train_support,
        validation=validation,
    )
