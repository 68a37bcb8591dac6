"""Few-shot protocol: shot splitting, support-weight grid search, final solve.

The support weight is selected by solving the task once per candidate
value and scoring each run on held-out labeled samples with a 1-nearest-
neighbor rule: every validation embedding inherits the transduced class of
its most cosine-similar query sample. Validation samples are never part of
the query or support sets of those search runs.

The support weight only reweights the labeled-shot likelihood term, so the
candidates share one initial state from ``solver.init_state`` (the starting
assignments, one kNN graph, the initial means and the support rows' sums of
the moments; it holds no soft labels and no log prior) and one
validation-to-query nearest-neighbor index. The weight enters an outer
iteration only at its moments, so the candidates' first outer iterations
agree up to their mean steps: ``solver.first_round`` runs that half, the
base logits, the sweeps and the query sums, once per search, and each
candidate's ``run`` goes on from it, with the bits of a solve from the
initial state. Every graph is built inside ``init_state``. With a
validation pool no shot is carved out, the search runs on the full support
set, and the winning search run is the final result; it is solved again
from the same initial state only when the objective trace is requested.
When shots are carved, the final solve builds the full-support task's
initial state, so a few-shot run builds at most two graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InsufficientShots
from .solver import SolverState, first_round, init_state, run
from .types import (
    FEWSHOT_KL_WEIGHT,
    GAMMA_GRID,
    EmbeddingMatrix,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
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
    training shot per class), and DimensionMismatch when the pool's rows
    are not of the support's dimension. With a validation pool nothing is
    carved and the returned training set is ``support`` itself.
    """
    if validation_pool is not None and validation_pool.embeddings.dim != support.embeddings.dim:
        raise DimensionMismatch(f"validation pool dim {validation_pool.embeddings.dim} "
                                f"!= support dim {support.embeddings.dim}")
    labels = support.labels
    # per class, the rows the validation samples are drawn from and their count
    draws: list[tuple[np.ndarray, int]] = []
    for cls in range(n_classes):
        rows = np.flatnonzero(labels == cls)
        if rows.size == 0:
            raise InsufficientShots(f"class {cls} has no shots")
        n_val = min(_MAX_VALIDATION_PER_CLASS, rows.size)
        if validation_pool is not None:
            rows = np.flatnonzero(validation_pool.labels == cls)
            if rows.size < n_val:
                raise InsufficientShots(
                    f"validation pool has {rows.size} samples for class {cls}, "
                    f"need {n_val}"
                )
        elif rows.size - n_val < 1:
            raise InsufficientShots(
                f"class {cls} has {rows.size} shots; carving {n_val} validation "
                "samples would leave no training shot (provide a validation pool)"
            )
        draws.append((rows, n_val))
    # a pool that holds exactly each class's count is drawn whole whatever
    # the seed, and the rows are sorted below: no generator is made, and so
    # numpy.random is not imported
    whole = validation_pool is not None and all(rows.size == n for rows, n in draws)
    rng = None if whole else np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    val_idx: list[np.ndarray] = []
    for rows, n_val in draws:
        picked = rows if whole else rng.choice(rows, size=n_val, replace=False)
        val_idx.append(picked)
        if validation_pool is None:
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

    Runs the solver once per candidate from one shared ``prepared`` initial
    state (``init_state(spec_base)`` when None), scores each run with the
    1-NN rule, and returns the best value (ties go to the smaller weight,
    whatever the grid order), the full score table in grid order, and the
    best candidate's ``(assignments, state)``. The first outer iteration up
    to its mean step is run once, by ``first_round``, and every candidate's
    solve goes on from it. Only the best run so far is kept alive. Raises
    DimensionMismatch, before any graph or solve, when the validation rows
    are not of the query's dimension.
    """
    if len(grid) == 0:
        raise ValueError("support-weight grid must be non-empty")
    if validation.embeddings.dim != spec_base.query.dim:
        raise DimensionMismatch(f"validation dim {validation.embeddings.dim} "
                                f"!= query dim {spec_base.query.dim}")
    if prepared is None:
        prepared = init_state(spec_base)
    # the first outer iteration's half before its mean step, once for all
    start = first_round(prepared, spec_base) if spec_base.hyper.outer_iters else prepared
    nearest = _nearest_queries(validation.embeddings, spec_base.query)
    table: list[tuple[float, float]] = []
    best_gamma, best_acc, best = 0.0, -1.0, None
    for gamma in map(float, grid):
        result = run(spec_base.with_hyper(support_weight=gamma), prepared=start)
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
    spec = spec.with_hyper(kl_weight=kl_weight)  # raises on a weight out of the task's bounds
    if spec.support is None:
        raise ValueError("few-shot run requires a support set")
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
        prepared = init_state(search_spec)
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
