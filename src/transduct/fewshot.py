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

from .errors import DimensionMismatch, InsufficientShots, LabelOutOfRange
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
    effective shot count, and the training shots are every support row
    not drawn, in support order. Each class is drawn from the seeded
    generator in class order; a pool that holds exactly each class's count
    is taken whole and no generator is made. Raises InsufficientShots when
    a class cannot supply the requested counts (carving needs at least one
    leftover training shot per class), DimensionMismatch when the pool's
    rows are not of the support's dimension, and LabelOutOfRange when a
    support or pool label is not a class of the task. With a validation
    pool nothing is carved and the returned training set is ``support``
    itself.
    """
    pool = validation_pool
    if pool is not None and pool.embeddings.dim != support.embeddings.dim:
        raise DimensionMismatch(f"validation pool dim {pool.embeddings.dim} "
                                f"!= support dim {support.embeddings.dim}")
    for name, labeled in (("support", support), ("validation pool", pool)):
        if labeled is not None and (labeled.labels.min() < 0 or labeled.labels.max() >= n_classes):
            raise LabelOutOfRange(f"{name} labels must lie in [0, {n_classes})")
    source = support if pool is None else pool
    # per class, the source rows the validation samples are drawn from and their count
    draws: list[tuple[np.ndarray, int]] = []
    for cls in range(n_classes):
        n_shots = np.count_nonzero(support.labels == cls)
        if n_shots == 0:
            raise InsufficientShots(f"class {cls} has no shots")
        n_val = min(_MAX_VALIDATION_PER_CLASS, n_shots)
        rows = np.flatnonzero(source.labels == cls)
        if pool is None and n_shots == n_val:
            raise InsufficientShots(
                f"class {cls} has {n_shots} shots; carving {n_val} validation "
                "samples would leave no training shot (provide a validation pool)"
            )
        if rows.size < n_val:  # only a pool can hold fewer rows than the count
            raise InsufficientShots(
                f"validation pool has {rows.size} samples for class {cls}, need {n_val}"
            )
        draws.append((rows, n_val))
    # an exact pool is drawn whole whatever the seed: no generator is made,
    # and so numpy.random is not imported
    whole = all(rows.size == n for rows, n in draws)
    rng = None if whole else np.random.default_rng(seed)
    val_rows = np.sort(np.concatenate(
        [rows if whole else rng.choice(rows, size=n, replace=False) for rows, n in draws]
    ))
    validation = _subset(source, val_rows)
    if pool is not None:
        return support, validation
    return _subset(support, np.setdiff1d(np.arange(support.n_rows), val_rows)), validation


def _subset(labeled: SupportSet, rows: np.ndarray) -> SupportSet:
    """The given rows of a labeled set, in the order given."""
    data = labeled.embeddings.data[rows]
    return SupportSet(type(labeled.embeddings)(data), labeled.labels[rows])


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
    """A few-shot run's final solve, the support weight it used, and the
    search's score table: ``[(gamma, validation accuracy)]`` in grid order,
    empty when the weight was given."""

    assignments: SimplexAssignments
    state: SolverState
    gamma: float
    score_table: list


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
    ``split_shots`` with ``seed`` and ``validation_pool``, and the weight is
    selected on the held-out samples. The final solve uses every provided
    support shot and records the objective trace only when ``record_trace``
    is set. When the search already ran on the full support set (a
    validation pool) and no trace is requested, the winning search run is
    the final result.
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

    table: list[tuple[float, float]] = []
    prepared = final = None
    if gamma is None:
        train, validation = split_shots(
            spec.support, spec.n_classes, seed=seed, validation_pool=validation_pool
        )
        search_spec = replace(spec, support=train)
        prepared = init_state(search_spec)
        gamma, table, best = search_gamma(search_spec, validation, grid=grid, prepared=prepared)
        if train is not spec.support:
            prepared = None  # the final task gets the carved shots back
        elif not record_trace:
            final = best  # the winning search run solved the final task
        del best  # a re-solve starts with no search run alive
    gamma = float(gamma)
    if final is None:
        final = run(
            spec.with_hyper(support_weight=gamma), record_trace=record_trace, prepared=prepared
        )
    return FewShotResult(*final, gamma, table)
