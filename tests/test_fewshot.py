import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from transduct import fewshot, solver
from transduct.errors import DimensionMismatch, InsufficientShots
from transduct.fewshot import run_fewshot, search_gamma, split_shots
from transduct.solver import init_state, run
from transduct.synth import generate_task
from transduct.types import GAMMA_GRID, EmbeddingMatrix, SupportSet
from transduct.zeroshot import compute_soft_labels, hard_predict
from helpers import random_task, unit_rows


def _support(rng, shots_per_class, n_classes, dim=6):
    labels = np.repeat(np.arange(n_classes), shots_per_class)
    return SupportSet(EmbeddingMatrix(unit_rows(rng, labels.size, dim)), labels)


class TestSplitShots:
    def test_carve_sixteen_shots(self, rng):
        support = _support(rng, 16, 3)
        train, val = split_shots(support, 3, seed=0)
        for cls in range(3):
            assert (train.labels == cls).sum() == 12
            assert (val.labels == cls).sum() == 4

    def test_one_shot_with_pool(self, rng):
        support = _support(rng, 1, 3)
        pool = _support(rng, 4, 3)
        train, val = split_shots(support, 3, seed=0, validation_pool=pool)
        # min(4, #shots) = 1 validation sample per class, all shots kept
        assert train.n_rows == support.n_rows
        np.testing.assert_array_equal(train.embeddings.data, support.embeddings.data)
        for cls in range(3):
            assert (val.labels == cls).sum() == 1

    def test_pool_keeps_the_support_object(self, rng):
        support = _support(rng, 5, 3)
        train, _ = split_shots(support, 3, seed=0, validation_pool=_support(rng, 4, 3))
        assert train is support
        carved, _ = split_shots(support, 3, seed=0)
        assert carved is not support and carved.n_rows == 3

    def test_carve_needs_leftover_train_shot(self, rng):
        with pytest.raises(InsufficientShots):
            split_shots(_support(rng, 4, 2), 2, seed=0)

    def test_pool_too_small(self, rng):
        support = _support(rng, 8, 2)
        pool = _support(rng, 3, 2)
        with pytest.raises(InsufficientShots):
            split_shots(support, 2, seed=0, validation_pool=pool)

    def test_missing_class(self, rng):
        support = SupportSet(
            EmbeddingMatrix(unit_rows(rng, 2, 6)), np.array([0, 0])
        )
        with pytest.raises(InsufficientShots):
            split_shots(support, 2, seed=0)

    @pytest.mark.parametrize("pool", [False, True])
    def test_class_without_shots(self, rng, pool):
        # class 0 can give its validation samples, class 1 has no shot
        support = SupportSet(EmbeddingMatrix(unit_rows(rng, 5, 6)), np.zeros(5, int))
        with pytest.raises(InsufficientShots, match="class 1 has no shots"):
            split_shots(support, 2, seed=0, validation_pool=_support(rng, 4, 2) if pool else None)

    def test_seed_determinism(self, rng):
        support = _support(rng, 10, 4)
        a_train, a_val = split_shots(support, 4, seed=7)
        b_train, b_val = split_shots(support, 4, seed=7)
        assert a_train.embeddings.data.tobytes() == b_train.embeddings.data.tobytes()
        assert a_val.embeddings.data.tobytes() == b_val.embeddings.data.tobytes()

    def test_carved_sets_are_disjoint(self, rng):
        support = _support(rng, 6, 3)
        train, val = split_shots(support, 3, seed=1)
        train_rows = {row.tobytes() for row in train.embeddings.data}
        val_rows = {row.tobytes() for row in val.embeddings.data}
        assert not (train_rows & val_rows)
        assert len(train_rows) + len(val_rows) == support.n_rows

    # the draws below were read from the generator path before an exact
    # pool skipped it: the seeded stream must keep them
    def test_carved_draw_is_pinned(self):
        support, _, _ = _pinned_sets()
        train, val = split_shots(support, 3, seed=11)
        assert _rows_of(val, support) == [0, 1, 2, 3, 5, 7, 13, 14, 15, 16, 17, 19]
        assert _rows_of(train, support) == [4, 6, 8, 9, 10, 11, 12, 18]

    def test_larger_pool_draw_is_pinned(self):
        # class 0 holds 7 pool rows and class 2 holds 5: every class draws
        # from the generator, class 1's exact pool included
        _, support, pool = _pinned_sets()
        train, val = split_shots(support, 3, seed=11, validation_pool=pool)
        assert train is support
        assert _rows_of(val, pool) == [0, 1, 2, 5, 6, 7, 8, 9, 10, 12, 13, 14]

    @pytest.mark.parametrize("shots", [2, 4])
    def test_exact_pool_is_taken_whole_without_a_generator(self, rng, monkeypatch, shots):
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        labels = rng.permutation(np.repeat(np.arange(3), shots))
        pool = SupportSet(EmbeddingMatrix(unit_rows(rng, labels.size, 5)), labels)
        for seed in (0, 11):
            _, val = split_shots(_support(rng, shots, 3, dim=5), 3, seed=seed,
                                 validation_pool=pool)
            assert _rows_of(val, pool) == list(range(pool.n_rows))
            assert np.array_equal(val.labels, pool.labels)


def _labelled(rng, counts):
    """A labeled set of unit rows in 5 dimensions, ``counts[k]`` of class k,
    the labels in a random order."""
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    return SupportSet(EmbeddingMatrix(unit_rows(rng, labels.size, 5)), labels)


def _pinned_sets():
    """A support set of 6, 9 and 5 shots, one of 4 shots per class, and a
    pool of 7, 4 and 5 rows, from one seeded stream."""
    rng = np.random.default_rng(2024)
    return _labelled(rng, [6, 9, 5]), _labelled(rng, [4, 4, 4]), _labelled(rng, [7, 4, 5])


def _rows_of(subset, source):
    """The row of ``source`` that each row of ``subset`` is."""
    data = source.embeddings.data
    return [int(np.flatnonzero((data == row).all(axis=1))[0]) for row in subset.embeddings.data]


def _frozen_fewshot_task():
    return generate_task(
        n_classes=10, dim=32, n_query_per_class=200, class_sep=3.0,
        prototype_noise=0.6, temperature=30.0, seed=7,
        shots_per_class=4, n_validation_per_class=4,
    )


class TestSearchGamma:
    def test_single_candidate_is_returned(self, rng):
        spec = random_task(rng, n_query=10, n_classes=3, dim=5, shots_per_class=2)
        val = _support(rng, 1, 3, dim=5)
        gamma, table, _ = search_gamma(spec, val, grid=[0.05])
        assert gamma == 0.05
        assert len(table) == 1

    def test_tie_breaks_to_smaller_gamma(self, rng):
        spec = random_task(rng, n_query=10, n_classes=3, dim=5, shots_per_class=2)
        val = _support(rng, 1, 3, dim=5)
        # candidates this small are numerically identical, forcing a tie
        gamma, table, _ = search_gamma(spec, val, grid=[2e-12, 1e-12])
        assert table[0][1] == table[1][1]
        assert gamma == 1e-12

    def test_returned_gamma_attains_table_max(self):
        task = _frozen_fewshot_task()
        train = task.spec.support
        spec = task.spec
        gamma, table, _ = search_gamma(spec, task.validation)
        best = max(acc for _, acc in table)
        assert dict(table)[gamma] == best

    def test_prefers_stronger_support_weight_when_prior_is_poor(self):
        # prototypes at noise 0.6 are unreliable while the labeled shots
        # are drawn from the true clusters, so the largest candidate wins
        task = _frozen_fewshot_task()
        gamma, table, _ = search_gamma(task.spec, task.validation)
        assert gamma == 0.2
        accs = [acc for _, acc in table]
        assert accs.index(max(accs)) == 3

    def test_blocked_nearest_queries_tie_to_the_lower_index(self, rng, monkeypatch):
        # query rows 2j and 2j + 1 are exact duplicates, and validation row j
        # is query row 2j, so every validation row ties between two queries
        rows = unit_rows(rng, 6, 5)
        query = EmbeddingMatrix(np.repeat(rows, 2, axis=0))
        validation = EmbeddingMatrix(rows)
        whole = fewshot._nearest_queries(validation, query)
        # 2 validation rows per block: blocks end between validation rows
        monkeypatch.setattr(fewshot, "_NEAREST_BYTES", 2 * 8 * query.n_rows)
        blocked = fewshot._nearest_queries(validation, query)
        np.testing.assert_array_equal(blocked, 2 * np.arange(6))
        np.testing.assert_array_equal(whole, blocked)


class TestRunFewshot:
    def test_requires_support(self, rng):
        spec = random_task(rng, n_query=8, n_classes=2, dim=4)
        with pytest.raises(ValueError):
            run_fewshot(spec)

    def test_empty_grid_rejected(self, rng):
        spec = random_task(rng, n_query=8, n_classes=2, dim=4, shots_per_class=6)
        with pytest.raises(ValueError):
            run_fewshot(spec, grid=[])

    @pytest.mark.parametrize("entry", ["run_fewshot", "search_gamma"])
    def test_pool_of_another_dimension_fails_before_the_graph(self, rng, monkeypatch, entry):
        builds = []
        monkeypatch.setattr(solver, "build_knn", lambda *a, **k: builds.append(1))
        spec = random_task(rng, n_query=10, n_classes=3, dim=6, shots_per_class=2)
        pool = _support(rng, 4, 3, dim=4)
        with pytest.raises(DimensionMismatch, match=r"^validation .*dim 4 != \w+ dim 6$"):
            if entry == "run_fewshot":
                run_fewshot(spec, validation_pool=pool)
            else:
                search_gamma(spec, pool)
        assert builds == []

    def test_explicit_gamma_skips_search(self, rng):
        spec = random_task(rng, n_query=8, n_classes=2, dim=4, shots_per_class=2)
        result = run_fewshot(spec, gamma=0.02)
        assert result.gamma == 0.02
        assert result.score_table == []
        assert result.validation is None

    def test_deterministic_given_seed(self):
        task = _frozen_fewshot_task()
        r1 = run_fewshot(task.spec, validation_pool=task.validation, seed=3)
        r2 = run_fewshot(task.spec, validation_pool=task.validation, seed=3)
        assert r1.gamma == r2.gamma
        assert r1.score_table == r2.score_table
        assert r1.assignments.z.tobytes() == r2.assignments.z.tobytes()

    def test_final_solve_uses_full_support_and_forced_kl(self, rng):
        spec = random_task(
            rng, n_query=12, n_classes=3, dim=5, shots_per_class=2, kl_weight=1.0
        )
        result = run_fewshot(spec, gamma=0.01)
        assert result.state.n_support == spec.n_support
        manual, _ = run(spec.with_hyper(kl_weight=0.5, support_weight=0.01))
        assert result.assignments.z.tobytes() == manual.z.tobytes()

    def test_search_runs_never_see_validation_samples(self):
        task = _frozen_fewshot_task()
        result = run_fewshot(task.spec, validation_pool=task.validation, seed=0)
        val_rows = {row.tobytes() for row in result.validation.embeddings.data}
        train_rows = {row.tobytes() for row in result.train_support.embeddings.data}
        query_rows = {row.tobytes() for row in task.spec.query.data}
        assert not (val_rows & train_rows)
        assert not (val_rows & query_rows)

    def test_beats_zero_shot_on_frozen_task(self):
        task = _frozen_fewshot_task()
        result = run_fewshot(task.spec, validation_pool=task.validation, seed=0)
        fs_acc = np.mean(hard_predict(result.assignments) == task.query_labels)
        soft = compute_soft_labels(task.spec.query, task.spec.text, 30.0)
        zs_acc = np.mean(hard_predict(soft) == task.query_labels)
        assert fs_acc >= zs_acc


def _reference_fewshot(spec, grid, pool, seed, record_trace):
    """run_fewshot as a fresh run() per candidate plus a fresh final run()."""
    spec = spec.with_hyper(kl_weight=0.5)
    train, val = split_shots(spec.support, spec.n_classes, seed=seed, validation_pool=pool)
    nearest = np.argmax(val.embeddings.data @ spec.query.data.T, axis=1)
    table = []
    for gamma in grid:
        assignments, _ = run(
            replace(spec, support=train).with_hyper(support_weight=float(gamma)),
            record_trace=False,
        )
        preds = hard_predict(assignments)
        table.append((float(gamma), float(np.mean(preds[nearest] == val.labels))))
    best = max(acc for _, acc in table)
    gamma = min(g for g, acc in table if acc == best)
    assignments, state = run(spec.with_hyper(support_weight=gamma), record_trace=record_trace)
    return gamma, table, assignments, state


def _counting(monkeypatch):
    """Count graph builds and few-shot solves; check at every solve that at
    most one earlier solve's state is still alive."""
    counts = {"builds": 0, "solves": 0, "max_alive": 0}
    states = []
    real_build, real_run = solver.build_knn, fewshot.run

    def build(*args, **kwargs):
        counts["builds"] += 1
        return real_build(*args, **kwargs)

    def solve(*args, **kwargs):
        gc.collect()
        alive = sum(ref() is not None for ref in states)
        counts["max_alive"] = max(counts["max_alive"], alive)
        counts["solves"] += 1
        out = real_run(*args, **kwargs)
        states.append(weakref.ref(out[1]))
        return out

    monkeypatch.setattr(solver, "build_knn", build)
    monkeypatch.setattr(fewshot, "run", solve)
    return counts


def _small_fewshot_task(rng, shots_per_class):
    spec = random_task(rng, n_query=40, n_classes=3, dim=6, shots_per_class=shots_per_class)
    return spec, _support(rng, 4, 3, dim=6)


def _wide_fewshot_task():
    """200 classes of 4 queries in 64 dimensions, 5 shots and a pool of 4 per
    class, as ``transduct synth --classes 200 --dim 64 --per-class 4
    --class-sep 12 --prototype-noise 0.15 --shots 5 --validation-per-class 4
    --seed 6``: its first outer iteration sweeps candidate pairs and hands
    their bound to the second."""
    task = generate_task(n_classes=200, dim=64, n_query_per_class=4, class_sep=12.0,
                         prototype_noise=0.15, shots_per_class=5, n_validation_per_class=4,
                         seed=6)
    return task.spec, task.validation


_FEWSHOT_TASKS = {
    "small": lambda rng: _small_fewshot_task(rng, shots_per_class=5),
    "wide": lambda rng: _wide_fewshot_task(),
}


_BIT_EQUAL_GRIDS = [
    (0.002, 0.01, 0.02, 0.2),
    (0.2, 2e-12, 1e-12),
    (2e-12, 3e-12, 1e-12),
]


def _assert_bit_equal_to_fresh_solves(task, grid, carve, record_trace):
    """The search's candidates go on from one first round, yet its result is
    bit-equal to that of a fresh solve per candidate."""
    spec, pool = task
    pool = None if carve else pool
    gamma, table, assignments, state = _reference_fewshot(spec, grid, pool, 3, record_trace)
    result = run_fewshot(spec, grid=grid, validation_pool=pool, seed=3,
                         record_trace=record_trace)
    assert result.gamma == gamma
    assert result.score_table == table
    assert result.assignments.z.tobytes() == assignments.z.tobytes()
    assert result.state.z.tobytes() == state.z.tobytes()
    assert result.state.gmm.means.tobytes() == state.gmm.means.tobytes()
    assert result.state.gmm.variances.tobytes() == state.gmm.variances.tobytes()
    assert ([r.update_consistent for r in result.state.trace]
            == [r.update_consistent for r in state.trace])
    assert bool(state.trace) == record_trace


class TestSharedPreparation:
    @pytest.mark.parametrize("carve,record_trace,builds,solves", [
        (False, False, 1, 4),
        (False, True, 1, 5),
        (True, False, 2, 5),
        (True, True, 2, 5),
    ])
    def test_build_and_solve_counts(self, rng, monkeypatch, carve, record_trace, builds, solves):
        spec, pool = _small_fewshot_task(rng, shots_per_class=5)
        counts = _counting(monkeypatch)
        run_fewshot(spec, validation_pool=None if carve else pool, record_trace=record_trace)
        assert (counts["builds"], counts["solves"]) == (builds, solves)
        # the search keeps the best run so far, so at most one earlier
        # solve is alive when the next one starts
        assert counts["max_alive"] <= 1

    @pytest.mark.parametrize("mode", ["pool", "carved", "gamma"])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_every_graph_is_built_inside_init_state(self, rng, monkeypatch, mode, record_trace):
        # init_state is the one constructor of a task's initial state, so a
        # tracer that times it times every graph build
        spec, pool = _small_fewshot_task(rng, shots_per_class=5)
        depth, builds = [0], []
        real_init, real_build = solver.init_state, solver.build_knn

        def init(*args, **kwargs):
            depth[0] += 1
            try:
                return real_init(*args, **kwargs)
            finally:
                depth[0] -= 1

        def build(*args, **kwargs):
            builds.append(depth[0])
            return real_build(*args, **kwargs)

        # every name the two modules bind to init_state, as a tracer rebinds them
        for module in (solver, fewshot):
            for name, value in list(vars(module).items()):
                if value is real_init:
                    monkeypatch.setattr(module, name, init)
        monkeypatch.setattr(solver, "build_knn", build)
        run_fewshot(spec, validation_pool=pool if mode == "pool" else None,
                    gamma=0.02 if mode == "gamma" else None, record_trace=record_trace)
        assert builds and all(d == 1 for d in builds)

    def test_explicit_gamma_builds_once(self, rng, monkeypatch):
        spec, _ = _small_fewshot_task(rng, shots_per_class=2)
        counts = _counting(monkeypatch)
        run_fewshot(spec, gamma=0.02)
        assert (counts["builds"], counts["solves"]) == (1, 1)

    @pytest.mark.parametrize("grid", _BIT_EQUAL_GRIDS)
    @pytest.mark.parametrize("carve", [False, True])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_bit_equal_to_fresh_solves(self, rng, grid, carve, record_trace):
        _assert_bit_equal_to_fresh_solves(_FEWSHOT_TASKS["small"](rng), grid, carve, record_trace)

    @pytest.mark.parametrize("grid", _BIT_EQUAL_GRIDS)
    @pytest.mark.parametrize("carve", [False, True])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_bit_equal_to_fresh_solves_on_wide_task(self, rng, grid, carve, record_trace):
        # on the wide task the shared first round sweeps candidate pairs and
        # hands its bound on
        _assert_bit_equal_to_fresh_solves(_FEWSHOT_TASKS["wide"](rng), grid, carve, record_trace)

    def test_wide_first_round_hands_its_bound_on(self):
        spec, _ = _wide_fewshot_task()
        spec = spec.with_hyper(kl_weight=0.5)
        record = solver.first_round(init_state(spec), spec)
        assert isinstance(record.state.z, solver.PairValues)
        assert record.state.screen.bound is not None

    @pytest.mark.parametrize("task", list(_FEWSHOT_TASKS))
    def test_first_round_sweeps_once_per_search(self, rng, monkeypatch, task):
        # a candidate's solve makes the sweeps of a fresh solve but for
        # those of its first round, which the search makes once
        spec, pool = _FEWSHOT_TASKS[task](rng)
        spec = spec.with_hyper(kl_weight=0.5)
        prepared = init_state(spec)
        calls = []
        z_step = solver.z_step
        monkeypatch.setattr(solver, "z_step", lambda *args: calls.append(1) or z_step(*args))
        solver.first_round(prepared, spec)
        once = len(calls)
        fresh = []
        for gamma in GAMMA_GRID:
            calls.clear()
            run(spec.with_hyper(support_weight=gamma), prepared=prepared)
            fresh.append(len(calls))
        calls.clear()
        search_gamma(spec, pool, prepared=prepared)
        assert once > 0
        assert len(calls) == once + sum(made - once for made in fresh)

    def test_tiny_candidates_tie_to_the_smallest(self, rng):
        spec, pool = _small_fewshot_task(rng, shots_per_class=5)
        spec = spec.with_hyper(kl_weight=0.5)
        for grid in ((0.2, 2e-12, 1e-12), (2e-12, 3e-12, 1e-12)):
            gamma, table, (assignments, state) = search_gamma(spec, pool, grid=grid)
            tied = [g for g, acc in table if g < 1e-11]
            assert len({dict(table)[g] for g in tied}) == 1  # the tiny ones tie
            best = max(acc for _, acc in table)
            assert gamma == min(g for g, acc in table if acc == best)
            expected, _ = run(spec.with_hyper(support_weight=gamma), record_trace=False)
            assert assignments.z.tobytes() == expected.z.tobytes()

    def test_search_shares_one_graph(self, rng):
        spec, pool = _small_fewshot_task(rng, shots_per_class=5)
        prepared = init_state(spec)
        _, _, (_, state) = search_gamma(spec, pool, grid=(0.01, 0.2), prepared=prepared)
        assert state.graph is prepared.graph

    @pytest.mark.parametrize("change", [
        lambda s: replace(s, query=EmbeddingMatrix(s.query.data)),
        lambda s: replace(s, text=EmbeddingMatrix(s.text.data)),
        lambda s: replace(s, support=SupportSet(s.support.embeddings, s.support.labels)),
        lambda s: replace(s, support=None),
        lambda s: replace(s, temperature=s.temperature * 2),
        lambda s: s.with_hyper(k_nn=s.hyper.k_nn + 1),
        lambda s: s.with_hyper(symmetrize_graph=not s.hyper.symmetrize_graph),
        lambda s: s.with_hyper(init_top_m=s.hyper.init_top_m + 1),
    ])
    def test_record_of_another_task_is_rejected(self, rng, change):
        spec, _ = _small_fewshot_task(rng, shots_per_class=2)
        prepared = init_state(spec)
        other = change(spec)
        with pytest.raises(ValueError, match="different task"):
            run(other, prepared=prepared)

    def test_record_serves_other_weights_and_iterations(self, rng):
        spec, _ = _small_fewshot_task(rng, shots_per_class=2)
        prepared = init_state(spec)
        other = spec.with_hyper(support_weight=0.3, kl_weight=0.2, outer_iters=2, inner_z_iters=1)
        shared, _ = run(other, prepared=prepared)
        fresh, _ = run(other)
        assert shared.z.tobytes() == fresh.z.tobytes()
