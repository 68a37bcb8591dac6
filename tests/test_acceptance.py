"""Acceptance gate.

Each criterion below is a separate test that prints one PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Golden values were computed once at first build and are enforced exactly
thereafter; the generators and solver are deterministic, so any drift is a
regression.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from transduct import fileio, solver
from transduct.cli import main
from transduct.solver import (
    gmm_log_probs,
    init_state,
    mu_step,
    run,
    sigma_step,
    z_step,
)
from transduct.synth import generate_task
from transduct.types import FEWSHOT_KL_WEIGHT, GmmParams
from transduct.zeroshot import compute_soft_labels, hard_predict
from transduct.fewshot import run_fewshot
from helpers import objective, random_task, read_score_table
import oracles

# ---------------------------------------------------------------------------
# frozen golden values (first build, seed 7 reference geometry)

N_QUERY = 2000
GOLDEN_ZS_CORRECT = 573          # prior-only correct count
GOLDEN_TR_CORRECT = 745          # transduced correct count
GOLDEN_FS_GAMMA = 0.2
GOLDEN_FS_TABLE = [(0.002, 0.5), (0.01, 0.5), (0.02, 0.5), (0.2, 0.55)]
GOLDEN_FS_CORRECT = 1370
GOLDEN_NOISE_GRID_CORRECT = {0.0: 1768, 0.6: 573, 1.2: 391}


def _frozen_zeroshot(noise=0.6):
    return generate_task(
        n_classes=10, dim=32, n_query_per_class=200, class_sep=3.0,
        prototype_noise=noise, temperature=30.0, seed=7,
    )


def _frozen_fewshot():
    return generate_task(
        n_classes=10, dim=32, n_query_per_class=200, class_sep=3.0,
        prototype_noise=0.6, temperature=30.0, seed=7,
        shots_per_class=4, n_validation_per_class=4,
    )


@pytest.fixture(scope="session")
def random_suite():
    """100 seeded tasks with N <= 500, K <= 20, d <= 64 (some few-shot)."""
    tasks = []
    for i in range(100):
        r = np.random.default_rng(9000 + i)
        k = int(r.integers(1, 21))
        d = int(r.integers(2, 65))
        shots = int(r.integers(1, 3)) if i % 3 == 0 else 0
        per_class = int(r.integers(2, max(3, (460 - k * shots) // k + 1)))
        per_class = min(per_class, (500 - k * shots) // k)
        task = generate_task(
            n_classes=k, dim=d, n_query_per_class=per_class,
            shots_per_class=shots,
            class_sep=float(r.uniform(0.8, 4.0)),
            prototype_noise=float(r.uniform(0.0, 1.2)),
            temperature=float(r.uniform(5.0, 50.0)),
            seed=9000 + i,
        )
        spec = task.spec
        if shots:
            spec = spec.with_hyper(support_weight=float(r.choice([0.01, 0.2])))
        n_total = spec.query.n_rows + spec.n_support
        assert n_total <= 500 and k <= 20 and d <= 64
        tasks.append(spec)
    return tasks


def test_criterion_1_simplex_preserved_on_random_suite(random_suite, monkeypatch):
    checked = skipped = 0
    base_seen, position = None, 0
    start = time.perf_counter()

    def checked_sweep(state, spec, base):
        nonlocal checked, skipped, base_seen, position
        out = z_step(state, spec, base)
        # a candidate sweep returns its pair values and may read an iterate
        # on pairs: both are checked as the dense arrays they stand for
        z = solver._dense_z(replace(state, z=out))
        previous = solver._dense_z(state)
        assert np.all(z >= 0.0)
        assert np.abs(z.sum(axis=1) - 1.0).max() <= 1e-9
        checked += 1
        # each outer iteration passes its sweeps new base logits; after a
        # sweep that returns its input, run skips the rest of them
        if base is not base_seen:
            base_seen, position = base, 0
        position += 1
        n_s = state.n_support
        if z[n_s:].tobytes() == previous[n_s:].tobytes():
            skipped += spec.hyper.inner_z_iters - position
        return out

    monkeypatch.setattr(solver, "z_step", checked_sweep)
    for spec in random_suite:
        run(spec, record_trace=False)
    elapsed = time.perf_counter() - start
    assert checked + skipped == 100 * 10 * 5
    assert elapsed < 30.0, f"simplex suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: simplex preserved over {checked} sweeps "
          f"({skipped} skipped as settled) on 100 tasks in {elapsed:.1f}s")


def test_criterion_2_descent_without_graph(random_suite):
    worst = -np.inf
    for spec in random_suite:
        _, state = run(spec.with_hyper(k_nn=0), record_trace=True)
        rises = np.diff([r.update_consistent for r in state.trace])
        worst = max(worst, float(rises.max()))
        assert rises.max() <= 1e-8, (
            f"objective rose by {rises.max():.3e} with the graph disabled"
        )
    print(f"\nACCEPTANCE 2 PASS: graph-free objective non-increasing after "
          f"every block on 100 tasks (worst rise {worst:.2e} <= 1e-8)")


def _outer_values(state):
    vals = [state.trace[0].update_consistent]
    vals += [r.update_consistent for r in state.trace if r.block == "sigma"]
    return np.array(vals)


def test_criterion_3_descent_full_model_on_frozen_suite():
    states = []
    for noise in (0.0, 0.6, 1.2):
        _, state = run(_frozen_zeroshot(noise).spec, record_trace=True)
        states.append((f"zero-shot noise={noise}", state))
    fs = _frozen_fewshot()
    result = run_fewshot(fs.spec, validation_pool=fs.validation, seed=0, record_trace=True)
    states.append(("few-shot final solve", result.state))

    for name, state in states:
        vals = _outer_values(state)
        slack = 1e-6 * np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
        rises = np.diff(vals)
        bad = rises > slack
        trace_lines = "\n".join(
            f"  iter {r.iteration} {r.block}: {r.update_consistent:.12g}"
            for r in state.trace
        )
        assert not bad.any(), (
            f"{name}: objective rose across outer iterations "
            f"{np.flatnonzero(bad) + 1} by {rises[bad]}; trace:\n{trace_lines}"
        )
    print("\nACCEPTANCE 3 PASS: full-model objective non-increasing across "
          "outer iterations on the frozen suite (4 solves)")


def test_criterion_4_em_oracle_equivalence():
    worst = 0.0
    for trial in range(20):
        r = np.random.default_rng(4000 + trial)
        spec = random_task(
            r,
            n_query=int(r.integers(30, 121)),
            n_classes=int(r.integers(2, 9)),
            dim=int(r.integers(4, 33)),
            kl_weight=0.0,
            k_nn=0,
        )
        state = init_state(spec)
        mu0 = state.gmm.means.copy()
        var0 = state.gmm.variances.copy()
        for it in range(1, 11):
            base = solver._base_logits(state, spec, solver._reach(state))
            state = replace(state, z=z_step(state, spec, base))
            means = mu_step(state, spec, solver._group_moments(state, spec))
            state = replace(state, gmm=GmmParams(means, state.gmm.variances))
            resp, em_means = oracles.em_reference(
                spec.query.data, spec.n_classes, mu0, var0, it
            )
            worst = max(
                worst,
                float(np.abs(resp - state.z).max()),
                float(np.abs(em_means - state.gmm.means).max()),
            )
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 4 PASS: solver matches balanced-EM oracle over 10 "
          f"iterations on 20 instances (worst diff {worst:.2e} <= 1e-10)")


def test_criterion_5_assignment_update_kkt_certification():
    # 50 single-query states; unit variances keep the surrogate
    # coefficients inside the projected-gradient oracle's stable range
    coeff_rows = []
    sweep_rows = []
    k_max = 10
    for i in range(50):
        r = np.random.default_rng(5000 + i)
        k = 2 + i % 9
        spec = random_task(
            r,
            n_query=1,
            n_classes=k,
            dim=6,
            shots_per_class=1,
            temperature=float(r.uniform(0.5, 2.0)),
            kl_weight=float(r.uniform(0.25, 1.0)),
            support_weight=0.1,
            k_nn=2,
        )
        state = init_state(spec)
        state = replace(state, gmm=GmmParams(state.gmm.means, np.ones(6)))

        qnode = spec.n_support
        idx, w = state.graph.neighbors(qnode)
        neighbor = np.zeros(k)
        for j, wt in zip(idx, w):
            neighbor += wt * state.z[j]
        a = -(
            spec.hyper.kl_weight * np.log(state.soft_labels.z[0])
            + gmm_log_probs(spec.query.data, state.gmm)[0]
            + neighbor
        )
        assert a.max() - a.min() < 8.0, "fixture left the oracle's stable range"
        coeff_rows.append(np.concatenate([a, np.full(k_max - k, a.max() + 50.0)]))
        base = solver._base_logits(state, spec, solver._reach(state))
        sweep_rows.append((k, z_step(state, spec, base)[qnode]))

    pg = oracles.simplex_pg_minimize(np.array(coeff_rows))
    worst_pg = worst_closed = 0.0
    for i, (k, swept) in enumerate(sweep_rows):
        a = coeff_rows[i][:k]
        if k < k_max:
            assert np.abs(pg[i][k:]).max() <= 1e-9  # padding stayed inactive
        worst_pg = max(worst_pg, float(np.abs(pg[i][:k] - swept).max()))
        closed = np.exp(-a - (-a).max())
        closed /= closed.sum()
        worst_closed = max(worst_closed, float(np.abs(closed - swept).max()))
    assert worst_pg <= 1e-6
    assert worst_closed <= 1e-6
    print(f"\nACCEPTANCE 5 PASS: sweep output matches projected-gradient "
          f"minimizer (worst {worst_pg:.2e}) and closed form "
          f"(worst {worst_closed:.2e}) on 50 majorizers")


def _state_with_gmm(state, means, variances):
    return replace(state, gmm=GmmParams(means, variances))


def test_criterion_6_closed_form_stationarity():
    worst_mean = worst_var = 0.0
    for trial in range(20):
        r = np.random.default_rng(6000 + trial)
        shots = 2 if trial % 2 else 0
        spec = random_task(
            r,
            n_query=int(r.integers(15, 40)),
            n_classes=int(r.integers(2, 6)),
            dim=int(r.integers(3, 9)),
            shots_per_class=shots,
            support_weight=0.2 if shots else 0.0,
        )
        state = init_state(spec)
        base = solver._base_logits(state, spec, solver._reach(state))
        for _ in range(3):
            state = replace(state, z=z_step(state, spec, base))
        moments = solver._group_moments(state, spec)
        means = mu_step(state, spec, moments)
        state = replace(state, gmm=GmmParams(means, state.gmm.variances))

        grad_mean = oracles.finite_diff_grad(
            lambda m: objective(_state_with_gmm(state, m, state.gmm.variances), spec),
            means,
        )
        worst_mean = max(worst_mean, float(np.abs(grad_mean).max()))

        variances = sigma_step(state, spec, moments)
        assert variances.min() > 1e-10  # away from the floor
        state = replace(state, gmm=GmmParams(means, variances))
        grad_logvar = oracles.finite_diff_grad(
            lambda lv: objective(_state_with_gmm(state, means, np.exp(lv)), spec),
            np.log(variances),
        )
        worst_var = max(worst_var, float(np.abs(grad_logvar).max()))
    assert worst_mean <= 1e-4
    assert worst_var <= 1e-4
    print(f"\nACCEPTANCE 6 PASS: post-update gradients vanish on 20 instances "
          f"(means {worst_mean:.2e}, log variances {worst_var:.2e}, both <= 1e-4)")


def test_criterion_7_transduction_gain_on_frozen_task():
    start = time.perf_counter()
    task = _frozen_zeroshot()
    assignments, state = run(task.spec)
    elapsed = time.perf_counter() - start

    zs_correct = int(np.sum(hard_predict(state.soft_labels) == task.query_labels))
    tr_correct = int(np.sum(hard_predict(assignments) == task.query_labels))
    assert zs_correct == GOLDEN_ZS_CORRECT
    assert tr_correct == GOLDEN_TR_CORRECT
    gain = (tr_correct - zs_correct) / N_QUERY * 100
    assert gain >= 2.0
    assert elapsed < 5.0, f"frozen task took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 7 PASS: transduction lifts top-1 accuracy "
          f"{zs_correct / N_QUERY:.4f} -> {tr_correct / N_QUERY:.4f} "
          f"(+{gain:.1f} points, {elapsed:.1f}s)")


def test_criterion_8_fewshot_protocol_via_cli(tmp_path):
    d = tmp_path / "task"
    assert main([
        "synth", "--out-dir", str(d), "--classes", "10", "--dim", "32",
        "--per-class", "200", "--shots", "4", "--validation-per-class", "4",
        "--class-sep", "3.0", "--prototype-noise", "0.6", "--tau", "30",
        "--seed", "7",
    ]) == 0
    out = tmp_path / "pred.csv"
    table_path = tmp_path / "table.csv"
    assert main([
        "run-fs", "--query", str(d / "query.emb"), "--text", str(d / "text.emb"),
        "--support", str(d / "support.emb"),
        "--support-labels", str(d / "support.labels"),
        "--validation", str(d / "validation.emb"),
        "--validation-labels", str(d / "validation.labels"),
        "--out", str(out), "--score-table", str(table_path),
    ]) == 0

    table = read_score_table(table_path)
    assert table == GOLDEN_FS_TABLE
    # the selected weight attains the emitted table's maximum
    best_acc = max(acc for _, acc in table)
    assert dict(table)[GOLDEN_FS_GAMMA] == best_acc

    preds = fileio.read_predictions(out)
    truth = fileio.read_labels(d / "truth.labels")
    fs_correct = int(np.sum(preds == truth))
    assert fs_correct == GOLDEN_FS_CORRECT
    assert fs_correct / N_QUERY >= GOLDEN_ZS_CORRECT / N_QUERY
    print(f"\nACCEPTANCE 8 PASS: grid search picks weight {GOLDEN_FS_GAMMA} at "
          f"validation accuracy {best_acc:.4f}; final accuracy "
          f"{fs_correct / N_QUERY:.4f} >= zero-shot {GOLDEN_ZS_CORRECT / N_QUERY:.4f}")


def test_criterion_9_determinism_and_format(tmp_path):
    d = tmp_path / "task"
    assert main([
        "synth", "--out-dir", str(d), "--classes", "6", "--dim", "16",
        "--per-class", "30", "--prototype-noise", "0.7", "--seed", "21",
    ]) == 0
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.csv"
        assert main([
            "run-zs", "--query", str(d / "query.emb"), "--text", str(d / "text.emb"),
            "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    path = tmp_path / "round.emb"
    for seed in range(1000):
        r = np.random.default_rng(seed)
        n, dim = int(r.integers(1, 20)), int(r.integers(1, 9))
        scale = np.float32(10.0) ** r.integers(-20, 20)
        data = (r.standard_normal((n, dim)) * scale).astype(np.float32)
        data[~np.isfinite(data)] = 0.0
        fileio.write_embeddings(data, path)
        assert fileio.read_matrix(path).tobytes() == data.tobytes()
    print("\nACCEPTANCE 9 PASS: byte-identical predictions across reruns; "
          "1000 binary round trips bit-exact")


@pytest.mark.skipif(
    "TRANSDUCT_IMAGENET_DIR" not in os.environ,
    reason="manual real-embedding check; set TRANSDUCT_IMAGENET_DIR to a "
    "directory holding query.emb, text.emb, truth.labels, tau.txt",
)
def test_criterion_10_real_embeddings_manual(tmp_path):
    # Optional, never part of CI: reproduces the published zero-shot and
    # transduced ImageNet numbers from user-supplied ViT-B/16 embeddings.
    base = os.environ["TRANSDUCT_IMAGENET_DIR"]
    tau = float(open(os.path.join(base, "tau.txt")).read().strip())
    out = tmp_path / "pred.csv"
    assert main([
        "run-zs", "--query", os.path.join(base, "query.emb"),
        "--text", os.path.join(base, "text.emb"),
        "--tau", str(tau), "--out", str(out),
    ]) == 0
    preds = fileio.read_predictions(out)
    truth = fileio.read_labels(os.path.join(base, "truth.labels"))
    task_spec_acc = float(np.mean(preds == truth)) * 100
    soft_preds = hard_predict(
        compute_soft_labels(
            fileio.read_embeddings(os.path.join(base, "query.emb")),
            fileio.read_embeddings(os.path.join(base, "text.emb")),
            tau,
        )
    )
    zs_acc = float(np.mean(soft_preds == truth)) * 100
    assert abs(zs_acc - 66.6) <= 0.3
    assert abs(task_spec_acc - 70.3) <= 0.3
    print(f"\nACCEPTANCE 10 PASS: zero-shot {zs_acc:.1f}, transduced {task_spec_acc:.1f}")


# Per-seed correct counts of 2000 on the overlapping-class family of
# criterion 11 (seeds 7..14): the prior's argmax, the default zero-shot run,
# and few-shot at kl_weight 0 and at FEWSHOT_KL_WEIGHT.
GOLDEN_CLAIM_SEEDS = tuple(range(7, 15))
GOLDEN_CLAIM_PRIOR = (576, 553, 494, 540, 540, 536, 499, 539)
GOLDEN_CLAIM_ZS = (593, 563, 511, 542, 549, 545, 515, 559)
GOLDEN_CLAIM_FS_NO_PRIOR = (373, 413, 429, 438, 401, 454, 435, 421)
GOLDEN_CLAIM_FS = (600, 574, 526, 561, 567, 573, 532, 593)


def test_criterion_11_paper_claims():
    # The paper's two claims, on tasks whose classes overlap (class_sep 1.2),
    # where the text prior carries information the embeddings lack:
    # (i) transduction lifts the zero-shot prior; (ii) the KL text term lifts
    # few-shot transduction over the vision-only objective (kl_weight 0).
    # The counts are goldens; the claims are inequalities with a margin, so
    # a deliberate bit reset restates the former but not the latter.
    start = time.perf_counter()
    prior, zs, fs_no_prior, fs = [], [], [], []
    for seed in GOLDEN_CLAIM_SEEDS:
        task = generate_task(
            n_classes=10, dim=32, n_query_per_class=200, class_sep=1.2,
            prototype_noise=0.2, temperature=30.0, shots_per_class=4,
            n_validation_per_class=4, seed=seed,
        )
        spec, truth = task.spec, task.query_labels

        def correct(assignments):
            return int(np.sum(hard_predict(assignments) == truth))

        prior.append(correct(compute_soft_labels(spec.query, spec.text, spec.temperature)))
        zs.append(correct(run(replace(spec, support=None))[0]))
        for weight, out in ((0.0, fs_no_prior), (FEWSHOT_KL_WEIGHT, fs)):
            result = run_fewshot(spec, kl_weight=weight, validation_pool=task.validation)
            out.append(correct(result.assignments))
    elapsed = time.perf_counter() - start

    assert tuple(prior) == GOLDEN_CLAIM_PRIOR
    assert tuple(zs) == GOLDEN_CLAIM_ZS
    assert tuple(fs_no_prior) == GOLDEN_CLAIM_FS_NO_PRIOR
    assert tuple(fs) == GOLDEN_CLAIM_FS
    # claim (i): measured +100 in total and 8 of 8 seeds, the thinnest by 2
    assert sum(zs) - sum(prior) >= 50
    assert sum(t > p for t, p in zip(zs, prior)) >= 7
    # claim (ii): measured on every seed, the thinnest by 97
    assert all(f > v for f, v in zip(fs, fs_no_prior))
    assert elapsed < 15.0, f"paper-claim tasks took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 11 PASS: transduction beats the prior by {sum(zs) - sum(prior)} "
          f"of {len(zs) * N_QUERY}; the text prior lifts few-shot by "
          f"{sum(fs) - sum(fs_no_prior)} ({elapsed:.1f}s)")
