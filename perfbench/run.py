"""Benchmark of the transduct CLI (run-zs and run-fs) on seeded synthetic tasks.

Usage, from the repository root:

    python3 perfbench/run.py --workload zs-graph --seed 1 --seconds 25 --trace 0

One operation is one CLI invocation in a fresh process, timed from spawn
to exit, its output checked by ``check.py`` (numpy only, no transduct).
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round also makes a traced
in-process run (``trace_run.py``) and the JSON holds the per-layer
metrics. The program is run from ``src/`` of the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from check import (
    CheckFailed,
    check_gamma_choice,
    check_predictions,
    per_sample_correct,
    read_emb1,
    read_int_lines,
)
from selftest import run_selftest
from workloads import GAMMA_GRID, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
# Tasks per run: each is generated from its own seed, and correct_preds
# sums over them, so one task's luck moves a run's figures less.
TASKS_PER_RUN = 6
SETUP_REPEATS = 12
CHILD_TIMEOUT_S = 150.0
# One BLAS thread in every child: steadier figures on a shared machine,
# and CPU time that counts work, not spinning pool threads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "correct_preds": "count",
}
PER_LAYER = {
    "affinity.build_knn_s": "s",
    "affinity.builds": "count",
    "affinity.edges": "count",
    "affinity.gemm_gflop": "GFLOP",
    "affinity.matmul_floor_s": "s",
    "affinity.build_over_floor": "ratio",
    "solver.init_state_s": "s",
    "solver.z_step_s": "s",
    "solver.z_sweeps": "count",
    "solver.log_probs_s": "s",
    "solver.mu_step_s": "s",
    "solver.sigma_step_s": "s",
    "solver.objective_s": "s",
    "solver.objective_calls": "count",
    "solver.subnormal_z": "count",
    "solver.zero_z": "count",
    "types.simplex_checks": "count",
    "types.simplex_check_s": "s",
    "types.gmm_checks": "count",
    "fileio.read_s": "s",
    "fileio.read_mb": "MiB",
    "fileio.write_predictions_s": "s",
    "fileio.write_mb": "MiB",
    "fileio.write_mb_per_s": "MiB/s",
    "zeroshot.soft_labels_s": "s",
    "zeroshot.init_prototypes_s": "s",
    "fewshot.split_shots_s": "s",
    "fewshot.search_gamma_s": "s",
    "fewshot.solves": "count",
    "cli.self_s": "s",
    "fileio.self_s": "s",
    "types.self_s": "s",
    "zeroshot.self_s": "s",
    "affinity.self_s": "s",
    "solver.self_s": "s",
    "fewshot.self_s": "s",
    "bench.self_s": "s",
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


def spawn(argv: list, env: dict, log_stem: Path) -> Child:
    """Run argv to completion; wall time from spawn to exit, CPU time and
    peak RSS of the child from wait4. ``{spawn_t}`` in argv becomes the
    perf_counter value at spawn."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        argv = [a.replace("{spawn_t}", repr(t0)) for a in argv]
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out_path.read_text(encoding="ascii", errors="replace"),
        stderr=err_path.read_text(encoding="ascii", errors="replace"),
    )


@dataclass
class Task:
    seed: int
    dir: Path
    truth: object  # ground-truth labels, int64 array
    baseline: int  # per-sample correct count


class Bench:
    """The run's tasks, generated once, and the operations on them."""

    def __init__(self, root: Path, wl: Workload, seed: int, work: Path):
        self.root, self.wl, self.work = root, wl, work
        # disjoint task seeds for disjoint run seeds
        self.task_seeds = [seed * TASKS_PER_RUN + i for i in range(TASKS_PER_RUN)]
        self.out = work / "out"
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(root / "src")}
        self.env.pop("TRANSDUCT_THREADS", None)
        self.n_ops = 0
        self.tasks = []

    def python(self, *args) -> list:
        return [sys.executable, *map(str, args)]

    def generate(self) -> None:
        """Write every task directory and compute its per-sample baseline."""
        self.out.mkdir(parents=True)
        for task_seed in self.task_seeds:
            task_dir = self.work / f"task{task_seed}"
            argv = self.python("-m", "transduct.cli", *self.wl.synth_argv(str(task_dir), task_seed))
            child = spawn(argv, self.env, self.work / "synth")
            if child.code != 0:
                raise RuntimeError(f"transduct synth failed ({child.code}): {child.stderr.strip()}")
            truth = read_int_lines(task_dir / "truth.labels")
            baseline = per_sample_correct(
                read_emb1(task_dir / "query.emb"), read_emb1(task_dir / "text.emb"), truth
            )
            self.tasks.append(Task(task_seed, task_dir, truth, baseline))

    def setup_s(self) -> float:
        times = []
        for i in range(SETUP_REPEATS):
            task = self.tasks[i % len(self.tasks)]
            argv = self.python(HERE / "load_probe.py", task.dir)
            child = spawn(argv, self.env, self.work / f"probe{i}")
            if child.code != 0:
                raise RuntimeError(f"load probe failed ({child.code}): {child.stderr.strip()}")
            times.append(child.wall_s)
        return statistics.median(times)

    def operation(self, task: Task, traced: bool):
        """One CLI invocation on ``task`` plus its checks; returns (child,
        correct count, trace result or None), or raises CheckFailed."""
        self.n_ops += 1
        for stale in self.out.iterdir():
            stale.unlink()
        cli_argv = self.wl.run_argv(str(task.dir), str(self.out))
        trace_json = self.work / "trace.json"
        if traced:
            argv = self.python(
                HERE / "trace_run.py", "{spawn_t}", task.seed, trace_json, "--", *cli_argv
            )
        else:
            argv = self.python("-m", "transduct.cli", *cli_argv)
        child = spawn(argv, self.env, self.work / f"op{self.n_ops}")
        if child.code != 0:
            raise CheckFailed(f"exit code {child.code}: {child.stderr.strip()[-500:]}")
        preds = check_predictions(
            (self.out / "pred.csv").read_text(encoding="ascii"), task.truth.size, self.wl.classes
        )
        correct = int((preds == task.truth).sum())
        if not correct > task.baseline:
            raise CheckFailed(f"{correct} correct, per-sample prediction gets {task.baseline}")
        if self.wl.command == "run-fs":
            table = (self.out / "gamma.csv").read_text(encoding="ascii")
            check_gamma_choice(child.stdout, table, GAMMA_GRID)
        trace = None
        if traced:
            trace = json.loads(trace_json.read_text(encoding="ascii"))
            if trace["failures"]:
                raise CheckFailed("layer checks: " + "; ".join(trace["failures"]))
            for what in ("unbound", "skipped_checks"):
                if trace[what]:
                    print(f"trace: {what}: {', '.join(trace[what])}", file=sys.stderr)
            spans_dir = self.root / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            shutil.copyfile(trace_json, spans_dir / f"trace-{self.wl.name}.json")
        return child, correct, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "transduct" / "__init__.py").is_file():
        print(f"error: no transduct sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    run_selftest()

    wl = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    bench = Bench(root, wl, args.seed, work)
    try:
        bench.generate()
        setup = None if args.trace else bench.setup_s()
        runs, traces, correct = [], [], {}
        attempted = failed = rounds = 0
        start = time.perf_counter()
        while True:
            # a round: one plain invocation per task, plus with --trace 1 one
            # traced invocation, on the tasks in turn
            ops = [(task, False) for task in bench.tasks]
            if args.trace:
                ops.append((bench.tasks[rounds % len(bench.tasks)], True))
            rounds += 1
            for task, traced in ops:
                attempted += 1
                try:
                    child, n_correct, trace = bench.operation(task, traced)
                except (CheckFailed, OSError, ValueError, KeyError) as exc:
                    failed += 1
                    print(f"operation {attempted} failed: {exc}", file=sys.stderr)
                    continue
                print(f"operation {attempted}: task seed {task.seed}{' traced' if traced else ''}, "
                      f"{child.wall_s:.3f} s wall, {child.cpu_s:.3f} s CPU, {n_correct} correct",
                      file=sys.stderr)
                correct[task.seed] = n_correct
                if traced:
                    traces.append(trace)
                else:
                    runs.append(child)
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = bool(runs) and (bool(traces) or not args.trace)
    metrics = {}
    if measured:  # figures of the operations that passed, even when some failed
        run_s = statistics.median(c.wall_s for c in runs)
        if args.trace:
            values = {
                name: statistics.median(t["metrics"][name] for t in traces)
                for name in PER_LAYER if name != "bench.trace_overhead_s"
            }
            values["bench.trace_overhead_s"] = values["bench.traced_wall_s"] - run_s
        else:
            values = {
                "run_s": run_s,
                "cpu_s": statistics.median(c.cpu_s for c in runs),
                "setup_s": setup,
                "peak_rss_mb": statistics.median(c.rss_mib for c in runs),
                "correct_preds": sum(correct.values()),
            }
        units = PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {wl.name} seed {args.seed}: {rounds} rounds, {len(runs)} plain and "
          f"{len(traces)} traced invocations; per-sample rule gets "
          f"{sum(t.baseline for t in bench.tasks)} correct")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": measured and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
