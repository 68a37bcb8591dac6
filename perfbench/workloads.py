"""The benchmark's workloads: seeded synthetic tasks and the CLI command
each one runs.

Every task comes from ``transduct synth`` with the run's seed. Prototype
noise is 0.6 * sqrt(32 / d), which keeps the text prior as unreliable as on
the frozen seed-7 task (d = 32, noise 0.6) whatever the dimension.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

GAMMA_GRID = (0.002, 0.01, 0.02, 0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # run-zs or run-fs
    classes: int
    dim: int
    per_class: int      # query samples per class
    class_sep: float
    shots: int = 0      # labeled shots per class (run-fs)
    validation: int = 0  # validation-pool samples per class (run-fs)

    @property
    def n_query(self) -> int:
        return self.classes * self.per_class

    @property
    def prototype_noise(self) -> float:
        return 0.6 * math.sqrt(32.0 / self.dim)

    def synth_argv(self, out_dir: str, seed: int) -> list:
        return [
            "synth", "--out-dir", out_dir,
            "--classes", str(self.classes), "--dim", str(self.dim),
            "--per-class", str(self.per_class), "--class-sep", repr(self.class_sep),
            "--prototype-noise", repr(self.prototype_noise),
            "--shots", str(self.shots), "--validation-per-class", str(self.validation),
            "--seed", str(seed),
        ]

    def run_argv(self, task_dir: str, out_dir: str) -> list:
        """The CLI invocation of one operation: default solver settings."""
        argv = [
            self.command,
            "--query", os.path.join(task_dir, "query.emb"),
            "--text", os.path.join(task_dir, "text.emb"),
            "--out", os.path.join(out_dir, "pred.csv"),
        ]
        if self.command == "run-fs":
            argv += [
                "--support", os.path.join(task_dir, "support.emb"),
                "--support-labels", os.path.join(task_dir, "support.labels"),
                "--validation", os.path.join(task_dir, "validation.emb"),
                "--validation-labels", os.path.join(task_dir, "validation.labels"),
                "--score-table", os.path.join(out_dir, "gamma.csv"),
            ]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # kNN graph build dominates: N = 5000 rows, full argsort of each.
        Workload("zs-graph", "run-zs", classes=100, dim=128, per_class=50, class_sep=6.0),
        # Many classes and dimensions: the z sweeps, mean/variance steps and
        # the wide CSV write dominate; the graph over N = 2000 is light.
        Workload("zs-wide", "run-zs", classes=500, dim=512, per_class=4, class_sep=12.0),
        # The only workload through fewshot: four gamma candidates plus the
        # final solve, each building its own graph.
        Workload("fs-search", "run-fs", classes=100, dim=128, per_class=16, class_sep=4.5,
                 shots=4, validation=4),
    )
}
