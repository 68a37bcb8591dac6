"""Traced run: one CLI invocation in-process, with spans around the calls
into each layer's public functions and types.

Usage: python3 perfbench/trace_run.py SPAWN_T SEED OUT_JSON -- CLI_ARGS...

SPAWN_T is the parent's ``time.perf_counter()`` just before it spawned this
process (CLOCK_MONOTONIC, shared by all processes on Linux), so the root
span covers interpreter start-up too. SEED picks the graph rows checked.
Spans (name, start, end, parent) and counts are kept in memory; when the
CLI returns, the layer outputs are checked against numpy computations
made here, and the spans, the per-layer metrics and any check failures
are written to OUT_JSON.
"""

import inspect
import json
import os
import sys
import time

import numpy as np

import check
from transduct import affinity, cli, fewshot, fileio, solver, types, zeroshot

LAYERS = ("bench", "cli", "fileio", "types", "zeroshot", "affinity", "solver", "fewshot")

FUNCTIONS = (
    (cli, "main"),
    (fileio, "read_embeddings"),
    (fileio, "read_labels"),
    (fileio, "write_predictions"),
    (fileio, "write_score_table"),
    (fileio, "write_trace"),
    (zeroshot, "compute_soft_labels"),
    (zeroshot, "init_prototypes_topk"),
    (zeroshot, "init_prototypes_support"),
    (affinity, "build_knn"),
    (solver, "run"),
    (solver, "init_state"),
    (solver, "z_step"),
    (solver, "gmm_log_probs"),
    (solver, "mu_step"),
    (solver, "sigma_step"),
    # run() records the objective through this helper, not objective()
    (solver, "_objective_terms"),
    (fewshot, "run_fewshot"),
    (fewshot, "split_shots"),
    (fewshot, "search_gamma"),
)
# Constructors that validate their arrays; spans cover __init__.
TYPES = (types.SimplexAssignments, types.GmmParams)

KNN_SAMPLE_ROWS = 32
MATMUL_BLOCK_ROWS = 2048


def _array(x) -> np.ndarray:
    """The float array behind an assignment or embedding object."""
    for attr in ("z", "data"):
        if hasattr(x, attr):
            return np.asarray(getattr(x, attr))
    return np.asarray(x)


class Tracer:
    """In-memory spans and counts; a span is [name, start, end, parent]."""

    def __init__(self, spawn_t: float):
        self.spans = [["bench.process", spawn_t, None, -1], ["bench.startup", spawn_t, None, 0]]
        self.stack = [0]
        self.counts = {"fileio.read_bytes": 0, "fileio.write_bytes": 0, "affinity.edges": 0,
                       "affinity.gemm_gflop": 0.0}
        self.kept = {}  # call arguments and results the layer checks need
        self.knn_inputs = []
        self.unbound = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack
        signature = inspect.signature(fn) if after else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1]])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    def install(self) -> None:
        hooks = {
            "read_embeddings": self._after_read,
            "read_labels": self._after_read,
            "write_predictions": self._after_write,
            "build_knn": self._after_build,
            "init_state": self._after_init_state,
            "run": self._after_run,
            "mu_step": self._after_mu_step,
        }
        package = [m for n, m in sys.modules.items()
                   if n == "transduct" or n.startswith("transduct.")]
        for module, attr in FUNCTIONS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.unbound.append(f"{module.__name__}.{attr}")
                continue
            layer = module.__name__.rsplit(".", 1)[1]
            wrapper = self.wrap(f"{layer}.{attr}", orig, hooks.get(attr))
            # rebind every name the package bound to this function, so
            # ``from .affinity import build_knn`` callers are traced too
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        for cls in TYPES:
            cls.__init__ = self.wrap(f"types.{cls.__name__}", cls.__init__)

    # hooks: cheap bookkeeping only, since they run inside the caller's span

    def _after_read(self, bound, out):
        self.counts["fileio.read_bytes"] += os.path.getsize(bound["path"])

    def _after_write(self, bound, out):
        self.counts["fileio.write_bytes"] += os.path.getsize(bound["path"])
        self.kept["final_z"] = bound["assignments"]

    def _after_build(self, bound, out):
        data = _array(bound["embeddings"])
        n, d = data.shape
        self.counts["affinity.edges"] += int(out.n_edges)
        self.counts["affinity.gemm_gflop"] += 2.0 * n * n * d / 1e9
        self.knn_inputs.append(data)
        if "knn" not in self.kept and not bound.get("symmetrize", False):
            self.kept["knn"] = (data, out, min(bound["k"], n - 1))

    def _after_init_state(self, bound, out):
        self.kept["init"] = (out.z, out.gmm)

    def _after_run(self, bound, out):
        self.kept["run"] = (bound["spec"], out[1])

    def _after_mu_step(self, bound, out):
        state, spec = bound["state"], bound["spec"]
        self.kept["mu"] = (_array(state.z), np.asarray(state.features), state.n_support,
                           spec.hyper.support_weight, np.asarray(state.gmm.means), out)


def self_times(spans) -> list:
    own = [s[2] - s[1] for s in spans]
    for name, t0, t1, parent in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def span_sum(spans, name) -> float:
    return sum(t1 - t0 for n, t0, t1, _ in spans if n == name)


def span_count(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)


def _has_ancestor(spans, idx, layer) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(layer + "."):
            return True
        parent = spans[parent][3]
    return False


def matmul_floor(matrices) -> float:
    """Sum over graph builds of the time of X @ X.T on the build's matrix
    (median of three, in row blocks so the N x N product is never whole)."""
    total = 0.0
    for data in matrices:
        reps = []
        for _ in range(3):
            t0 = time.perf_counter()
            for lo in range(0, data.shape[0], MATMUL_BLOCK_ROWS):
                data[lo:lo + MATMUL_BLOCK_ROWS] @ data.T
            reps.append(time.perf_counter() - t0)
        total += sorted(reps)[1]
    return total


def layer_checks(tracer: Tracer, seed: int) -> tuple:
    """Check the layer outputs kept during the run; returns (failures, skipped)."""
    failures, skipped = [], []
    kept = tracer.kept

    if "knn" in kept:
        data, graph, k = kept["knn"]
        n_rows = min(KNN_SAMPLE_ROWS, data.shape[0])
        rows = np.random.default_rng(seed).choice(data.shape[0], size=n_rows, replace=False)
        try:
            check.check_knn(data, graph.neighbors, rows, k)
        except check.CheckFailed as exc:
            failures.append(f"knn: {exc}")
    else:
        skipped.append("knn")

    if "mu" in kept:
        try:
            check.check_means(*kept["mu"])
        except check.CheckFailed as exc:
            failures.append(f"mu_step: {exc}")
    else:
        skipped.append("mu_step")

    if "init" in kept and "run" in kept:
        spec, state = kept["run"]
        (z0, gmm0), graph = kept["init"], state.graph
        nodes = [(i, *graph.neighbors(i)) for i in range(graph.n_nodes)]
        edges = (
            np.concatenate([np.full(len(idx), i) for i, idx, _ in nodes]),
            np.concatenate([np.asarray(idx) for _, idx, _ in nodes]).astype(np.int64),
            np.concatenate([np.asarray(w) for _, _, w in nodes]),
        )
        common = dict(features=np.asarray(state.features), n_support=state.n_support,
                      prior=_array(state.soft_labels), edges=edges,
                      kl_weight=spec.hyper.kl_weight, support_weight=spec.hyper.support_weight)
        first = check.objective_value(
            _array(z0), np.asarray(gmm0.means), np.asarray(gmm0.variances), **common
        )
        last = check.objective_value(
            _array(state.z), np.asarray(state.gmm.means), np.asarray(state.gmm.variances), **common
        )
        if not last < first:
            failures.append(f"objective: final {last!r} is not below initial {first!r}")
    else:
        skipped.append("objective")
    return failures, skipped


def metrics_from(tracer: Tracer) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    wall = spans[0][2] - spans[0][1]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for (name, *_), t in zip(spans, own):
        layer_self[name.split(".", 1)[0]] += t
    mib = 1024.0 * 1024.0
    z = _array(tracer.kept["final_z"]) if "final_z" in tracer.kept else np.zeros(0)
    build_s = span_sum(spans, "affinity.build_knn")
    floor_s = matmul_floor(tracer.knn_inputs)
    write_s = span_sum(spans, "fileio.write_predictions")
    write_mb = tracer.counts["fileio.write_bytes"] / mib
    m = {
        "bench.traced_wall_s": wall,
        "affinity.build_knn_s": build_s,
        "affinity.builds": span_count(spans, "affinity.build_knn"),
        "affinity.edges": tracer.counts["affinity.edges"],
        "affinity.gemm_gflop": tracer.counts["affinity.gemm_gflop"],
        "affinity.matmul_floor_s": floor_s,
        "affinity.build_over_floor": build_s / floor_s if floor_s > 0 else 0.0,
        "solver.init_state_s": span_sum(spans, "solver.init_state"),
        "solver.z_step_s": span_sum(spans, "solver.z_step"),
        "solver.z_sweeps": span_count(spans, "solver.z_step"),
        "solver.log_probs_s": span_sum(spans, "solver.gmm_log_probs"),
        "solver.mu_step_s": span_sum(spans, "solver.mu_step"),
        "solver.sigma_step_s": span_sum(spans, "solver.sigma_step"),
        "solver.objective_s": span_sum(spans, "solver._objective_terms"),
        "solver.objective_calls": span_count(spans, "solver._objective_terms"),
        "solver.subnormal_z": int(np.sum((z != 0) & (np.abs(z) < np.finfo(np.float64).tiny))),
        "solver.zero_z": int(np.sum(z == 0)),
        "types.simplex_checks": span_count(spans, "types.SimplexAssignments"),
        "types.simplex_check_s": span_sum(spans, "types.SimplexAssignments"),
        "types.gmm_checks": span_count(spans, "types.GmmParams"),
        "fileio.read_s": span_sum(spans, "fileio.read_embeddings")
        + span_sum(spans, "fileio.read_labels"),
        "fileio.read_mb": tracer.counts["fileio.read_bytes"] / mib,
        "fileio.write_predictions_s": write_s,
        "fileio.write_mb": write_mb,
        "fileio.write_mb_per_s": write_mb / write_s if write_s > 0 else 0.0,
        "zeroshot.soft_labels_s": span_sum(spans, "zeroshot.compute_soft_labels"),
        "zeroshot.init_prototypes_s": span_sum(spans, "zeroshot.init_prototypes_topk")
        + span_sum(spans, "zeroshot.init_prototypes_support"),
        "fewshot.split_shots_s": span_sum(spans, "fewshot.split_shots"),
        "fewshot.search_gamma_s": span_sum(spans, "fewshot.search_gamma"),
        "fewshot.solves": sum(
            1 for i, s in enumerate(spans)
            if s[0] == "solver.run" and _has_ancestor(spans, i, "fewshot")
        ),
    }
    for layer, t in layer_self.items():
        m[f"{layer}.self_s"] = t
    return m


def main() -> int:
    spawn_t, seed, out_path, sep, *cli_argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_run.py SPAWN_T SEED OUT_JSON -- CLI_ARGS...")
    tracer = Tracer(float(spawn_t))
    tracer.install()
    tracer.spans[1][2] = time.perf_counter()
    code = cli.main(cli_argv)
    tracer.spans[0][2] = time.perf_counter()

    failures, skipped = layer_checks(tracer, int(seed))
    metrics = metrics_from(tracer)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(self_sum - metrics["bench.traced_wall_s"]) > 1e-6:
        failures.append(
            f"layer self times sum to {self_sum}, traced wall is {metrics['bench.traced_wall_s']}"
        )
    if code != 0:
        failures.append(f"cli.main returned {code}")
    result = {
        "metrics": metrics,
        "failures": failures,
        "skipped_checks": skipped,
        "unbound": tracer.unbound,
        "spans": [{"name": n, "start": t0, "end": t1, "parent": p}
                  for n, t0, t1, p in tracer.spans],
    }
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
