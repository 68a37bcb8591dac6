"""Command-line interface.

Subcommands:
  run-zs   transduce a query set from text prototypes alone
  run-fs   transduce with labeled shots and a support-weight search
  synth    generate a seeded synthetic task directory
  eval     score a predictions CSV against ground-truth labels

Defaults reproduce the reference configuration; ``transduct run-zs --help``
and ``transduct run-fs --help`` list them. Any flag can also be supplied
via ``--config file`` holding ``key=value`` lines; explicit command-line
flags win over the file.

Determinism: the solver starts no threads of its own, and the solve runs
with numpy's bundled OpenBLAS pinned to one thread (through ``ctypes``, the
old count restored after), so for a fixed CPU kernel set reruns write
byte-identical outputs at any ``OPENBLAS_NUM_THREADS``. The CSV bits depend
on the kernel set: numpy's AVX-512 ``exp``/``log`` and the OpenBLAS core
type move last bits (predicted classes did not change in testing), so no
golden may be CSV bytes. A numpy that bundles no OpenBLAS under
``numpy.libs`` is not pinned. The ``--dump-graph`` file is byte-identical on
any CPU and at any BLAS thread count: its weights come from einsum dots that
skip the BLAS.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes  # numpy imports it already
import glob
import os
import sys

import numpy as np

from . import __version__, fileio, synth
from .errors import DimensionMismatch, ParseError, TransductError
from .fewshot import run_fewshot
from .solver import run
from .types import FEWSHOT_KL_WEIGHT, GAMMA_GRID, Hyperparams, SupportSet, TaskSpec
from .zeroshot import hard_predict

_GRID_DEFAULT = ",".join(str(g) for g in GAMMA_GRID)
_DEFAULTS = Hyperparams()


def _openblas_threads():
    """The (get, set) thread-count calls of numpy's bundled OpenBLAS, found
    under ``numpy.libs``, or None where numpy bundles none there."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)  # already loaded by numpy: the same handle
        for names in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                      ("openblas_get_num_threads", "openblas_set_num_threads")):
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _pinned_blas():
    """Limit numpy's OpenBLAS to one thread while solving and reporting, so
    results cannot depend on the BLAS thread count; restore it on exit."""
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, put = calls
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that records its long flags for ``--config`` files:
    ``switches`` maps each flag that takes a value or is a store_true switch
    to whether it is the switch. Flags such as --help, which take no value
    and store none, are left out, so a config key naming them is unknown."""

    def __init__(self, *args, **kwargs):
        self.switches: dict[str, bool] = {}  # filled by add_argument
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        switch = kwargs.get("action") == "store_true"
        for opt in action.option_strings:
            if opt.startswith("--") and (switch or action.nargs != 0):
                self.switches[opt] = switch
        return action


def _add_common_solver_flags(p: argparse.ArgumentParser, kl_default: float) -> None:
    p.add_argument("--query", required=True, help="query embeddings (EMB1 or .csv)")
    p.add_argument("--text", required=True, help="class text prototypes (EMB1 or .csv)")
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.add_argument("--truth", help="ground-truth query labels; prints accuracies")
    p.add_argument("--tau", type=float, default=30.0, help="softmax temperature")
    p.add_argument("--lambda", dest="kl_weight", type=float, default=kl_default,
                   help="weight of the text-prior KL penalty")
    p.add_argument("--knn", type=int, default=_DEFAULTS.k_nn,
                   help="graph neighbors per sample (0 disables)")
    p.add_argument("--outer-iters", type=int, default=_DEFAULTS.outer_iters,
                   help="outer block iterations")
    p.add_argument("--inner-iters", type=int, default=_DEFAULTS.inner_z_iters, metavar="N",
                   help="at most N sweeps per outer iteration")
    p.add_argument("--top-m", type=int, default=_DEFAULTS.init_top_m,
                   help="confident samples averaged per class at initialization")
    p.add_argument("--symmetrize-graph", action="store_true",
                   help="use the union of both edge directions in the graph")
    p.add_argument("--trace", help="write objective trace CSV here")
    p.add_argument("--dump-graph", help="write graph edges as 'i j w' lines here")
    p.add_argument("--config", help="key=value file of defaults for these flags")


def _build() -> tuple[argparse.ArgumentParser, dict]:
    parser = _Parser(
        prog="transduct",
        description="Joint classification of embedding batches against text prototypes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    zs = sub.add_parser("run-zs", help="zero-shot transduction", formatter_class=fmt)
    _add_common_solver_flags(zs, kl_default=_DEFAULTS.kl_weight)
    zs.set_defaults(func=cmd_run_zs)

    fs = sub.add_parser("run-fs", help="few-shot transduction", formatter_class=fmt)
    _add_common_solver_flags(fs, kl_default=FEWSHOT_KL_WEIGHT)
    fs.add_argument("--support", required=True, help="labeled shot embeddings")
    fs.add_argument("--support-labels", required=True, help="labels for --support")
    fs.add_argument("--validation", help="validation-pool embeddings (else shots are carved)")
    fs.add_argument("--validation-labels", help="labels for --validation")
    fs.add_argument("--gamma", type=float, default=None,
                    help="explicit support weight; skips the search")
    fs.add_argument("--gamma-grid", default=_GRID_DEFAULT,
                    help="comma-separated support-weight candidates")
    fs.add_argument("--score-table", help="write per-candidate validation accuracies here")
    fs.add_argument("--seed", type=int, default=0, help="shot-split seed")
    fs.set_defaults(func=cmd_run_fs)

    sy = sub.add_parser("synth", help="generate a synthetic task directory", formatter_class=fmt)
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--classes", type=int, default=10)
    sy.add_argument("--dim", type=int, default=32)
    sy.add_argument("--per-class", type=int, default=200, help="query samples per class")
    sy.add_argument("--shots", type=int, default=0, help="support shots per class")
    sy.add_argument("--validation-per-class", type=int, default=0,
                    help="validation-pool samples per class")
    sy.add_argument("--class-sep", type=float, default=3.0)
    sy.add_argument("--prototype-noise", type=float, default=0.6)
    sy.add_argument("--tau", type=float, default=30.0)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--config", help="key=value file of defaults for these flags")
    sy.set_defaults(func=cmd_synth)

    ev = sub.add_parser("eval", help="score predictions against labels", formatter_class=fmt)
    ev.add_argument("--pred", required=True, help="predictions CSV")
    ev.add_argument("--truth", required=True, help="ground-truth labels")
    ev.set_defaults(func=cmd_eval)
    return parser, {"run-zs": zs, "run-fs": fs, "synth": sy, "eval": ev}


def _hyper_from_args(args) -> Hyperparams:
    return Hyperparams(
        kl_weight=args.kl_weight,
        outer_iters=args.outer_iters,
        inner_z_iters=args.inner_iters,
        k_nn=args.knn,
        init_top_m=args.top_m,
        symmetrize_graph=args.symmetrize_graph,
    )


def _accuracy(preds: np.ndarray, truth: np.ndarray) -> float:
    if preds.shape[0] != truth.shape[0]:
        raise DimensionMismatch(
            f"{preds.shape[0]} predictions vs {truth.shape[0]} truth labels"
        )
    return float(np.mean(preds == truth))


def _report_accuracies(args, state, assignments) -> None:
    if args.trace:
        fileio.write_trace(state.trace, args.trace)
    if args.dump_graph:
        fileio.dump_edges(state.graph, args.dump_graph)
    if args.truth:
        truth = fileio.read_labels(args.truth)
        zs_acc = _accuracy(hard_predict(state.soft_labels), truth)
        tr_acc = _accuracy(hard_predict(assignments), truth)
        print(f"zero-shot accuracy: {zs_acc:.4f}")
        print(f"transduced accuracy: {tr_acc:.4f}")


def cmd_run_zs(args) -> int:
    spec = TaskSpec(
        query=fileio.read_embeddings(args.query),
        text=fileio.read_embeddings(args.text),
        temperature=args.tau,
        hyper=_hyper_from_args(args),
    )
    with _pinned_blas():
        assignments, state = run(spec, record_trace=bool(args.trace))
        fileio.write_predictions(assignments, args.out)
        _report_accuracies(args, state, assignments)
    return 0


def cmd_run_fs(args) -> int:
    if bool(args.validation) != bool(args.validation_labels):
        raise ParseError("--validation and --validation-labels must be given together")
    support = SupportSet(
        embeddings=fileio.read_embeddings(args.support),
        labels=fileio.read_labels(args.support_labels),
    )
    pool = None
    if args.validation:
        pool = SupportSet(
            embeddings=fileio.read_embeddings(args.validation),
            labels=fileio.read_labels(args.validation_labels),
        )
    try:
        grid = [float(g) for g in args.gamma_grid.split(",") if g.strip()]
    except ValueError as exc:
        raise ParseError(f"bad --gamma-grid: {exc}") from exc
    spec = TaskSpec(
        query=fileio.read_embeddings(args.query),
        text=fileio.read_embeddings(args.text),
        support=support,
        temperature=args.tau,
        hyper=_hyper_from_args(args),
    )
    with _pinned_blas():
        result = run_fewshot(
            spec,
            grid=grid,
            gamma=args.gamma,
            kl_weight=args.kl_weight,
            validation_pool=pool,
            seed=args.seed,
            record_trace=bool(args.trace),
        )
        fileio.write_predictions(result.assignments, args.out)
        if args.score_table:
            fileio.write_score_table(result.score_table, args.score_table)
        print(f"support weight: {result.gamma:g}")
        for gamma, acc in result.score_table:
            print(f"  gamma {gamma:g}: validation accuracy {acc:.4f}")
        _report_accuracies(args, result.state, result.assignments)
    return 0


def cmd_synth(args) -> int:
    task = synth.generate_task(
        n_classes=args.classes,
        dim=args.dim,
        n_query_per_class=args.per_class,
        shots_per_class=args.shots,
        class_sep=args.class_sep,
        prototype_noise=args.prototype_noise,
        temperature=args.tau,
        seed=args.seed,
        n_validation_per_class=args.validation_per_class,
    )
    # the task settings among the parsed flags, in flag order, spelled as flags
    config = {key.replace("_", "-"): value for key, value in vars(args).items()
              if key not in ("command", "func", "out_dir", "config")}
    synth.write_task_dir(task, args.out_dir, config)
    print(f"wrote task directory {args.out_dir}")
    return 0


def cmd_eval(args) -> int:
    preds = fileio.read_predictions(args.pred)
    truth = fileio.read_labels(args.truth)
    print(f"top-1 accuracy: {_accuracy(preds, truth):.4f}")
    for cls in np.unique(truth):
        mask = truth == cls
        acc = float(np.mean(preds[mask] == cls))
        print(f"  class {cls}: {acc:.4f} ({int(mask.sum())} samples)")
    return 0


def _config_to_argv(path, parser: _Parser) -> list:
    """Turn a key=value config file into an argv prefix for `parser`."""
    argv = []
    for key, value in fileio.read_config(path).items():
        flag = "--" + key.strip("-").replace("_", "-")
        if flag == "--config":
            raise ParseError(f"{path}: config files cannot nest")
        switch = parser.switches.get(flag)
        if switch is None:
            raise ParseError(f"{path}: unknown flag {flag}")
        if switch:
            if value.lower() in ("1", "true", "yes", "on"):
                argv.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ParseError(f"{path}: {key} must be a boolean")
        else:
            argv.extend([flag, value])
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            prefix = _config_to_argv(args.config, subparsers[args.command])
            # command-line flags come last, so they override the file
            args = parser.parse_args([argv[0]] + prefix + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the error code
        return 0 if not exc.code else 1
    except (TransductError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
