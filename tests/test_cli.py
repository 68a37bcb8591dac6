import json
import os
import subprocess
import sys

import numpy as np
import pytest

from transduct import cli, fileio, solver
from transduct.cli import main
from helpers import read_prediction_rows, read_score_table, unit_rows


@pytest.fixture
def task_dir(tmp_path):
    d = tmp_path / "task"
    rc = main([
        "synth", "--out-dir", str(d), "--classes", "4", "--dim", "8",
        "--per-class", "12", "--shots", "6", "--validation-per-class", "4",
        "--prototype-noise", "0.8", "--seed", "5",
    ])
    assert rc == 0
    return d


def _zs_args(task_dir, out, extra=()):
    return [
        "run-zs", "--query", str(task_dir / "query.emb"),
        "--text", str(task_dir / "text.emb"), "--out", str(out), *extra,
    ]


def _fs_args(task_dir, out, extra=()):
    return [
        "run-fs", "--query", str(task_dir / "query.emb"),
        "--text", str(task_dir / "text.emb"),
        "--support", str(task_dir / "support.emb"),
        "--support-labels", str(task_dir / "support.labels"),
        "--out", str(out), *extra,
    ]


class TestRunZs:
    def test_happy_path(self, task_dir, tmp_path):
        out = tmp_path / "pred.csv"
        assert main(_zs_args(task_dir, out)) == 0
        preds, probs = read_prediction_rows(out)
        assert preds.shape == (48,)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-7)

    def test_dimension_mismatch_exits_one(self, task_dir, tmp_path, rng, capsys):
        bad = tmp_path / "bad.emb"
        fileio.write_embeddings(unit_rows(rng, 4, 16), bad)
        args = _zs_args(task_dir, tmp_path / "pred.csv")
        args[4] = str(bad)  # replace --text value
        assert main(args) == 1
        assert "dim" in capsys.readouterr().err

    def test_zero_outer_iters_keeps_prior_accuracy(self, task_dir, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        rc = main(_zs_args(task_dir, out, [
            "--outer-iters", "0", "--truth", str(task_dir / "truth.labels"),
        ]))
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        zs = next(l for l in lines if l.startswith("zero-shot"))
        tr = next(l for l in lines if l.startswith("transduced"))
        assert zs.split(": ")[1] == tr.split(": ")[1]

    def test_trace_and_graph_dump(self, task_dir, tmp_path):
        out = tmp_path / "pred.csv"
        trace = tmp_path / "trace.csv"
        edges = tmp_path / "edges.txt"
        rc = main(_zs_args(task_dir, out, [
            "--trace", str(trace), "--dump-graph", str(edges),
        ]))
        assert rc == 0
        header, *rows = trace.read_text().strip().split("\n")
        assert header == "iteration,block,normalized,update_consistent"
        assert len(rows) == 71
        assert len(edges.read_text().strip().split("\n")) == 48 * 3

    def test_unwritable_graph_dump_exits_one(self, task_dir, tmp_path, capsys):
        edges = tmp_path / "missing" / "edges.txt"
        rc = main(_zs_args(task_dir, tmp_path / "pred.csv", ["--dump-graph", str(edges)]))
        assert rc == 1
        err = capsys.readouterr().err
        assert "cannot write" in err and str(edges) in err

    def test_byte_identical_across_reruns_and_threads(self, task_dir, tmp_path):
        outputs = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"{name}.csv"
            assert main(_zs_args(task_dir, out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


class TestRunFs:
    def test_explicit_gamma_skips_search(self, task_dir, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        assert main(_fs_args(task_dir, out, ["--gamma", "0.02"])) == 0
        lines = capsys.readouterr().out
        assert "support weight: 0.02" in lines
        assert "validation accuracy" not in lines

    def test_default_grid_emits_four_row_table(self, task_dir, tmp_path):
        out = tmp_path / "pred.csv"
        table = tmp_path / "table.csv"
        rc = main(_fs_args(task_dir, out, [
            "--validation", str(task_dir / "validation.emb"),
            "--validation-labels", str(task_dir / "validation.labels"),
            "--score-table", str(table),
        ]))
        assert rc == 0
        parsed = read_score_table(table)
        assert [g for g, _ in parsed] == [0.002, 0.01, 0.02, 0.2]

    def test_search_writes_the_csv_of_its_chosen_weight(self, task_dir, tmp_path, capsys):
        # the candidates go on from one shared first round; the winner's
        # predictions are those of a solve at its weight alone
        pool = ["--validation", str(task_dir / "validation.emb"),
                "--validation-labels", str(task_dir / "validation.labels")]
        assert main(_fs_args(task_dir, tmp_path / "search.csv", pool)) == 0
        gamma = capsys.readouterr().out.split("support weight: ")[1].split()[0]
        assert main(_fs_args(task_dir, tmp_path / "fixed.csv", ["--gamma", gamma])) == 0
        assert (tmp_path / "search.csv").read_bytes() == (tmp_path / "fixed.csv").read_bytes()

    @pytest.mark.parametrize("pool, imported", [(True, False), (False, True)])
    def test_numpy_random_is_imported_only_to_draw(self, task_dir, tmp_path, pool, imported):
        # the fixture's pool holds 4 rows of each class, the count drawn, so
        # it is taken whole; carved shots are drawn from the seeded generator
        extra = (["--validation", str(task_dir / "validation.emb"),
                  "--validation-labels", str(task_dir / "validation.labels")] if pool else [])
        code = (
            "import json, sys\n"
            "from transduct.cli import main\n"
            "assert main(json.loads(sys.argv[1])) == 0\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(_fs_args(task_dir, tmp_path / "p.csv", extra))],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[-1] == str(imported)

    @pytest.mark.parametrize("traced", [False, True])
    def test_objective_is_evaluated_only_with_trace(self, task_dir, tmp_path, monkeypatch, traced):
        calls = []
        objective_terms = solver._objective_terms

        def counting(*args, **kwargs):
            calls.append(1)
            return objective_terms(*args, **kwargs)

        monkeypatch.setattr(solver, "_objective_terms", counting)
        trace = tmp_path / "trace.csv"
        rc = main(_fs_args(task_dir, tmp_path / "pred.csv", [
            "--validation", str(task_dir / "validation.emb"),
            "--validation-labels", str(task_dir / "validation.labels"),
            *(["--trace", str(trace)] if traced else []),
        ]))
        assert rc == 0
        if traced:
            _, *rows = trace.read_text().strip().split("\n")
            assert len(rows) == len(calls) == 71
        else:
            assert calls == [] and not trace.exists()

    def test_empty_grid_exits_one_before_the_graph(self, task_dir, tmp_path, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(solver, "build_knn", lambda *a, **k: builds.append(1))
        out = tmp_path / "pred.csv"
        assert main(_fs_args(task_dir, out, ["--gamma-grid", ","])) == 1
        assert "support-weight grid must be non-empty" in capsys.readouterr().err
        assert builds == [] and not out.exists()

    def test_missing_support_labels_exits_one(self, task_dir, tmp_path, capsys):
        args = [
            "run-fs", "--query", str(task_dir / "query.emb"),
            "--text", str(task_dir / "text.emb"),
            "--support", str(task_dir / "support.emb"),
            "--out", str(tmp_path / "pred.csv"),
        ]
        assert main(args) == 1
        assert "support-labels" in capsys.readouterr().err

    def test_lonely_validation_flag_rejected(self, task_dir, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        rc = main(_fs_args(task_dir, out, [
            "--validation", str(task_dir / "validation.emb"),
        ]))
        assert rc == 1


class TestNonFiniteSettings:
    """A NaN or infinite weight or temperature, a temperature or prior
    weight that would overflow the solver's logits, or a grid entry that is
    not a number fails before the graph build, with an error naming the
    setting and no numpy warning."""

    @pytest.mark.parametrize("command, extra, name", [
        ("run-zs", ["--tau", "inf"], "temperature"),
        ("run-zs", ["--lambda", "nan"], "kl_weight"),
        ("run-fs", ["--lambda", "inf"], "kl_weight"),
        ("run-fs", ["--gamma", "nan"], "support_weight"),
        ("run-fs", ["--gamma-grid", "nan,0.1"], "support_weight"),
        ("run-fs", ["--tau", "nan"], "temperature"),
        ("run-zs", ["--lambda", "1e308"], "kl_weight"),
        ("run-fs", ["--lambda", "1e308"], "kl_weight"),
        ("run-zs", ["--tau", "1.79e308", "--lambda", "0"], "temperature"),
        ("run-fs", ["--tau", "1.79e308", "--lambda", "0"], "temperature"),
        ("run-fs", ["--gamma-grid", "0.1,x"], "bad --gamma-grid"),
    ])
    def test_exits_one_before_the_graph(self, task_dir, tmp_path, monkeypatch, capsys,
                                        recwarn, command, extra, name):
        builds = []
        monkeypatch.setattr(solver, "build_knn", lambda *a, **k: builds.append(1))
        out = tmp_path / "pred.csv"
        if command == "run-zs":
            args = _zs_args(task_dir, out, extra)
        else:
            args = _fs_args(task_dir, out, [
                "--validation", str(task_dir / "validation.emb"),
                "--validation-labels", str(task_dir / "validation.labels"),
                *extra,
            ])
        assert main(args) == 1
        assert name in capsys.readouterr().err
        assert builds == [] and not out.exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_largest_kl_weight_solves_without_nan(self, tmp_path):
        # the largest --lambda at --tau 30, whose product with tau is at most
        # KL_LOGIT_MAX; pytest turns RuntimeWarning into an error, so an
        # overflow fails here; the objective at such a weight is inf, which
        # the trace writes as is
        task = tmp_path / "k1000"
        assert main(["synth", "--out-dir", str(task), "--classes", "1000", "--dim", "16",
                     "--per-class", "1", "--seed", "2"]) == 0
        out, trace = tmp_path / "pred.csv", tmp_path / "trace.csv"
        assert main(_zs_args(task, out, ["--lambda", "1.498077612385263e306", "--outer-iters", "1",
                                         "--trace", str(trace)])) == 0
        _, probs = read_prediction_rows(out)
        assert np.all(np.isfinite(probs))
        _, *rows = trace.read_text().strip().split("\n")
        values = [float(v) for row in rows for v in row.split(",")[2:]]
        assert not any(np.isnan(values))


class TestSynth:
    def test_same_seed_is_byte_identical(self, tmp_path):
        dirs = []
        for name in ("x", "y"):
            d = tmp_path / name
            assert main(["synth", "--out-dir", str(d), "--classes", "2",
                         "--dim", "4", "--per-class", "3", "--seed", "9"]) == 0
            dirs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert dirs[0] == dirs[1]

    def test_config_lists_the_synth_flags_in_flag_order(self, tmp_path):
        d = tmp_path / "cfg"
        assert main(["synth", "--out-dir", str(d), "--classes", "2", "--dim", "4",
                     "--per-class", "3", "--class-sep", "2.5", "--seed", "9"]) == 0
        config = fileio.read_config(d / "config.txt")
        flags = [flag[2:] for flag in cli._build()[1]["synth"].switches
                 if flag not in ("--out-dir", "--config")]
        assert list(config) == flags
        assert flags == ["classes", "dim", "per-class", "shots", "validation-per-class",
                         "class-sep", "prototype-noise", "tau", "seed"]
        assert (config["classes"], config["class-sep"], config["seed"]) == ("2", "2.5", "9")

    def test_directory_under_a_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "sub"
        assert main(["synth", "--out-dir", str(out_dir), "--seed", "7"]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_dir}: [Errno 20] ")

    def test_single_class_task_is_valid(self, tmp_path):
        d = tmp_path / "one"
        assert main(["synth", "--out-dir", str(d), "--classes", "1",
                     "--dim", "4", "--per-class", "3"]) == 0
        assert fileio.read_embeddings(d / "text.emb").n_rows == 1


class TestEval:
    def _write(self, tmp_path, rows, truth):
        from transduct.types import SimplexAssignments

        pred = tmp_path / "pred.csv"
        fileio.write_predictions(SimplexAssignments(np.array(rows)), pred)
        labels = tmp_path / "truth.labels"
        fileio.write_labels(truth, labels)
        return pred, labels

    def test_all_correct(self, tmp_path, capsys):
        pred, labels = self._write(tmp_path, [[0.9, 0.1], [0.2, 0.8]], [0, 1])
        assert main(["eval", "--pred", str(pred), "--truth", str(labels)]) == 0
        assert "top-1 accuracy: 1.0000" in capsys.readouterr().out

    def test_half_correct(self, tmp_path, capsys):
        pred, labels = self._write(tmp_path, [[0.9, 0.1], [0.2, 0.8]], [0, 0])
        assert main(["eval", "--pred", str(pred), "--truth", str(labels)]) == 0
        assert "top-1 accuracy: 0.5000" in capsys.readouterr().out

    def test_length_mismatch_exits_one(self, tmp_path, capsys):
        pred, _ = self._write(tmp_path, [[0.9, 0.1]], [0])
        labels = tmp_path / "more.labels"
        fileio.write_labels([0, 1], labels)
        assert main(["eval", "--pred", str(pred), "--truth", str(labels)]) == 1


class TestConfigFile:
    def test_config_supplies_defaults(self, task_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        fileio.write_config({"outer-iters": 0, "truth": str(task_dir / "truth.labels")}, cfg)
        out = tmp_path / "pred.csv"
        assert main(_zs_args(task_dir, out, ["--config", str(cfg)])) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        zs = next(l for l in lines if l.startswith("zero-shot")).split(": ")[1]
        tr = next(l for l in lines if l.startswith("transduced")).split(": ")[1]
        assert zs == tr

    def test_explicit_flag_overrides_config(self, task_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        fileio.write_config({"outer-iters": 0}, cfg)
        out = tmp_path / "pred.csv"
        assert main(_zs_args(task_dir, out, [
            "--config", str(cfg), "--outer-iters", "10",
            "--truth", str(task_dir / "truth.labels"),
        ])) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        zs = next(l for l in lines if l.startswith("zero-shot")).split(": ")[1]
        tr = next(l for l in lines if l.startswith("transduced")).split(": ")[1]
        assert zs != tr  # ten iterations moved the predictions

    def test_unknown_key_rejected(self, task_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        fileio.write_config({"bogus": 1}, cfg)
        assert main(_zs_args(task_dir, tmp_path / "p.csv", ["--config", str(cfg)])) == 1
        assert "bogus" in capsys.readouterr().err

    def _hyper_from_config(self, task_dir, tmp_path, monkeypatch, values):
        """Run run-zs with `values` as its config file; returns the exit code
        and the Hyperparams the solver was called with (None if never called)."""
        seen = []
        real_run = cli.run

        def recording(spec, **kwargs):
            seen.append(spec.hyper)
            return real_run(spec, **kwargs)

        monkeypatch.setattr(cli, "run", recording)
        cfg = tmp_path / "run.cfg"
        fileio.write_config({"outer-iters": 0, **values}, cfg)
        rc = main(_zs_args(task_dir, tmp_path / "p.csv", ["--config", str(cfg)]))
        return rc, (seen[0] if seen else None)

    def test_lambda_key_sets_kl_weight(self, task_dir, tmp_path, monkeypatch):
        rc, hyper = self._hyper_from_config(task_dir, tmp_path, monkeypatch, {"lambda": 0.25})
        assert rc == 0 and hyper.kl_weight == 0.25

    @pytest.mark.parametrize("value,expected", [
        *((v, True) for v in ("1", "true", "Yes", "ON")),
        *((v, False) for v in ("0", "false", "No", "OFF")),
    ])
    def test_boolean_spellings(self, task_dir, tmp_path, monkeypatch, value, expected):
        rc, hyper = self._hyper_from_config(
            task_dir, tmp_path, monkeypatch, {"symmetrize-graph": value}
        )
        assert rc == 0 and hyper.symmetrize_graph is expected

    def test_bad_boolean_rejected(self, task_dir, tmp_path, monkeypatch, capsys):
        rc, hyper = self._hyper_from_config(
            task_dir, tmp_path, monkeypatch, {"symmetrize-graph": "maybe"}
        )
        assert rc == 1 and hyper is None
        assert "must be a boolean" in capsys.readouterr().err

    def test_config_cannot_nest(self, task_dir, tmp_path, monkeypatch, capsys):
        rc, hyper = self._hyper_from_config(
            task_dir, tmp_path, monkeypatch, {"config": str(tmp_path / "other.cfg")}
        )
        assert rc == 1 and hyper is None
        assert "cannot nest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run-zs", "run-fs", "synth"])
    def test_help_key_rejected(self, task_dir, tmp_path, capsys, command):
        # --help takes no value and stores none: as a config key it would
        # print usage and exit 0 without writing anything
        cfg = tmp_path / "run.cfg"
        fileio.write_config({"help": 1}, cfg)
        out = tmp_path / "out"
        argv = {"run-zs": _zs_args, "run-fs": _fs_args}.get(
            command, lambda _, d, extra: ["synth", "--out-dir", str(d), *extra])
        assert main(argv(task_dir, out, ["--config", str(cfg)])) == 1
        captured = capsys.readouterr()
        assert "unknown flag --help" in captured.err and "usage" not in captured.out
        assert not out.exists()

    def test_key_is_not_abbreviated(self, task_dir, tmp_path, monkeypatch, capsys):
        # argparse would take --outer for --outer-iters; config keys must match exactly
        rc, hyper = self._hyper_from_config(task_dir, tmp_path, monkeypatch, {"outer": 3})
        assert rc == 1 and hyper is None
        err = capsys.readouterr().err
        assert "unknown flag --outer" in err and str(tmp_path / "run.cfg") in err


class TestHelp:
    @pytest.mark.parametrize("cmd", ["run-zs", "run-fs", "synth", "eval"])
    def test_help_exits_zero(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        capsys.readouterr()

    def test_help_lists_reference_defaults(self, capsys):
        main(["run-fs", "--help"])
        text = capsys.readouterr().out
        for token in ("default: 10", "default: 5", "default: 3", "default: 8",
                      "default: 0.5", "0.002,0.01,0.02,0.2"):
            assert token in text


def test_cli_runs_with_scipy_unimportable(task_dir, tmp_path):
    # the CLI imports numpy alone: a None entry in sys.modules makes every
    # import of scipy raise, so any use of it fails the run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    commands = [
        ["synth", "--out-dir", str(tmp_path / "synth"), "--classes", "3", "--dim", "4",
         "--per-class", "5", "--seed", "1"],
        _zs_args(task_dir, tmp_path / "zs.csv", [
            "--dump-graph", str(tmp_path / "edges.txt"), "--symmetrize-graph",
        ]),
        _fs_args(task_dir, tmp_path / "fs.csv", [
            "--validation", str(task_dir / "validation.emb"),
            "--validation-labels", str(task_dir / "validation.labels"),
        ]),
        ["eval", "--pred", str(tmp_path / "fs.csv"), "--truth", str(task_dir / "truth.labels")],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from transduct.cli import main\n"
        "sys.exit(max(main(args) for args in json.loads(sys.argv[1])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "edges.txt").stat().st_size > 0
    assert "accuracy" in out.stdout


@pytest.mark.skipif(cli._openblas_threads() is None,
                    reason="numpy bundles no OpenBLAS under numpy.libs")
def test_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # unpinned, line 5 of this task's CSV differs between one and two
    # OpenBLAS threads on a 2-core AVX-512 Xeon
    task = tmp_path / "task"
    assert main(["synth", "--out-dir", str(task), "--classes", "100", "--dim", "64",
                 "--per-class", "10", "--seed", "1"]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"pred{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "transduct.cli", *_zs_args(task, out)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.skipif(cli._openblas_threads() is None,
                    reason="numpy bundles no OpenBLAS under numpy.libs")
@pytest.mark.parametrize("few_shot", [False, True])
def test_solves_run_at_one_blas_thread(task_dir, tmp_path, monkeypatch, few_shot):
    # the solve sees one OpenBLAS thread, whatever the count before it, and
    # the count is restored after; so do the soft labels behind the printed
    # zero-shot accuracy
    get, put = cli._openblas_threads()
    seen, labeled = [], []
    name = "run_fewshot" if few_shot else "run"
    solve = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: seen.append(get()) or solve(*a, **k))
    soft = solver.compute_soft_labels
    monkeypatch.setattr(solver, "compute_soft_labels",
                        lambda *a: labeled.append(get()) or soft(*a))
    before = get()
    put(2)
    try:
        args = (_fs_args if few_shot else _zs_args)(
            task_dir, tmp_path / "pred.csv", ["--truth", str(task_dir / "truth.labels")])
        assert main(args) == 0
        assert seen == [1] and get() == 2
        assert len(labeled) >= 2 and set(labeled) == {1}
    finally:
        put(before)
