import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transduct import fileio
from transduct.errors import (
    BadMagic,
    IoFailure,
    NegativeLabel,
    NonFiniteValue,
    ParseError,
    RaggedCsv,
    TruncatedFile,
)
from transduct.types import SimplexAssignments
from helpers import read_prediction_rows, read_score_table, unit_rows


class TestEmb1:
    def test_header_arithmetic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + b"\x00" * 24)
        out = fileio.read_matrix(path)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + b"\x00" * 23)
        with pytest.raises(TruncatedFile):
            fileio.read_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            fileio.read_matrix(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1\x01")
        with pytest.raises(TruncatedFile):
            fileio.read_matrix(path)

    def test_size_cap_guards_corrupt_headers(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(b"EMB1" + struct.pack("<II", 2**31, 2**10))
        with pytest.raises(TruncatedFile):
            fileio.read_matrix(path)

    def test_regular_file_payload_is_not_capped(self, tmp_path, monkeypatch):
        # a regular file is checked against its size, not the cap on files
        # of unknown size, here 16 bytes
        monkeypatch.setattr(fileio, "_MAX_BYTES", 16)
        path = tmp_path / "m.emb"
        data = np.arange(12, dtype="<f4").reshape(4, 3)
        fileio.write_embeddings(data, path)
        assert fileio.read_matrix(path).tobytes() == data.tobytes()
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFile, match="payload has 47 bytes, header declares 48"):
            fileio.read_matrix(path)

    def test_pipe_payload_is_capped(self, monkeypatch):
        # a file of unknown size keeps the header sanity cap, here 16 bytes
        monkeypatch.setattr(fileio, "_MAX_BYTES", 16)

        def read_from_pipe(data):
            read_fd, write_fd = os.pipe()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            try:
                return fileio.read_matrix(f"/dev/fd/{read_fd}")
            finally:
                os.close(read_fd)

        assert read_from_pipe(b"EMB1" + struct.pack("<II", 2, 2) + b"\x00" * 16).shape == (2, 2)
        with pytest.raises(TruncatedFile, match="payload has 3 of the 4 values"):
            read_from_pipe(b"EMB1" + struct.pack("<II", 2, 2) + b"\x00" * 15)
        with pytest.raises(TruncatedFile, match="cap"):
            read_from_pipe(b"EMB1" + struct.pack("<II", 3, 2))

    def test_roundtrip_seeded_matrix_is_bit_identical(self, tmp_path, rng):
        data = rng.standard_normal((100, 16)).astype(np.float32)
        path = tmp_path / "m.emb"
        fileio.write_embeddings(data, path)
        back = fileio.read_matrix(path)
        assert back.tobytes() == data.tobytes()

    def test_roundtrip_any_finite_float32(self, tmp_path):
        path = tmp_path / "m.emb"
        for seed in range(60):
            r = np.random.default_rng(seed)
            n, d = int(r.integers(1, 40)), int(r.integers(1, 12))
            scale = np.float32(10.0) ** r.integers(-30, 30)
            data = (r.standard_normal((n, d)) * scale).astype(np.float32)
            data[~np.isfinite(data)] = 0.0
            fileio.write_embeddings(data, path)
            assert fileio.read_matrix(path).tobytes() == data.tobytes()

    def test_read_embeddings_normalizes(self, tmp_path, rng):
        data = unit_rows(rng, 8, 5).astype(np.float32)
        path = tmp_path / "m.emb"
        fileio.write_embeddings(data, path)
        emb = fileio.read_embeddings(path)
        np.testing.assert_allclose(np.linalg.norm(emb.data, axis=1), 1.0, atol=1e-12)


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.5,-4.25\n")
        out = fileio.read_matrix(path)
        np.testing.assert_array_equal(out, np.array([[1, 2], [3.5, -4.25]], dtype=np.float32))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(RaggedCsv):
            fileio.read_matrix(path)

    def test_non_finite_rejected(self, tmp_path):
        # 1e300 and -3.4028236e38 are finite doubles beyond the float32 range
        path = tmp_path / "m.csv"
        for cell in ("nan", "1e300", "-3.4028236e38"):
            path.write_text(f"1.0,{cell}\n")
            with pytest.raises(NonFiniteValue):
                fileio.read_matrix(path)

    def test_largest_float32_kept(self, tmp_path):
        # the float32 maximum, printed to 8 digits, rounds back to itself
        path = tmp_path / "m.csv"
        path.write_text("1.0,3.4028235e38\n")
        assert fileio.read_matrix(path)[0, 1] == np.finfo(np.float32).max

    def test_bad_token(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,zap\n")
        with pytest.raises(ParseError):
            fileio.read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            fileio.read_matrix(path)


class TestLabels:
    def test_basic(self, tmp_path):
        path = tmp_path / "l.labels"
        path.write_text("0\n1\n2\n")
        np.testing.assert_array_equal(fileio.read_labels(path), [0, 1, 2])

    def test_trailing_newline_optional(self, tmp_path):
        a = tmp_path / "a.labels"
        b = tmp_path / "b.labels"
        a.write_text("0\n1\n2\n")
        b.write_text("0\n1\n2")
        np.testing.assert_array_equal(fileio.read_labels(a), fileio.read_labels(b))

    def test_blank_interior_line(self, tmp_path):
        path = tmp_path / "l.labels"
        path.write_text("0\n\n1\n")
        with pytest.raises(ParseError):
            fileio.read_labels(path)

    def test_negative_label(self, tmp_path):
        path = tmp_path / "l.labels"
        path.write_text("0\n-1\n")
        with pytest.raises(NegativeLabel):
            fileio.read_labels(path)

    def test_non_integer(self, tmp_path):
        path = tmp_path / "l.labels"
        path.write_text("0\nx\n")
        with pytest.raises(ParseError):
            fileio.read_labels(path)

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "l.labels"
        fileio.write_labels([3, 1, 4, 1, 5], path)
        np.testing.assert_array_equal(fileio.read_labels(path), [3, 1, 4, 1, 5])


class TestPredictions:
    def test_exact_serialization(self, tmp_path):
        path = tmp_path / "p.csv"
        fileio.write_predictions(SimplexAssignments(np.array([[0.25, 0.75]])), path)
        lines = path.read_text().split("\n")
        assert lines[0] == "index,pred,conf,p_0,p_1"
        assert lines[1] == "0,1,0.75,0.25,0.75"

    def test_single_class(self, tmp_path):
        path = tmp_path / "p.csv"
        fileio.write_predictions(SimplexAssignments(np.ones((3, 1))), path)
        preds, probs = read_prediction_rows(path)
        np.testing.assert_array_equal(preds, 0)
        np.testing.assert_array_equal(probs, 1.0)

    def test_large_roundtrip_preserves_argmax(self, tmp_path, rng):
        logits = rng.standard_normal((2000, 6))
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        z /= z.sum(axis=1, keepdims=True)
        a = SimplexAssignments(z)
        path = tmp_path / "p.csv"
        fileio.write_predictions(a, path)
        preds = fileio.read_predictions(path)
        np.testing.assert_array_equal(preds, np.argmax(z, axis=1))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("nope\n")
        with pytest.raises(ParseError):
            fileio.read_predictions(path)

    @pytest.mark.parametrize("row, message", [
        ("0,1,0.5", "p.csv:2: too few columns"),
        ("0,x,0.5,0.5", "p.csv:2: invalid literal"),
    ], ids=["too-few-columns", "bad-pred"])
    def test_bad_row_rejected(self, tmp_path, row, message):
        path = tmp_path / "p.csv"
        path.write_text(f"index,pred,conf,p_0\n{row}\n")
        with pytest.raises(ParseError, match=re.escape(message)):
            fileio.read_predictions(path)

    def test_reads_only_the_pred_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("index,pred,conf,p_0,p_1\n0,1,?,not,parsed\n1,0,0.5,0.5,0.5\n")
        np.testing.assert_array_equal(fileio.read_predictions(path), [1, 0])


def _per_value_predictions(z: np.ndarray) -> bytes:
    """The predictions CSV as written one f-string per value."""
    preds = np.argmax(z, axis=1)
    out = "index,pred,conf," + ",".join(f"p_{k}" for k in range(z.shape[1])) + "\n"
    for i, row in enumerate(z):
        probs = ",".join(f"{p:.9g}" for p in row)
        out += f"{i},{preds[i]},{row[preds[i]]:.9g},{probs}\n"
    return out.encode("ascii")


# Rows whose entries stress %.9g: exact 0 and 1, subnormals, values that
# round at the 9th significant digit (up to "1"), and argmax ties.
_EDGE_ROWS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 5e-324, 1e-310, 0.0],
        [0.1234567895, 0.8765432105, 0.0, 0.0],
        [0.9999999995, 4.99999999e-10, 5e-324, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.333333333, 0.333333333, 0.333333334, 0.0],
        [1.000000005e-5, 0.99998999999, 0.0, 0.0],
    ]
)


def _edge_matrix(rng, n):
    """n rows: the edge rows in turn, then softmax rows spanning ~300 decades."""
    logits = rng.standard_normal((n, 4)) * 150.0
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    z /= z.sum(axis=1, keepdims=True)
    z[: min(n, len(_EDGE_ROWS))] = _EDGE_ROWS[:n]
    return z


class TestPredictionBytes:
    """write_predictions formats blockwise; the bytes must equal the
    per-value f-string output."""

    def _check(self, z, tmp_path):
        path = tmp_path / "p.csv"
        fileio.write_predictions(SimplexAssignments(z), path)
        assert path.read_bytes() == _per_value_predictions(SimplexAssignments(z).z)

    def test_edge_values(self, tmp_path, rng):
        z = _edge_matrix(rng, 40)
        assert np.any((z > 0) & (z < np.finfo(np.float64).tiny))
        self._check(z, tmp_path)

    @pytest.mark.parametrize("n", [1, 7])
    def test_single_class(self, tmp_path, n):
        self._check(np.ones((n, 1)), tmp_path)

    def test_single_row(self, tmp_path):
        self._check(_EDGE_ROWS[2:3], tmp_path)

    def test_one_hot_rows(self, tmp_path, rng):
        self._check(SimplexAssignments.one_hot(rng.integers(0, 9, size=50), 9).z, tmp_path)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_rows_across_small_blocks(self, tmp_path, rng, monkeypatch, blocks, extra):
        # 7 values per row of K = 4, so a 21-value budget gives 3-row blocks
        monkeypatch.setattr(fileio, "_WRITE_BLOCK_VALUES", 21)
        self._check(_edge_matrix(rng, 3 * blocks + extra), tmp_path)

    def test_rows_across_default_blocks(self, tmp_path, rng):
        rows_per_block = fileio._WRITE_BLOCK_VALUES // (4 + 3)
        self._check(_edge_matrix(rng, 2 * rows_per_block + 1), tmp_path)


def _paired_rows(values) -> np.ndarray:
    """Rows [v, 1 - v]: valid assignment rows that carry any v in [0, 1]."""
    v = np.asarray(values, dtype=np.float64)
    return np.column_stack([v, 1.0 - v])


def _adversarial_values() -> np.ndarray:
    r = np.random.default_rng(5)
    powers = np.array([float(f"1e-{n}") for n in range(1, 324)])
    # 10-digit decimals ending in 5: halfway between two 9-digit roundings
    mantissas = r.integers(10**8, 10**9, 4000).tolist()
    exponents = r.integers(10, 334, 4000).tolist()
    midpoints = np.array([float(f"{m}5e-{e}") for m, e in zip(mantissas, exponents)])
    # j / 2**b with 10 significant digits ending in 5, such as 103/1024,
    # are exact ties
    dyadic = np.concatenate([np.arange(1, 2**b) / 2**b for b in (10, 14)])
    tiny = np.finfo(np.float64).tiny
    specials = [1.0, np.nextafter(1.0, 0.0), 0.9999999995, -0.0, tiny, 5e-324]
    return np.concatenate(
        [
            np.nextafter(powers, 0.0),
            powers,
            np.nextafter(powers, 1.0),
            np.nextafter(midpoints, 0.0),
            midpoints,
            np.nextafter(midpoints, 1.0),
            dyadic,
            specials,
        ]
    )


class TestFormatterExactness:
    """Every probability is printed byte for byte as '%.9g' prints it."""

    def _check(self, values, path):
        z = _paired_rows(values)
        fileio.write_predictions(SimplexAssignments(z), path)
        preds = np.argmax(z, axis=1)
        conf = z[np.arange(len(z)), preds]
        fields = zip(range(len(z)), preds.tolist(), conf.tolist(), *z.T.tolist())
        expected = "index,pred,conf,p_0,p_1\n" + "".join(
            map("%d,%d,%.9g,%.9g,%.9g\n".__mod__, fields)
        )
        assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=1, max_size=64))
    def test_any_probabilities(self, tmp_path_factory, values):
        self._check(values, tmp_path_factory.mktemp("p") / "p.csv")

    def test_adversarial_values(self, tmp_path):
        values = _adversarial_values()
        assert np.count_nonzero((values > 0) & (values < np.finfo(np.float64).tiny)) > 10
        self._check(values, tmp_path / "p.csv")

    @pytest.mark.parametrize("error", [-1.5, -0.5, 0.5, 1.5])
    def test_bytes_do_not_depend_on_log10(self, tmp_path, monkeypatch, error):
        # a decade estimate off by one is corrected, off by two falls back
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
        self._check(_adversarial_values(), tmp_path / "p.csv")

    def test_million_log_uniform_values(self, tmp_path):
        values = 10.0 ** np.random.default_rng(17).uniform(-323.3, 0.0, 10**6)
        self._check(values, tmp_path / "p.csv")

    def test_memory_does_not_grow_with_rows(self, rng):
        peaks = {}
        for n in (2000, 20000):
            z = rng.standard_normal((n, 500)) * 8.0
            z = np.exp(z - z.max(axis=1, keepdims=True), out=z)
            z /= z.sum(axis=1, keepdims=True)
            assignments = SimplexAssignments(z)
            del z
            tracemalloc.start()
            try:
                fileio.write_predictions(assignments, os.devnull)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20000] <= 1.01 * peaks[2000]
        assert peaks[20000] <= 4 * 2**20


class TestConfig:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.txt"
        fileio.write_config({"knn": 3, "tau": 30.0}, path)
        assert fileio.read_config(path) == {"knn": "3", "tau": "30.0"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\n\nknn=5\n")
        assert fileio.read_config(path) == {"knn": "5"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("knn\n")
        with pytest.raises(ParseError):
            fileio.read_config(path)


class TestTraceAndScoreTable:
    def test_trace_csv(self, tmp_path):
        from transduct.solver import TraceRow

        path = tmp_path / "t.csv"
        fileio.write_trace([TraceRow(0, "init", 1.5, -2.25)], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iteration,block,normalized,update_consistent"
        assert lines[1] == "0,init,1.5,-2.25"

    def test_score_table_roundtrip(self, tmp_path):
        path = tmp_path / "s.csv"
        table = [(0.002, 0.5), (0.2, 0.55)]
        fileio.write_score_table(table, path)
        assert read_score_table(path) == table


class TestIoFailure:
    """Every reader and writer reports an OS error as IoFailure naming the path."""

    @pytest.mark.parametrize(
        "reader, name",
        [
            (fileio.read_matrix, "m.emb"),
            (fileio.read_matrix, "m.csv"),
            (fileio.read_embeddings, "m.emb"),
            (fileio.read_labels, "x.labels"),
            (fileio.read_predictions, "p.csv"),
            (fileio.read_config, "run.cfg"),
        ],
    )
    def test_missing_file(self, tmp_path, reader, name):
        path = tmp_path / name
        with pytest.raises(IoFailure, match=f"^cannot read {re.escape(str(path))}: "):
            reader(path)

    @pytest.mark.parametrize(
        "writer, value",
        [
            (fileio.write_embeddings, np.ones((1, 2))),
            (fileio.write_labels, [0, 1]),
            (fileio.write_predictions, SimplexAssignments(np.ones((1, 1)))),
            (fileio.write_config, {"knn": 3}),
            (fileio.write_trace, []),
            (fileio.write_score_table, [(0.01, 0.5)]),
        ],
    )
    def test_missing_directory(self, tmp_path, writer, value):
        path = tmp_path / "absent" / "out"
        with pytest.raises(IoFailure, match=f"^cannot write {re.escape(str(path))}: "):
            writer(value, path)
