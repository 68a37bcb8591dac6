"""Bit-exact file formats: embeddings, labels, predictions, configs.

Embedding container ("EMB1"): 4 magic bytes ``EMB1``, then two little-
endian uint32 fields (row count, dimension), then row-major float32
little-endian payload. The raw reader/writer pair below round-trips any
finite float32 matrix bit-exactly; unit-norm validation happens only when
the matrix is promoted to an EmbeddingMatrix.

CSV embeddings (files ending in ``.csv``): one row per line, comma
separated decimal numbers, uniform column count.

Labels: one non-negative integer per line; a trailing final newline is
optional, interior blank lines are errors.

Every reader and writer reports an OS error (missing file or directory,
permissions, a full disk) as IoFailure("cannot read|write PATH: reason").
"""

from __future__ import annotations

import contextlib
import struct
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadMagic,
    IoFailure,
    NegativeLabel,
    NonFiniteValue,
    ParseError,
    RaggedCsv,
    TruncatedFile,
)
from .types import EmbeddingMatrix, SimplexAssignments

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")
# Declared payloads above this are treated as corrupt headers.
_MAX_BYTES = 1 << 30
# Values formatted per write_predictions block: bounds the Python floats
# and the block string alive at once.
_WRITE_BLOCK_VALUES = 1 << 14


@contextlib.contextmanager
def _io_failure(action: str, path):
    """Turn an OSError raised in the body into IoFailure("cannot {action} {path}: ...")."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot {action} {path}: {exc}") from exc


def _read_lines(path) -> list[str]:
    """The lines of an ASCII text file, minus the empty one after a final newline."""
    with _io_failure("read", path), open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def write_embeddings(matrix, path) -> None:
    """Write a matrix (EmbeddingMatrix or array) in the EMB1 binary format."""
    data = matrix.data if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix)
    if data.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {data.shape}")
    payload = np.ascontiguousarray(data, dtype="<f4")
    with _io_failure("write", path), open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, data.shape[0], data.shape[1]))
        fh.write(payload.tobytes())


def read_matrix(path) -> np.ndarray:
    """Read raw float32 rows from an EMB1 or ``.csv`` file, bit-exactly.

    No normalization is applied; promote with ``read_embeddings`` to get a
    validated unit-norm EmbeddingMatrix.
    """
    if str(path).endswith(".csv"):
        return _read_csv(path)
    with _io_failure("read", path), open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedFile(f"{path}: missing header")
        magic, n_rows, dim = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise BadMagic(f"{path}: expected {_MAGIC!r} magic, got {magic!r}")
        n_bytes = n_rows * dim * 4
        if n_bytes > _MAX_BYTES:
            raise TruncatedFile(
                f"{path}: header declares {n_bytes} payload bytes, above the "
                f"{_MAX_BYTES} sanity cap"
            )
        payload = fh.read(n_bytes)
        if len(payload) < n_bytes:
            raise TruncatedFile(
                f"{path}: payload has {len(payload)} bytes, header declares {n_bytes}"
            )
    flat = np.frombuffer(payload, dtype="<f4")
    return flat.reshape(n_rows, dim)


def read_embeddings(path) -> EmbeddingMatrix:
    """Read and validate an embedding file; rows are unit-normalized."""
    return EmbeddingMatrix(read_matrix(path))


def _read_csv(path) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty CSV")
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise RaggedCsv(
                f"{path}:{lineno}: expected {width} columns, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    data = np.asarray(rows, dtype=np.float32)
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue(f"{path}: CSV contains non-finite values")
    return data


def read_labels(path) -> np.ndarray:
    """Read newline-separated non-negative integer class labels."""
    labels = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        try:
            value = int(line, 10)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: not an integer: {line!r}") from exc
        if value < 0:
            raise NegativeLabel(f"{path}:{lineno}: negative label {value}")
        labels.append(value)
    return np.asarray(labels, dtype=np.int64)


def write_labels(labels: Iterable[int], path) -> None:
    with _io_failure("write", path), open(path, "w", encoding="ascii") as fh:
        for value in labels:
            fh.write(f"{int(value)}\n")


def write_predictions(assignments: SimplexAssignments, path) -> None:
    """Write per-sample predictions as CSV.

    Columns: row index, argmax class, its probability, then the full
    probability row, all probabilities at 9 significant digits. Rows are
    formatted in blocks of about ``_WRITE_BLOCK_VALUES`` values, each block
    with one ``%``-format of ``%d,%d,%.9g,`` plus one ``%.9g`` per class.
    """
    z = assignments.z
    n, k = z.shape
    preds = np.argmax(z, axis=1)
    header = "index,pred,conf," + ",".join(f"p_{c}" for c in range(k))
    line = "%d,%d,%.9g," + ",".join(["%.9g"] * k) + "\n"
    rows_per_block = max(1, _WRITE_BLOCK_VALUES // (k + 3))
    with _io_failure("write", path), open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, rows_per_block):
            hi = min(lo + rows_per_block, n)
            # float64 holds every row index and class exactly, and %d
            # prints them as integers
            rows = np.arange(lo, hi)
            block = np.empty((hi - lo, k + 3))
            block[:, 0] = rows
            block[:, 1] = preds[lo:hi]
            block[:, 2] = z[rows, preds[lo:hi]]
            block[:, 3:] = z[lo:hi]
            fh.write((line * (hi - lo)) % tuple(block.ravel().tolist()))


def read_predictions(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a predictions CSV back into (argmax classes, probability rows)."""
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("index,pred,conf"):
        raise ParseError(f"{path}: missing predictions header")
    preds = []
    probs = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) < 4:
            raise ParseError(f"{path}:{lineno}: too few columns")
        try:
            preds.append(int(cells[1]))
            probs.append([float(c) for c in cells[3:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return np.asarray(preds, dtype=np.int64), np.asarray(probs)


def write_config(values: dict, path) -> None:
    """Write a flat key=value config file, one entry per line."""
    with _io_failure("write", path), open(path, "w", encoding="ascii") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value}\n")


def read_config(path) -> dict:
    """Read a flat key=value config file; '#' lines and blanks are skipped."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(_read_lines(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def write_trace(rows: Sequence, path) -> None:
    """Write the solver objective trace as CSV."""
    with _io_failure("write", path), open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,block,normalized,update_consistent\n")
        for row in rows:
            fh.write(
                f"{row.iteration},{row.block},"
                f"{row.normalized:.17g},{row.update_consistent:.17g}\n"
            )


def write_score_table(table: Sequence[tuple[float, float]], path) -> None:
    """Write the support-weight search results as CSV."""
    with _io_failure("write", path), open(path, "w", encoding="ascii") as fh:
        fh.write("gamma,validation_accuracy\n")
        for gamma, acc in table:
            fh.write(f"{gamma:.9g},{acc:.9g}\n")
