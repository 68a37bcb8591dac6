"""Bit-exact file formats: embeddings, labels, predictions, configs.

Embedding container ("EMB1"): 4 magic bytes ``EMB1``, then two little-
endian uint32 fields (row count, dimension), then row-major float32
little-endian payload. The raw reader/writer pair below round-trips any
finite float32 matrix bit-exactly; unit-norm validation happens only when
the matrix is promoted to an EmbeddingMatrix.

CSV embeddings (files ending in ``.csv``): one row per line, comma
separated decimal numbers, uniform column count.

A regular EMB1 file must hold the payload its header declares, which is
checked against the file size before anything is allocated; a file of
unknown size (a pipe) may declare at most 1 GiB.

Labels: one non-negative integer per line; a trailing final newline is
optional, interior blank lines are errors.

Predictions: CSV rows of index, argmax class, its probability and the
probability row, every probability byte-identical to CPython's
``'%.9g' % p`` whatever the numpy and libm. A numpy digit-table formatter
writes them (see ``write_predictions``); it proves each digit string with an
error bound and hands the values it cannot prove to ``'%.9g'``.
``read_predictions`` reads back only the ``pred`` column.

Graph edges: one ``i j w`` line per stored edge of an AffinityGraph, in
storage order, with the weight as ``'%.9g'``.

Every reader and writer opens through ``_open``, and synth makes its task
directory under the same mapping: an OS error (missing file or directory,
permissions, a full disk) is IoFailure("cannot read|write PATH: reason").
"""

from __future__ import annotations

import contextlib
import os
import stat
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
from .types import AffinityGraph, EmbeddingMatrix, SimplexAssignments

_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sII")
# Declared payloads above this are treated as corrupt headers where the
# file size is unknown (pipes, character devices); regular files are
# checked against their size instead.
_MAX_BYTES = 1 << 30
# CSV values of this magnitude and above round to inf in float32: the
# float32 maximum plus half its last step.
_F32_OVERFLOW = 2.0**128 - 2.0**103
# Values formatted per write_predictions block: bounds the slots, masks and
# float temporaries alive at once (about 110 bytes per value). Measured: set
# with the solver's screen blocks to types._ROW_BLOCK_BYTES (about 4.7K
# values), zs-wide ran slower.
_WRITE_BLOCK_VALUES = 1 << 14


@contextlib.contextmanager
def _io_failure(action: str, path):
    """Turn an OSError raised in the body into IoFailure("cannot {action} {path}: ...")."""
    try:
        yield
    except OSError as exc:
        raise IoFailure(f"cannot {action} {path}: {exc}") from exc


@contextlib.contextmanager
def _open(path, mode: str):
    """The file at path opened in mode, as ASCII in text modes; an OSError from
    opening, reading, writing or the flush at close is an IoFailure."""
    with _io_failure("write" if "w" in mode else "read", path):
        with open(path, mode, encoding=None if "b" in mode else "ascii") as fh:
            yield fh


def _read_lines(path) -> list[str]:
    """The lines of an ASCII text file, minus the empty one after a final newline."""
    with _open(path, "r") as fh:
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
    with _open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, data.shape[0], data.shape[1]))
        fh.write(payload.tobytes())


def read_matrix(path) -> np.ndarray:
    """Read raw float32 rows from an EMB1 or ``.csv`` file, bit-exactly.

    No normalization is applied; promote with ``read_embeddings`` to get a
    validated unit-norm EmbeddingMatrix.
    """
    if str(path).endswith(".csv"):
        return _read_csv(path)
    with _open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedFile(f"{path}: missing header")
        magic, n_rows, dim = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise BadMagic(f"{path}: expected {_MAGIC!r} magic, got {magic!r}")
        n_bytes = n_rows * dim * 4
        info = os.fstat(fh.fileno())
        # the declared payload is checked before anything is allocated: a
        # regular file must hold it, other files may declare up to the cap
        if stat.S_ISREG(info.st_mode):
            available = info.st_size - _HEADER.size
            if n_bytes > available:
                raise TruncatedFile(
                    f"{path}: payload has {available} bytes, header declares {n_bytes}"
                )
        elif n_bytes > _MAX_BYTES:
            raise TruncatedFile(
                f"{path}: header declares {n_bytes} payload bytes, above the "
                f"{_MAX_BYTES} cap on files of unknown size"
            )
        payload = fh.read(n_bytes)
    flat = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4)
    if flat.size < n_rows * dim:
        raise TruncatedFile(
            f"{path}: payload has {flat.size} of the {n_rows * dim} values the header declares"
        )
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
    data = np.asarray(rows)
    # checked before the float32 cast, which would warn and round to inf
    if not np.all(np.abs(data) < _F32_OVERFLOW):
        raise NonFiniteValue(f"{path}: CSV contains values that are not finite in float32")
    return data.astype(np.float32)


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


def _write_lines(path, lines: Iterable[str]) -> None:
    """Write ASCII text lines, each ending in its own newline."""
    with _open(path, "w") as fh:
        fh.writelines(lines)


def write_labels(labels: Iterable[int], path) -> None:
    _write_lines(path, (f"{int(value)}\n" for value in labels))


# A predictions line is a row of fixed 24-byte slots, one per field, and a
# keep-mask drops the slot bytes a field does not use. Bytes of a slot:
#   0 the separator before the field, "," or "\n"
#   1-5 "0.000"  6 d0  7 "."  8-15 d1..d8  18-19 "e-"  20-23 an exponent
#   group, of which 2 or 3 digits are kept
# An integer slot keeps the last of its 12 digits in 4-15; a fallback slot
# holds CPython's '%.9g' text from byte 1. Bytes 4-23 are 4-byte aligned
# digit groups, written as uint32 words from a table.
_SLOT = 24
# field forms: a bare digit ("0", "1"), fixed notation with 0-3 zeros after
# the point (forms 1-4), exponent notation with 2 or 3 exponent digits, an
# integer, fallback text; the keep-mask of a field is
# _KEEP[form * _SLOT + n], n its count of digits or characters
_BARE, _EXP2, _EXP3, _INT, _TEXT = 0, 5, 6, 7, 8


def _keep_table() -> np.ndarray:
    """The keep-mask of every keep code, one row each."""
    keep = np.zeros((9, _SLOT, _SLOT), dtype=bool)
    keep[..., 0] = True
    keep[_BARE, :, 6] = True
    for n in range(1, 10):
        digits = [6, *range(8, 7 + n)]
        for zeros in range(4):
            keep[1 + zeros, n, [1, 2, *range(3, 3 + zeros), *digits]] = True
        exp = [*digits, 7, 18, 19] if n > 1 else [*digits, 18, 19]
        keep[_EXP2, n, [*exp, 22, 23]] = True
        keep[_EXP3, n, [*exp, 21, 22, 23]] = True
    for n in range(1, 13):
        keep[_INT, n, 16 - n : 16] = True
    for n in range(1, _SLOT):
        keep[_TEXT, n, 1 : 1 + n] = True
    return keep.reshape(-1, _SLOT)


def _words(texts) -> np.ndarray:
    """4-byte ASCII strings as uint32 words, in the byte order of a view."""
    return np.frombuffer(b"".join(texts), dtype=np.uint32)


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every 4-digit group as a word, and its count of trailing zeros (4 for 0)."""
    ascii_digits = np.arange(48, 58, dtype=np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    groups[..., 0] = ascii_digits[:, None, None, None]
    groups[..., 1] = ascii_digits[:, None, None]
    groups[..., 2] = ascii_digits[:, None]
    groups[..., 3] = ascii_digits
    # appending a digit: one more trailing zero after a "0", none otherwise
    trailing = np.zeros(1, dtype=np.uint8)
    for _ in range(4):
        trailing = np.where(ascii_digits == 48, trailing[:, None] + 1, 0).astype(np.uint8).ravel()
    return groups.reshape(-1, 4).view(np.uint32)[:, 0], trailing


_KEEP = _keep_table()
_DIGITS4, _TRAILING4 = _group_tables()
# bytes 4-7 of a probability slot, by leading digit
_LEAD = _words(b"00%d." % d for d in range(10))
_SEP_POINT, _EXP_SIGN = _words([b",0.0", b"  e-"])
# form * _SLOT by the decimal exponent -X of a printed probability
_FORM_BY_EXP = (np.minimum(np.arange(320), _EXP2) + (np.arange(320) >= 100)) * _SLOT
# correctly rounded float64 powers of ten, from Python float literals:
# _POW_HI[p] * _POW_LO[p] is 10**p in two roundings, for 0 <= p < 320
_POW10 = np.array([float(f"1e{j}") for j in range(161)])
_POW_HI = _POW10[np.arange(320) // 2]
_POW_LO = _POW10[np.arange(320) - np.arange(320) // 2]
_POW10_INT = 10 ** np.arange(1, 12)
_TINY = np.finfo(np.float64).tiny
# The scaled mantissa carries 4 roundings (two table powers, two
# products), so it is off by less than 4.5e-16 relative, below 4.5e-7 at
# 1e9; outside this margin around .5, rint gives the exact 9-digit round.
_TIE_MARGIN = 1e-6


def _format_ints(values: np.ndarray, words: np.ndarray, code: np.ndarray) -> None:
    """Slots and keep codes of non-negative integers below 10**12, as %d."""
    words[..., 1] = _DIGITS4[values // 10**8]
    words[..., 2] = _DIGITS4[values // 10**4 % 10**4]
    words[..., 3] = _DIGITS4[values % 10**4]
    code[...] = _INT * _SLOT + 1 + np.searchsorted(_POW10_INT, values, side="right")


def _format_probs(x: np.ndarray, slots: np.ndarray, code: np.ndarray) -> None:
    """Slots and keep codes of the values x, each exactly as '%.9g' % x.

    Where most values are exact zeros, as on a solve whose certified
    negligible entries are 0, every slot starts as "0" and only the other
    values (-0.0 among them, which prints as "-0") go through the digits.
    """
    live = x.view(np.uint64) != 0
    if np.count_nonzero(live) * 2 >= x.size:
        _format_digits(x, slots, code)
        return
    words = slots.view(np.uint32)
    words[..., 0] = _SEP_POINT
    words[..., 1] = _LEAD[0]
    code[...] = _BARE * _SLOT + 1
    at = np.nonzero(live)
    part_slots = np.empty((at[0].size, _SLOT), dtype=np.uint8)
    part_code = np.empty(at[0].size, dtype=np.intp)
    _format_digits(x[at], part_slots, part_code)
    slots[at] = part_slots
    code[at] = part_code


def _format_digits(x: np.ndarray, slots: np.ndarray, code: np.ndarray) -> None:
    """``_format_probs`` for any values, through the digit pipeline."""
    words = slots.view(np.uint32)
    fast = (x >= _TINY) & (x <= 1.0)
    xs = np.where(fast, x, 0.5)
    # power = 8 - decade, from libm's log10 and then checked on the scaled
    # value itself, so a log10 off by one near a power of ten moves no byte
    power = 8 - np.floor(np.log10(xs)).astype(np.intp)
    scaled = xs * _POW_HI[power] * _POW_LO[power]
    off = np.nonzero((scaled < 1e8) | (scaled >= 1e9))
    if off[0].size:
        power[off] += np.where(scaled[off] < 1e8, 1, -1)
        scaled[off] = xs[off] * _POW_HI[power[off]] * _POW_LO[power[off]]
        bad = (scaled[off] < 1e8 - _TIE_MARGIN) | (scaled[off] > 1e9 + _TIE_MARGIN)
        fast[tuple(i[bad] for i in off)] = False
    mant = np.rint(scaled)
    fast &= np.abs(scaled - mant) < 0.5 - _TIE_MARGIN
    carry = np.nonzero(mant >= 1e9)
    mant[carry] = 1e8
    power[carry] -= 1
    mant = mant.astype(np.intp)
    high = mant // 10**4
    low = mant - high * 10**4
    lead = high // 10**4
    high -= lead * 10**4
    # -X for the printed decade X; 0 for x = 1 and the carries to 1
    power -= 8
    words[..., 0] = _SEP_POINT
    words[..., 1] = _LEAD[lead]
    words[..., 2] = _DIGITS4[high]
    words[..., 3] = _DIGITS4[low]
    words[..., 4] = _EXP_SIGN
    words[..., 5] = _DIGITS4[power]
    code[...] = _FORM_BY_EXP[power] + 9 - _TRAILING4[low] - (low == 0) * _TRAILING4[high]
    rest = np.nonzero(~fast)
    if rest[0].size:
        zero = (x[rest] == 0.0) & ~np.signbit(x[rest])
        words[tuple(i[zero] for i in rest) + (1,)] = _LEAD[0]
        code[tuple(i[zero] for i in rest)] = _BARE * _SLOT + 1
        for pos in zip(*(i[~zero] for i in rest)):
            text = b"%.9g" % x[pos]
            slots[pos][1 : 1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
            code[pos] = _TEXT * _SLOT + len(text)


def _prediction_lines(z: np.ndarray, first_row: int) -> np.ndarray:
    """The bytes of the CSV rows of z, numbered from first_row; each row
    starts with its newline, so the header's newline comes first."""
    n, k = z.shape
    preds = np.argmax(z, axis=1)
    slots = np.empty((n, k + 3, _SLOT), dtype=np.uint8)
    words = slots.view(np.uint32)
    code = np.empty((n, k + 3), dtype=np.intp)
    _format_probs(z, slots[:, 3:], code[:, 3:])
    # conf repeats the text of p_pred
    rows = np.arange(n)
    words[:, 2] = words[rows, 3 + preds]
    code[:, 2] = code[rows, 3 + preds]
    _format_ints(np.arange(first_row, first_row + n), words[:, 0], code[:, 0])
    _format_ints(preds, words[:, 1], code[:, 1])
    slots[:, 0, 0] = ord("\n")
    slots[:, 1, 0] = ord(",")
    # a boolean index, unlike np.compress, builds no array of kept positions
    return slots.ravel()[np.take(_KEEP, code, axis=0).ravel()]


def write_predictions(assignments: SimplexAssignments, path) -> None:
    """Write per-sample predictions as CSV.

    Columns: row index, argmax class, its probability, then the full
    probability row, every probability exactly as CPython's ``'%.9g' % p``
    prints it. The bytes come from numpy, in blocks of about
    ``_WRITE_BLOCK_VALUES`` values: a decade from ``log10`` checked on the
    scaled value, a 9-digit mantissa from two correctly rounded powers of
    ten and ``rint`` (exact outside a 1e-6 margin around .5, since the
    scaled value is off by less than 4.5e-7), digits from a table of
    4-digit groups, and one boolean mask per block that drops the unused
    slot bytes and trailing zeros. Values the fast path cannot prove
    (those in the margin, subnormals, ``-0.0``, anything outside [0, 1)
    but exact 0 and 1) are formatted by ``'%.9g'`` one at a time.
    """
    z = assignments.z
    n, k = z.shape
    header = "index,pred,conf," + ",".join(f"p_{c}" for c in range(k))
    rows_per_block = max(1, _WRITE_BLOCK_VALUES // (k + 3))
    with _open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for lo in range(0, n, rows_per_block):
            fh.write(_prediction_lines(z[lo : lo + rows_per_block], lo))
        fh.write(b"\n")


def read_predictions(path) -> np.ndarray:
    """The argmax classes (the ``pred`` column) of a predictions CSV.

    The header, the column count and ``pred`` are checked; the
    probability columns are not parsed. The file is read one line at a
    time, so memory does not grow with its size.
    """
    preds = []
    with _open(path, "r") as fh:
        if not fh.readline().startswith("index,pred,conf"):
            raise ParseError(f"{path}: missing predictions header")
        for lineno, line in enumerate(fh, start=2):
            # a pred cell followed by three more separators never holds the newline
            cells = line.split(",", 3)
            if len(cells) < 4:
                raise ParseError(f"{path}:{lineno}: too few columns")
            try:
                preds.append(int(cells[1]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return np.asarray(preds, dtype=np.int64)


def write_config(values: dict, path) -> None:
    """Write a flat key=value config file, one entry per line."""
    _write_lines(path, (f"{key}={value}\n" for key, value in values.items()))


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
    _write_lines(path, ["iteration,block,normalized,update_consistent\n"] + [
        f"{r.iteration},{r.block},{r.normalized:.17g},{r.update_consistent:.17g}\n" for r in rows])


def write_score_table(table: Sequence[tuple[float, float]], path) -> None:
    """Write the support-weight search results as CSV."""
    _write_lines(path, ["gamma,validation_accuracy\n"] + [
        f"{gamma:.9g},{acc:.9g}\n" for gamma, acc in table])


def dump_edges(graph: AffinityGraph, path) -> None:
    """Write one 'i j w' line per stored edge, in storage order."""
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    edges = zip(src.tolist(), graph.indices.tolist(), graph.weights.tolist())
    _write_lines(path, map("%d %d %.9g\n".__mod__, edges))
