"""Self-test of the output checker: it accepts a CSV it builds itself from a
known probability matrix and rejects three corruptions of it.

Run with ``python3 perfbench/selftest.py``; ``run.py`` also runs it before
every benchmark run, so a broken checker cannot pass broken outputs.
"""

from __future__ import annotations

import sys

import numpy as np

from check import CheckFailed, check_gamma_choice, check_predictions, format_predictions

N_ROWS, N_CLASSES = 40, 7


def _known_probs() -> np.ndarray:
    rng = np.random.default_rng(12345)
    probs = rng.dirichlet(np.full(N_CLASSES, 0.3), size=N_ROWS)
    probs[0] = np.full(N_CLASSES, 1.0 / N_CLASSES)  # an all-tied row: pred must be 0
    return probs


def _edit_row(text: str, row: int, edit) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    lines[row + 1] = ",".join(edit(cells))
    return "\n".join(lines)


def _bump_prob(cells):
    cells[5] = f"{float(cells[5]) + 1e-3:.9g}"
    return cells


def _wrong_pred(cells):
    cells[1] = str((int(cells[1]) + 1) % N_CLASSES)
    return cells


def run_selftest() -> None:
    probs = _known_probs()
    good = format_predictions(probs)
    preds = check_predictions(good, N_ROWS, N_CLASSES)
    if not np.array_equal(preds, np.argmax(probs, axis=1)) or preds[0] != 0:
        raise AssertionError("checker returned the wrong pred column")

    corrupt = {
        "row not summing to 1": _edit_row(good, 3, _bump_prob),
        "wrong pred": _edit_row(good, 11, _wrong_pred),
        "truncated row": _edit_row(good, 17, lambda cells: cells[:-1]),
        "missing last row": good[: good.rstrip("\n").rfind("\n") + 1],
    }
    for what, text in corrupt.items():
        try:
            check_predictions(text, N_ROWS, N_CLASSES)
        except CheckFailed:
            continue
        raise AssertionError(f"checker accepted a CSV with a {what}")

    table = "gamma,validation_accuracy\n0.002,0.5\n0.01,0.75\n0.02,0.75\n0.2,0.25\n"
    grid = (0.002, 0.01, 0.02, 0.2)
    check_gamma_choice("support weight: 0.01\n", table, grid)
    for printed in ("0.02", "0.2"):
        try:
            check_gamma_choice(f"support weight: {printed}\n", table, grid)
        except CheckFailed:
            continue
        raise AssertionError(f"checker accepted support weight {printed}")


if __name__ == "__main__":
    run_selftest()
    print("checker self-test passed")
    sys.exit(0)
