"""Seeded synthetic transduction tasks.

Each class gets a direction drawn uniformly on the unit sphere. Query,
support, and validation embeddings for class k are unit-normalized draws
of ``class_sep * direction_k + standard normal noise``; text prototypes
are unit-normalized ``direction_k + prototype_noise * standard normal``,
so prototype_noise controls how unreliable the text prior is. Everything
is a pure function of the seed: the draw order (directions, prototype
noise, query, support, validation) is fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fileio
from .types import EmbeddingMatrix, SupportSet, TaskSpec


@dataclass(frozen=True)
class SynthTask:
    spec: TaskSpec
    query_labels: np.ndarray
    validation: Optional[SupportSet] = None


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def generate_task(
    n_classes: int,
    dim: int,
    n_query_per_class: int,
    shots_per_class: int = 0,
    class_sep: float = 3.0,
    prototype_noise: float = 0.6,
    temperature: float = 30.0,
    seed: int = 0,
    n_validation_per_class: int = 0,
) -> SynthTask:
    """Generate one seeded task plus its ground-truth query labels."""
    if n_classes < 1 or dim < 2 or n_query_per_class < 1:
        raise ValueError("need n_classes >= 1, dim >= 2, n_query_per_class >= 1")
    if class_sep <= 0 or prototype_noise < 0:
        raise ValueError("need class_sep > 0 and prototype_noise >= 0")
    rng = np.random.default_rng(seed)

    directions = _unit_rows(rng.standard_normal((n_classes, dim)))
    text = _unit_rows(directions + prototype_noise * rng.standard_normal((n_classes, dim)))

    def draw_samples(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.repeat(np.arange(n_classes), per_class)
        noise = rng.standard_normal((n_classes * per_class, dim))
        return _unit_rows(class_sep * directions[labels] + noise), labels

    query, query_labels = draw_samples(n_query_per_class)
    support = None
    if shots_per_class > 0:
        shot_data, shot_labels = draw_samples(shots_per_class)
        support = SupportSet(EmbeddingMatrix(shot_data), shot_labels)
    validation = None
    if n_validation_per_class > 0:
        val_data, val_labels = draw_samples(n_validation_per_class)
        validation = SupportSet(EmbeddingMatrix(val_data), val_labels)

    spec = TaskSpec(
        query=EmbeddingMatrix(query),
        text=EmbeddingMatrix(text),
        support=support,
        temperature=temperature,
    )
    return SynthTask(spec=spec, query_labels=query_labels, validation=validation)


def write_task_dir(task: SynthTask, out_dir, config: dict) -> None:
    """Write a task directory: embedding files, label files, and the
    generation config as key=value text."""
    with fileio._io_failure("write", out_dir):
        os.makedirs(out_dir, exist_ok=True)
    fileio.write_embeddings(task.spec.query, os.path.join(out_dir, "query.emb"))
    fileio.write_embeddings(task.spec.text, os.path.join(out_dir, "text.emb"))
    fileio.write_labels(task.query_labels, os.path.join(out_dir, "truth.labels"))
    for name, labeled in (("support", task.spec.support), ("validation", task.validation)):
        if labeled is not None:
            fileio.write_embeddings(labeled.embeddings, os.path.join(out_dir, f"{name}.emb"))
            fileio.write_labels(labeled.labels, os.path.join(out_dir, f"{name}.labels"))
    fileio.write_config(config, os.path.join(out_dir, "config.txt"))
