"""Transductive classification of pre-computed embedding batches.

Given unit-norm query embeddings and one text-prototype embedding per
class, the solver jointly assigns every query sample by minimizing a
Gaussian-mixture objective regularized by a nearest-neighbor graph and a
KL penalty toward the text-derived soft labels. Labeled shots, when
present, enter as frozen one-hot assignments with their own weighted
likelihood term.
"""

__version__ = "0.1.0"

from .errors import TransductError
from .fewshot import FewShotResult, run_fewshot, search_gamma, split_shots
from .solver import SolverState, run
from .synth import SynthTask, generate_task
from .types import (
    AffinityGraph,
    EmbeddingMatrix,
    GmmParams,
    Hyperparams,
    SimplexAssignments,
    SupportSet,
    TaskSpec,
    validate_task,
)
from .zeroshot import compute_soft_labels, hard_predict

__all__ = [
    "AffinityGraph",
    "EmbeddingMatrix",
    "FewShotResult",
    "GmmParams",
    "Hyperparams",
    "SimplexAssignments",
    "SolverState",
    "SupportSet",
    "SynthTask",
    "TaskSpec",
    "TransductError",
    "compute_soft_labels",
    "generate_task",
    "hard_predict",
    "run",
    "run_fewshot",
    "search_gamma",
    "split_shots",
    "validate_task",
    "__version__",
]
