import numpy as np

from transduct import fileio
from transduct.solver import _objective_terms, gmm_log_probs
from transduct.types import EmbeddingMatrix, Hyperparams, SupportSet, TaskSpec
from transduct.zeroshot import log_soft_labels


def unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_task(
    rng,
    n_query=20,
    n_classes=4,
    dim=8,
    shots_per_class=0,
    temperature=20.0,
    **hyper_kwargs,
) -> TaskSpec:
    """Unstructured random task: handy when only invariants matter."""
    support = None
    if shots_per_class:
        labels = np.repeat(np.arange(n_classes), shots_per_class)
        support = SupportSet(
            EmbeddingMatrix(unit_rows(rng, labels.size, dim)), labels
        )
    return TaskSpec(
        query=EmbeddingMatrix(unit_rows(rng, n_query, dim)),
        text=EmbeddingMatrix(unit_rows(rng, n_classes, dim)),
        support=support,
        temperature=temperature,
        hyper=Hyperparams(**hyper_kwargs),
    )


def read_score_table(path) -> list[tuple[float, float]]:
    """Parse a score-table CSV written by ``fileio.write_score_table``."""
    with open(path, encoding="ascii") as fh:
        header, *rows = [ln for ln in fh.read().split("\n") if ln]
    assert header == "gamma,validation_accuracy"
    return [(float(g), float(acc)) for g, acc in (row.split(",") for row in rows)]


def read_prediction_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """(argmax classes, probability rows) of a predictions CSV written by
    ``fileio.write_predictions``; the probabilities are parsed here only."""
    preds = fileio.read_predictions(path)
    with open(path, encoding="ascii") as fh:
        rows = [ln for ln in fh.read().split("\n")[1:] if ln]
    return preds, np.array([[float(c) for c in row.split(",")[3:]] for row in rows])


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction, the expression the solver's
    in-place softmaxes must match bit for bit."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    out = np.exp(shifted)
    out /= out.sum(axis=1, keepdims=True)
    return out


def objective(state, spec, which="update_consistent") -> float:
    """One flavor of the objective at ``state``, ``normalized`` or
    ``update_consistent``, from fresh log-densities and log prior, as a
    traced solve records it."""
    log_p = gmm_log_probs(state.features, state.gmm)
    log_prior = (log_soft_labels(spec.query, spec.text, spec.temperature)
                 if spec.hyper.kl_weight else None)
    flavors = ("normalized", "update_consistent")
    return _objective_terms(state, spec, log_p, log_prior)[flavors.index(which)]
