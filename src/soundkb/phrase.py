"""Max-margin classification of bigram phrases as sound vs non-sound.

The trainer is a seeded stochastic subgradient solver for L2-regularized
hinge loss with step size 1/(reg*(n+t)) and a per-epoch reshuffle, so
two runs with the same data and seed produce bit-identical models.  The
bias is kept as an explicit unregularized scalar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from . import DataError
from .embeddings import AWV, CWV, EmbeddingStore, PhraseFeature, featurize

# With the 1/(reg*t) schedule, convergence needs on the order of 1/reg
# steps, so very small reg values underfit at desk scale.
DEFAULT_REG = 1e-2
DEFAULT_EPOCHS = 50


@dataclass(frozen=True)
class LabeledPhrase:
    bigram: tuple[str, str]
    label: int

    def __post_init__(self):
        if self.label not in (+1, -1):
            raise ValueError(f"label must be +1 or -1, got {self.label}")


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    reg: float
    epochs: int
    seed: int
    feature_kind: str = ""

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]


def _as_vector(feature) -> np.ndarray:
    if isinstance(feature, PhraseFeature):
        return feature.values
    return np.asarray(feature, dtype=np.float64)


def train(
    examples: Sequence[tuple],
    reg: float = DEFAULT_REG,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    feature_kind: str = "",
) -> LinearModel:
    """Fit a linear max-margin model on (feature, label) pairs."""
    if reg <= 0:
        raise ValueError("regularization strength must be positive")
    if epochs < 1:
        raise ValueError("epoch count must be positive")
    if not examples:
        raise DataError("no training examples")
    features = np.stack([_as_vector(f) for f, _ in examples])
    labels = np.array([y for _, y in examples], dtype=np.float64)
    if not (np.any(labels == 1) and np.any(labels == -1)):
        raise DataError("training data must contain both labels")
    n, dim = features.shape

    rng = np.random.default_rng(seed)
    weights = np.zeros(dim)
    bias = 0.0
    # Counter offset by the dataset size so the first steps are bounded
    # by 1/(reg*n); without it the unregularized bias takes a 1/reg-sized
    # first step that decays only harmonically.
    t = n
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            x = features[idx]
            y = labels[idx]
            margin = y * (weights @ x + bias)
            weights *= 1.0 - eta * reg
            if margin < 1.0:
                weights += eta * y * x
                bias += eta * y
    return LinearModel(
        weights=weights, bias=bias, reg=reg, epochs=epochs, seed=seed,
        feature_kind=feature_kind,
    )


def predict(model: LinearModel, feature) -> tuple[int, float]:
    """Label and signed margin; a zero margin is classified non-sound."""
    x = _as_vector(feature)
    if x.shape[0] != model.dimension:
        raise DataError(
            f"feature dimension {x.shape[0]} != model dimension {model.dimension}"
        )
    margin = float(model.weights @ x + model.bias)
    return (+1 if margin > 0 else -1), margin


def hinge_objective(
    weights: np.ndarray, bias: float, examples: Sequence[tuple], reg: float
) -> float:
    """Regularized hinge loss: reg/2 * ||w||^2 + mean hinge."""
    features = np.stack([_as_vector(f) for f, _ in examples])
    labels = np.array([y for _, y in examples], dtype=np.float64)
    margins = labels * (features @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * reg * weights @ weights + hinge)


def make_folds(n: int, k: int, seed: int) -> list[list[int]]:
    """Seeded partition of range(n) into k folds with sizes differing <= 1."""
    if n < k:
        raise DataError(f"dataset of size {n} cannot be split into {k} folds")
    order = list(np.random.default_rng(seed).permutation(n))
    base, extra = divmod(n, k)
    folds = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append([int(j) for j in order[pos : pos + size]])
        pos += size
    return folds


@dataclass(frozen=True)
class CVReport:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    feature_kind: str


def cross_validate(
    dataset: Sequence[LabeledPhrase],
    store: EmbeddingStore,
    kind: str,
    k: int = 4,
    seed: int = 0,
    reg: float = DEFAULT_REG,
    epochs: int = DEFAULT_EPOCHS,
) -> CVReport:
    """k-fold cross-validation accuracy of the phrase classifier.

    The folds are a seeded random partition; each fold is tested once on
    a model trained on the remaining folds.
    """
    featurized = [
        (featurize(store, phrase.bigram, kind), phrase.label) for phrase in dataset
    ]
    folds = make_folds(len(dataset), k, seed)
    accuracies = []
    for held_out in folds:
        held = set(held_out)
        train_part = [ex for i, ex in enumerate(featurized) if i not in held]
        model = train(train_part, reg=reg, epochs=epochs, seed=seed, feature_kind=kind)
        correct = sum(
            1
            for i in held_out
            if predict(model, featurized[i][0])[0] == featurized[i][1]
        )
        accuracies.append(correct / len(held_out))
    mean = sum(accuracies) / len(accuracies)
    return CVReport(tuple(accuracies), mean, kind)


def _round9(value: float) -> float:
    return float(f"{value:.9g}")


MODEL_FORMAT = "soundkb-linear-model"
MODEL_VERSION = 1
# the numeric fields of a model file and the JSON types each may take
_NUMBERS = {"dimension": (int,), "bias": (int, float), "reg": (int, float),
            "epochs": (int,), "seed": (int,)}


def save_model(model: LinearModel, out: IO[str]) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dimension": model.dimension,
        "feature_kind": model.feature_kind,
        "weights": [_round9(w) for w in model.weights],
        "bias": _round9(model.bias),
        "reg": model.reg,
        "epochs": model.epochs,
        "seed": model.seed,
    }
    json.dump(doc, out, indent=1)
    out.write("\n")


def load_model(lines: Iterable[str] | IO[str]) -> LinearModel:
    """Read a model written by ``save_model``.

    Any defect (bad JSON, another document, an unknown version, a
    missing or non-numeric field, ragged, empty or non-finite weights, a
    weight count other than ``dimension``, an unknown feature kind)
    raises ``DataError``.
    """
    text = lines.read() if hasattr(lines, "read") else "".join(lines)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DataError(f"phrase model is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a phrase classifier model file")
    version = doc.get("version")
    if type(version) is not int or version != MODEL_VERSION:
        raise DataError(f"unsupported phrase model version {version!r}")
    for key, types in _NUMBERS.items():
        value = doc.get(key)
        if type(value) not in types or not math.isfinite(value):
            expected = "an integer" if types == (int,) else "a finite number"
            raise DataError(f"phrase model field {key!r} must be {expected}, got {value!r}")
    weights = doc.get("weights")
    if not isinstance(weights, list) or not all(type(w) in (int, float) for w in weights):
        raise DataError("phrase model weights must be a list of numbers")
    weights = np.array(weights, dtype=np.float64)
    if not np.isfinite(weights).all():
        raise DataError("phrase model has non-finite weights")
    if weights.size == 0:
        raise DataError("phrase model has no weights")
    if weights.shape[0] != doc["dimension"]:
        raise DataError(
            f"phrase model dimension {doc['dimension']} disagrees with weight count {weights.size}"
        )
    kind = doc.get("feature_kind", "")
    if kind not in ("", AWV, CWV):
        raise DataError(f"phrase model has unknown feature kind {kind!r}")
    return LinearModel(
        weights=weights,
        bias=float(doc["bias"]),
        reg=float(doc["reg"]),
        epochs=doc["epochs"],
        seed=doc["seed"],
        feature_kind=kind,
    )
