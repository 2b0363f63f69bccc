"""Max-margin classification of bigram phrases as sound vs non-sound.

The trainer is a seeded stochastic subgradient solver for L2-regularized
hinge loss with step size 1/(reg*t), t counting from n+1 over the steps,
and a per-epoch reshuffle, so two runs with the same data and seed
produce bit-identical models.  The bias is kept as an explicit
unregularized scalar.

The weights are kept in the scaled form of Pegasos (Shalev-Shwartz et
al., ICML 2007; Bottou, "Stochastic Gradient Descent Tricks", 2012):
before step t they are (n/(t-1)) * v, so the shrink of every step costs
nothing and only a margin violation touches v, adding (y/(reg*n)) * x.
Between two violations v and the bias do not change, so after 16 steps
in a row without one the trainer computes the margins of the next
min(streak, 512) steps in one gathered product, takes the first
violation among them and goes back to single steps.  The model equals
that of the plain per-step loop up to last-bit rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple

import numpy as np

from . import DataError, model_array, read_model, rounded
from .embeddings import AWV, CWV
from .embeddings import featurize  # unused here; perfbench/spans.py traces phrase.featurize

# With the 1/(reg*t) schedule, convergence needs on the order of 1/reg
# steps, so very small reg values underfit at desk scale.
DEFAULT_REG = 1e-2
DEFAULT_EPOCHS = 50
DEFAULT_FOLDS = 4
# after this many steps in a row without a margin violation, the trainer
# checks up to that many (at most LOOKAHEAD) further steps in one product
SKIP_AFTER = 16
LOOKAHEAD = 512


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


def train(
    features: np.ndarray,
    labels: np.ndarray,
    reg: float = DEFAULT_REG,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    feature_kind: str = "",
) -> LinearModel:
    """Fit a linear max-margin model on every row of an (n x d) feature
    matrix and their +1/-1 labels.

    Raises ``DataError`` if the fit ends with weights or a bias that are
    not finite (a ``reg`` so small that ``1/(reg*n)`` overflows, or
    features large enough to overflow a margin).  ``cross_validate`` fits
    its folds with the same trainer on row indices of one matrix.
    """
    return _fit(features, labels, np.arange(len(features)), reg, epochs, seed, feature_kind)


def _fit(features: np.ndarray, labels: np.ndarray, subset: np.ndarray, reg: float,
         epochs: int, seed: int, feature_kind: str = "") -> LinearModel:
    """``train`` on the rows ``subset`` of ``features`` and ``labels``, in
    that order, without copying them: the model is bit for bit the one
    ``train(features[subset], labels[subset], ...)`` fits."""
    if reg <= 0:
        raise ValueError("regularization strength must be positive")
    if epochs < 1:
        raise ValueError("epoch count must be positive")
    if len(subset) == 0:
        raise DataError("no training examples")
    subset_labels = labels[subset]
    if not (np.any(subset_labels == 1) and np.any(subset_labels == -1)):
        raise DataError("training data must contain both labels")
    n, dim = len(subset), features.shape[1]
    # the single steps index Python lists: cheaper than numpy scalars; the
    # rows are views into the one matrix, indexed by its row numbers
    rows = list(features)
    ys = labels.tolist()
    grow = 1.0 / (reg * n)

    rng = np.random.default_rng(seed)
    # Before step t the weights are (n/(t-1)) * v: a violation adds
    # (y/(reg*n)) * x to v, and nothing else changes it.
    v = np.zeros(dim)
    bias = 0.0
    # Counter offset by the dataset size so the first steps are bounded
    # by 1/(reg*n); without it the unregularized bias takes a 1/reg-sized
    # first step that decays only harmonically.
    t = n
    streak = 0  # steps since the last margin violation
    # an overflow is reported once, by the check after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            perm = rng.permutation(n)
            picked = subset[perm]  # the matrix row of each step of the epoch
            order = picked.tolist()
            k = 0
            while k < n:
                if streak < SKIP_AFTER:
                    i = order[k]
                    k += 1
                    t += 1
                    y = ys[i]
                    if not y * (n / (t - 1) * float(rows[i].dot(v)) + bias) < 1.0:
                        streak += 1
                        continue
                else:
                    # v and the bias hold until the next violation, so the
                    # margins of the next steps are one gathered product
                    m = min(streak, LOOKAHEAD, n - k)
                    ahead = picked[k : k + m]
                    margins = labels[ahead] * (
                        n / np.arange(t, t + m) * (features[ahead] @ v) + bias)
                    violations = np.flatnonzero(margins < 1.0)
                    steps = int(violations[0]) + 1 if violations.size else m
                    k += steps
                    t += steps
                    if not violations.size:
                        streak += m
                        continue
                    i = order[k - 1]
                    y = ys[i]
                # step t violates the margin
                v += (y * grow) * rows[i]
                bias += y / (reg * t)
                streak = 0
    weights = (n / t) * v
    if not (np.isfinite(weights).all() and math.isfinite(bias)):
        raise DataError(
            f"training diverged: the weights or bias are not finite at --reg {reg!r}")
    return LinearModel(
        weights=weights, bias=bias, reg=reg, epochs=epochs, seed=seed,
        feature_kind=feature_kind,
    )


def margins(model: LinearModel, features) -> np.ndarray:
    """Signed margins ``features @ weights + bias`` of a feature vector or
    of the rows of a feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape[-1] != model.dimension:
        raise DataError(
            f"feature dimension {x.shape[-1]} != model dimension {model.dimension}"
        )
    return x @ model.weights + model.bias


def predict(model: LinearModel, feature) -> tuple[int, float]:
    """Label and signed margin of one feature vector; a zero margin is
    classified non-sound."""
    margin = float(margins(model, feature))
    return (+1 if margin > 0 else -1), margin


def make_folds(n: int, k: int, seed: int) -> list[list[int]]:
    """Seeded partition of range(n) into k folds with sizes differing <= 1."""
    if n < k:
        raise DataError(f"dataset of size {n} cannot be split into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    return [fold.tolist() for fold in np.array_split(order, k)]


class CVReport(NamedTuple):
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float


def cross_validate(
    features: np.ndarray,
    labels: np.ndarray,
    k: int = DEFAULT_FOLDS,
    seed: int = 0,
    reg: float = DEFAULT_REG,
    epochs: int = DEFAULT_EPOCHS,
) -> CVReport:
    """k-fold cross-validation accuracy of the phrase classifier.

    The folds are a seeded random partition; each fold is tested once on
    a model trained on the remaining folds.  ``features`` and ``labels``
    are the arrays that ``train`` takes.  Each fold's model is fitted on
    the row indices of the remaining folds, in matrix order, so no fold
    copies the training rows; it is bit for bit the model ``train`` fits
    on a copy of those rows.
    """
    folds = make_folds(len(features), k, seed)
    accuracies = []
    for held_out in folds:
        # a mask keeps the remaining rows in their order
        rest = np.ones(len(features), dtype=bool)
        rest[held_out] = False
        model = _fit(features, labels, np.flatnonzero(rest), reg, epochs, seed)
        predicted = np.where(margins(model, features[held_out]) > 0, 1, -1)
        accuracies.append(int((predicted == labels[held_out]).sum()) / len(held_out))
    mean = sum(accuracies) / len(accuracies)
    return CVReport(tuple(accuracies), mean)


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
        "weights": rounded(model.weights.tolist()),
        "bias": rounded([model.bias])[0],
        "reg": model.reg,
        "epochs": model.epochs,
        "seed": model.seed,
    }
    json.dump(doc, out, indent=1)
    out.write("\n")


def load_model(lines: Iterable[str] | IO[str]) -> LinearModel:
    """Read a model written by ``save_model``.

    A model written without a feature kind (by ``train`` called without
    one) is read as an AWV model.  Any defect (bad JSON, another
    document, an unknown version, a missing or non-numeric field,
    ragged, empty or non-finite weights, a weight count other than
    ``dimension``, an unknown feature kind, an integer too large for a
    float) raises ``DataError``.
    """
    doc = read_model(lines, MODEL_FORMAT, MODEL_VERSION, "phrase model")
    for key, types in _NUMBERS.items():
        value = doc.get(key)
        if type(value) not in types or not math.isfinite(value):
            expected = "an integer" if types == (int,) else "a finite number"
            raise DataError(f"phrase model field {key!r} must be {expected}, got {value!r}")
    if doc["dimension"] < 1:
        raise DataError("phrase model has no weights")
    weights = model_array(doc, "weights", (doc["dimension"],), "phrase model")
    kind = doc.get("feature_kind", "")
    if kind not in ("", AWV, CWV):
        raise DataError(f"phrase model has unknown feature kind {kind!r}")
    return LinearModel(
        weights=weights,
        bias=float(doc["bias"]),
        reg=float(doc["reg"]),
        epochs=doc["epochs"],
        seed=doc["seed"],
        feature_kind=kind or AWV,
    )
