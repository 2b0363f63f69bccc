"""Recurrent encoder for rendered dependency paths and relation classifier.

The encoder embeds each path token (words and edge-label tokens such as
``amod()`` alike), runs a single-layer LSTM left to right, and decodes
the final hidden state through a linear layer and a softmax into
probabilities for the two relation labels (positive first).  Everything
is plain numpy with hand-written backpropagation through time so the
gradients can be checked against finite differences.

The gates share fused weights ``W`` (4h x d), ``U`` (4h x h) and ``b``
(4h), stacked in gate order i, f, o, u: a cell step is one matmul and slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from . import DataError
from .embeddings import EmbeddingStore
from .paths import POSITIVE, RelationExample

PRETRAINED = "pretrained"
LEARNED = "learned"
UNK_TOKEN = "<unk>"
MODEL_FORMAT = "soundkb-relation-model"
MODEL_VERSION = 2
BATCH_SIZE = 64  # sequences per batched inference step


class TrainingDivergedError(DataError, RuntimeError):
    """Training met a non-finite loss: reported as bad data, not as a bug."""


def is_edge_label(token: str) -> bool:
    return token.endswith("()")


def tokenize_path(path: str) -> list[str]:
    return path.split()


class PathVocab:
    """Dense token ids over path tokens, each flagged pretrained or learned."""

    def __init__(self, tokens: Sequence[str], flags: Sequence[str]):
        if len(tokens) != len(flags):
            raise DataError("tokens and flags differ in length")
        self.tokens = list(tokens)
        self.flags = list(flags)
        self.ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise DataError("duplicate vocabulary token")
        if UNK_TOKEN not in self.ids:
            raise DataError("vocabulary must contain the unknown token")
        for token, flag in zip(self.tokens, self.flags):
            if flag not in (PRETRAINED, LEARNED):
                raise DataError(f"bad vocabulary flag {flag!r}")
            if is_edge_label(token) and flag != LEARNED:
                raise DataError(f"edge label {token!r} must be learned")

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Id of a token; unseen tokens map to the learned unknown row."""
        return self.ids.get(token, self.ids[UNK_TOKEN])

    def is_learned(self, token_id: int) -> bool:
        return self.flags[token_id] == LEARNED

    @property
    def learned_ids(self) -> list[int]:
        return [i for i, flag in enumerate(self.flags) if flag == LEARNED]


def build_vocab(
    paths: Iterable[Sequence[str]], store: EmbeddingStore | None = None
) -> PathVocab:
    """Vocabulary over all tokens of the given paths, in first-seen order.

    A token is flagged pretrained when it is a word found in the
    embedding store; edge labels and out-of-store words are learned.
    """
    tokens = [UNK_TOKEN]
    flags = [LEARNED]
    seen = {UNK_TOKEN}
    for path in paths:
        for token in path:
            if token in seen:
                continue
            seen.add(token)
            tokens.append(token)
            if not is_edge_label(token) and store is not None and token in store:
                flags.append(PRETRAINED)
            else:
                flags.append(LEARNED)
    return PathVocab(tokens, flags)


ARRAY_FIELDS = ("E", "W", "U", "b", "W_r")


@dataclass
class LstmParams:
    E: np.ndarray  # (vocab, d) token embeddings
    W: np.ndarray  # (4h, d) input weights, gate blocks i, f, o, u
    U: np.ndarray  # (4h, h) recurrent weights, same blocks
    b: np.ndarray  # (4h,) gate biases, same blocks
    W_r: np.ndarray  # (2, h) output projection

    @property
    def d(self) -> int:
        return self.E.shape[1]

    @property
    def h(self) -> int:
        return self.U.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in ARRAY_FIELDS]


LstmGrads = LstmParams  # same structure, holds d(loss)/d(parameter)


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 50
    seed: int = 0
    init_scale: float = 0.1
    clip: float = 5.0
    fine_tune_words: bool = False

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.init_scale <= 0:
            raise ValueError("init scale must be positive")
        if self.clip <= 0:
            raise ValueError("clip threshold must be positive")


def init_params(
    vocab: PathVocab,
    d: int,
    h: int,
    store: EmbeddingStore | None = None,
    seed: int = 0,
    init_scale: float = 0.1,
) -> LstmParams:
    """Seeded parameter initialization.

    Pretrained word rows are copied from the store verbatim; learned rows
    (edge labels, unknown words) are uniform in [-init_scale, init_scale].
    Gate weights are uniform in [-1/sqrt(h), 1/sqrt(h)] and the forget
    gate bias starts at 1 so early cell states survive.  Drawing each of
    ``W`` and ``U`` whole uses the stream of drawing its gate blocks in turn.
    """
    if store is not None and store.dimension != d:
        raise ValueError(
            f"embedding store dimension {store.dimension} != requested d={d}"
        )
    rng = np.random.default_rng(seed)
    E = rng.uniform(-init_scale, init_scale, size=(len(vocab), d))
    for token_id, token in enumerate(vocab.tokens):
        if vocab.flags[token_id] == PRETRAINED:
            vector = store.get(token) if store is not None else None
            if vector is None:
                raise ValueError(f"token {token!r} flagged pretrained but not in store")
            E[token_id] = vector
    scale = 1.0 / np.sqrt(h)
    W = rng.uniform(-scale, scale, size=(4 * h, d))
    U = rng.uniform(-scale, scale, size=(4 * h, h))
    W_r = rng.uniform(-scale, scale, size=(2, h))
    b = np.zeros(4 * h)
    b[h : 2 * h] = 1.0
    return LstmParams(E=E, W=W, U=U, b=b, W_r=W_r)


def zero_params(vocab_size: int, d: int, h: int) -> LstmParams:
    """All-zero parameters, handy for analytic checks."""
    return LstmParams(E=np.zeros((vocab_size, d)), W=np.zeros((4 * h, d)),
                      U=np.zeros((4 * h, h)), b=np.zeros(4 * h), W_r=np.zeros((2, h)))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = np.exp(z - z.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _cell(a: np.ndarray, c_prev: np.ndarray, h: int):
    """The shared cell step on gate pre-activations ``a`` (..., 4h): returns
    the sigmoid gates (i, f, o side by side), u, c, tanh(c) and the new h."""
    ifo = 0.5 * (1.0 + np.tanh(0.5 * a[..., : 3 * h]))
    u = np.tanh(a[..., 3 * h :])
    c = ifo[..., :h] * u + ifo[..., h : 2 * h] * c_prev
    tanh_c = np.tanh(c)
    return ifo, u, c, tanh_c, ifo[..., 2 * h :] * tanh_c


def lstm_cell(params: LstmParams, x: np.ndarray, h_prev: np.ndarray,
              c_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One gated memory-cell update; returns (h_t, c_t)."""
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    d, h = params.d, params.h
    if x.shape != (d,) or h_prev.shape != (h,) or c_prev.shape != (h,):
        raise ValueError(f"shape mismatch: x{x.shape}, h{h_prev.shape}, "
                         f"c{c_prev.shape} for d={d}, h={h}")
    if not (np.isfinite(x).all() and np.isfinite(h_prev).all() and np.isfinite(c_prev).all()):
        raise ValueError("non-finite input to lstm_cell")
    *_, c, _tanh_c, h_new = _cell(params.W @ x + params.b + params.U @ h_prev, c_prev, h)
    return h_new, c


def _run(params: LstmParams, inputs: Iterable[np.ndarray], shape: tuple, steps=None):
    """Final (h, c) of the cell run from zero state of shape ``shape + (h,)``
    over ``inputs``, one projection ``W @ x + b`` per step.  Each step costs
    one matmul with ``U`` and, if ``steps`` is a list, appends (h_prev,
    c_prev, ifo, u, tanh_c) to it for backpropagation."""
    h = c = np.zeros(shape + (params.h,))
    for xa in inputs:
        ifo, u, c_new, tanh_c, h_new = _cell(xa + h @ params.U.T, c, params.h)
        if steps is not None:
            steps.append((h, c, ifo, u, tanh_c))
        h, c = h_new, c_new
    return h, c


def _ids_for(vocab: PathVocab, tokens: Sequence[str]) -> list[int]:
    if not tokens:
        raise ValueError("empty path")
    return [vocab.id_of(t) for t in tokens]


def _encode(params: LstmParams, ids: Sequence[int], steps=None) -> np.ndarray:
    """Final hidden state of one path, its inputs projected in one matmul."""
    return _run(params, params.E[ids] @ params.W.T + params.b, (), steps)[0]


def predict_relation(params: LstmParams, vocab: PathVocab,
                     tokens: Sequence[str]) -> tuple[float, float]:
    """Probabilities (positive, negative) for a path."""
    p = softmax(params.W_r @ _encode(params, _ids_for(vocab, tokens)))
    return float(p[0]), float(p[1])


def predict_paths(params: LstmParams, vocab: PathVocab, paths: Sequence[str]) -> np.ndarray:
    """Probabilities (positive, negative) for each rendered path, as (n, 2).

    Each distinct path is scored once.  Paths of one length run together,
    at most ``BATCH_SIZE`` at a time, one (n x 4h) matmul per step; inputs
    are projected step by step and no per-step state is kept, so memory
    stays O(BATCH_SIZE x 4h).
    """
    rows: dict[str, int] = {}
    index = [rows.setdefault(path, len(rows)) for path in paths]
    by_length: dict[int, list[tuple[int, list[int]]]] = {}
    for path, row in rows.items():
        ids = _ids_for(vocab, tokenize_path(path))
        by_length.setdefault(len(ids), []).append((row, ids))
    probs = np.empty((len(rows), 2))
    for group in by_length.values():
        for start in range(0, len(group), BATCH_SIZE):
            chunk = group[start : start + BATCH_SIZE]
            columns = np.array([ids for _, ids in chunk]).T  # one row of ids per step
            inputs = (params.E[ids] @ params.W.T + params.b for ids in columns)
            h, _c = _run(params, inputs, (len(chunk),))
            probs[[row for row, _ in chunk]] = softmax(h @ params.W_r.T)
    return probs[index]


def label_index(label: str) -> int:
    return 0 if label == POSITIVE else 1


def loss_and_gradients(params: LstmParams, vocab: PathVocab, example: RelationExample,
                       fine_tune_words: bool = False) -> tuple[float, LstmGrads]:
    """Cross-entropy loss and its gradients via backpropagation through time.

    Embedding gradients flow only into learned rows unless word
    fine-tuning is enabled; frozen rows stay exactly zero.  The weight
    gradients are one matmul each over the (T x 4h) gate deltas.
    """
    target = label_index(example.label)
    ids = np.array(_ids_for(vocab, tokenize_path(example.path)))
    steps: list = []
    h_final = _encode(params, ids, steps)
    p = softmax(params.W_r @ h_final)
    loss = -np.log(p[target]) if p[target] > 0 else np.inf
    if not np.isfinite(loss):
        raise ArithmeticError(f"non-finite loss for path {example.path!r}")

    h = params.h
    H_prev, C_prev, IFO, Uc, TanhC = (np.array(column) for column in zip(*steps))
    # a step's gate deltas (i, f, o, u) are coef * (dc, dc, dh, dc)
    coef = (np.concatenate([Uc, C_prev, TanhC, IFO[:, :h]], axis=1)
            * np.concatenate([IFO * (1.0 - IFO), 1.0 - Uc * Uc], axis=1)).reshape(-1, 4, h)
    dc_from_h = IFO[:, 2 * h :] * (1.0 - TanhC * TanhC)

    dz = p.copy()
    dz[target] -= 1.0
    dh = params.W_r.T @ dz
    dc = np.zeros(h)
    deltas = np.empty_like(coef)
    carry = np.empty((4, h))
    for t in range(len(ids) - 1, -1, -1):
        dc = dc + dh * dc_from_h[t]
        carry[:] = dc
        carry[2] = dh
        dh = np.multiply(coef[t], carry, out=deltas[t]).reshape(4 * h) @ params.U
        dc = dc * IFO[t, h : 2 * h]

    DA = deltas.reshape(len(ids), 4 * h)
    gE = np.zeros_like(params.E)
    trained = np.array([fine_tune_words or vocab.is_learned(i) for i in ids])
    np.add.at(gE, ids[trained], (DA @ params.W)[trained])
    grads = LstmParams(
        E=gE, W=DA.T @ params.E[ids], U=DA.T @ H_prev, b=DA.sum(axis=0),
        W_r=np.outer(dz, h_final),
    )
    return float(loss), grads


def _global_norm(grads: LstmGrads) -> float:
    return float(np.sqrt(sum(np.vdot(a, a) for a in grads.arrays())))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


def train(
    params: LstmParams,
    vocab: PathVocab,
    examples: Sequence[RelationExample],
    config: TrainConfig,
) -> tuple[LstmParams, list[EpochStats]]:
    """Seeded per-example gradient descent with global-norm clipping.

    Mutates ``params`` in place and returns it with the per-epoch
    loss/accuracy trace.  Identical data, config, and initial parameters
    reproduce the trace bit for bit.
    """
    labels = {ex.label for ex in examples}
    if len(labels) < 2:
        raise DataError("training data must contain both relation labels")
    rng = np.random.default_rng(config.seed)
    n = len(examples)
    trace = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for idx in rng.permutation(n):
            example = examples[int(idx)]
            try:
                loss, grads = loss_and_gradients(
                    params, vocab, example, fine_tune_words=config.fine_tune_words)
            except ArithmeticError as err:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: {err}") from err
            total += loss
            norm = _global_norm(grads)
            scale = config.learning_rate
            if norm > config.clip:
                scale *= config.clip / norm
            if scale:
                for target, grad in zip(params.arrays(), grads.arrays()):
                    target -= scale * grad
        accuracy = evaluate(params, vocab, examples)
        trace.append(EpochStats(epoch, total / n, accuracy))
    return params, trace


def evaluate(
    params: LstmParams, vocab: PathVocab, examples: Sequence[RelationExample]
) -> float:
    """Fraction of examples whose higher-probability label is correct."""
    probs = predict_paths(params, vocab, [ex.path for ex in examples])
    correct = sum(
        (0 if p_pos > p_neg else 1) == label_index(example.label)
        for (p_pos, p_neg), example in zip(probs, examples)
    )
    return correct / len(examples)


_round9 = np.vectorize(lambda value: float(f"{value:.9g}"), otypes=[np.float64])


def save_relation_model(params: LstmParams, vocab: PathVocab, out: IO[str]) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": params.d,
        "h": params.h,
        "vocab": [[tok, flag] for tok, flag in zip(vocab.tokens, vocab.flags)],
    }
    for name in ARRAY_FIELDS:
        doc[name] = _round9(getattr(params, name)).tolist()
    json.dump(doc, out)
    out.write("\n")


# version 1 stored one array per gate: W_xi ... W_xu, U_hi ... U_hu, b_i ... b_u
_V1_PREFIXES = {"W": "W_x", "U": "U_h", "b": "b_"}


def _model_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    try:
        array = np.array(doc[name], dtype=np.float64)
    except KeyError:
        raise DataError(f"relation model has no {name!r} array") from None
    except (TypeError, ValueError) as err:
        raise DataError(f"relation model array {name!r} is not a numeric array: {err}") from None
    if array.shape != shape:
        raise DataError(
            f"relation model array {name!r} has shape {array.shape}, expected {shape}"
        )
    if not np.isfinite(array).all():
        raise DataError(f"relation model array {name!r} has non-finite weights")
    return array


def load_relation_model(source: Iterable[str] | IO[str]) -> tuple[LstmParams, PathVocab]:
    """Read a version 2 model, or a version 1 one with per-gate arrays.

    Any defect (bad JSON, unknown version, missing, mis-shaped or
    non-finite arrays, a malformed vocabulary) raises ``DataError``.
    """
    text = source.read() if hasattr(source, "read") else "".join(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DataError(f"relation model is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError("not a relation model file")
    version, d, h, entries = (doc.get(key) for key in ("version", "d", "h", "vocab"))
    if type(version) is not int or version not in (1, MODEL_VERSION):
        raise DataError(f"unsupported relation model version {version!r}")
    if not all(type(v) is int and v > 0 for v in (d, h)):
        raise DataError("relation model dimensions d and h must be positive integers")
    if not isinstance(entries, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(s, str) for s in e)
        for e in entries
    ):
        raise DataError("relation model vocabulary must be a list of [token, flag] pairs")
    try:
        vocab = PathVocab([t for t, _ in entries], [f for _, f in entries])
    except DataError as err:
        raise DataError(f"relation model vocabulary: {err}") from None

    shapes = {"E": (len(vocab), d), "W": (4 * h, d), "U": (4 * h, h), "b": (4 * h,),
              "W_r": (2, h)}
    arrays = {}
    for name, shape in shapes.items():
        if version == 1 and name in _V1_PREFIXES:
            arrays[name] = np.concatenate([
                _model_array(doc, _V1_PREFIXES[name] + gate, (h,) + shape[1:])
                for gate in "ifou"
            ])
        else:
            arrays[name] = _model_array(doc, name, shape)
    return LstmParams(**arrays), vocab
