"""Recurrent encoder for rendered dependency paths and relation classifier.

The encoder embeds each path token (words and edge-label tokens such as
``amod()`` alike), runs a single-layer LSTM left to right, and decodes
the final hidden state through a linear layer and a softmax into
probabilities for the two relation labels (positive first).  Everything
is plain numpy with hand-written backpropagation through time so the
gradients can be checked against finite differences.

The gates share fused weights ``W`` (4h x d), ``U`` (4h x h) and ``b``
(4h), stacked in gate order i, f, o, u.  State is feature-major (Appleyard
et al., arXiv:1604.01946): h and c are (h x B), the gates (4h x B), so each
gate is a contiguous row block.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from . import DataError, read_model
from .embeddings import EmbeddingStore
from .paths import NEGATIVE, POSITIVE, RelationExample

PRETRAINED = "pretrained"
LEARNED = "learned"
UNK_TOKEN = "<unk>"
MODEL_FORMAT = "soundkb-relation-model"
MODEL_VERSION = 2
BATCH_SIZE = 64  # sequences per batched inference step
TRAIN_BATCH_SIZE = 16  # same-length examples per clipped training step
DEFAULT_INIT_SCALE = 0.1


class TrainingDivergedError(DataError, RuntimeError):
    """Training met a non-finite loss: reported as bad data, not as a bug."""


def is_edge_label(token: str) -> bool:
    return token.endswith("()")


def tokenize_path(path: str) -> list[str]:
    return path.split()


class PathVocab:
    """Dense token ids over path tokens, each flagged pretrained or learned.

    ``encode`` remembers each path it has encoded, so training, every
    epoch's evaluation and prediction split and look up a path once.
    """

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
        self._unk = self.ids[UNK_TOKEN]
        self._encoded: dict[str, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Id of a token; unseen tokens map to the learned unknown row."""
        return self.ids.get(token, self._unk)

    def encode(self, path: str) -> tuple[int, ...]:
        """The token ids of a rendered path, unseen tokens as ``<unk>``."""
        ids = self._encoded.get(path)
        if ids is None:
            ids = self._encoded[path] = tuple(_ids_for(self, tokenize_path(path)))
        return ids


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
    clip: float = 5.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.clip <= 0:
            raise ValueError("clip threshold must be positive")


def init_params(vocab: PathVocab, d: int, h: int, store: EmbeddingStore | None = None,
                seed: int = 0, init_scale: float = DEFAULT_INIT_SCALE) -> LstmParams:
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


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = np.exp(z - z.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _cell(a: np.ndarray, state: np.ndarray, h: int, out: np.ndarray) -> None:
    """The cell step on gate pre-activations ``a`` (4h x B): overwrites ``a``
    with the gates (sigmoid i, f, o; tanh u) and writes the new (h, c) of
    ``state`` (2 x h x B) to ``out``, which may be ``state`` itself."""
    ifo, u = a[: 3 * h], a[3 * h :]
    ifo *= 0.5
    np.tanh(ifo, out=ifo)
    ifo += 1.0
    ifo *= 0.5  # the sigmoid, as 0.5 * (1 + tanh(a / 2))
    np.tanh(u, out=u)
    carried = ifo[h : 2 * h] * state[1]  # read before out, which may be state, is written
    c = np.multiply(ifo[:h], u, out=out[1])
    c += carried
    np.multiply(ifo[2 * h :], np.tanh(c), out=out[0])


def _forward(params: LstmParams, ids: np.ndarray) -> np.ndarray:
    """The final (h, c), (2 x h x B), of the cell run from zero state over
    ``ids`` (B x T); each step projects only its own inputs and keeps nothing."""
    state = np.zeros((2, params.h, ids.shape[0]))
    for column in ids.T:
        a = params.W @ params.E[column].T
        a += params.b[:, None]
        a += params.U @ state[0]
        _cell(a, state, params.h, state)
    return state


def _ids_for(vocab: PathVocab, tokens: Sequence[str]) -> list[int]:
    if not tokens:
        raise ValueError("empty path")
    return [vocab.id_of(t) for t in tokens]


def predict_relation(params: LstmParams, vocab: PathVocab,
                     tokens: Sequence[str]) -> tuple[float, float]:
    """Probabilities (positive, negative) for a path: a batch of one."""
    p = softmax(_forward(params, np.array([_ids_for(vocab, tokens)]))[0].T @ params.W_r.T)[0]
    return float(p[0]), float(p[1])


def predict_paths(params: LstmParams, vocab: PathVocab, paths: Sequence[str]) -> np.ndarray:
    """Probabilities (positive, negative) for each rendered path, as (n, 2).

    Each distinct path is scored once.  ``_length_batches`` groups them by
    length, at most ``BATCH_SIZE`` at a time, for one ``_forward`` each, so
    the pass holds O(BATCH_SIZE x 4h) floats whatever the paths' length.
    """
    rows: dict[str, int] = {}
    index = [rows.setdefault(path, len(rows)) for path in paths]
    ids = [vocab.encode(path) for path in rows]
    probs = np.empty((len(rows), 2))
    for batch in _length_batches(range(len(ids)), ids, BATCH_SIZE):
        h = _forward(params, np.array([ids[i] for i in batch]))[0]
        probs[batch] = softmax(h.T @ params.W_r.T)
    return probs[index]


def label_index(label: str) -> int:
    """0 for ``POSITIVE``, 1 for ``NEGATIVE``; any other label is a DataError."""
    if label == POSITIVE:
        return 0
    if label == NEGATIVE:
        return 1
    raise DataError(f"relation label must be {POSITIVE!r} or {NEGATIVE!r}, got {label!r}")


def loss_and_gradients(params: LstmParams, vocab: PathVocab,
                       example: RelationExample) -> tuple[float, LstmGrads]:
    """Cross-entropy loss of one example and its gradients: a batch of one."""
    ids = np.array([vocab.encode(example.path)])
    targets = np.array([label_index(example.label)])
    return _batch_loss_and_gradients(params, _learned_mask(vocab), ids, targets,
                                     [example.path])


def _learned_mask(vocab: PathVocab) -> np.ndarray:
    return np.array([flag == LEARNED for flag in vocab.flags])


def _work(tokens: int, paths: int, h: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat gate, state and delta arrays for batches of up to ``tokens`` tokens
    and ``paths`` paths; a batch reshapes a contiguous prefix of each."""
    return np.empty(4 * h * tokens), np.empty(2 * h * (tokens + paths)), np.empty(4 * h * tokens)


def _batch_loss_and_gradients(params: LstmParams, learned: np.ndarray, ids: np.ndarray,
                              targets: np.ndarray, paths: Sequence[str], work: tuple | None = None
                              ) -> tuple[float, LstmGrads]:
    """Summed cross-entropy loss of a batch of same-length paths and its
    gradients via backpropagation through time.

    ``ids`` (B x T) holds each path's token ids, ``targets`` (B) their label
    indices and ``paths`` their text, for the error message.  Embedding
    gradients flow only into the rows that ``learned`` marks; pretrained
    rows stay exactly zero.  ``work`` is ``_work`` for at least this batch.
    The (T x 4h x B) gates hold the inputs projected in one product, then
    the activations, then the deltas; each weight gradient is one matmul
    over the deltas as (4h x T*B), step-major.
    """
    (batch, length), h = ids.shape, params.h
    n = length * batch
    gates, states, deltas = work or _work(n, batch, h)
    gates = gates[: 4 * h * n].reshape(length, 4 * h, batch)
    states = states[: 2 * h * (n + batch)].reshape(length + 1, 2, h, batch)
    flat_ids = ids.T.reshape(-1)  # step-major
    np.matmul(params.W, params.E[flat_ids].reshape(length, batch, -1).transpose(0, 2, 1),
              out=gates)
    gates += params.b[:, None]
    states[0] = 0.0
    for t in range(length):
        gates[t] += params.U @ states[t, 0]
        _cell(gates[t], states[t], h, states[t + 1])
    p = softmax(states[length, 0].T @ params.W_r.T)
    p_target = p[np.arange(batch), targets]
    bad = np.flatnonzero(~(p_target > 0))
    if bad.size:
        raise ArithmeticError(f"non-finite loss for path {paths[bad[0]]!r}")
    loss = -np.log(p_target)

    # gates (i, f, o, u) become deltas: slopes * (u, c_prev, tanh_c, i) * (dc, dc, dh, dc)
    dz = p
    dz[np.arange(batch), targets] -= 1.0
    dh = params.W_r.T @ dz.T
    dc = np.zeros((h, batch))
    for t in range(length - 1, -1, -1):
        g = gates[t].reshape(4, h, batch)
        i, f, o, u = g
        tanh_c = np.tanh(states[t + 1, 1])
        slope = 1.0 - tanh_c * tanh_c
        slope *= o
        slope *= dh
        dc += slope
        delta_u = 1.0 - u * u
        delta_u *= i
        delta_u *= dc
        dc_next = dc * f
        g[:3] *= 1.0 - g[:3]
        i *= u
        f *= states[t, 1]
        o *= tanh_c
        g[:2] *= dc
        o *= dh
        u[...] = delta_u
        dh = params.U.T @ gates[t]
        dc = dc_next

    D = deltas[: 4 * h * n].reshape(4 * h, n)
    D.reshape(4 * h, length, batch)[...] = gates.transpose(1, 0, 2)
    H = gates.reshape(-1)[: h * n].reshape(h, n)  # each step's h_prev, over the spent gates
    H.reshape(h, length, batch)[...] = states[:length, 0].transpose(1, 0, 2)
    trained = learned[flat_ids]
    gE = np.zeros_like(params.E)
    np.add.at(gE, flat_ids[trained], (D.T @ params.W)[trained])
    grads = LstmParams(E=gE, W=D @ params.E[flat_ids], U=D @ H.T, b=D.sum(axis=1),
                       W_r=dz.T @ states[length, 0].T)
    return float(loss.sum()), grads


class EpochStats(NamedTuple):
    epoch: int
    mean_loss: float
    accuracy: float


def train(params: LstmParams, vocab: PathVocab, examples: Sequence[RelationExample],
          config: TrainConfig) -> tuple[LstmParams, list[EpochStats]]:
    """Seeded minibatch gradient descent with global-norm clipping.

    Each epoch walks a fresh permutation of the examples and drops each one
    into the bucket for its path length; a bucket that holds
    ``TRAIN_BATCH_SIZE`` examples is the next batch, and the part-filled
    buckets follow at the end of the epoch, in the order their lengths were
    first seen.  A batch makes one clipped step on its summed gradients, so
    a batch size of 1 steps once per example, in permutation order.

    Mutates ``params`` in place and returns it with the per-epoch
    loss/accuracy trace.  Identical data, config, and initial parameters
    reproduce the trace bit for bit.  Raises ``DataError`` for a label
    other than ``POSITIVE`` and ``NEGATIVE``, or when either is missing.
    """
    labels = [label_index(ex.label) for ex in examples]
    # a set, not np.unique: the first np.unique call in a process costs 9-17 ms
    # and 1.7 MB of RSS (numpy 2.4, 2-core x86-64 VM)
    if len(set(labels)) < 2:
        raise DataError("training data must contain both relation labels")
    targets = np.array(labels)
    ids = [vocab.encode(ex.path) for ex in examples]
    learned = _learned_mask(vocab)
    rng = np.random.default_rng(config.seed)
    n = len(examples)
    # sized for the batch of the most tokens: some length's full (or only) batch
    work = _work(max(length * min(count, TRAIN_BATCH_SIZE)
                     for length, count in Counter(map(len, ids)).items()),
                 min(n, TRAIN_BATCH_SIZE), params.h)
    trace = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for batch in _length_batches(rng.permutation(n).tolist(), ids, TRAIN_BATCH_SIZE):
            try:
                loss, grads = _batch_loss_and_gradients(
                    params, learned, np.array([ids[i] for i in batch]), targets[batch],
                    [examples[i].path for i in batch], work)
            except ArithmeticError as err:
                raise TrainingDivergedError(f"training diverged at epoch {epoch}: {err}") from err
            total += loss
            norm = float(np.sqrt(sum(np.vdot(g, g) for g in grads.arrays())))
            scale = config.learning_rate
            if norm > config.clip:
                scale *= config.clip / norm
            if scale:
                for target, grad in zip(params.arrays(), grads.arrays()):
                    target -= scale * grad
        accuracy = evaluate(params, vocab, examples)
        trace.append(EpochStats(epoch, total / n, accuracy))
    return params, trace


def _length_batches(order: Iterable[int], ids: Sequence[Sequence[int]], batch_size: int):
    """Lists of example indices taken in ``order``, one path length per list:
    each bucket as it fills up, then the part-filled ones in first-seen order."""
    buckets: dict[int, list[int]] = {}
    for i in order:
        bucket = buckets.setdefault(len(ids[i]), [])
        bucket.append(i)
        if len(bucket) == batch_size:
            yield bucket
            buckets[len(ids[i])] = []
    yield from (bucket for bucket in buckets.values() if bucket)


def evaluate(params: LstmParams, vocab: PathVocab, examples: Sequence[RelationExample]
             ) -> float:
    """Fraction of examples whose higher-probability label is correct."""
    probs = predict_paths(params, vocab, [ex.path for ex in examples])
    predicted = np.where(probs[:, 0] > probs[:, 1], 0, 1)  # a tie or NaN predicts negative
    targets = np.array([label_index(ex.label) for ex in examples])
    return np.count_nonzero(predicted == targets) / len(examples)


def save_relation_model(params: LstmParams, vocab: PathVocab, out: IO[str]) -> None:
    """Write the model as one JSON line, every weight rounded to 9
    significant digits as ``round9`` rounds it.

    The line is the text of one ``json.dumps`` of the whole document, but it
    goes out one array row at a time: each row is rounded in one ``'%.9g'``
    pass and written through its own ``json.dumps`` (the C encoder, which
    ``json.dump`` never uses), so one row's floats and text are all the
    writer holds beyond the vocabulary.
    """
    head = json.dumps({
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "d": params.d,
        "h": params.h,
        "vocab": [[tok, flag] for tok, flag in zip(vocab.tokens, vocab.flags)],
    })
    out.write(head[:-1])  # the arrays follow before the closing brace
    for name in ARRAY_FIELDS:
        array = getattr(params, name)
        out.write(f', "{name}": ')
        if array.ndim == 1:
            out.write(_rounded_row(array))
            continue
        out.write("[")
        for i, row in enumerate(array):
            out.write((", " if i else "") + _rounded_row(row))
        out.write("]")
    out.write("}\n")


def _rounded_row(row: np.ndarray) -> str:
    """A 1-d array as the JSON text of its floats at 9 significant digits."""
    flat = row.tolist()
    return json.dumps(list(map(float, (("%.9g " * len(flat)) % tuple(flat)).split())))


def _model_array(doc: dict, name: str, shape: tuple) -> np.ndarray:
    if name not in doc:
        raise DataError(f"relation model has no {name!r} array")
    value = doc[name]
    rows = value if len(shape) == 2 and isinstance(value, list) else [value]
    if not all(isinstance(row, list) and set(map(type, row)) <= {int, float} for row in rows):
        raise DataError(f"relation model array {name!r} is not a {len(shape)}-d array "
                        f"of JSON numbers")
    try:
        array = np.array(value, dtype=np.float64)
    except ValueError as err:  # rows of different lengths
        raise DataError(f"relation model array {name!r} is not a numeric array: {err}") from None
    if array.shape != shape:
        raise DataError(
            f"relation model array {name!r} has shape {array.shape}, expected {shape}"
        )
    if not np.isfinite(array).all():
        raise DataError(f"relation model array {name!r} has non-finite weights")
    return array


def load_relation_model(source: Iterable[str] | IO[str]) -> tuple[LstmParams, PathVocab]:
    """Read a version 2 relation model; older versions are not read.

    Any defect (bad JSON, unknown version, missing, mis-shaped or
    non-finite arrays, an entry that is not a JSON number, a malformed
    vocabulary) raises ``DataError``.
    """
    doc = read_model(source, MODEL_FORMAT, MODEL_VERSION, "relation model")
    d, h, entries = (doc.get(key) for key in ("d", "h", "vocab"))
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
    arrays = {name: _model_array(doc, name, shape) for name, shape in shapes.items()}
    return LstmParams(**arrays), vocab
