"""Shared fixtures: hand-annotated sentences and small embedding stores, and
the test oracles: thin wrappers over the production code they check, for
the tests that need a form no command uses, the per-pattern matcher that
the signature table is checked against, the general-graph shortest path
search that the dependency path walk is checked against, the search down
from the root that the reachability walk is checked against, the
whole-file per-row ``.vec`` reader that ``load_embeddings`` is checked
against, the per-phrase ``featurize_many`` scoring that ``classify``'s
per-word slots are checked against, the per-value rounding, relation
model writer and per-example accuracy count that ``soundkb.rounded``, the
model writer and ``lstm.evaluate`` are checked against, the
cross-validation that fits each
fold on a copy of its rows, which the fits on row indices are checked
against, and the row-major LSTM kernel
(B x 4h gate arrays, one step's inputs projected at a time, or the whole
batch's) that the feature-major one is checked against."""

import array
import io
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from soundkb import lstm, phrase
from soundkb.corpus import CorpusFormatError, parse_block
from soundkb.embeddings import EmbeddingFormatError, EmbeddingStore, _header_dim, featurize_many
from soundkb.lstm import LstmParams, load_relation_model, save_relation_model, softmax
from soundkb.mining import PATTERNS, CandidateMention
from soundkb.paths import NEGATIVE, POSITIVE, DepPath, _data_text, load_seed_paths
from soundkb.phrase import LinearModel, save_model

# "The park was filled with the sound of children playing", with its
# eight dependencies.  The collapsed prepositions carry no edge.
PARK_BLOCK = """\
1\tThe\tDT\t2\tdet
2\tpark\tNN\t4\tnsubjpass
3\twas\tVBD\t4\tauxpass
4\tfilled\tVBN\t0\troot
5\twith\tIN\t_\t_
6\tthe\tDT\t7\tdet
7\tsound\tNN\t10\tnsubj
8\tof\tIN\t_\t_
9\tchildren\tNNS\t7\tprep_of
10\tplaying\tVBG\t4\tprepc_with"""

PARK_EDGES = {
    ("det", 2, 1),
    ("nsubjpass", 4, 2),
    ("auxpass", 4, 3),
    ("root", 0, 4),
    ("det", 7, 6),
    ("nsubj", 10, 7),
    ("prep_of", 7, 9),
    ("prepc_with", 4, 10),
}

# One sentence per valid pattern plus one rejected "sound of JJ" sentence.
PATTERN_EXAMPLES_CORPUS = """\
# pattern fixture corpus
1\tThe\tDT\t2\tdet
2\tsound\tNN\t6\tnsubj
3\tof\tIN\t_\t_
4\thonking\tVBG\t5\tamod
5\tcars\tNNS\t2\tprep_of
6\tfilled\tVBD\t0\troot
7\tthe\tDT\t8\tdet
8\tstreet\tNN\t6\tdobj
9\t.\t.\t6\tpunct

1\tWe\tPRP\t2\tnsubj
2\theard\tVBD\t0\troot
3\tthe\tDT\t4\tdet
4\tsound\tNN\t2\tdobj
5\tof\tIN\t_\t_
6\tyelling\tVBG\t4\tprep_of
7\t.\t.\t2\tpunct

1\tThe\tDT\t2\tdet
2\tsound\tNN\t6\tnsubj
3\tof\tIN\t_\t_
4\tdogs\tNNS\t2\tprep_of
5\tbarking\tVBG\t4\tpartmod
6\twoke\tVBD\t0\troot
7\thim\tPRP\t6\tdobj
8\t.\t.\t6\tpunct

1\tThey\tPRP\t2\tnsubj
2\theard\tVBD\t0\troot
3\tthe\tDT\t4\tdet
4\tsounds\tNNS\t2\tdobj
5\tof\tIN\t_\t_
6\tgunshots\tNNS\t4\tprep_of
7\t.\t.\t2\tpunct

1\tThe\tDT\t2\tdet
2\tsound\tNN\t7\tnsubj
3\tof\tIN\t_\t_
4\ta\tDT\t6\tdet
5\tstring\tNN\t6\tnn
6\tquartet\tNN\t2\tprep_of
7\tdrifted\tVBD\t0\troot
8\tby\tIN\t7\tprep
9\t.\t.\t7\tpunct

1\tShe\tPRP\t2\tnsubj
2\tloves\tVBZ\t0\troot
3\tthe\tDT\t4\tdet
4\tsound\tNN\t2\tdobj
5\tof\tIN\t_\t_
6\tclassical\tJJ\t7\tamod
7\tmusic\tNN\t4\tprep_of
8\t.\t.\t2\tpunct

1\tHe\tPRP\t2\tnsubj
2\tspoke\tVBD\t0\troot
3\tof\tIN\t_\t_
4\tthe\tDT\t5\tdet
5\tsound\tNN\t2\tprep_of
6\tof\tIN\t_\t_
7\tbeautiful\tJJ\t5\tprep_of
8\t.\t.\t2\tpunct
"""

CANONICAL_CONCEPTS = {
    "honking cars": "P1",
    "yelling": "P2",
    "dogs barking": "P3",
    "gunshots": "P4",
    "string quartet": "P5",
    "classical music": "P6",
}


def to_block(sentence) -> str:
    """Serialize a sentence back to its 5-column block form."""
    return "\n".join(
        f"{index}\t{word}\t{tag}\t{'_' if head is None else head}\t{label or '_'}"
        for index, (word, tag, head, label) in enumerate(
            zip(sentence.words, sentence.tags, sentence.heads, sentence.labels), 1
        )
    )


def block_to_sentence(block: str, sent_id: str = "test"):
    lines = list(enumerate(block.splitlines(), 1))
    return parse_block(lines, sent_id=sent_id)


@pytest.fixture
def park_sentence():
    return block_to_sentence(PARK_BLOCK, sent_id="park:1")


@pytest.fixture
def pattern_corpus_file(tmp_path):
    path = tmp_path / "table1.ann"
    path.write_text(PATTERN_EXAMPLES_CORPUS, encoding="utf-8")
    return path


def match_per_pattern(mention: CandidateMention) -> tuple[str, str] | None:
    """Each pattern tried against a prefix of the window, consuming a
    leading determiner where the pattern permits one; the longest consumed
    prefix wins and equal lengths go to the lowest pattern id."""
    tags = mention.tags
    best: tuple[int, str, tuple[str, ...]] | None = None
    for pattern in PATTERNS:
        start = 0
        if pattern.allows_determiner and tags and tags[0] == "DT":
            start = 1
        end = start + len(pattern.elements)
        if end > len(tags):
            continue
        if all(tags[start + k] in wanted for k, wanted in enumerate(pattern.elements)):
            if best is None or end > best[0]:
                best = (end, pattern.id, mention.words[start:end])
    if best is None:
        return None
    return best[1], " ".join(word.lower() for word in best[2])


def check_reachability_from_root(heads: list[int | None], first_line: int) -> None:
    """``corpus._check_reachability`` as a search down from the root token
    over children lists: an attached token, or a head-less one with a
    child, that the search does not reach is stranded."""
    children: list[list[int]] = [[] for _ in heads]
    for dependent, head in enumerate(heads, 1):
        if head:
            children[head - 1].append(dependent)
    root = heads.index(0) + 1
    reachable = {root}
    stack = [root]
    while stack:
        for child in children[stack.pop() - 1]:
            reachable.add(child)
            stack.append(child)
    stranded = [
        index
        for index, (head, below) in enumerate(zip(heads, children), 1)
        if (head is not None or below) and index not in reachable
    ]
    if stranded:
        raise CorpusFormatError(f"tokens not reachable from root: {stranded}", first_line)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected view of a sentence's dependencies.

    ``adjacency[i]`` lists ``(neighbor, label)`` for every non-root edge
    touching token ``i``.  The root pseudo-node is not part of the graph.
    """

    words: tuple[str, ...]
    adjacency: tuple[tuple[tuple[int, str], ...], ...]

    def __len__(self) -> int:
        return len(self.words)

    def word(self, index: int) -> str:
        return self.words[index - 1]

    def neighbors(self, index: int) -> tuple[tuple[int, str], ...]:
        return self.adjacency[index - 1]


def adjacency_graph(sentence) -> AdjacencyGraph:
    """Symmetric adjacency over the sentence's dependencies.

    The root edge is excluded: paths through the root pseudo-node are
    linguistically meaningless.
    """
    adjacency: list[list[tuple[int, str]]] = [[] for _ in sentence.words]
    for dependent, (head, label) in enumerate(zip(sentence.heads, sentence.labels), 1):
        if head:
            adjacency[head - 1].append((dependent, label))
            adjacency[dependent - 1].append((head, label))
    words = tuple(word.lower() for word in sentence.words)
    return AdjacencyGraph(words=words, adjacency=tuple(tuple(a) for a in adjacency))


def bfs_shortest_path(graph: AdjacencyGraph, source: int, target: int) -> DepPath | None:
    """Breadth-first shortest path on the undirected dependency view.

    Returns None when the anchors are disconnected.  Among equal-length
    paths the one whose plain rendered string (no suppression) sorts
    lowest wins, which keeps extraction deterministic.
    """
    n = len(graph)
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"anchor out of range: {source}, {target}")
    if source == target:
        return DepPath((source,), (), (graph.word(source),))

    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor, _label in graph.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    if target not in dist:
        return None

    # Walk the predecessor DAG from the target back to the source,
    # enumerating every shortest node sequence.
    sequences: list[tuple[int, ...]] = []
    stack = [(target, (target,))]
    while stack:
        node, tail = stack.pop()
        if node == source:
            sequences.append(tail)
            continue
        for neighbor, _label in graph.neighbors(node):
            if dist.get(neighbor) == dist[node] - 1:
                stack.append((neighbor, (neighbor,) + tail))

    best: tuple[str, tuple[int, ...], DepPath] | None = None
    for nodes in sequences:
        labels = tuple(
            min(lab for neighbor, lab in graph.neighbors(a) if neighbor == b)
            for a, b in zip(nodes, nodes[1:])
        )
        path = DepPath(
            nodes=nodes,
            labels=labels,
            words=tuple(graph.word(i) for i in nodes),
        )
        key = (plain_string(path), nodes)
        if best is None or key < best[:2]:
            best = (key[0], nodes, path)
    return best[2] if best else None


def plain_string(path: DepPath) -> str:
    """Edge labels alternating with the path's inner words, none suppressed."""
    items = []
    for label, word in zip(path.labels, path.words[1:]):
        items += [label + "()", word]
    return " ".join(items[:-1])


def make_store(vectors: dict[str, list[float]]) -> EmbeddingStore:
    """The store whose rows, in order, are ``vectors``' values."""
    matrix = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()])
    assert matrix.ndim == 2
    return EmbeddingStore(matrix, {w: row for row, w in enumerate(vectors)})


def words(store: EmbeddingStore) -> list[str]:
    """The store's words in row order."""
    return list(store.index)


def dump_embeddings(store: EmbeddingStore, out) -> None:
    """Write the store as a ``.vec`` file at 9 significant digits."""
    out.write(f"{len(store)} {store.dimension}\n")
    for word in words(store):
        vector = store.get(word)
        out.write(word + " " + " ".join(f"{v:.9g}" for v in vector) + "\n")


def load_per_row(lines, words=None) -> EmbeddingStore:
    """The reference ``.vec`` reader: the whole file parsed and checked one
    row at a time, naming the first bad line; a malformed row is named
    before a non-finite one, wherever each is."""
    index: dict[str, int] = {}  # kept word -> row, in row order
    dropped: set[str] = set()  # the other words, for the duplicate check
    kept = array.array("d")  # the kept rows, end to end
    dimension = header_dim = non_finite = None
    first_content = True
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if first_content:
            first_content = False
            header_dim = _header_dim(fields)
            if header_dim is not None:
                continue
        word = fields[0].lower()
        try:
            vector = [float(v) for v in fields[1:]]
        except ValueError:
            raise EmbeddingFormatError(
                f"line {line_no}: non-numeric vector component"
            ) from None
        if not vector:
            raise EmbeddingFormatError(f"line {line_no}: no vector components")
        if dimension is None:
            dimension = len(vector)
            if header_dim is not None and header_dim != dimension:
                raise EmbeddingFormatError(
                    f"line {line_no}: header dimension {header_dim} != {dimension}"
                )
        elif len(vector) != dimension:
            raise EmbeddingFormatError(
                f"line {line_no}: expected {dimension} components, got {len(vector)}"
            )
        if word in index or word in dropped:
            raise EmbeddingFormatError(f"line {line_no}: duplicate word {word!r}")
        if non_finite is None and not all(map(math.isfinite, vector)):
            non_finite = line_no
        if words is None or word in words:
            index[word] = len(index)
            kept.fromlist(vector)
        else:
            dropped.add(word)
    if dimension is None:
        raise EmbeddingFormatError("no vector lines in embedding file")
    if non_finite is not None:
        raise EmbeddingFormatError(f"line {non_finite}: non-finite vector component")
    return EmbeddingStore(np.frombuffer(kept, dtype=np.float64).reshape(-1, dimension), index)


def classify_per_phrase(store: EmbeddingStore, model: LinearModel, bigrams) -> list[str]:
    """The data lines of ``classify``: each phrase looked up word by word and
    featurized alone by ``featurize_many``, then scored by ``phrase.margins``."""
    lines = []
    for w1, w2 in bigrams:
        features, representable = featurize_many(store, [(w1, w2)], model.feature_kind)
        margin = phrase.margins(model, features)[0]
        lines.append(f"{w1}\t{w2}\t{'+1' if margin > 0 else '-1'}\t{margin:.9g}"
                     if representable[0] else f"{w1}\t{w2}\tunrepresentable\tNA")
    return lines


def stack(examples) -> tuple[np.ndarray, np.ndarray]:
    """The (features, labels) arrays of (feature vector, label) pairs."""
    features = np.array([f for f, _ in examples], dtype=np.float64)
    labels = np.array([y for _, y in examples], dtype=np.float64)
    return features, labels


def train(examples, **kwargs) -> LinearModel:
    """``phrase.train`` on (feature vector, label) pairs."""
    return phrase.train(*stack(examples), **kwargs)


def cross_validate(examples, **kwargs) -> phrase.CVReport:
    """``phrase.cross_validate`` on (feature vector, label) pairs."""
    return phrase.cross_validate(*stack(examples), **kwargs)


def cross_validate_on_copies(features: np.ndarray, labels: np.ndarray, k: int, seed: int,
                             reg: float, epochs: int) -> phrase.CVReport:
    """``phrase.cross_validate`` with each fold's model fitted by
    ``phrase.train`` on a copy of the remaining folds' rows, in matrix order."""
    accuracies = []
    for held_out in phrase.make_folds(len(features), k, seed):
        rest = np.ones(len(features), dtype=bool)
        rest[held_out] = False
        model = phrase.train(features[rest], labels[rest], reg=reg, epochs=epochs, seed=seed)
        predicted = np.where(phrase.margins(model, features[held_out]) > 0, 1, -1)
        accuracies.append(int((predicted == labels[held_out]).sum()) / len(held_out))
    return phrase.CVReport(tuple(accuracies), sum(accuracies) / len(accuracies))


def hinge_objective(weights: np.ndarray, bias: float, examples, reg: float) -> float:
    """Regularized hinge loss: reg/2 * ||w||^2 + mean hinge."""
    features, labels = stack(examples)
    margins = labels * (features @ weights + bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * reg * weights @ weights + hinge)


def separable_phrase_data(n_per_class: int, dim: int, seed: int, margin: float = 2.0):
    """Bigram dataset that a known hyperplane separates with the given margin.

    Word vectors are placed at +/- (margin + noise) along the first axis,
    so every AWV feature satisfies y * u.x >= margin for u = e_1.  The
    caller should re-verify the margin exhaustively before relying on it.
    """
    rng = np.random.default_rng(seed)
    vectors = {}
    labeled = []
    for i in range(n_per_class):
        for sign, label in ((1.0, +1), (-1.0, -1)):
            tag = "p" if label > 0 else "n"
            w1, w2 = f"{tag}{i}a", f"{tag}{i}b"
            for w in (w1, w2):
                vec = rng.normal(0.0, 0.25, size=dim)
                vec[0] = sign * (margin + abs(rng.normal(0.0, 0.5)))
                vectors[w] = vec
            labeled.append(((w1, w2), label))
    return make_store(vectors), labeled


def default_seed_paths() -> tuple[list[str], list[str]]:
    """The positive and negative seed path lists shipped with the package."""
    return (
        load_seed_paths(_data_text("paths.pos").splitlines()),
        load_seed_paths(_data_text("paths.neg").splitlines()),
    )


def zero_params(vocab_size: int, d: int, h: int) -> LstmParams:
    """All-zero parameters, handy for analytic checks."""
    return LstmParams(E=np.zeros((vocab_size, d)), W=np.zeros((4 * h, d)),
                      U=np.zeros((4 * h, h)), b=np.zeros(4 * h), W_r=np.zeros((2, h)))


def lstm_cell(params: LstmParams, x, h_prev, c_prev) -> tuple[np.ndarray, np.ndarray]:
    """One memory-cell update through the cell step every command runs;
    returns (h_t, c_t)."""
    state = np.stack([h_prev, c_prev])
    lstm._cell(params.W @ x + params.b + params.U @ h_prev, state, params.h, state)
    return state[0], state[1]


def learned_ids(vocab) -> np.ndarray:
    """Ids of the learned vocabulary rows, by the mask that training uses."""
    return np.flatnonzero(lstm._learned_mask(vocab))


def round9(value: float) -> float:
    """``value`` rounded to the 9 significant digits a model file keeps: the
    per-value form of ``soundkb.rounded``."""
    return float(f"{value:.9g}")


def save_relation_model_per_value(params: LstmParams, vocab, out) -> None:
    """The relation model writer in its per-value form: ``round9`` on each
    value, then ``json.dump``, which streams through the pure-Python encoder."""
    doc = {"format": lstm.MODEL_FORMAT, "version": lstm.MODEL_VERSION,
           "d": params.d, "h": params.h,
           "vocab": [[tok, flag] for tok, flag in zip(vocab.tokens, vocab.flags)]}
    rounded = np.vectorize(round9, otypes=[np.float64])
    for name in lstm.ARRAY_FIELDS:
        doc[name] = rounded(getattr(params, name)).tolist()
    json.dump(doc, out)
    out.write("\n")


def cell_row_major(a: np.ndarray, c_prev: np.ndarray, h: int):
    """The cell step on pre-activations ``a`` (B x 4h), one column block per
    gate, as the kernel ran before its state went feature-major: returns
    the sigmoid gates (i, f, o side by side), u, c, tanh(c) and the new h."""
    ifo = 0.5 * (1.0 + np.tanh(0.5 * a[..., : 3 * h]))
    u = np.tanh(a[..., 3 * h :])
    c = ifo[..., :h] * u + ifo[..., h : 2 * h] * c_prev
    tanh_c = np.tanh(c)
    return ifo, u, c, tanh_c, ifo[..., 2 * h :] * tanh_c


def forward_row_major(params: LstmParams, ids: np.ndarray, steps=None):
    """The row-major forward pass over ``ids`` (B x T): returns the final
    (h, c), each (B x h).  Each step projects its own inputs,
    ``E[ids[:, t]] @ W.T + b`` (B x 4h), and appends (h_prev, c_prev, ifo,
    u, tanh_c) to ``steps`` if it is a list."""
    h = c = np.zeros((ids.shape[0], params.h))
    for column in ids.T:
        xa = params.E[column] @ params.W.T
        xa += params.b
        ifo, u, c_new, tanh_c, h_new = cell_row_major(xa + h @ params.U.T, c, params.h)
        if steps is not None:
            steps.append((h, c, ifo, u, tanh_c))
        h, c = h_new, c_new
    return h, c


def forward_whole_batch(params: LstmParams, ids: np.ndarray, steps=None):
    """``forward_row_major`` with the whole batch's inputs projected before
    the first step, in one (T*B x d) matmul: returns the final (h, c)."""
    batch, length = ids.shape
    projected = params.E[ids.T.reshape(-1)] @ params.W.T  # step-major
    projected += params.b
    h = c = np.zeros((batch, params.h))
    for xa in projected.reshape(length, batch, 4 * params.h):
        ifo, u, c_new, tanh_c, h_new = cell_row_major(xa + h @ params.U.T, c, params.h)
        if steps is not None:
            steps.append((h, c, ifo, u, tanh_c))
        h, c = h_new, c_new
    return h, c


def predict_paths_row_major(params: LstmParams, vocab, paths):
    """``lstm.predict_paths`` on a row-major forward pass."""
    rows: dict[str, int] = {}
    index = [rows.setdefault(path, len(rows)) for path in paths]
    ids = [vocab.encode(path) for path in rows]
    probs = np.empty((len(rows), 2))
    for batch in lstm._length_batches(range(len(ids)), ids, lstm.BATCH_SIZE):
        h = forward_row_major(params, np.array([ids[i] for i in batch]))[0]
        probs[batch] = softmax(h @ params.W_r.T)
    return probs[index]


def batch_loss_and_gradients_row_major(params: LstmParams, learned, ids, targets, paths,
                                       forward=forward_row_major):
    """``lstm._batch_loss_and_gradients`` on (B x 4h) gate arrays: BPTT
    over the steps that ``forward`` records, then one matmul per weight
    gradient over the (T*B x 4h) gate deltas, ordered step by step."""
    batch, length = ids.shape
    h = params.h
    steps: list = []
    h_final, _c = forward(params, ids, steps)
    p = softmax(h_final @ params.W_r.T)
    p_target = p[np.arange(batch), targets]
    bad = np.flatnonzero(~(p_target > 0))
    if bad.size:
        raise ArithmeticError(f"non-finite loss for path {paths[bad[0]]!r}")
    loss = -np.log(p_target)

    dz = p
    dz[np.arange(batch), targets] -= 1.0
    dh = dz @ params.W_r
    dc = np.zeros((batch, h))
    deltas = np.empty((length, batch, 4, h))
    H_prev = np.empty((length, batch, h))
    for t in range(length - 1, -1, -1):
        H_prev[t], c_prev, ifo, u, tanh_c = steps.pop()
        dc = dc + dh * (ifo[:, 2 * h :] * (1.0 - tanh_c * tanh_c))
        slope = ifo * (1.0 - ifo)
        delta = deltas[t]
        delta[:, 0] = u * slope[:, :h] * dc
        delta[:, 1] = c_prev * slope[:, h : 2 * h] * dc
        delta[:, 2] = tanh_c * slope[:, 2 * h :] * dh
        delta[:, 3] = ifo[:, :h] * (1.0 - u * u) * dc
        dh = delta.reshape(batch, 4 * h) @ params.U
        dc = dc * ifo[:, h : 2 * h]

    DA = deltas.reshape(length * batch, 4 * h)
    flat_ids = ids.T.reshape(-1)  # step-major, as the deltas
    gE = np.zeros_like(params.E)
    trained = learned[flat_ids]
    np.add.at(gE, flat_ids[trained], DA[trained] @ params.W)
    grads = LstmParams(
        E=gE, W=DA.T @ params.E[flat_ids], U=DA.T @ H_prev.reshape(length * batch, h),
        b=DA.sum(axis=0), W_r=dz.T @ h_final,
    )
    return float(loss.sum()), grads


def train_row_major(params: LstmParams, vocab, examples, config):
    """``lstm.train`` with the row-major kernel in place of the production one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lstm, "_batch_loss_and_gradients",
                      lambda *args: batch_loss_and_gradients_row_major(*args[:5]))
        patch.setattr(lstm, "predict_paths", predict_paths_row_major)
        return lstm.train(params, vocab, examples, config)


def evaluate_per_example(params: LstmParams, vocab, examples) -> float:
    """``lstm.evaluate`` as a per-example loop over ``predict_paths``' rows:
    the label with the higher probability is predicted, a tie (or NaN)
    predicts the negative one."""
    probs = lstm.predict_paths(params, vocab, [ex.path for ex in examples])
    correct = sum((POSITIVE if p_pos > p_neg else NEGATIVE) == ex.label
                  for (p_pos, p_neg), ex in zip(probs, examples))
    return correct / len(examples)


# A relation model written by hand; W, U and b stack the gates in the
# order i, f, o, u.
RELATION_MODEL = """\
{"format": "soundkb-relation-model", "version": 2, "d": 2, "h": 2,
 "vocab": [["<unk>", "learned"], ["amod()", "learned"], ["park", "learned"]],
 "E": [[0.1, -0.2], [0.3, 0.05], [-0.4, 0.2]],
 "W": [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.1], [0.2, 0.2],
       [-0.2, 0.3], [0.1, -0.5], [0.4, 0.1], [-0.1, 0.3]],
 "U": [[0.2, -0.1], [0.1, 0.3], [-0.3, 0.2], [0.4, 0.1],
       [0.1, 0.1], [-0.2, 0.2], [0.3, -0.4], [0.2, 0.1]],
 "b": [0.0, 0.1, 1.0, 1.0, -0.1, 0.0, 0.2, -0.2],
 "W_r": [[0.5, -0.5], [-0.3, 0.7]]}
"""

# The same model in the retired version 1 format, one array per gate.
_VERSION_1_MODEL = """\
{"format": "soundkb-relation-model", "version": 1, "d": 2, "h": 2,
 "vocab": [["<unk>", "learned"], ["amod()", "learned"], ["park", "learned"]],
 "E": [[0.1, -0.2], [0.3, 0.05], [-0.4, 0.2]],
 "W_xi": [[0.1, 0.2], [-0.3, 0.4]], "W_xf": [[0.5, -0.1], [0.2, 0.2]],
 "W_xo": [[-0.2, 0.3], [0.1, -0.5]], "W_xu": [[0.4, 0.1], [-0.1, 0.3]],
 "U_hi": [[0.2, -0.1], [0.1, 0.3]], "U_hf": [[-0.3, 0.2], [0.4, 0.1]],
 "U_ho": [[0.1, 0.1], [-0.2, 0.2]], "U_hu": [[0.3, -0.4], [0.2, 0.1]],
 "b_i": [0.0, 0.1], "b_f": [1.0, 1.0], "b_o": [-0.1, 0.0], "b_u": [0.2, -0.2],
 "W_r": [[0.5, -0.5], [-0.3, 0.7]]}
"""


def malformed_relation_models() -> dict[str, str]:
    """Broken relation model documents, each a copy of a good one with one defect."""
    buf = io.StringIO()
    save_relation_model(*load_relation_model(io.StringIO(RELATION_MODEL)), buf)
    v2 = buf.getvalue()
    cases = {"truncated-json": v2[: len(v2) // 2], "version-1": _VERSION_1_MODEL}

    def variant(name, text, mutate):
        doc = json.loads(text)
        mutate(doc)
        cases[name] = json.dumps(doc)

    variant("unknown-version", v2, lambda doc: doc.update(version=3))
    variant("missing-array", v2, lambda doc: doc.pop("U"))
    variant("mis-shaped-array", v2, lambda doc: doc.update(b=doc["b"][:-1]))
    variant("ragged-array", v2, lambda doc: doc["E"][1].pop())
    variant("non-numeric-array", v2, lambda doc: doc.update(W_r="weights"))
    variant("non-finite-weight", v2, lambda doc: doc["W"][0].__setitem__(0, math.inf))
    variant("nan-weight", v2, lambda doc: doc["b"].__setitem__(1, math.nan))
    variant("string-weight", v2, lambda doc: doc["b"].__setitem__(0, "0.5"))
    variant("boolean-weight", v2, lambda doc: doc["E"][1].__setitem__(0, True))
    variant("huge-integer-weight", v2, lambda doc: doc["W"][0].__setitem__(0, 10**400))
    variant("bad-dimension", v2, lambda doc: doc.update(h="2"))
    variant("bad-vocab", v2, lambda doc: doc.update(vocab=["<unk>"]))
    variant("duplicate-token", v2, lambda doc: doc["vocab"].__setitem__(2, ["amod()", "learned"]))
    variant("no-unknown-token", v2, lambda doc: doc["vocab"].__setitem__(0, ["x", "learned"]))
    variant("bad-flag", v2, lambda doc: doc["vocab"].__setitem__(2, ["park", "frozen"]))
    variant("pretrained-edge-label", v2,
            lambda doc: doc["vocab"].__setitem__(1, ["amod()", "pretrained"]))
    variant("v1-missing-gate", _VERSION_1_MODEL, lambda doc: doc.pop("U_hf"))
    variant("v1-mis-shaped-gate", _VERSION_1_MODEL, lambda doc: doc["W_xo"].pop())
    return cases


def malformed_phrase_models() -> dict[str, str]:
    """Broken phrase model documents, each a copy of a good one with one defect."""
    buf = io.StringIO()
    model = LinearModel(weights=np.array([0.5, -0.25]), bias=0.125, reg=0.01, epochs=3,
                        seed=1, feature_kind="awv")
    save_model(model, buf)
    good = buf.getvalue()
    cases = {"truncated-json": good[: len(good) // 2], "not-an-object": "[1, 2]"}

    def variant(name, mutate):
        doc = json.loads(good)
        mutate(doc)
        cases[name] = json.dumps(doc)

    variant("other-format", lambda doc: doc.update(format="soundkb-relation-model"))
    variant("unknown-version", lambda doc: doc.update(version=2))
    variant("missing-weights", lambda doc: doc.pop("weights"))
    variant("missing-bias", lambda doc: doc.pop("bias"))
    variant("non-numeric-bias", lambda doc: doc.update(bias="0.125"))
    variant("non-integer-epochs", lambda doc: doc.update(epochs=2.5))
    variant("ragged-weights", lambda doc: doc.update(weights=[[0.5], -0.25]))
    variant("non-numeric-weights", lambda doc: doc.update(weights=["0.5", -0.25]))
    variant("weights-not-a-list", lambda doc: doc.update(weights="weights"))
    variant("non-finite-weight", lambda doc: doc["weights"].__setitem__(0, math.inf))
    variant("nan-weight", lambda doc: doc["weights"].__setitem__(1, math.nan))
    variant("huge-integer-weight", lambda doc: doc["weights"].__setitem__(0, 10**400))
    variant("huge-integer-bias", lambda doc: doc.update(bias=-(10**400)))
    variant("non-finite-bias", lambda doc: doc.update(bias=math.inf))
    variant("count-mismatch", lambda doc: doc.update(dimension=3))
    variant("no-weights", lambda doc: doc.update(weights=[], dimension=0))
    variant("unknown-feature-kind", lambda doc: doc.update(feature_kind="xyz"))
    return cases
