"""Acceptance criteria, one test per criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (each test also prints an ACCEPTANCE line).
"""

import hashlib
import random
import time
from importlib import resources

import numpy as np
import pytest

from soundkb import lstm
from soundkb.cli import main
from soundkb.corpus import build_dep_graph, parse_annotated_corpus
from soundkb.embeddings import featurize
from soundkb.lstm import (
    ARRAY_FIELDS,
    TrainConfig,
    build_vocab,
    init_params,
    softmax,
    tokenize_path,
    train,
)
from soundkb.mining import mine_corpus
from soundkb.paths import (
    NEGATIVE,
    POSITIVE,
    EnvironmentLexicon,
    PhraseIndex,
    RelationExample,
    find_mention_pairs,
    render_path,
    shortest_dep_path,
)
from soundkb.phrase import make_folds

from conftest import (
    PARK_BLOCK,
    CANONICAL_CONCEPTS,
    PATTERN_EXAMPLES_CORPUS,
    adjacency_graph,
    bfs_shortest_path,
    block_to_sentence,
    cross_validate,
    dump_embeddings,
    learned_ids,
    lstm_cell,
    separable_phrase_data,
    zero_params,
)
from test_lstm import (
    fd_gradients,
    max_batch_error,
    max_relative_error,
    same_length_batch,
)
from test_paths import floyd_warshall, random_graph, random_parsed_sentence, trivial_pair

PARK_GOLDEN = "nsubjpass() filled prepc_with() sound prep_of()"


class Stopwatch:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.1f}s"
        return elapsed


def announce(number: int, name: str, elapsed: float):
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_pattern_golden():
    watch = Stopwatch(1.0)
    sentences = list(parse_annotated_corpus(PATTERN_EXAMPLES_CORPUS.splitlines()))
    table = mine_corpus(sentences)
    assert {text: e.pattern for text, e in table.items()} == CANONICAL_CONCEPTS
    # the "sound of beautiful" (JJ) sentence contributes nothing
    jj_sentence = sentences[-1]
    assert jj_sentence.words[-2] == "beautiful"
    assert mine_corpus([jj_sentence]) == {}
    announce(1, "pattern-golden", watch.check())


def test_criterion_2_path_golden():
    watch = Stopwatch(1.0)
    sentence = block_to_sentence(PARK_BLOCK)
    assert sum(head is not None for head in sentence.heads) == 8
    (pair,) = find_mention_pairs(
        sentence, PhraseIndex(["children playing"]), EnvironmentLexicon.default()
    )
    assert pair.scene == "park"
    graph = build_dep_graph(sentence)
    path = shortest_dep_path(graph, pair.env_anchor, pair.concept_anchor)
    assert render_path(path, pair) == PARK_GOLDEN
    announce(2, "path-golden", watch.check())


def test_criterion_3_shortest_path_oracle():
    watch = Stopwatch(10.0)
    rng = random.Random(333)
    # the breadth-first oracle on general graphs: cycles and parallel edges
    graphs = 0
    while graphs < 200:
        graph = random_graph(rng, max_nodes=12)
        graphs += 1
        oracle = floyd_warshall(graph)
        n = len(graph)
        for src in range(1, n + 1):
            for dst in range(1, n + 1):
                path = bfs_shortest_path(graph, src, dst)
                expected = oracle[src - 1][dst - 1]
                if expected == float("inf"):
                    assert path is None
                    continue
                assert path.length == expected
                if src != dst:
                    pair = trivial_pair(src, dst)
                    first = render_path(path, pair)
                    again = render_path(
                        bfs_shortest_path(graph, src, dst), pair
                    )
                    assert first == again
    # the walk that paths runs, on parsed sentences (unattached tokens, single
    # tokens, the root token as an anchor): the oracle's path, or None, and
    # the Floyd-Warshall length on the undirected view of the heads
    single = unattached = connected = 0
    for _ in range(200):
        sentence = random_parsed_sentence(rng, max_tokens=12)
        single += len(sentence) == 1
        unattached += None in sentence.heads
        graph = build_dep_graph(sentence)
        undirected = adjacency_graph(sentence)
        oracle = floyd_warshall(undirected)
        n = len(sentence)
        for src in range(1, n + 1):
            for dst in range(1, n + 1):
                path = shortest_dep_path(graph, src, dst)
                assert path == bfs_shortest_path(undirected, src, dst)
                expected = oracle[src - 1][dst - 1]
                if expected == float("inf"):
                    assert path is None
                    continue
                assert path.length == expected
                connected += src != dst
    assert single > 5 and unattached > 50 and connected > 2000
    announce(3, "shortest-path-oracle", watch.check())


def test_criterion_4_gradient_check():
    watch = Stopwatch(60.0)
    rng = random.Random(444)
    edge_labels = ["amod()", "det()", "prep_of()", "nsubj()", "prepc_with()"]
    words = ["sound", "children", "filled", "park", "heard"]
    worst_overall = 0.0
    for trial in range(20):
        h = [4, 8][trial % 2]
        vocab = build_vocab([edge_labels, words])
        params = init_params(vocab, d=6, h=h, seed=trial)
        length = rng.randint(1, 7)
        tokens = [rng.choice(edge_labels + words) for _ in range(length)]
        label = rng.choice([POSITIVE, NEGATIVE])
        example = RelationExample(" ".join(tokens), label)
        _, analytic = lstm.loss_and_gradients(params, vocab, example)
        numeric = fd_gradients(params, vocab, example, eps=1e-5)
        for name in ARRAY_FIELDS:
            a = getattr(analytic, name)
            n = numeric[name]
            if name == "E":
                learned = learned_ids(vocab)
                a, n = a[learned], n[learned]
            worst_overall = max(worst_overall, max_relative_error(a, n))
    # batches of 2-5 same-length examples: their gradient is the sum of the
    # examples' gradients, and so the sum of their finite differences
    for trial in range(5):
        vocab = build_vocab([edge_labels, words])
        params = init_params(vocab, d=6, h=[4, 8][trial % 2], seed=100 + trial)
        batch = same_length_batch(rng, edge_labels + words, rng.randint(2, 5))
        worst_sum, worst_fd = max_batch_error(params, vocab, batch)
        assert worst_sum < 1e-12
        worst_overall = max(worst_overall, worst_fd)
    assert worst_overall < 1e-4
    announce(4, "gradient-check", watch.check())


def test_criterion_5_lstm_analytic_cases():
    watch = Stopwatch(10.0)
    params = zero_params(4, 3, 5)
    h, c = lstm_cell(params, np.zeros(3), np.zeros(5), np.zeros(5))
    np.testing.assert_allclose(h, 0.0, atol=1e-12)
    np.testing.assert_allclose(c, 0.0, atol=1e-12)
    rng = np.random.default_rng(55)
    for _ in range(20):
        c_prev = rng.normal(size=5)
        _, c = lstm_cell(params, np.zeros(3), np.zeros(5), c_prev)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-12)
    for _ in range(200):
        z = rng.normal(scale=8.0, size=2)
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        shift = rng.normal(scale=40.0)
        np.testing.assert_allclose(p, softmax(z + shift), atol=1e-10)
    announce(5, "lstm-analytic", watch.check())


def _sound_task(n: int, rng: random.Random) -> list[RelationExample]:
    edge_labels = ["amod()", "det()", "prep_of()", "nsubj()", "conj_and()",
                   "dobj()", "nn()", "poss()"]
    words = ["children", "music", "dogs", "park", "noise", "heard", "came",
             "filled", "waves", "birds"]
    examples = []
    for k in range(n):
        positive = k % 2 == 0
        length = rng.randint(1, 7)
        tokens = [rng.choice(edge_labels + words) for _ in range(length)]
        if positive:
            tokens[rng.randrange(length)] = "sound"
        examples.append(
            RelationExample(" ".join(tokens), POSITIVE if positive else NEGATIVE)
        )
    return examples


def test_criterion_6_relation_training():
    watch = Stopwatch(120.0)
    rng = random.Random(606)
    train_set = _sound_task(500, rng)
    test_set = _sound_task(200, rng)
    # the task is realizable: a hand-built token detector scores 100%
    detector = lambda ex: POSITIVE if "sound" in tokenize_path(ex.path) else NEGATIVE
    assert all(detector(ex) == ex.label for ex in train_set + test_set)

    vocab = build_vocab([tokenize_path(ex.path) for ex in train_set])
    params = init_params(vocab, d=8, h=16, seed=606)
    params, trace = train(
        params, vocab, train_set, TrainConfig(epochs=50, seed=606)
    )
    assert trace[-1].accuracy >= 0.98
    assert lstm.evaluate(params, vocab, test_set) >= 0.95
    announce(6, "relation-training", watch.check())


def test_criterion_7_phrase_classification():
    watch = Stopwatch(30.0)
    store, labeled = separable_phrase_data(24, 8, seed=712)
    examples = [(featurize(store, b, "awv"), y) for b, y in labeled]
    margins = [label * feature[0] for feature, label in examples]
    assert min(margins) >= 1.0  # verified margin, checked exhaustively
    report = cross_validate(examples, k=4, seed=0)
    assert report.mean_accuracy == 1.0

    rng = np.random.default_rng(0)
    for seed in range(50):
        n = int(rng.integers(4, 80))
        folds = make_folds(n, 4, seed=seed)
        flat = sorted(i for fold in folds for i in fold)
        assert flat == list(range(n))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
    announce(7, "phrase-classification", watch.check())


def _run_every_command(workdir, tag: str) -> dict[str, str]:
    """Run the whole pipeline into ``workdir/tag`` and digest every output."""
    out = workdir / tag
    out.mkdir()
    corpus = workdir / "corpus.ann"
    embeddings_file = workdir / "emb.vec"
    labeled = workdir / "labeled.tsv"
    phrases = workdir / "phrases.tsv"
    data_dir = resources.files("soundkb").joinpath("data")
    seeds_pos = str(data_dir.joinpath("paths.pos"))
    seeds_neg = str(data_dir.joinpath("paths.neg"))

    concepts = out / "concepts.tsv"
    occurrences = out / "occ.tsv"
    freq = out / "occ.freq.tsv"
    phrase_model = out / "phrase_model.json"
    phrase_preds = out / "phrase_preds.tsv"
    relation_model = out / "relation_model.json"
    relation_preds = out / "relation_preds.tsv"
    report = out / "report.tsv"

    assert main(["mine", "--corpus", str(corpus), "--out", str(concepts)]) == 0
    assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                 "--out", str(occurrences), "--freq-out", str(freq)]) == 0
    assert main(["train-phrase", "--data", str(labeled), "--embeddings",
                 str(embeddings_file), "--seed", "9",
                 "--out", str(phrase_model)]) == 0
    assert main(["classify", "--model", str(phrase_model), "--embeddings",
                 str(embeddings_file), "--phrases", str(phrases),
                 "--out", str(phrase_preds)]) == 0
    assert main(["train-relation", "--occurrences", str(workdir / "seeded_occ.tsv"),
                 "--seeds-pos", seeds_pos, "--seeds-neg", seeds_neg,
                 "--seed", "9", "--hidden", "8", "--dim", "6", "--epochs", "4",
                 "--out", str(relation_model)]) == 0
    assert main(["predict", "--model", str(relation_model),
                 "--occurrences", str(workdir / "seeded_occ.tsv"),
                 "--out", str(relation_preds)]) == 0
    assert main(["report", "--predictions", str(relation_preds),
                 "--threshold", "0.5", "--out", str(report)]) == 0

    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def test_criterion_8_determinism(tmp_path):
    watch = Stopwatch(60.0)
    (tmp_path / "corpus.ann").write_text(
        PATTERN_EXAMPLES_CORPUS + "\n" + PARK_BLOCK + "\n", encoding="utf-8"
    )
    store, labeled = separable_phrase_data(12, 6, seed=88)
    with open(tmp_path / "emb.vec", "w", encoding="utf-8") as sink:
        dump_embeddings(store, sink)
    (tmp_path / "labeled.tsv").write_text(
        "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled), encoding="utf-8"
    )
    (tmp_path / "phrases.tsv").write_text(
        "".join(f"{b[0]}\t{b[1]}\n" for b, _ in labeled[:6]), encoding="utf-8"
    )
    rows = []
    for i in range(12):
        rows.append(f"park\tc{i}\tprep_of()\ts{i}")
        rows.append(f"beach\tc{i}\tamod()\ts{i}")
    (tmp_path / "seeded_occ.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    first = _run_every_command(tmp_path, "run1")
    second = _run_every_command(tmp_path, "run2")
    assert first == second
    assert len(first) == 8  # every command's output file is covered
    announce(8, "determinism", watch.check())


def _random_mining_corpus(n_sentences: int, seed: int) -> str:
    """Blank-line separated corpus exercising every pattern plus noise."""
    rng = random.Random(seed)
    gerunds = ["honking", "barking", "yelling", "laughing", "crashing"]
    nouns = ["cars", "dogs", "children", "gunshots", "music", "waves", "rain"]
    singulars = ["string", "church", "engine", "police"]
    adjectives = ["classical", "loud", "beautiful", "distant"]
    blocks = []
    for _ in range(n_sentences):
        kind = rng.randrange(7)
        head = rng.choice(["sound", "sounds"])
        if kind == 0:
            phrase = [(rng.choice(gerunds), "VBG"), (rng.choice(nouns), "NNS")]
        elif kind == 1:
            phrase = [(rng.choice(gerunds), "VBG")]
        elif kind == 2:
            phrase = [(rng.choice(nouns), "NNS"), (rng.choice(gerunds), "VBG")]
        elif kind == 3:
            phrase = [(rng.choice(singulars), "NN"), (rng.choice(nouns), "NNS")]
        elif kind == 4:
            phrase = [(rng.choice(adjectives), "JJ"), (rng.choice(nouns), "NNS")]
        elif kind == 5:
            phrase = [(rng.choice(nouns), "NNS")]
        else:
            phrase = [(rng.choice(adjectives), "JJ")]  # rejected signature
        if rng.random() < 0.4 and kind != 1:
            phrase = [("the", "DT")] + phrase
        words = [("we", "PRP"), ("heard", "VBD"), ("the", "DT"), (head, "NN"),
                 ("of", "IN")] + phrase + [(".", ".")]
        lines = []
        for index, (surface, pos) in enumerate(words, 1):
            if index == 2:
                head_col, label = "0", "root"
            elif index == 5:
                head_col, label = "_", "_"
            else:
                head_col, label = "2", "dep"
            lines.append(f"{index}\t{surface}\t{pos}\t{head_col}\t{label}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def test_criterion_9_merge_homomorphism(tmp_path):
    watch = Stopwatch(5.0)
    corpus = tmp_path / "big.ann"
    corpus.write_text(_random_mining_corpus(1000, seed=909), encoding="utf-8")
    whole = tmp_path / "whole.tsv"
    sharded = tmp_path / "sharded.tsv"
    assert main(["mine", "--corpus", str(corpus), "--out", str(whole)]) == 0
    assert main(["mine", "--corpus", str(corpus), "--out", str(sharded),
                 "--shards", "4"]) == 0
    assert whole.read_bytes() == sharded.read_bytes()
    # sanity: the fixture actually produced a non-trivial table
    table = mine_corpus(parse_annotated_corpus(corpus.read_text().splitlines()))
    assert len(table) > 20
    announce(9, "merge-homomorphism", watch.check())
