"""Command-line pipeline: mine concepts, classify phrases, relate scenes.

Subcommands::

    mine            corpus -> concepts.tsv (+ per-pattern counts)
    train-phrase    labeled bigrams + embeddings -> linear model + fold report
    classify        linear model + phrases -> sound/non-sound predictions
    paths           corpus + concepts -> scene-sound path occurrences
    train-relation  occurrences + seed paths -> relation model
    predict         relation model + occurrences -> p(positive) per pair
    report          predictions -> per-environment sound list

Every output file starts with a provenance comment (tool version, seed,
input digests) and all randomness is seeded, so rerunning a command with
identical inputs reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from . import DataError, __version__, corpus, embeddings, lstm, mining, paths, phrase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_DIGEST_CHUNK = 1 << 20


def _digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as source:
        while chunk := source.read(_DIGEST_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()[:12]


def _provenance(command: str, seed, inputs: list[Path]) -> str:
    parts = [f"soundkb {__version__}", command, f"seed={'-' if seed is None else seed}"]
    if inputs:
        digests = ",".join(f"{p.name}:{_digest(p)}" for p in inputs)
        parts.append(f"inputs={digests}")
    return " ".join(parts)


def _open_out(path: Path):
    return open(path, "w", encoding="utf-8", newline="\n")


def _read_lines(path: Path) -> list[str]:
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        return path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        line_no = path.read_bytes().count(b"\n", 0, err.start) + 1
        raise DataError(f"{path.name} line {line_no}: not UTF-8 text ({err.reason})") from None


def _rows(path: Path, columns: int, kind: str, exact: bool = True):
    """Yield ``(line number, fields)`` for each TAB-separated row of a file.

    Blank lines and lines starting with ``#`` are skipped.  A row needs
    ``columns`` fields (at least that many if not ``exact``).
    """
    for line_no, line in enumerate(_read_lines(path), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < columns or (exact and len(fields) > columns):
            raise DataError(
                f"{path.name} line {line_no}: {kind} rows need {columns} columns, got {len(fields)}"
            )
        yield line_no, fields


def _model_lines(path: Path) -> list[str]:
    """A model file without its ``#`` provenance lines."""
    return [line for line in _read_lines(path) if not line.startswith("#")]


@contextmanager
def _naming(*inputs: Path):
    """Put the names of the input files in front of a DataError raised inside."""
    try:
        yield
    except DataError as err:
        names = ", ".join(path.name for path in inputs)
        text = str(err)
        raise DataError(
            f"{names} {text}" if text.startswith("line ") else f"{names}: {text}"
        ) from err


def _load_store(path: Path) -> embeddings.EmbeddingStore:
    lines = _read_lines(path)
    with _naming(path):
        return embeddings.load_embeddings(lines)


def _load_sentences(path: Path) -> list[corpus.Sentence]:
    def report(err: corpus.CorpusFormatError):
        print(f"warning: {path.name}: skipping sentence: {err}", file=sys.stderr)

    return list(
        corpus.parse_annotated_corpus(
            _read_lines(path), source_name=path.name, on_error=report
        )
    )


def _lexicon(args) -> paths.EnvironmentLexicon:
    if not args.environments:
        return paths.EnvironmentLexicon.default()
    path = Path(args.environments)
    lines = _read_lines(path)
    with _naming(path):
        return paths.EnvironmentLexicon.from_lines(lines)


def _chunk(items: list, shards: int) -> list[list]:
    base, extra = divmod(len(items), shards)
    out = []
    pos = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(items[pos : pos + size])
        pos += size
    return out


# ----------------------------------------------------------------- mine


def cmd_mine(args) -> int:
    corpus_path = Path(args.corpus)
    sentences = _load_sentences(corpus_path)
    if args.shards > 1:
        tables = [mining.mine_corpus(chunk) for chunk in _chunk(sentences, args.shards)]
        table = mining.merge_tables(*tables)
    else:
        table = mining.mine_corpus(sentences)

    out = Path(args.out)
    with _open_out(out) as sink:
        mining.write_concepts_tsv(
            table, sink, header_lines=[_provenance("mine", None, [corpus_path])]
        )

    counts = mining.pattern_counts(table)
    print("Pattern\tTemplate\t# Concept")
    for pattern in mining.PATTERNS:
        print(f"{pattern.id}\t{pattern.template}\t{counts[pattern.id]}")
    print(f"total\t\t{len(table)}")
    if args.top_k:
        for entry in mining.top_k_by_frequency(table, args.top_k):
            print(f"{entry.text}\t{entry.pattern}\t{entry.frequency}")
    return EXIT_OK


# --------------------------------------------------------- train-phrase


def _read_labeled_phrases(path: Path) -> list[phrase.LabeledPhrase]:
    rows = []
    for line_no, (w1, w2, label) in _rows(path, 3, "labeled phrase"):
        try:
            value = int(label)
        except ValueError:
            value = None
        if value not in (+1, -1):
            raise DataError(
                f"{path.name} line {line_no}: label must be +1 or -1, got {label!r}"
            )
        rows.append(phrase.LabeledPhrase(bigram=(w1, w2), label=value))
    return rows


def _representable(
    rows: list[phrase.LabeledPhrase], store: embeddings.EmbeddingStore
) -> list[phrase.LabeledPhrase]:
    kept = []
    for row in rows:
        if row.bigram[0] in store or row.bigram[1] in store:
            kept.append(row)
        else:
            print(
                f"warning: skipping unrepresentable phrase: {row.bigram[0]} {row.bigram[1]}",
                file=sys.stderr,
            )
    return kept


def cmd_train_phrase(args) -> int:
    data_path = Path(args.data)
    emb_path = Path(args.embeddings)
    store = _load_store(emb_path)
    rows = _representable(_read_labeled_phrases(data_path), store)

    with _naming(data_path):
        report = phrase.cross_validate(
            rows, store, args.featurizer, k=args.folds, seed=args.seed,
            reg=args.reg, epochs=args.epochs,
        )
        examples = [
            (embeddings.featurize(store, row.bigram, args.featurizer), row.label)
            for row in rows
        ]
        model = phrase.train(
            examples, reg=args.reg, epochs=args.epochs, seed=args.seed,
            feature_kind=args.featurizer,
        )
    header = "\t".join(f"Fold {i + 1}" for i in range(args.folds)) + "\tAvg"
    values = "\t".join(f"{100 * acc:.2f}" for acc in report.fold_accuracies)
    print(header)
    print(f"{values}\t{100 * report.mean_accuracy:.2f}")

    with _open_out(Path(args.out)) as sink:
        sink.write(f"# {_provenance('train-phrase', args.seed, [data_path, emb_path])}\n")
        phrase.save_model(model, sink)
    return EXIT_OK


# -------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    model_path = Path(args.model)
    emb_path = Path(args.embeddings)
    phrases_path = Path(args.phrases)
    lines = _model_lines(model_path)
    with _naming(model_path):
        model = phrase.load_model(lines)
    store = _load_store(emb_path)
    kind = model.feature_kind or args.featurizer
    bigrams = [(cols[0], cols[1]) for _, cols in _rows(phrases_path, 2, "phrase", exact=False)]

    with _open_out(Path(args.out)) as sink, _naming(model_path, emb_path):
        sink.write(
            f"# {_provenance('classify', None, [model_path, emb_path, phrases_path])}\n"
        )
        sink.write("# word1\tword2\tlabel\tmargin\n")
        for bigram in bigrams:
            try:
                feature = embeddings.featurize(store, bigram, kind)
            except embeddings.PhraseUnrepresentableError:
                sink.write(f"{bigram[0]}\t{bigram[1]}\tunrepresentable\tNA\n")
                continue
            label, margin = phrase.predict(model, feature)
            sink.write(f"{bigram[0]}\t{bigram[1]}\t{label:+d}\t{margin:.9g}\n")
    return EXIT_OK


# ----------------------------------------------------------------- paths


def cmd_paths(args) -> int:
    corpus_path = Path(args.corpus)
    concepts_path = Path(args.concepts)
    sentences = _load_sentences(corpus_path)
    concepts = paths.PhraseIndex(mining.read_concept_texts(_read_lines(concepts_path)))
    lexicon = _lexicon(args)

    occurrences = []
    for sentence in sentences:
        occurrences.extend(paths.occurrences_for_sentence(sentence, concepts, lexicon))

    with _open_out(Path(args.out)) as sink:
        sink.write(
            f"# {_provenance('paths', None, [corpus_path, concepts_path])}\n"
        )
        sink.write("# scene\tconcept\tpath\tsentence\n")
        for occ in occurrences:
            sink.write(f"{occ.scene}\t{occ.concept}\t{occ.path}\t{occ.sentence_ref}\n")

    freq_out = Path(args.freq_out) if args.freq_out else Path(args.out).with_suffix(".freq.tsv")
    with _open_out(freq_out) as sink:
        sink.write(
            f"# {_provenance('paths', None, [corpus_path, concepts_path])}\n"
        )
        sink.write("# path\tdistinct_pairs\n")
        for path_str, count in paths.rank_paths_by_frequency(occurrences):
            sink.write(f"{path_str}\t{count}\n")
    return EXIT_OK


def _read_occurrences(path: Path) -> list[paths.PathOccurrence]:
    rows = []
    for line_no, (scene, concept, rendered, ref) in _rows(path, 4, "occurrence"):
        if not rendered.strip():
            raise DataError(f"{path.name} line {line_no}: empty path")
        rows.append(paths.PathOccurrence(scene, concept, rendered, ref))
    return rows


# ---------------------------------------------------------- train-relation


def cmd_train_relation(args) -> int:
    occ_path = Path(args.occurrences)
    pos_path = Path(args.seeds_pos)
    neg_path = Path(args.seeds_neg)
    occurrences = _read_occurrences(occ_path)
    seed_pos = paths.load_seed_paths(_read_lines(pos_path))
    seed_neg = paths.load_seed_paths(_read_lines(neg_path))
    with _naming(pos_path, neg_path):
        examples = paths.generate_training_examples(occurrences, seed_pos, seed_neg)
    if not examples:
        raise DataError(
            f"{occ_path.name}: no occurrence matched a seed path in {pos_path.name} "
            f"or {neg_path.name}; nothing to train on"
        )

    store = None
    inputs = [occ_path, pos_path, neg_path]
    d = args.dim
    if args.embeddings:
        emb_path = Path(args.embeddings)
        store = _load_store(emb_path)
        inputs.append(emb_path)
        d = store.dimension

    vocab = lstm.build_vocab(
        [lstm.tokenize_path(ex.path) for ex in examples], store=store
    )
    config = lstm.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
        init_scale=args.init_scale, clip=args.clip,
    )
    params = lstm.init_params(
        vocab, d, args.hidden, store=store, seed=args.seed,
        init_scale=args.init_scale,
    )
    with _naming(*inputs):
        params, trace = lstm.train(params, vocab, examples, config)
    for stats in trace:
        print(f"epoch {stats.epoch}\tloss {stats.mean_loss:.6f}\tacc {stats.accuracy:.4f}")

    with _open_out(Path(args.out)) as sink:
        sink.write(f"# {_provenance('train-relation', args.seed, inputs)}\n")
        lstm.save_relation_model(params, vocab, sink)
    return EXIT_OK


# ----------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    model_path = Path(args.model)
    occ_path = Path(args.occurrences)
    lines = _model_lines(model_path)
    with _naming(model_path):
        params, vocab = lstm.load_relation_model(lines)
    occurrences = _read_occurrences(occ_path)
    probs = lstm.predict_paths(params, vocab, [occ.path for occ in occurrences])

    with _open_out(Path(args.out)) as sink:
        sink.write(f"# {_provenance('predict', None, [model_path, occ_path])}\n")
        sink.write("# scene\tconcept\tpath\tp_positive\n")
        for occ, (p_pos, _p_neg) in zip(occurrences, probs):
            sink.write(f"{occ.scene}\t{occ.concept}\t{occ.path}\t{p_pos:.9g}\n")
    return EXIT_OK


# ------------------------------------------------------------------ report


@dataclass(frozen=True)
class Relation:
    scene: str
    concept: str
    p_positive: float
    decision: str


@dataclass
class KnowledgeBase:
    relations: list[Relation]


def _read_predictions(
    path: Path, lexicon: paths.EnvironmentLexicon
) -> list[tuple[str, str, float]]:
    """(scene, concept, p) rows; p must lie in [0, 1], the scene in the lexicon."""
    known = set(lexicon.entries)
    rows = []
    for line_no, (scene, concept, _path, p_text) in _rows(path, 4, "prediction"):
        try:
            p = float(p_text)
        except ValueError:
            p = math.nan
        if not 0.0 <= p <= 1.0:
            raise DataError(
                f"{path.name} line {line_no}: p must be a number in [0, 1], got {p_text!r}"
            )
        if scene not in known:
            raise DataError(
                f"{path.name} line {line_no}: scene {scene!r} is not in the environment lexicon"
            )
        rows.append((scene, concept, p))
    return rows


def build_kb(predictions: list[tuple[str, str, float]], threshold: float) -> KnowledgeBase:
    """Aggregate per-path predictions into one relation per scene-sound pair.

    A pair seen along several paths keeps its highest probability.
    """
    best: dict[tuple[str, str], float] = {}
    for scene, concept, p in predictions:
        key = (scene, concept)
        if p > best.get(key, -1.0):
            best[key] = p
    relations = [
        Relation(scene, concept, p, "yes" if p >= threshold else "no")
        for (scene, concept), p in sorted(best.items())
    ]
    return KnowledgeBase(relations=relations)


def cmd_report(args) -> int:
    pred_path = Path(args.predictions)
    lexicon = _lexicon(args)
    kb = build_kb(_read_predictions(pred_path, lexicon), args.threshold)

    by_scene: dict[str, list[Relation]] = {}
    for rel in kb.relations:
        if rel.decision == "yes":
            by_scene.setdefault(rel.scene, []).append(rel)

    with _open_out(Path(args.out)) as sink:
        sink.write(
            f"# {_provenance('report', None, [pred_path])} threshold={args.threshold:g}\n"
        )
        sink.write("# environment\tsounds\n")
        for scene in lexicon.entries:
            chosen = sorted(
                by_scene.get(scene, ()), key=lambda r: (-r.p_positive, r.concept)
            )
            if args.top_k:
                chosen = chosen[: args.top_k]
            sink.write(f"{scene}\t{', '.join(r.concept for r in chosen)}\n")
    return EXIT_OK


# ------------------------------------------------------------------- main


def _bounded(kind, low, strict: bool = False):
    """argparse ``type=`` for finite ``kind`` (int or float) values no smaller
    than ``low``, or greater than ``low`` if ``strict``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not math.isfinite(value) or value < low or (strict and value == low):
            relation = "greater than" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be {relation} {low}, got {text}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="soundkb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine sound concepts from an annotated corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=_bounded(int, 1), default=1)
    p.add_argument("--top-k", type=_bounded(int, 0), default=0)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train-phrase", help="train the sound/non-sound phrase classifier")
    p.add_argument("--data", required=True, help="TSV: word1, word2, label(+1/-1)")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--featurizer", choices=[embeddings.AWV, embeddings.CWV],
                   default=embeddings.AWV)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=_bounded(int, 2), default=4)
    p.add_argument("--reg", type=_bounded(float, 0, strict=True), default=phrase.DEFAULT_REG)
    p.add_argument("--epochs", type=_bounded(int, 1), default=phrase.DEFAULT_EPOCHS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_phrase)

    p = sub.add_parser("classify", help="classify bigram phrases with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--phrases", required=True, help="TSV: word1, word2")
    p.add_argument("--featurizer", choices=[embeddings.AWV, embeddings.CWV],
                   default=embeddings.AWV)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("paths", help="extract scene-sound dependency paths")
    p.add_argument("--corpus", required=True)
    p.add_argument("--concepts", required=True)
    p.add_argument("--environments")
    p.add_argument("--out", required=True)
    p.add_argument("--freq-out")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("train-relation", help="train the scene-sound relation model")
    p.add_argument("--occurrences", required=True)
    p.add_argument("--seeds-pos", required=True)
    p.add_argument("--seeds-neg", required=True)
    p.add_argument("--embeddings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=_bounded(int, 1), default=32)
    p.add_argument("--hidden", type=_bounded(int, 1), default=64)
    p.add_argument("--lr", type=_bounded(float, 0), default=0.05)
    p.add_argument("--epochs", type=_bounded(int, 1), default=50)
    p.add_argument("--init-scale", type=_bounded(float, 0, strict=True), default=0.1)
    p.add_argument("--clip", type=_bounded(float, 0, strict=True), default=5.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_relation)

    p = sub.add_parser("predict", help="score occurrences with a relation model")
    p.add_argument("--model", required=True)
    p.add_argument("--occurrences", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="per-environment sound report")
    p.add_argument("--predictions", required=True)
    p.add_argument("--environments")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--top-k", type=_bounded(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


# bad input (a DataError) or an unreadable file; anything else is a bug
DATA_ERRORS = (DataError, OSError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
