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
import array
import hashlib
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import DataError, __version__, content_lines, corpus, embeddings, lstm, mining, paths, phrase

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_DIGEST_CHUNK = 1 << 16  # a larger read buffer sets the peak RSS of small commands


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


def _write_tsv(path: Path, provenance: str, columns: tuple[str, ...], rows) -> None:
    """Write the ``#`` provenance line, the ``#`` column line (if there are
    column names), then one TAB-joined line per row of strings."""
    with _open_out(path) as sink:
        sink.write(f"# {provenance}\n")
        if columns:
            sink.write("# " + "\t".join(columns) + "\n")
        sink.writelines("\t".join(row) + "\n" for row in rows)


def _must_exist(path: Path) -> None:
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")


_UNDECODED = re.compile("[\udc80-\udcff]")  # the surrogates an undecodable byte becomes


def _not_utf8(path: Path, err: UnicodeDecodeError) -> DataError:
    """The error for a file that is not UTF-8 text: the line of its first
    undecodable byte, and the reason ``err`` gives, to be named by its file.

    The file is read again, line by line, with each undecodable byte read
    as a lone surrogate, which UTF-8 text never holds.  Lines end where
    ``_streamed_lines``' do, so the number is the file's, however the read
    that failed had split the file into chunks.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as source:
        for line_no, line in enumerate(source, 1):
            if _UNDECODED.search(line):
                break
    return DataError(f"line {line_no}: not UTF-8 text ({err.reason})")


_READ_CHUNK = 1 << 16  # characters per read; a walk holds about one chunk, split into lines


def _streamed_lines(path: Path):
    """The lines of a UTF-8 text file without their line ends, read a
    chunk at a time: a walk never holds the file's text or a list of its
    lines.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, so line
    numbers are the file's.  A leading byte-order mark is dropped.  An
    undecodable byte raises the ``DataError`` of ``_not_utf8``.
    """
    _must_exist(path)
    pieces = []  # the line that the last chunk left unfinished
    try:
        # universal newlines turn CRLF and CR into LF
        with open(path, encoding="utf-8-sig") as source:
            while chunk := source.read(_READ_CHUNK):
                lines = chunk.split("\n")
                del chunk  # neither it nor its lines outlive the next read
                if len(lines) > 1:
                    # a line longer than a chunk is joined once, from its pieces
                    lines[0] = "".join([*pieces, lines[0]])
                    pieces = []
                pieces.append(lines.pop())
                yield from lines
                del lines
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    last = "".join(pieces)
    if last:  # not the empty text after the last line end
        yield last


def _rows(path: Path, columns: int, kind: str, exact: bool = True):
    """Yield ``(line number, fields)`` for each TAB-separated row of a file.

    Blank and ``#`` lines are skipped (``content_lines``).  A row needs
    ``columns`` fields (at least that many if not ``exact``).
    """
    with _naming(path):
        for line_no, line in content_lines(_streamed_lines(path)):
            fields = line.split("\t")
            if len(fields) < columns or (exact and len(fields) > columns):
                raise DataError(
                    f"line {line_no}: {kind} rows need {columns} columns, got {len(fields)}"
                )
            yield line_no, fields


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


def _load(path: Path, parse):
    """``parse`` applied to the lines of a file, a DataError named after it."""
    with _naming(path):
        return parse(_streamed_lines(path))


def _load_model(path: Path, load):
    """``load`` applied to a model file's lines, line ends kept and ``#`` lines
    blanked, so that a JSON error names the file's line and column."""
    return _load(path, lambda lines: load(
        (" " * len(line) if line.startswith("#") else line) + "\n" for line in lines))


def _load_vectors(path: Path, words: set[str]) -> embeddings.EmbeddingStore:
    """The store of a ``.vec`` file's rows for ``words`` (lowercased); every
    row of the file is checked."""
    return _load(path, lambda lines: embeddings.load_embeddings(lines, words))


def _load_sentences(path: Path) -> list[corpus.Sentence]:
    def report(err: corpus.CorpusFormatError):
        print(f"warning: {path.name} line {err.line}: skipping sentence: {err.reason}",
              file=sys.stderr)

    return _load(path, lambda lines: list(
        corpus.parse_annotated_corpus(lines, source_name=path.name, on_error=report)))


def _lexicon(args) -> paths.EnvironmentLexicon:
    if not args.environments:
        return paths.EnvironmentLexicon.default()
    return _load(Path(args.environments), paths.EnvironmentLexicon.from_lines)


# ----------------------------------------------------------------- mine


def cmd_mine(args) -> int:
    corpus_path = Path(args.corpus)
    sentences = _load_sentences(corpus_path)
    tables = [mining.mine_corpus(sentences[i :: args.shards]) for i in range(args.shards)]
    table = mining.merge_tables(*tables)
    for text in sorted(text for text, entry in table.items() if len(entry.patterns) > 1):
        *others, last = table[text].patterns
        print(f"warning: {corpus_path.name}: concept {text!r} seen under "
              f"{', '.join(others)} and {last}; keeping {table[text].pattern}", file=sys.stderr)
    # a row that begins with '#' would read back as a comment
    hashed = [text for text in table if text.startswith("#")]
    if hashed:
        print(f"warning: {corpus_path.name}: dropped {len(hashed)} concepts "
              "that begin with '#'", file=sys.stderr)
        for text in hashed:
            del table[text]
    entries = mining.sorted_entries(table)

    _write_tsv(Path(args.out), _provenance("mine", None, [corpus_path]), (),
               ((e.text, e.pattern, str(e.frequency)) for e in entries))

    counts = mining.pattern_counts(table)
    print("Pattern\tTemplate\t# Concept")
    for pattern in mining.PATTERNS:
        print(f"{pattern.id}\t{pattern.template}\t{counts[pattern.id]}")
    print(f"total\t\t{len(table)}")
    for entry in entries[: args.top_k]:
        print(f"{entry.text}\t{entry.pattern}\t{entry.frequency}")
    return EXIT_OK


# --------------------------------------------------------- train-phrase


def _read_labeled_phrases(path: Path) -> list[tuple[int, phrase.LabeledPhrase]]:
    """Each labeled phrase with the number of its line."""
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
        rows.append((line_no, phrase.LabeledPhrase(bigram=(w1, w2), label=value)))
    return rows


def _margin_not_finite(line_no: int, bigram: tuple[str, str]) -> DataError:
    """The error for a phrase whose margin overflows, to be named by its file."""
    return DataError(f"line {line_no}: the margin of {' '.join(bigram)!r} is not finite "
                     "(its features or the model's weights are too large)")


def cmd_train_phrase(args) -> int:
    data_path = Path(args.data)
    emb_path = Path(args.embeddings)
    rows = _read_labeled_phrases(data_path)
    store = _load_vectors(emb_path, {w.lower() for _, row in rows for w in row.bigram})

    def check(finite: np.ndarray) -> None:
        bad = np.flatnonzero(~finite)
        if bad.size:
            line_no, row = rows[keep[bad[0]]]
            raise _margin_not_finite(line_no, row.bigram)

    # an overflow is reported by check, naming the phrase's line
    with _naming(data_path), np.errstate(over="ignore", invalid="ignore"):
        features, representable = embeddings.featurize_many(
            store, [row.bigram for _, row in rows], args.featurizer)
        for (line_no, row), known in zip(rows, representable.tolist()):
            if not known:
                print(f"warning: {data_path.name} line {line_no}: skipping unrepresentable "
                      f"phrase: {row.bigram[0]} {row.bigram[1]}", file=sys.stderr)
        keep = np.flatnonzero(representable)  # the labeled row of each kept feature
        if len(keep) < len(rows):
            features = features[keep]
        labels = np.array([row.label for _, row in rows], dtype=np.float64)[keep]
        # a non-finite feature has a non-finite margin under any weights
        check(np.isfinite(features).all(axis=1))
        report = phrase.cross_validate(
            features, labels, k=args.folds, seed=args.seed, reg=args.reg, epochs=args.epochs,
        )
        model = phrase.train(
            features, labels, reg=args.reg, epochs=args.epochs, seed=args.seed,
            feature_kind=args.featurizer,
        )
        check(np.isfinite(phrase.margins(model, features)))
    header = "\t".join(f"Fold {i + 1}" for i in range(args.folds)) + "\tAvg"
    values = "\t".join(f"{100 * acc:.2f}" for acc in report.fold_accuracies)
    print(header)
    print(f"{values}\t{100 * report.mean_accuracy:.2f}")

    with _open_out(Path(args.out)) as sink:
        sink.write(f"# {_provenance('train-phrase', args.seed, [data_path, emb_path])}\n")
        phrase.save_model(model, sink)
    return EXIT_OK


# -------------------------------------------------------------- classify


# classify gathers the word rows of its phrases in chunks of at most this
# many floats: one indexing step and one matrix product per chunk
CLASSIFY_CHUNK_FLOATS = 1 << 14


def cmd_classify(args) -> int:
    model_path = Path(args.model)
    emb_path = Path(args.embeddings)
    phrases_path = Path(args.phrases)
    model = _load_model(model_path, phrase.load_model)
    line_nos, bigrams = array.array("q"), []  # an array holds the numbers in 8 bytes each
    for line_no, cols in _rows(phrases_path, 2, "phrase", exact=False):
        line_nos.append(line_no)
        bigrams.append((cols[0], cols[1]))
    store = _load_vectors(emb_path, {w.lower() for bigram in bigrams for w in bigram})
    width = store.dimension * (2 if model.feature_kind == embeddings.CWV else 1)
    if width != model.dimension:  # checked before the output file is opened
        with _naming(model_path, emb_path):
            raise DataError(f"feature dimension {width} != model dimension {model.dimension}")

    # every margin is known before the output file is opened
    n = len(bigrams)
    margins = np.empty(n)
    representable = np.empty(n, dtype=bool)
    step = max(1, CLASSIFY_CHUNK_FLOATS // (2 * store.dimension))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by line
        for start in range(0, n, step):
            chunk = slice(start, start + step)
            features, representable[chunk] = embeddings.featurize_many(
                store, bigrams[chunk], model.feature_kind)
            margins[chunk] = phrase.margins(model, features)
    bad = np.flatnonzero(representable & ~np.isfinite(margins))
    if bad.size:
        i = int(bad[0])
        with _naming(phrases_path):
            raise _margin_not_finite(line_nos[i], bigrams[i])

    def rows():
        for bigram, known, margin in zip(bigrams, representable.tolist(), margins.tolist()):
            if not known:
                yield (*bigram, "unrepresentable", "NA")
            else:
                yield (*bigram, "+1" if margin > 0 else "-1", f"{margin:.9g}")

    _write_tsv(Path(args.out), _provenance("classify", None, [model_path, emb_path, phrases_path]),
               ("word1", "word2", "label", "margin"), rows())
    return EXIT_OK


# ----------------------------------------------------------------- paths


def cmd_paths(args) -> int:
    corpus_path = Path(args.corpus)
    concepts_path = Path(args.concepts)
    sentences = _load_sentences(corpus_path)
    concepts = paths.PhraseIndex(
        cols[0].strip().lower() for _, cols in _rows(concepts_path, 1, "concept", exact=False)
    )
    lexicon = _lexicon(args)

    occurrences, unconnected = [], []
    for sentence in sentences:
        occurrences.extend(paths.occurrences_for_sentence(
            sentence, concepts, lexicon, on_unconnected=unconnected.append))
    if unconnected:
        print(f"warning: {corpus_path.name}: dropped {len(unconnected)} mention pairs "
              "with an anchor that has no dependency edge", file=sys.stderr)

    provenance = _provenance("paths", None, [corpus_path, concepts_path])
    _write_tsv(Path(args.out), provenance, ("scene", "concept", "path", "sentence"),
               ((o.scene, o.concept, o.path, o.sentence_ref) for o in occurrences))
    freq_out = Path(args.freq_out) if args.freq_out else Path(args.out).with_suffix(".freq.tsv")
    _write_tsv(freq_out, provenance, ("path", "distinct_pairs"),
               ((rendered, str(count))
                for rendered, count in paths.rank_paths_by_frequency(occurrences)))
    return EXIT_OK


def _read_occurrences(path: Path) -> list[paths.PathOccurrence]:
    rows = []
    for line_no, fields in _rows(path, 4, "occurrence"):
        if not fields[2].strip():
            raise DataError(f"{path.name} line {line_no}: empty path")
        rows.append(paths.PathOccurrence._make(fields))
    return rows


# ---------------------------------------------------------- train-relation

DEFAULT_DIM = 32  # embedding width when --embeddings does not set it


def _training_examples(occ_path: Path, pos_path: Path, neg_path: Path
                       ) -> list[paths.RelationExample]:
    """The occurrences whose path is a seed path, labeled; the occurrence
    rows are dropped once the examples exist."""
    occurrences = _read_occurrences(occ_path)
    seed_pos = _load(pos_path, paths.load_seed_paths)
    seed_neg = _load(neg_path, paths.load_seed_paths)
    with _naming(pos_path, neg_path):
        examples = paths.generate_training_examples(occurrences, seed_pos, seed_neg)
    if not examples:
        raise DataError(
            f"{occ_path.name}: no occurrence matched a seed path in {pos_path.name} "
            f"or {neg_path.name}; nothing to train on"
        )
    return examples


def _initial_model(args, examples: list[paths.RelationExample]
                   ) -> tuple[lstm.PathVocab, lstm.LstmParams]:
    """The vocabulary of the examples' paths and the seeded parameters; the
    embedding store is dropped once ``init_params`` has copied its rows."""
    # the tokens of each distinct path, in first-seen order
    distinct = [lstm.tokenize_path(path) for path in dict.fromkeys(ex.path for ex in examples)]
    store = None
    d = args.dim or DEFAULT_DIM
    if args.embeddings:
        emb_path = Path(args.embeddings)
        store = _load_vectors(emb_path, {token.lower() for path in distinct for token in path})
        if args.dim not in (None, store.dimension):
            raise UsageError(
                f"--dim {args.dim} disagrees with {emb_path.name}, whose vectors have "
                f"{store.dimension} dimensions"
            )
        d = store.dimension

    vocab = lstm.build_vocab(distinct, store=store)
    params = lstm.init_params(
        vocab, d, args.hidden, store=store, seed=args.seed,
        init_scale=args.init_scale,
    )
    return vocab, params


def cmd_train_relation(args) -> int:
    inputs = [Path(args.occurrences), Path(args.seeds_pos), Path(args.seeds_neg)]
    examples = _training_examples(*inputs)
    if args.embeddings:
        inputs.append(Path(args.embeddings))
    vocab, params = _initial_model(args, examples)
    config = lstm.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs, seed=args.seed, clip=args.clip,
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
    params, vocab = _load_model(model_path, lstm.load_relation_model)
    occurrences = _read_occurrences(occ_path)
    probs = lstm.predict_paths(params, vocab, [occ.path for occ in occurrences])

    _write_tsv(Path(args.out), _provenance("predict", None, [model_path, occ_path]),
               ("scene", "concept", "path", "p_positive"),
               ((o.scene, o.concept, o.path, f"{p_pos:.9g}")
                for o, p_pos in zip(occurrences, probs[:, paths.POSITIVE].tolist())))
    return EXIT_OK


# ------------------------------------------------------------------ report


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


def build_kb(
    predictions: list[tuple[str, str, float]], threshold: float
) -> dict[str, list[str]]:
    """The sounds of each scene whose probability reaches ``threshold``.

    A pair seen along several paths keeps its highest probability; each
    scene's sounds are ordered by descending probability, then by name.
    """
    best: dict[tuple[str, str], float] = {}
    for scene, concept, p in predictions:
        key = (scene, concept)
        if p > best.get(key, -1.0):
            best[key] = p
    by_scene: dict[str, list[str]] = {}
    for (scene, concept), p in sorted(best.items(), key=lambda item: (-item[1], item[0])):
        if p >= threshold:
            by_scene.setdefault(scene, []).append(concept)
    return by_scene


def cmd_report(args) -> int:
    pred_path = Path(args.predictions)
    lexicon = _lexicon(args)
    by_scene = build_kb(_read_predictions(pred_path, lexicon), args.threshold)

    top_k = args.top_k or None
    _write_tsv(Path(args.out),
               f"{_provenance('report', None, [pred_path])} threshold={args.threshold:g}",
               ("environment", "sounds"),
               ((scene, ", ".join(by_scene.get(scene, [])[:top_k])) for scene in lexicon.entries))
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
    p.add_argument("--folds", type=_bounded(int, 2), default=phrase.DEFAULT_FOLDS)
    p.add_argument("--reg", type=_bounded(float, 0, strict=True), default=phrase.DEFAULT_REG)
    p.add_argument("--epochs", type=_bounded(int, 1), default=phrase.DEFAULT_EPOCHS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_phrase)

    p = sub.add_parser("classify", help="classify bigram phrases with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--phrases", required=True, help="TSV: word1, word2")
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
    p.add_argument("--dim", type=_bounded(int, 1))
    p.add_argument("--hidden", type=_bounded(int, 1), default=64)
    p.add_argument("--lr", type=_bounded(float, 0), default=lstm.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=_bounded(int, 1), default=lstm.TrainConfig.epochs)
    p.add_argument("--init-scale", type=_bounded(float, 0, strict=True),
                   default=lstm.DEFAULT_INIT_SCALE)
    p.add_argument("--clip", type=_bounded(float, 0, strict=True), default=lstm.TrainConfig.clip)
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
    p.add_argument("--threshold", type=_bounded(float, 0), default=0.5)
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
