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
identical inputs reproduces identical bytes.  Every output goes through
``_output``, so a failed or interrupted command leaves it as it was.

``_warn`` prints ``warning: <file>[ line N]: ...``, ``_naming`` names the
file of a ``DataError``, and ``main`` prints ``error: ...`` (a file that
cannot be opened or written, as given); ``_refuse_overwrites`` stops, before
any read, an output that is another file of its command or has no directory.

Every input is read as a stream (``_streamed_lines``).  ``mine`` and
``paths`` take the corpus in lists of ``SENTENCE_CHUNK`` sentences
(``_sentence_chunks``) and hold one list at a time; ``paths`` writes each
list's rows as it goes.  ``train-relation`` keeps only the path of each
occurrence row.
"""

from __future__ import annotations

import argparse
import array
import errno
import hashlib
import io
import itertools
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

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


@contextmanager
def _output_named(path: Path):
    """An ``OSError`` raised inside, raised again naming the output as given."""
    try:
        yield
    except OSError as err:
        raise OSError(err.errno, err.strerror, path) from None


class _OutputFile(io.FileIO):
    """The file written for ``output``, whose failures name ``output``; named
    here, below the buffers, a ``writelines`` of rows stays one call."""

    def __init__(self, file: Path, output: Path):
        with _output_named(output):
            super().__init__(file, "w")
        self.output = output

    def write(self, data):
        with _output_named(self.output):
            return super().write(data)


@contextmanager
def _output(path: Path, provenance: str, columns: tuple[str, ...] = ()):
    """A sink for an output file's text, its ``#`` provenance line and, if
    there are ``columns``, its ``#`` column line written.  The text replaces
    ``path`` only if the block ends without an exception; otherwise ``path``
    is left as it was, or absent.

    The text goes to a temporary file beside the file that ``path`` names
    (through a symlink, its target), so that directory must be writable,
    and is renamed over it with the permission bits it had.  A read-only
    file is refused, and a path that is no regular file is written directly.
    """
    target = Path(os.path.realpath(path))
    mode = os.stat(target).st_mode if target.exists() else None
    if mode is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    temporary = (target.with_name(f".{target.name}.{os.getpid()}.tmp")
                 if mode is None or stat.S_ISREG(mode) else None)
    sink = io.TextIOWrapper(io.BufferedWriter(_OutputFile(temporary or path, path)),
                            encoding="utf-8", newline="\n")
    try:
        with sink:
            sink.write(f"# {provenance}\n" + ("# " + "\t".join(columns) + "\n" if columns else ""))
            yield sink
        if temporary is not None:
            with _output_named(path):
                if mode is not None:
                    os.chmod(temporary, stat.S_IMODE(mode))
                os.replace(temporary, target)
    except BaseException:
        if temporary is not None:
            temporary.unlink(missing_ok=True)
        raise


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
    return DataError(f"not UTF-8 text ({err.reason})", line_no)


_READ_CHUNK = 1 << 16  # characters per read; a walk holds about one chunk, split into lines


def _streamed_lines(path: Path):
    """The lines of a UTF-8 text file without their line ends, read a
    chunk at a time: a walk never holds the file's text or a list of its
    lines.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, so line
    numbers are the file's.  A leading byte-order mark is dropped.  An
    undecodable byte raises the ``DataError`` of ``_not_utf8``.
    """
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
    ``columns`` fields (at least that many if not ``exact``).  A DataError
    is left for the caller's ``_naming`` to name.
    """
    for line_no, line in content_lines(_streamed_lines(path)):
        fields = line.split("\t")
        if len(fields) < columns or (exact and len(fields) > columns):
            raise DataError(f"{kind} rows need {columns} columns, got {len(fields)}", line_no)
        yield line_no, fields


@contextmanager
def _naming(*inputs: Path):
    """Put the names of the input files in front of a DataError raised inside."""
    try:
        yield
    except DataError as err:
        names = ", ".join(path.name for path in inputs)
        raise DataError(f"{_where(names, err.line)}: {err.reason}") from err


def _where(name: str, line: int | None) -> str:
    """``<file>`` or ``<file> line N``: where a diagnostic points."""
    return name if line is None else f"{name} line {line}"


def _warn(path: Path, text: str, line: int | None = None) -> None:
    """Print ``warning: <file>[ line N]: text`` on stderr."""
    print(f"warning: {_where(path.name, line)}: {text}", file=sys.stderr)


def _load(path: Path, parse):
    """``parse`` applied to the lines of a file, a DataError named after it."""
    with _naming(path):
        return parse(_streamed_lines(path))


def _load_model(path: Path, load):
    """``load`` applied to a model file's lines, line ends kept and ``#`` lines
    blanked, so that a JSON error names the file's line and column."""
    return _load(path, lambda lines: load(
        (" " * len(line) if line.startswith("#") else line) + "\n" for line in lines))


def _load_vectors(path: Path, words: Iterable[str]) -> embeddings.EmbeddingStore:
    """The store of a ``.vec`` file's rows for ``words``; every row of the
    file is checked."""
    return _load(path, lambda lines: embeddings.load_embeddings(lines, words))


# mine and paths take the corpus in lists of this many sentences, so a pass
# holds one list, not the corpus; a pass one sentence at a time, parsing and
# then using each, costs 5-11% more
SENTENCE_CHUNK = 256


def _sentence_chunks(path: Path) -> Iterator[list[corpus.Sentence]]:
    """The corpus's sentences as they are parsed, in lists of up to
    ``SENTENCE_CHUNK``; a malformed sentence is skipped with a warning that
    names its line."""
    def report(err: corpus.CorpusFormatError):
        _warn(path, f"skipping sentence: {err.reason}", err.line)

    with _naming(path):
        sentences = corpus.parse_annotated_corpus(
            _streamed_lines(path), source_name=path.name, on_error=report)
        while chunk := list(itertools.islice(sentences, SENTENCE_CHUNK)):
            yield chunk


def _lexicon(args) -> tuple[paths.EnvironmentLexicon, list[Path]]:
    """The environment lexicon, and its file as the provenance inputs it adds."""
    if not args.environments:
        return paths.EnvironmentLexicon.default(), []
    path = Path(args.environments)
    return _load(path, paths.EnvironmentLexicon.from_lines), [path]


# ----------------------------------------------------------------- mine


def cmd_mine(args) -> int:
    tables: list[mining.ConceptTable] = [{} for _ in range(args.shards)]
    first = 0  # the number of the chunk's first sentence
    for chunk in _sentence_chunks(args.corpus):
        for shard, table in enumerate(tables):  # sentence k goes to shard k mod N
            mining.mine_corpus(chunk[(shard - first) % args.shards :: args.shards], table)
        first += len(chunk)
    table = mining.merge_tables(*tables)
    for text in sorted(text for text, entry in table.items() if len(entry.patterns) > 1):
        *others, last = table[text].patterns
        _warn(args.corpus, f"concept {text!r} seen under {', '.join(others)} and {last}; "
                           f"keeping {table[text].pattern}")
    # a row that begins with '#' would read back as a comment
    hashed = [text for text in table if text.startswith("#")]
    if hashed:
        _warn(args.corpus, f"dropped {len(hashed)} concepts that begin with '#'")
        for text in hashed:
            del table[text]
    entries = mining.sorted_entries(table)

    with _output(args.out, _provenance("mine", None, [args.corpus])) as sink:
        sink.writelines(f"{e.text}\t{e.pattern}\t{e.frequency}\n" for e in entries)

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
    with _naming(path):
        for line_no, (w1, w2, label) in _rows(path, 3, "labeled phrase"):
            try:
                value = int(label)
            except ValueError:
                value = None
            if value not in (+1, -1):
                raise DataError(f"label must be +1 or -1, got {label!r}", line_no)
            rows.append((line_no, phrase.LabeledPhrase(bigram=(w1, w2), label=value)))
    return rows


def _margin_not_finite(line_no: int, bigram: tuple[str, str]) -> DataError:
    """The error for a phrase whose margin overflows, to be named by its file."""
    return DataError(f"the margin of {' '.join(bigram)!r} is not finite "
                     "(its features or the model's weights are too large)", line_no)


def cmd_train_phrase(args) -> int:
    rows = _read_labeled_phrases(args.data)
    store = _load_vectors(args.embeddings, {w for _, row in rows for w in row.bigram})

    def check(finite: np.ndarray) -> None:
        bad = np.flatnonzero(~finite)
        if bad.size:
            line_no, row = rows[keep[bad[0]]]
            raise _margin_not_finite(line_no, row.bigram)

    # an overflow is reported by check, naming the phrase's line
    with _naming(args.data), np.errstate(over="ignore", invalid="ignore"):
        features, representable = embeddings.featurize_many(
            store, [row.bigram for _, row in rows], args.featurizer)
        del store  # featurize_many copied the rows; the fits need only the features
        for (line_no, row), known in zip(rows, representable.tolist()):
            if not known:
                _warn(args.data, f"skipping unrepresentable phrase: {' '.join(row.bigram)}",
                      line_no)
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

    provenance = _provenance("train-phrase", args.seed, [args.data, args.embeddings])
    with _output(args.out, provenance) as sink:
        phrase.save_model(model, sink)
    return EXIT_OK


# -------------------------------------------------------------- classify


# classify gathers the word rows of its phrases in chunks of at most this
# many floats: one indexing step and one matrix product per chunk
CLASSIFY_CHUNK_FLOATS = 1 << 14


def cmd_classify(args) -> int:
    """Label each phrase, its words written back as given; each distinct word
    is looked up once, and a phrase is held as the two slots of its words."""
    model = _load_model(args.model, phrase.load_model)
    slots: dict[str, int] = {}  # each distinct word -> its slot, in first-seen order
    pairs = array.array("q")  # the two slots of each phrase, 8 bytes each
    with _naming(args.phrases):
        for _, cols in _rows(args.phrases, 2, "phrase", exact=False):
            pairs.append(slots.setdefault(cols[0], len(slots)))
            pairs.append(slots.setdefault(cols[1], len(slots)))
    store = _load_vectors(args.embeddings, slots)
    width = store.dimension * (2 if model.feature_kind == embeddings.CWV else 1)
    if width != model.dimension:
        with _naming(args.model, args.embeddings):
            raise DataError(f"feature dimension {width} != model dimension {model.dimension}")
    words = list(slots)
    ids = store.rows(words)[pairs].reshape(-1, 2)  # the store rows of each phrase's words

    n = len(ids)
    margins = np.empty(n)
    representable = np.empty(n, dtype=bool)
    step = max(1, CLASSIFY_CHUNK_FLOATS // (2 * store.dimension))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by line
        for start in range(0, n, step):
            chunk = slice(start, start + step)
            features, representable[chunk] = embeddings.featurize_rows(
                store, ids[chunk], model.feature_kind)
            margins[chunk] = phrase.margins(model, features)
    bad = np.flatnonzero(representable & ~np.isfinite(margins))
    if bad.size:  # the phrase is read again, as no line number is kept
        with _naming(args.phrases):
            line_no, cols = next(itertools.islice(
                _rows(args.phrases, 2, "phrase", exact=False), int(bad[0]), None))
            raise _margin_not_finite(line_no, (cols[0], cols[1]))

    provenance = _provenance("classify", None, [args.model, args.embeddings, args.phrases])
    with _output(args.out, provenance, ("word1", "word2", "label", "margin")) as sink:
        sink.writelines(
            f"{words[w1]}\t{words[w2]}\t{'+1' if margin > 0 else '-1'}\t{margin:.9g}\n"
            if known else f"{words[w1]}\t{words[w2]}\tunrepresentable\tNA\n"
            for w1, w2, known, margin
            in zip(pairs[0::2], pairs[1::2], representable.tolist(), margins.tolist()))
    return EXIT_OK


# ----------------------------------------------------------------- paths


def cmd_paths(args) -> int:
    """Occurrence rows written as each chunk of the corpus is read; only the
    ``path -> {(scene, concept)}`` sets of ``--freq-out`` grow with it."""
    with _naming(args.concepts):
        concepts = paths.PhraseIndex(cols[0].strip().lower() for _, cols
                                     in _rows(args.concepts, 1, "concept", exact=False))
    lexicon, lexicon_file = _lexicon(args)
    provenance = _provenance("paths", None, [args.corpus, args.concepts, *lexicon_file])

    pairs_per_path: paths.PathPairs = {}
    unconnected = 0

    def count_unconnected(pair: paths.MentionPair) -> None:
        nonlocal unconnected
        unconnected += 1

    with (_output(args.out, provenance, ("scene", "concept", "path", "sentence")) as out,
          _output(args.freq_out, provenance, ("path", "distinct_pairs")) as freq_out):
        for chunk in _sentence_chunks(args.corpus):
            rows = []
            for sentence in chunk:
                found = paths.occurrences_for_sentence(
                    sentence, concepts, lexicon, on_unconnected=count_unconnected)
                if found:
                    rows += [f"{o.scene}\t{o.concept}\t{o.path}\t{o.sentence_ref}\n"
                             for o in found]
                    paths.add_path_pairs(pairs_per_path, found)
            out.writelines(rows)
        out.flush()  # so that a failed write of --out is met before --freq-out is replaced
        if unconnected:
            _warn(args.corpus, f"dropped {unconnected} mention pairs "
                               "with an anchor that has no dependency edge")
        freq_out.writelines(f"{rendered}\t{count}\n" for rendered, count
                            in paths.rank_paths_by_frequency(pairs_per_path))
    return EXIT_OK


def _occurrence_rows(path: Path) -> Iterator[list[str]]:
    """The four fields of each occurrence row, as read; a blank path is refused."""
    with _naming(path):
        for line_no, fields in _rows(path, 4, "occurrence"):
            if not fields[2].strip():
                raise DataError("empty path", line_no)
            yield fields


# ---------------------------------------------------------- train-relation

DEFAULT_DIM = 32  # embedding width when --embeddings does not set it


def _training_examples(occ_path: Path, pos_path: Path, neg_path: Path
                       ) -> list[paths.RelationExample]:
    """The occurrences whose path is a seed path, labeled.  Of each
    occurrence row only its path is kept, one string per distinct path."""
    distinct: dict[str, str] = {}
    occurrence_paths = [distinct.setdefault(path, path)
                        for _, _, path, _ in _occurrence_rows(occ_path)]
    seed_pos = _load(pos_path, paths.load_seed_paths)
    seed_neg = _load(neg_path, paths.load_seed_paths)
    with _naming(pos_path, neg_path):
        examples = paths.generate_training_examples(occurrence_paths, seed_pos, seed_neg)
    if not examples:
        with _naming(occ_path):
            raise DataError(f"no occurrence matched a seed path in {pos_path.name} "
                            f"or {neg_path.name}; nothing to train on")
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
        store = _load_vectors(emb_path, {token for path in distinct for token in path})
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
    inputs = [args.occurrences, args.seeds_pos, args.seeds_neg]
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

    with _output(args.out, _provenance("train-relation", args.seed, inputs)) as sink:
        lstm.save_relation_model(params, vocab, sink)
    return EXIT_OK


# ----------------------------------------------------------------- predict


def cmd_predict(args) -> int:
    """p(positive) of each occurrence, in input order.  Each distinct path
    gets one slot, scored by one ``predict_paths`` call, and its
    ``path<TAB>p`` tail is formatted once for all of its rows."""
    params, vocab = _load_model(args.model, lstm.load_relation_model)
    slots: dict[str, int] = {}  # each distinct path -> its slot, in first-seen order
    rows = [(scene, concept, slots.setdefault(path, len(slots)))
            for scene, concept, path, _ in _occurrence_rows(args.occurrences)]
    probs = lstm.predict_paths(params, vocab, list(slots))
    tails = [f"{path}\t{p_pos:.9g}\n"
             for path, p_pos in zip(slots, probs[:, paths.POSITIVE].tolist())]

    with _output(args.out, _provenance("predict", None, [args.model, args.occurrences]),
                 ("scene", "concept", "path", "p_positive")) as sink:
        sink.writelines(f"{scene}\t{concept}\t{tails[slot]}" for scene, concept, slot in rows)
    return EXIT_OK


# ------------------------------------------------------------------ report


def _read_predictions(path: Path, lexicon: paths.EnvironmentLexicon
                      ) -> Iterator[tuple[str, str, float]]:
    """(scene, concept, p) rows, as they are read; p must lie in [0, 1], the
    scene in the lexicon."""
    known = set(lexicon.entries)
    with _naming(path):
        for line_no, (scene, concept, _path, p_text) in _rows(path, 4, "prediction"):
            try:
                p = float(p_text)
            except ValueError:
                p = math.nan
            if not 0.0 <= p <= 1.0:
                raise DataError(f"p must be a number in [0, 1], got {p_text!r}", line_no)
            if scene not in known:
                raise DataError(f"scene {scene!r} is not in the environment lexicon", line_no)
            yield scene, concept, p


def build_kb(predictions: Iterable[tuple[str, str, float]], threshold: float
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
    lexicon, lexicon_file = _lexicon(args)
    by_scene = build_kb(_read_predictions(args.predictions, lexicon), args.threshold)

    top_k = args.top_k or None
    provenance = _provenance("report", None, [args.predictions, *lexicon_file])
    with _output(args.out, f"{provenance} threshold={args.threshold:g}",
                 ("environment", "sounds")) as sink:
        sink.writelines(f"{scene}\t{', '.join(by_scene.get(scene, [])[:top_k])}\n"
                        for scene in lexicon.entries)
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
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--shards", type=_bounded(int, 1), default=1)
    p.add_argument("--top-k", type=_bounded(int, 0), default=0)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train-phrase", help="train the sound/non-sound phrase classifier")
    p.add_argument("--data", required=True, type=Path, help="TSV: word1, word2, label(+1/-1)")
    p.add_argument("--embeddings", required=True, type=Path)
    p.add_argument("--featurizer", choices=[embeddings.AWV, embeddings.CWV],
                   default=embeddings.AWV)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=_bounded(int, 2), default=phrase.DEFAULT_FOLDS)
    p.add_argument("--reg", type=_bounded(float, 0, strict=True), default=phrase.DEFAULT_REG)
    p.add_argument("--epochs", type=_bounded(int, 1), default=phrase.DEFAULT_EPOCHS)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_train_phrase)

    p = sub.add_parser("classify", help="classify bigram phrases with a trained model")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--embeddings", required=True, type=Path)
    p.add_argument("--phrases", required=True, type=Path, help="TSV: word1, word2")
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("paths", help="extract scene-sound dependency paths")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--concepts", required=True, type=Path)
    p.add_argument("--environments")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--freq-out")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("train-relation", help="train the scene-sound relation model")
    p.add_argument("--occurrences", required=True, type=Path)
    p.add_argument("--seeds-pos", required=True, type=Path)
    p.add_argument("--seeds-neg", required=True, type=Path)
    p.add_argument("--embeddings")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=_bounded(int, 1))
    p.add_argument("--hidden", type=_bounded(int, 1), default=64)
    p.add_argument("--lr", type=_bounded(float, 0), default=lstm.TrainConfig.learning_rate)
    p.add_argument("--epochs", type=_bounded(int, 1), default=lstm.TrainConfig.epochs)
    p.add_argument("--init-scale", type=_bounded(float, 0, strict=True),
                   default=lstm.DEFAULT_INIT_SCALE)
    p.add_argument("--clip", type=_bounded(float, 0, strict=True), default=lstm.TrainConfig.clip)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_train_relation)

    p = sub.add_parser("predict", help="score occurrences with a relation model")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--occurrences", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report", help="per-environment sound report")
    p.add_argument("--predictions", required=True, type=Path)
    p.add_argument("--environments")
    p.add_argument("--threshold", type=_bounded(float, 0), default=0.5)
    p.add_argument("--top-k", type=_bounded(int, 0), default=0)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_report)

    return parser


# bad input (a DataError) or an unreadable or unwritable file; anything else is a bug
DATA_ERRORS = (DataError, OSError)

# every option that names a file, outputs first
FILE_OPTIONS = ("out", "freq_out", "corpus", "concepts", "environments", "data", "embeddings",
                "model", "phrases", "occurrences", "seeds_pos", "seeds_neg", "predictions")


def _output_directory(path: Path) -> None:
    """Raise, naming ``path`` as given, the ``OSError`` that opening it for
    writing would raise because its directory is missing or is no directory."""
    with _output_named(path):
        os.stat(os.path.join(path.parent, ""))  # a final slash: ENOTDIR if no directory


def _refuse_overwrites(args) -> None:
    """Raise a DataError, before anything is read, if an output file is also
    another file of the command, which replacing it would destroy, and the
    ``OSError`` of ``_output_directory`` if an output's directory is
    missing.  The default of ``paths --freq-out`` is worked out here."""
    if args.command == "paths":
        args.freq_out = Path(args.freq_out) if args.freq_out else args.out.with_suffix(".freq.tsv")
    files = {option: getattr(args, option) for option in FILE_OPTIONS
             if getattr(args, option, None)}
    resolved = {option: Path(path).resolve() for option, path in files.items()}
    for output in [option for option in files if option in ("out", "freq_out")]:
        for other in files:
            if other != output and resolved[other] == resolved[output]:
                flags = " and ".join("--" + name.replace("_", "-") for name in (output, other))
                raise DataError(f"{files[output]}: {flags} name the same file")
        _output_directory(files[output])


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _refuse_overwrites(args)
        return args.func(args)
    except (UsageError, *DATA_ERRORS) as err:
        named = isinstance(err, OSError) and err.filename is not None  # the path as given
        print(f"error: {err.filename}: {err.strerror}" if named else f"error: {err}",
              file=sys.stderr)
        return EXIT_USAGE if isinstance(err, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
