"""Word-vector store and bigram phrase features.

Vectors come from a plain text ``.vec`` file: one word plus its
components per line, optionally preceded by a ``count dim`` header.
Bigram phrases are represented either by averaging the two word
vectors (AWV) or by concatenating them (CWV).
"""

from __future__ import annotations

import array
import itertools
import logging
from typing import Iterable

import numpy as np

from . import DataError

log = logging.getLogger(__name__)

AWV = "awv"
CWV = "cwv"


class EmbeddingFormatError(DataError):
    """Malformed embedding file."""


class PhraseUnrepresentableError(DataError):
    """Raised when neither word of a bigram has a vector."""


class EmbeddingStore:
    """Immutable word -> vector table with a fixed dimension."""

    def __init__(self, dimension: int, table: dict[str, np.ndarray]):
        self.dimension = dimension
        self._table = table

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._table

    def __len__(self) -> int:
        return len(self._table)

    def get(self, word: str) -> np.ndarray | None:
        """Vector for a word, matched exactly on its lowercased form."""
        return self._table.get(word.lower())

    def words(self) -> list[str]:
        return list(self._table)


def load_embeddings(lines: Iterable[str]) -> EmbeddingStore:
    """Parse a ``.vec`` text stream into a store.

    The dimension is fixed by the first vector line; every later line
    must agree, and every component must be finite, or the load fails,
    naming the offending line.  Components are whitespace-separated
    numbers in Python ``float`` syntax.

    numpy's C text reader parses a file of plain rows in one pass.  A
    file it cannot prove valid is read again by the per-row reader,
    which names the bad line, or accepts the number forms that ``float``
    reads and numpy does not (``1_0``, ``１``).
    """
    lines = list(lines)  # read twice when the fast pass gives up
    store = _load_plain(lines)
    return store if store is not None else _load_per_row(lines)


class _NotPlain(Exception):
    """A row that the fast pass leaves to the per-row reader."""


def _load_plain(lines: list[str]) -> EmbeddingStore | None:
    """The store, if numpy reads every row and every check passes; else None."""
    table: dict[str, np.ndarray | None] = {}  # word -> row, in row order
    header_dim: int | None = None

    def components():
        nonlocal header_dim
        first_content = True
        for raw in lines:
            parts = raw.split(None, 1)
            if not parts:
                continue
            if first_content:
                first_content = False
                header_dim = _header_dim(raw.split())
                if header_dim is not None:
                    continue
            word = parts[0].lower()
            if len(parts) == 1 or word in table:
                raise _NotPlain
            table[word] = None
            yield parts[1]

    rows = components()
    try:
        # with no row at all, loadtxt would warn and return an empty matrix
        first = next(rows)
        # Given an upper bound on the rows, numpy allocates the matrix once
        # (as wide as the first row) instead of growing it, which keeps the
        # peak memory at the per-row reader's.  If a first row much wider
        # than the rest makes that allocation fail, the per-row reader
        # names the first short row.
        matrix = np.loadtxt(itertools.chain([first], rows), comments=None,
                            dtype=np.float64, ndmin=2, max_rows=len(lines))
    except (StopIteration, _NotPlain, ValueError, MemoryError):
        return None
    n, dimension = matrix.shape
    # n != len(table) if numpy skipped a row it took for blank: the words would shift
    if n != len(table) or header_dim not in (None, dimension) or not _all_finite(matrix):
        return None
    return _store(table, matrix)


def _load_per_row(lines: Iterable[str]) -> EmbeddingStore:
    """The reference reader: parse and check one row at a time, naming the
    first bad line."""
    table: dict[str, np.ndarray | None] = {}  # word -> row, in row order
    line_nos = array.array("q")  # row -> line of the file
    components = array.array("d")  # the rows, end to end
    dimension: int | None = None
    header_dim: int | None = None
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
        if word in table:
            raise EmbeddingFormatError(f"line {line_no}: duplicate word {word!r}")
        table[word] = None  # filled in with its row of the matrix below
        line_nos.append(line_no)
        components.fromlist(vector)
    if dimension is None:
        raise EmbeddingFormatError("no vector lines in embedding file")
    matrix = np.frombuffer(components, dtype=np.float64).reshape(len(line_nos), dimension)
    if not _all_finite(matrix):
        bad = line_nos[int(np.isfinite(matrix).all(axis=1).argmin())]
        raise EmbeddingFormatError(f"line {bad}: non-finite vector component")
    return _store(table, matrix)


def _header_dim(fields: list[str]) -> int | None:
    """The dimension a ``count dim`` header line declares, or None for a
    line that is no header."""
    if len(fields) == 2 and _is_int(fields[0]) and _is_int(fields[1]):
        return int(fields[1])
    return None


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _all_finite(matrix: np.ndarray) -> bool:
    # nan and inf survive min() and max(), so two reductions check the table
    return bool(np.isfinite(matrix.min()) and np.isfinite(matrix.max()))


def _store(table: dict[str, np.ndarray | None], matrix: np.ndarray) -> EmbeddingStore:
    """The store whose words, in order, name the rows of ``matrix``."""
    for word, row in zip(table, matrix):
        table[word] = row
    return EmbeddingStore(matrix.shape[1], table)


def featurize(store: EmbeddingStore, bigram: tuple[str, str], kind: str) -> np.ndarray:
    """AWV (the average) or CWV (the concatenation, length 2d) of a bigram's
    two word vectors; a word without a vector contributes zeros."""
    if kind not in (AWV, CWV):
        raise DataError(f"unknown feature kind {kind!r}")
    w1, w2 = bigram
    v1, v2 = store.get(w1), store.get(w2)
    if v1 is None and v2 is None:
        raise PhraseUnrepresentableError(
            f"phrase unrepresentable: neither {w1!r} nor {w2!r} has a vector"
        )
    zero = np.zeros(store.dimension)
    if v1 is None:
        log.debug("OOV word %r contributes zero vector", w1)
        v1 = zero
    if v2 is None:
        log.debug("OOV word %r contributes zero vector", w2)
        v2 = zero
    return (v1 + v2) / 2.0 if kind == AWV else np.concatenate([v1, v2])
