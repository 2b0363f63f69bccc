"""Word-vector store and bigram phrase features.

Vectors come from a plain text ``.vec`` file: one word plus its
components per line, optionally preceded by a ``count dim`` header.
Bigram phrases are represented either by averaging the two word
vectors (AWV) or by concatenating them (CWV).
"""

from __future__ import annotations

import array
import itertools
import math
from typing import AbstractSet, Iterable

import numpy as np

from . import DataError

AWV = "awv"
CWV = "cwv"


class EmbeddingFormatError(DataError):
    """Malformed embedding file."""


class PhraseUnrepresentableError(DataError):
    """Raised when neither word of a bigram has a vector."""


class EmbeddingStore:
    """Immutable word -> vector table with a fixed dimension: one (n x d)
    matrix and the row of each lowercased word, in row order."""

    def __init__(self, matrix: np.ndarray, index: dict[str, int]):
        self.dimension = matrix.shape[1]
        self.matrix = matrix
        self.index = index

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.index

    def __len__(self) -> int:
        return len(self.index)

    def get(self, word: str) -> np.ndarray | None:
        """Vector for a word, matched exactly on its lowercased form."""
        row = self.index.get(word.lower())
        return None if row is None else self.matrix[row]

    def rows(self, words: Iterable[str]) -> np.ndarray:
        """The matrix row of each word, matched as ``get`` matches it, or -1
        for a word without a vector."""
        get = self.index.get
        return np.array([get(word.lower(), -1) for word in words], dtype=np.intp)


def load_embeddings(lines: Iterable[str], words: AbstractSet[str] | None = None
                    ) -> EmbeddingStore:
    """Parse the lines of a ``.vec`` file into a store.

    Every row of the file is checked, but only the rows whose lowercased
    word is the lowercased form of one of ``words`` are kept, in file
    order; ``words=None`` keeps every row.  ``lines`` is walked once,
    ``LOAD_CHUNK_ROWS`` rows at a time, so a load holds the kept rows,
    every word of the file (for the duplicate check) and one chunk.

    The dimension is fixed by the first vector line (and by a ``count
    dim`` header, if there is one); every later line must agree, no word
    may come twice, a header's count must be the file's number of rows,
    and every component must be finite, or the load fails, naming the
    offending line (the header's, for its count).  Components are
    whitespace-separated numbers in Python ``float`` syntax.

    numpy's C text reader parses each chunk.  Only a chunk that it cannot
    prove valid is checked row by row, which names the bad line, or
    accepts the number forms that ``float`` reads and numpy does not
    (``1_0``, ``１``).
    """
    if words is not None:  # the store's key rule: a word is its lowercased form
        words = {word.lower() for word in words}
    index: dict[str, int] = {}  # kept word -> row, in row order
    # every word so far, for the duplicate check: a dict, whose popitem takes
    # back the words a chunk added, newest first
    seen: dict[str, None] = {}
    kept = array.array("d")  # the kept rows, end to end
    header_dim: int | None = None
    declared: tuple[int, int] | None = None  # the header's line and row count
    dimension: int | None = None
    non_finite: int | None = None  # the first line with a non-finite component

    def chunks():
        """The rows in chunks: the number of lines before the chunk, the
        numbers of its lines that hold no row (blank, or the header), and
        each row's lowercased word and the text of its components ("" for
        none)."""
        nonlocal header_dim, declared
        chunk_rows = LOAD_CHUNK_ROWS
        done = 0
        skipped: list[int] = []
        row_words: list[str] = []
        texts: list[str] = []
        first_content = True
        for raw in lines:
            parts = raw.split(None, 1)
            if parts and first_content:
                first_content = False
                fields = raw.split()
                header_dim = _header_dim(fields)
                if header_dim is not None:
                    declared = (len(skipped) + 1, int(fields[0]))  # after blank lines only
                    parts = []
            if not parts:
                skipped.append(done + len(texts) + len(skipped) + 1)
                continue
            row_words.append(parts[0].lower())
            texts.append(parts[1] if len(parts) == 2 else "")
            if len(texts) == chunk_rows:
                yield done, skipped, row_words, texts
                done += chunk_rows + len(skipped)
                skipped, row_words, texts = [], [], []
        if texts:
            yield done, skipped, row_words, texts

    for done, skipped, row_words, texts in chunks():
        n = len(texts)
        try:  # numpy would warn on a row without components
            matrix = None if "" in texts else np.loadtxt(texts, comments=None, ndmin=2)
        except (ValueError, MemoryError):
            matrix = None
        before = len(seen)
        seen.update(zip(row_words, itertools.repeat(None)))
        # n rows: numpy skips a row it takes for blank, which would shift the words
        if (matrix is None or matrix.shape[0] != n or dimension not in (None, matrix.shape[1])
                or header_dim not in (None, matrix.shape[1]) or not _all_finite(matrix)
                or len(seen) != before + n):  # fewer new words than rows: a repeat
            for _ in range(len(seen) - before):
                seen.popitem()
            gaps = set(skipped)
            line_nos = [k for k in range(done + 1, done + n + len(gaps) + 1) if k not in gaps]
            matrix, bad = _check_rows(line_nos, row_words, texts, dimension, header_dim, seen)
            non_finite = non_finite or bad
        dimension = matrix.shape[1]
        if words is not None:
            keep = [word in words for word in row_words]
            row_words = itertools.compress(row_words, keep)
            matrix = matrix[keep]
        index.update(zip(row_words, itertools.count(len(index))))
        kept.frombytes(matrix.tobytes())
    if dimension is None:
        raise EmbeddingFormatError("no vector lines in embedding file")
    # a malformed row is named before a wrong count, and that before a
    # non-finite row, wherever each is; seen holds every row's word, once
    if declared is not None and declared[1] != len(seen):
        raise EmbeddingFormatError(
            f"header declares {declared[1]} rows, the file has {len(seen)}", declared[0])
    if non_finite is not None:
        raise EmbeddingFormatError("non-finite vector component", non_finite)
    # a view of the kept rows, not a copy
    return EmbeddingStore(np.frombuffer(kept, dtype=np.float64).reshape(-1, dimension), index)


# rows parsed by one np.loadtxt call: besides the rows it keeps, a load
# holds the text and the floats of one chunk
LOAD_CHUNK_ROWS = 256


def _check_rows(line_nos: list[int], row_words: list[str], texts: list[str],
                dimension: int | None, header_dim: int | None, seen: dict[str, None]
                ) -> tuple[np.ndarray, int | None]:
    """The matrix of a chunk that numpy's reader could not prove valid,
    checked one row at a time after the rows before it: the first bad line
    is named.  Also the first line with a non-finite component, if any.
    The chunk's words are added to ``seen``."""
    vectors = []
    non_finite = None
    for line_no, word, text in zip(line_nos, row_words, texts):
        try:
            vector = [float(v) for v in text.split()]
        except ValueError:
            raise EmbeddingFormatError("non-numeric vector component", line_no) from None
        if not vector:
            raise EmbeddingFormatError("no vector components", line_no)
        if dimension is None:
            dimension = len(vector)
            if header_dim not in (None, dimension):
                raise EmbeddingFormatError(f"header dimension {header_dim} != {dimension}", line_no)
        elif len(vector) != dimension:
            raise EmbeddingFormatError(
                f"expected {dimension} components, got {len(vector)}", line_no)
        if word in seen:
            raise EmbeddingFormatError(f"duplicate word {word!r}", line_no)
        seen[word] = None
        if non_finite is None and not all(map(math.isfinite, vector)):
            non_finite = line_no
        vectors.append(vector)
    return np.array(vectors), non_finite


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


def _check_kind(kind: str) -> None:
    if kind not in (AWV, CWV):
        raise DataError(f"unknown feature kind {kind!r}")


def _combine(v1: np.ndarray, v2: np.ndarray, kind: str) -> np.ndarray:
    """AWV (the average) or CWV (the concatenation) of the word vectors in
    the last axis; elementwise, so one row comes out as it does in a stack."""
    return (v1 + v2) / 2.0 if kind == AWV else np.concatenate([v1, v2], axis=-1)


def featurize(store: EmbeddingStore, bigram: tuple[str, str], kind: str) -> np.ndarray:
    """AWV (the average) or CWV (the concatenation, length 2d) of a bigram's
    two word vectors; a word without a vector contributes zeros."""
    _check_kind(kind)
    w1, w2 = bigram
    v1, v2 = store.get(w1), store.get(w2)
    if v1 is None and v2 is None:
        raise PhraseUnrepresentableError(
            f"phrase unrepresentable: neither {w1!r} nor {w2!r} has a vector"
        )
    zero = np.zeros(store.dimension)
    return _combine(zero if v1 is None else v1, zero if v2 is None else v2, kind)


def featurize_rows(store: EmbeddingStore, ids: np.ndarray, kind: str
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The ``featurize`` rows of bigrams given as an (n x 2) array of the
    store rows of their words, -1 for a word without a vector, stacked, and
    which of them are representable.

    Row i equals ``featurize`` of bigram i bit for bit where
    ``representable[i]``; the row of a bigram with both words unknown is
    zeros.  Both words' rows are gathered from the store's matrix in one
    indexing step, and the rows of unknown words are zeroed in the
    gathered copy, never in the store.
    """
    _check_kind(kind)
    known = ids >= 0
    if len(store.matrix):
        rows = store.matrix[ids]  # (n x 2 x d); an unknown word gathers the last row
        rows[~known] = 0.0
    else:  # a store that kept no row: every word is unknown
        rows = np.zeros((len(ids), 2, store.dimension))
    # a CWV row is the gathered pair read as one row of 2d, not a copy
    features = (rows.reshape(len(rows), 2 * store.dimension) if kind == CWV
                else _combine(rows[:, 0], rows[:, 1], kind))
    return features, known.any(axis=1)
