"""Word-vector store and bigram phrase features.

Vectors come from a plain text ``.vec`` file: one word plus its
components per line, optionally preceded by a ``count dim`` header.
Bigram phrases are represented either by averaging the two word
vectors (AWV) or by concatenating them (CWV).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from . import DataError

log = logging.getLogger(__name__)

AWV = "awv"
CWV = "cwv"


class EmbeddingFormatError(DataError):
    """Malformed embedding file."""


class PhraseUnrepresentableError(DataError):
    """Raised when neither word of a bigram has a vector."""


@dataclass(frozen=True)
class PhraseFeature:
    values: np.ndarray
    kind: str


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
    must agree or the load fails, naming the offending line.
    """
    table: dict[str, np.ndarray] = {}
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
            if len(fields) == 2 and _is_int(fields[0]) and _is_int(fields[1]):
                header_dim = int(fields[1])
                continue
        word = fields[0].lower()
        try:
            vector = np.array([float(v) for v in fields[1:]], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(
                f"line {line_no}: non-numeric vector component"
            ) from None
        if vector.size == 0:
            raise EmbeddingFormatError(f"line {line_no}: no vector components")
        if dimension is None:
            dimension = vector.size
            if header_dim is not None and header_dim != dimension:
                raise EmbeddingFormatError(
                    f"line {line_no}: header dimension {header_dim} != {dimension}"
                )
        elif vector.size != dimension:
            raise EmbeddingFormatError(
                f"line {line_no}: expected {dimension} components, got {vector.size}"
            )
        if word in table:
            raise EmbeddingFormatError(f"line {line_no}: duplicate word {word!r}")
        table[word] = vector
    if dimension is None:
        raise EmbeddingFormatError("no vector lines in embedding file")
    return EmbeddingStore(dimension, table)


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def dump_embeddings(store: EmbeddingStore, out: IO[str]) -> None:
    """Write the store back out at 9 significant digits."""
    out.write(f"{len(store)} {store.dimension}\n")
    for word in store.words():
        vector = store.get(word)
        out.write(word + " " + " ".join(f"{v:.9g}" for v in vector) + "\n")


def _bigram_vectors(
    store: EmbeddingStore, bigram: tuple[str, str]
) -> tuple[np.ndarray, np.ndarray]:
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
    return v1, v2


def featurize_awv(store: EmbeddingStore, bigram: tuple[str, str]) -> PhraseFeature:
    """Average of the two word vectors."""
    v1, v2 = _bigram_vectors(store, bigram)
    return PhraseFeature(values=(v1 + v2) / 2.0, kind=AWV)


def featurize_cwv(store: EmbeddingStore, bigram: tuple[str, str]) -> PhraseFeature:
    """Concatenation of the two word vectors (order-sensitive, length 2d)."""
    v1, v2 = _bigram_vectors(store, bigram)
    return PhraseFeature(values=np.concatenate([v1, v2]), kind=CWV)


def featurize(
    store: EmbeddingStore, bigram: tuple[str, str], kind: str
) -> PhraseFeature:
    if kind == AWV:
        return featurize_awv(store, bigram)
    if kind == CWV:
        return featurize_cwv(store, bigram)
    raise DataError(f"unknown feature kind {kind!r}")
