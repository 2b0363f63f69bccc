"""Reader for annotated corpora: tokens, POS tags, and dependency edges.

The input is a line-oriented ``.ann`` file.  Sentences are blank-line
separated blocks; each token line has five TAB-separated columns::

    index  surface  pos  head  dep-label

``head`` is the 1-based index of the token's head, ``0`` for the root,
or ``_`` (paired with label ``_``) for tokens that carry no dependency
edge at all, as happens with collapsed prepositions.  Lines starting
with ``#`` are comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from sys import intern
from typing import Callable, Iterable, Iterator, NamedTuple

from . import DataError

SENTENCE_FINAL_PUNCT = {".", "!", "?"}

_WHITESPACE = re.compile(r"\s").search


class CorpusFormatError(DataError):
    """A sentence block that violates the corpus format."""


@dataclass(frozen=True, slots=True)
class Sentence:
    """A parsed sentence as parallel columns; position ``i - 1`` is token ``i``.

    ``heads[i - 1]`` is the head of token ``i``: ``0`` for the root and
    ``None`` for a token with no dependency edge, whose label is ``None``
    too.
    """

    words: tuple[str, ...]
    tags: tuple[str, ...]
    heads: tuple[int | None, ...]
    labels: tuple[str | None, ...]
    sent_id: str = field(default="", compare=False)

    def __len__(self) -> int:
        return len(self.words)


class DepGraph(NamedTuple):
    """Parent-pointer view of a sentence's dependency forest.

    ``heads`` and ``labels`` are the sentence's columns: ``heads[i - 1]``
    is the head of token ``i`` (``0`` for the root, ``None`` for an
    unattached token) and ``labels[i - 1]`` the label of that edge.
    ``words`` are the sentence's words, lowercased.
    """

    words: tuple[str, ...]
    heads: tuple[int | None, ...]
    labels: tuple[str | None, ...]

    def __len__(self) -> int:
        return len(self.words)


def parse_block(numbered_lines: list[tuple[int, str]], sent_id: str = "") -> Sentence:
    """Parse one blank-line-delimited block into a validated Sentence.

    ``numbered_lines`` pairs each raw line with its 1-based line number
    so errors can point at the offending line.  Every line is read
    before the indices, then the heads (in line order), the root and
    the reachability are checked.
    """
    if not numbered_lines:
        raise CorpusFormatError("empty block", 0)
    n = len(numbered_lines)
    words: list[str | None] = [None] * n
    tags: list[str | None] = [None] * n
    heads: list[int | None] = [None] * n
    labels: list[str | None] = [None] * n
    beyond: set[int] = set()  # indices above n, which leave a gap
    head_error: tuple[str, int] | None = None
    for line_no, line in numbered_lines:
        cols = line.split("\t")
        if len(cols) != 5:
            raise CorpusFormatError(
                f"expected 5 TAB-separated columns, got {len(cols)}", line_no
            )
        raw_index, surface, pos, raw_head, label = cols
        try:
            index = int(raw_index)
        except ValueError:
            raise CorpusFormatError(f"non-integer index {raw_index!r}", line_no) from None
        if index < 1:
            raise CorpusFormatError(f"token index must be >= 1, got {index}", line_no)
        if not surface:
            raise CorpusFormatError("empty surface form", line_no)
        # path tokens are whitespace-separated and "()" marks an edge label
        if _WHITESPACE(surface):
            raise CorpusFormatError(f"surface form contains whitespace: {surface!r}", line_no)
        if surface.endswith("()"):
            raise CorpusFormatError(f"surface form ends in '()': {surface!r}", line_no)
        if not pos:
            raise CorpusFormatError("empty POS tag", line_no)
        if raw_head == "_":
            if label != "_":
                raise CorpusFormatError(
                    "unattached token (head '_') must have label '_'", line_no
                )
            head = label = None
        else:
            try:
                head = int(raw_head)
            except ValueError:
                raise CorpusFormatError(f"non-integer head {raw_head!r}", line_no) from None
            if not label or label == "_":
                raise CorpusFormatError("empty dependency label", line_no)
            if _WHITESPACE(label):
                raise CorpusFormatError(
                    f"dependency label contains whitespace: {label!r}", line_no
                )
        if index > n:
            if index in beyond:
                raise CorpusFormatError(f"duplicate index {index}", line_no)
            beyond.add(index)
            continue
        if words[index - 1] is not None:
            raise CorpusFormatError(f"duplicate index {index}", line_no)
        # tags and labels come from small sets, so sentences share them
        words[index - 1] = surface
        tags[index - 1] = intern(pos)
        heads[index - 1] = head
        labels[index - 1] = label and intern(label)
        if head_error is None and head is not None:
            if head < 0 or head > n:
                head_error = (f"head out of range: {head}", line_no)
            elif head == index:
                head_error = (f"token {index} is its own head", line_no)

    first_line = numbered_lines[0][0]
    if beyond:
        raise CorpusFormatError(f"token indices must be 1..{n} with no gaps", first_line)
    if head_error is not None:
        raise CorpusFormatError(*head_error)
    roots = heads.count(0)
    if roots == 0:
        raise CorpusFormatError("no root edge (head 0)", first_line)
    if roots > 1:
        raise CorpusFormatError("multiple root edges", first_line)
    _check_reachability(heads, first_line)
    return Sentence(tuple(words), tuple(tags), tuple(heads), tuple(labels), sent_id)


def _check_reachability(heads: list[int | None], first_line: int) -> None:
    # Tokens without any edge (collapsed prepositions) are exempt; every attached
    # token must reach the root token through its heads.  A walk up from one marks
    # its tokens False, then True if it ends at 0 (the root's head) or a True token.
    reaches: list[bool | None] = [True] + [None] * len(heads)  # None: not walked
    for start, head in enumerate(heads, 1):
        if head is None or reaches[start] is not None:
            continue
        walk = [start]
        reaches[start] = False
        while head is not None and reaches[head] is None:
            reaches[head] = False
            walk.append(head)
            head = heads[head - 1]
        if head is not None and reaches[head]:
            for token in walk:
                reaches[token] = True
    stranded = [token for token, ok in enumerate(reaches) if ok is False]
    if stranded:
        raise CorpusFormatError(f"tokens not reachable from root: {stranded}", first_line)


def parse_annotated_corpus(
    lines: Iterable[str],
    source_name: str = "",
    on_error: Callable[[CorpusFormatError], None] | None = None,
) -> Iterator[Sentence]:
    """Lazily yield validated sentences from lines without their line ends.

    Given ``on_error``, a malformed block does not abort the stream: it is
    reported to ``on_error`` and skipped, because corpus mining has to
    survive dirty web-scale text.  Without it, the first malformed block's
    ``CorpusFormatError`` is raised.
    """
    block: list[tuple[int, str]] = []
    ordinal = 0

    def finish(block: list[tuple[int, str]]) -> Sentence | None:
        nonlocal ordinal
        ordinal += 1
        sent_id = f"{source_name}:{ordinal}" if source_name else str(ordinal)
        try:
            return parse_block(block, sent_id=sent_id)
        except CorpusFormatError as err:
            if on_error is None:
                raise
            on_error(err)
            return None

    for line_no, line in enumerate(lines, 1):
        if line.startswith("#"):
            continue
        if not line.strip():
            if block:
                sentence = finish(block)
                if sentence is not None:
                    yield sentence
                block = []
            continue
        block.append((line_no, line))
    if block:
        sentence = finish(block)
        if sentence is not None:
            yield sentence


def lowered_words(sentence: Sentence) -> tuple[str, ...]:
    """The sentence's words, lowercased."""
    return tuple([word.lower() for word in sentence.words])


def build_dep_graph(sentence: Sentence, lowers: tuple[str, ...] | None = None) -> DepGraph:
    """The sentence's heads and labels, with its words lowercased
    (``lowers``, if the caller has them)."""
    if lowers is None:
        lowers = lowered_words(sentence)
    return DepGraph(lowers, sentence.heads, sentence.labels)
