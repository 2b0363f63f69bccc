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

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from . import DataError

log = logging.getLogger(__name__)

SENTENCE_FINAL_PUNCT = {".", "!", "?"}


class CorpusFormatError(DataError):
    """A sentence block that violates the corpus format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Token:
    index: int
    surface: str
    pos: str

    @property
    def lower(self) -> str:
        return self.surface.lower()


@dataclass(frozen=True)
class DepEdge:
    label: str
    head: int
    dependent: int


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    edges: tuple[DepEdge, ...]
    sent_id: str = field(default="", compare=False)

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def root_index(self) -> int:
        for edge in self.edges:
            if edge.head == 0:
                return edge.dependent
        raise ValueError("sentence has no root edge")


@dataclass(frozen=True)
class DepGraph:
    """Undirected view of a sentence's dependencies.

    ``adjacency[i]`` lists ``(neighbor, label, head_to_dep)`` for every
    non-root edge touching token ``i``; ``head_to_dep`` is True when the
    edge points from ``i`` to the neighbor.  The root pseudo-node is not
    part of the graph.
    """

    words: tuple[str, ...]
    adjacency: tuple[tuple[tuple[int, str, bool], ...], ...]

    def __len__(self) -> int:
        return len(self.words)

    def word(self, index: int) -> str:
        return self.words[index - 1]

    def neighbors(self, index: int) -> tuple[tuple[int, str, bool], ...]:
        return self.adjacency[index - 1]

    def degree(self, index: int) -> int:
        return len(self.adjacency[index - 1])

    @property
    def edge_count(self) -> int:
        return sum(len(adj) for adj in self.adjacency) // 2


def _parse_token_line(line: str, line_no: int) -> tuple[Token, int | None, str | None]:
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
    if not pos:
        raise CorpusFormatError("empty POS tag", line_no)
    if raw_head == "_":
        if label != "_":
            raise CorpusFormatError(
                "unattached token (head '_') must have label '_'", line_no
            )
        return Token(index, surface, pos), None, None
    try:
        head = int(raw_head)
    except ValueError:
        raise CorpusFormatError(f"non-integer head {raw_head!r}", line_no) from None
    if not label or label == "_":
        raise CorpusFormatError("empty dependency label", line_no)
    return Token(index, surface, pos), head, label


def parse_block(numbered_lines: list[tuple[int, str]], sent_id: str = "") -> Sentence:
    """Parse one blank-line-delimited block into a validated Sentence.

    ``numbered_lines`` pairs each raw line with its 1-based line number
    so errors can point at the offending line.
    """
    if not numbered_lines:
        raise CorpusFormatError("empty block", 0)
    first_line = numbered_lines[0][0]
    tokens: list[Token] = []
    attachments: list[tuple[int, int | None, str | None, int]] = []
    seen: set[int] = set()
    for line_no, line in numbered_lines:
        token, head, label = _parse_token_line(line, line_no)
        if token.index in seen:
            raise CorpusFormatError(f"duplicate index {token.index}", line_no)
        seen.add(token.index)
        tokens.append(token)
        attachments.append((token.index, head, label, line_no))

    n = len(tokens)
    if seen != set(range(1, n + 1)):
        raise CorpusFormatError(
            f"token indices must be 1..{n} with no gaps", first_line
        )
    tokens.sort(key=lambda t: t.index)

    edges: list[DepEdge] = []
    root_count = 0
    for index, head, label, line_no in attachments:
        if head is None:
            continue
        if head < 0 or head > n:
            raise CorpusFormatError(f"head out of range: {head}", line_no)
        if head == index:
            raise CorpusFormatError(f"token {index} is its own head", line_no)
        if head == 0:
            root_count += 1
        edges.append(DepEdge(label=label, head=head, dependent=index))
    if root_count == 0:
        raise CorpusFormatError("no root edge (head 0)", first_line)
    if root_count > 1:
        raise CorpusFormatError("multiple root edges", first_line)

    sentence = Sentence(tuple(tokens), tuple(edges), sent_id=sent_id)
    _check_reachability(sentence, first_line)
    return sentence


def _check_reachability(sentence: Sentence, first_line: int) -> None:
    # Tokens without any edge (collapsed prepositions) are exempt; every
    # attached token must connect to the root token through non-root edges.
    attached: set[int] = set()
    adj: dict[int, list[int]] = {}
    for edge in sentence.edges:
        if edge.head == 0:
            attached.add(edge.dependent)
            continue
        attached.update((edge.head, edge.dependent))
        adj.setdefault(edge.head, []).append(edge.dependent)
        adj.setdefault(edge.dependent, []).append(edge.head)
    reachable = {sentence.root_index}
    stack = [sentence.root_index]
    while stack:
        node = stack.pop()
        for nb in adj.get(node, ()):
            if nb not in reachable:
                reachable.add(nb)
                stack.append(nb)
    stranded = attached - reachable
    if stranded:
        raise CorpusFormatError(
            f"tokens not reachable from root: {sorted(stranded)}", first_line
        )


def parse_annotated_corpus(
    lines: Iterable[str],
    source_name: str = "",
    on_error: Callable[[CorpusFormatError], None] | None = None,
) -> Iterator[Sentence]:
    """Lazily yield validated sentences from a character stream.

    Malformed blocks do not abort the stream: each one is reported to
    ``on_error`` (by default logged) and skipped, because corpus mining
    has to survive dirty web-scale text.
    """
    if on_error is None:
        on_error = lambda err: log.warning("skipping sentence: %s", err)
    block: list[tuple[int, str]] = []
    ordinal = 0

    def finish(block: list[tuple[int, str]]) -> Sentence | None:
        nonlocal ordinal
        ordinal += 1
        sent_id = f"{source_name}:{ordinal}" if source_name else str(ordinal)
        try:
            return parse_block(block, sent_id=sent_id)
        except CorpusFormatError as err:
            on_error(err)
            return None

    for line_no, raw in enumerate(lines, 1):
        line = raw.rstrip("\n")
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


def to_block(sentence: Sentence) -> str:
    """Serialize a sentence back to its 5-column block form."""
    by_dependent = {e.dependent: e for e in sentence.edges}
    lines = []
    for token in sentence.tokens:
        edge = by_dependent.get(token.index)
        head = str(edge.head) if edge else "_"
        label = edge.label if edge else "_"
        lines.append(f"{token.index}\t{token.surface}\t{token.pos}\t{head}\t{label}")
    return "\n".join(lines)


def build_dep_graph(sentence: Sentence) -> DepGraph:
    """Symmetric adjacency over the sentence's dependencies.

    The root edge is excluded: paths through the root pseudo-node are
    linguistically meaningless.
    """
    n = len(sentence.tokens)
    adjacency: list[list[tuple[int, str, bool]]] = [[] for _ in range(n)]
    for edge in sentence.edges:
        if edge.head == 0:
            continue
        adjacency[edge.head - 1].append((edge.dependent, edge.label, True))
        adjacency[edge.dependent - 1].append((edge.head, edge.label, False))
    words = tuple(t.lower for t in sentence.tokens)
    return DepGraph(words=words, adjacency=tuple(tuple(a) for a in adjacency))
