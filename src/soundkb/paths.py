"""Scene-sound mention pairing and shortest dependency paths.

A sentence that mentions both a mined concept and an acoustic
environment yields one occurrence per mention pair: the shortest path
between the two anchors in the dependency graph, rendered as an
alternating string of edge labels (with a ``()`` suffix) and
intermediate words.  Rendered paths matched against seed path lists
become labeled relation examples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Sequence

from . import DataError
from .corpus import DepGraph, Sentence, build_dep_graph

POSITIVE = "positive"
NEGATIVE = "negative"


def _data_text(name: str) -> str:
    return resources.files("soundkb").joinpath("data").joinpath(name).read_text("utf-8")


class PhraseIndex:
    """A phrase table compiled for token-level longest-match scanning.

    Each first token maps to the widths of the phrases that start with
    it, longest first, and each word tuple maps to its phrase text, so a
    scan costs a few dictionary probes per token however large the table
    is (a first-token form of Aho-Corasick dictionary matching).  Empty
    or whitespace-only phrases are ignored; when two phrases split to
    the same words, the later one wins.
    """

    def __init__(self, phrases: Iterable[str]):
        texts: dict[tuple[str, ...], str] = {}
        size = 0
        for phrase in phrases:
            size += 1
            words = tuple(phrase.split())
            if words:
                texts[words] = phrase
        widths: dict[str, set[int]] = {}
        for words in texts:
            widths.setdefault(words[0], set()).add(len(words))
        self._texts = texts
        self._widths = {
            first: tuple(sorted(found, reverse=True)) for first, found in widths.items()
        }
        self._size = size

    def __len__(self) -> int:
        """Number of phrases the index was built from, blanks and duplicates included."""
        return self._size

    def scan(self, lowers: Sequence[str]) -> list[tuple[int, int, str]]:
        """Longest-match left-to-right scan; spans are 1-based inclusive."""
        matches = []
        n = len(lowers)
        i = 0
        while i < n:
            for width in self._widths.get(lowers[i], ()):
                if i + width <= n:
                    text = self._texts.get(tuple(lowers[i : i + width]))
                    if text is not None:
                        matches.append((i + 1, i + width, text))
                        i += width
                        break
            else:
                i += 1
        return matches


@dataclass(frozen=True)
class EnvironmentLexicon:
    """Acoustic environment names; multiword entries anchor on their last token.

    The entries are compiled into ``index`` once, when the lexicon is made.
    """

    entries: tuple[str, ...]
    index: PhraseIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise DataError("environment lexicon is empty")
        for entry in self.entries:
            if entry != entry.lower() or not entry.strip():
                raise DataError(f"lexicon entries must be lowercase: {entry!r}")
        object.__setattr__(self, "index", PhraseIndex(self.entries))

    @classmethod
    def default(cls) -> "EnvironmentLexicon":
        return cls.from_lines(_data_text("environments.txt").splitlines())

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "EnvironmentLexicon":
        entries = []
        for raw in lines:
            line = raw.strip()
            if line and not line.startswith("#"):
                entries.append(line.lower())
        return cls(tuple(entries))


@dataclass(frozen=True)
class MentionPair:
    sentence_ref: str
    concept_text: str
    concept_span: tuple[int, int]
    concept_anchor: int
    scene: str
    env_span: tuple[int, int]
    env_anchor: int

    def in_mention(self, index: int) -> bool:
        return (self.concept_span[0] <= index <= self.concept_span[1]) or (
            self.env_span[0] <= index <= self.env_span[1]
        )


@dataclass(frozen=True)
class DepPath:
    """Shortest path between two anchors, root pseudo-node excluded."""

    nodes: tuple[int, ...]
    labels: tuple[str, ...]
    directions: tuple[bool, ...]
    words: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.labels)

    def items(self) -> tuple[str, ...]:
        """Alternating edge/word items, starting and ending with an edge label."""
        out = []
        for step, label in enumerate(self.labels):
            out.append(label + "()")
            if step + 1 < len(self.labels):
                out.append(self.words[step + 1])
        return tuple(out)


def find_mention_pairs(
    sentence: Sentence,
    concepts: PhraseIndex,
    lexicon: EnvironmentLexicon,
) -> list[MentionPair]:
    """All (concept, environment) mention pairs with non-overlapping spans.

    Concepts and environments are scanned independently, so a concept
    that overlaps an environment is still found; the overlapping pair is
    then dropped.  The concept anchor is the rightmost noun-tagged token
    of its span (rightmost token if none is a noun); the environment
    anchor is the last token of its span.
    """
    lowers = [t.lower for t in sentence.tokens]
    concept_spans = concepts.scan(lowers)
    if not concept_spans:
        return []
    env_spans = lexicon.index.scan(lowers)
    pairs = []
    for c_start, c_end, c_text in concept_spans:
        anchor = c_end
        for idx in range(c_end, c_start - 1, -1):
            if sentence.tokens[idx - 1].pos.startswith("NN"):
                anchor = idx
                break
        for e_start, e_end, scene in env_spans:
            if c_start <= e_end and e_start <= c_end:
                continue
            pairs.append(
                MentionPair(
                    sentence_ref=sentence.sent_id,
                    concept_text=c_text,
                    concept_span=(c_start, c_end),
                    concept_anchor=anchor,
                    scene=scene,
                    env_span=(e_start, e_end),
                    env_anchor=e_end,
                )
            )
    return pairs


def shortest_dep_path(graph: DepGraph, source: int, target: int) -> DepPath | None:
    """Breadth-first shortest path on the undirected dependency view.

    Returns None when the anchors are disconnected.  Among equal-length
    paths the one whose plain rendered string (no suppression) sorts
    lowest wins, which keeps extraction deterministic.
    """
    n = len(graph)
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"anchor out of range: {source}, {target}")
    if source == target:
        return DepPath((source,), (), (), (graph.word(source),))

    dist = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor, _label, _direction in graph.neighbors(node):
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
        for neighbor, _label, _direction in graph.neighbors(node):
            if dist.get(neighbor) == dist[node] - 1:
                stack.append((neighbor, (neighbor,) + tail))

    best: tuple[str, tuple[int, ...], DepPath] | None = None
    for nodes in sequences:
        labels = []
        directions = []
        for a, b in zip(nodes, nodes[1:]):
            label, direction = min(
                (lab, dirflag)
                for neighbor, lab, dirflag in graph.neighbors(a)
                if neighbor == b
            )
            labels.append(label)
            directions.append(direction)
        path = DepPath(
            nodes=nodes,
            labels=tuple(labels),
            directions=tuple(directions),
            words=tuple(graph.word(i) for i in nodes),
        )
        key = (" ".join(path.items()), nodes)
        if best is None or key < best[:2]:
            best = (key[0], nodes, path)
    return best[2] if best else None


def render_path(path: DepPath, pair: MentionPair) -> str:
    """Canonical path string walked from the environment to the concept.

    Each step emits the edge label plus ``()`` and then the reached word,
    except that the anchors themselves are never emitted and a word
    inside either mention span is suppressed together with the edge
    label that follows it.
    """
    if path.nodes[0] != pair.env_anchor or path.nodes[-1] != pair.concept_anchor:
        raise ValueError("path endpoints do not match the mention pair anchors")
    items = []
    suppress_next_edge = False
    last = len(path.labels)
    for step in range(1, last + 1):
        if suppress_next_edge:
            suppress_next_edge = False
        else:
            items.append(path.labels[step - 1] + "()")
        if step < last:
            node = path.nodes[step]
            if pair.in_mention(node):
                suppress_next_edge = True
            else:
                items.append(path.words[step])
    return " ".join(items)


@dataclass(frozen=True)
class PathOccurrence:
    scene: str
    concept: str
    path: str
    sentence_ref: str


def occurrences_for_sentence(
    sentence: Sentence,
    concepts: PhraseIndex,
    lexicon: EnvironmentLexicon,
    graph: DepGraph | None = None,
) -> list[PathOccurrence]:
    """Rendered-path occurrences for every connected mention pair."""
    pairs = find_mention_pairs(sentence, concepts, lexicon)
    if not pairs:
        return []
    if graph is None:
        graph = build_dep_graph(sentence)
    occurrences = []
    for pair in pairs:
        path = shortest_dep_path(graph, pair.env_anchor, pair.concept_anchor)
        if path is None:
            continue
        occurrences.append(
            PathOccurrence(
                scene=pair.scene,
                concept=pair.concept_text,
                path=render_path(path, pair),
                sentence_ref=pair.sentence_ref,
            )
        )
    return occurrences


def rank_paths_by_frequency(
    occurrences: Iterable[PathOccurrence],
) -> list[tuple[str, int]]:
    """Paths by how many distinct scene-sound pairs they occur with.

    The same pair seen twice under one path counts once.  Ties are
    broken by ascending path string.
    """
    pairs_per_path: dict[str, set[tuple[str, str]]] = {}
    for occ in occurrences:
        pairs_per_path.setdefault(occ.path, set()).add((occ.scene, occ.concept))
    return sorted(
        ((path, len(pairs)) for path, pairs in pairs_per_path.items()),
        key=lambda item: (-item[1], item[0]),
    )


@dataclass(frozen=True)
class RelationExample:
    path: str
    scene: str
    concept: str
    label: str

    def __post_init__(self):
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"label must be positive or negative: {self.label!r}")


def generate_training_examples(
    occurrences: Iterable[PathOccurrence],
    seed_positive: Iterable[str],
    seed_negative: Iterable[str],
) -> list[RelationExample]:
    """Label occurrences whose path is in a seed list; drop the rest."""
    positive = set(seed_positive)
    negative = set(seed_negative)
    overlap = positive & negative
    if overlap:
        raise DataError(f"overlapping seed sets: {sorted(overlap)}")
    examples = []
    for occ in occurrences:
        if occ.path in positive:
            label = POSITIVE
        elif occ.path in negative:
            label = NEGATIVE
        else:
            continue
        examples.append(
            RelationExample(
                path=occ.path, scene=occ.scene, concept=occ.concept, label=label
            )
        )
    return examples


def load_seed_paths(lines: Iterable[str]) -> list[str]:
    """One rendered path per line; blanks and comments ignored."""
    paths = []
    for raw in lines:
        line = raw.strip()
        if line and not line.startswith("#"):
            if line not in paths:
                paths.append(line)
    return paths


def default_seed_paths() -> tuple[list[str], list[str]]:
    """The positive and negative seed path lists shipped with the package."""
    return (
        load_seed_paths(_data_text("paths.pos").splitlines()),
        load_seed_paths(_data_text("paths.neg").splitlines()),
    )
