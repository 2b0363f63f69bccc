"""Scene-sound mention pairing and shortest dependency paths.

A sentence that mentions both a mined concept and an acoustic
environment yields one occurrence per mention pair: the shortest path
between the two anchors in the sentence's dependency forest, rendered
as an alternating string of edge labels (with a ``()`` suffix) and
intermediate words.  Each token has at most one head, so that path runs
through the anchors' lowest common ancestor and a parsed sentence has
exactly one; no tie-break between paths is needed.  Rendered paths
matched against seed path lists become labeled relation examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, NamedTuple, Sequence

from . import DataError, content_lines
from .corpus import DepGraph, Sentence, build_dep_graph, lowered_words

# the relation labels: the columns of the relation model's output
POSITIVE = 0
NEGATIVE = 1


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
        seen = set()
        for entry in self.entries:
            if entry != entry.lower() or not entry.strip():
                raise DataError(f"lexicon entries must be lowercase: {entry!r}")
            if entry.startswith("#"):
                # a report row for it would read back as a comment
                raise DataError(f"lexicon entries must not begin with '#': {entry!r}")
            if "\t" in entry:  # it would add a column to every TSV row that names it
                raise DataError(f"lexicon entries must not hold a TAB: {entry!r}")
            words = tuple(entry.split())
            if words in seen:
                raise DataError(f"duplicate lexicon entry: {entry!r}")
            seen.add(words)
        object.__setattr__(self, "index", PhraseIndex(self.entries))

    @classmethod
    def default(cls) -> "EnvironmentLexicon":
        return cls.from_lines(_data_text("environments.txt").splitlines())

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "EnvironmentLexicon":
        return cls(tuple(line.strip().lower() for _, line in content_lines(lines)))


class MentionPair(NamedTuple):
    """A concept mention and an environment mention in one sentence.

    This and the other per-row records are NamedTuples, which cost a
    fraction of a frozen dataclass to build.
    """

    concept_text: str
    concept_span: tuple[int, int]
    concept_anchor: int
    scene: str
    env_span: tuple[int, int]

    @property
    def env_anchor(self) -> int:
        """An environment anchors on the last token of its span."""
        return self.env_span[1]

    def in_mention(self, index: int) -> bool:
        return (self.concept_span[0] <= index <= self.concept_span[1]) or (
            self.env_span[0] <= index <= self.env_span[1]
        )


class DepPath(NamedTuple):
    """Shortest path between two anchors, root pseudo-node excluded."""

    nodes: tuple[int, ...]
    labels: tuple[str, ...]
    words: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.labels)


def find_mention_pairs(
    sentence: Sentence,
    concepts: PhraseIndex,
    lexicon: EnvironmentLexicon,
    lowers: Sequence[str] | None = None,
) -> list[MentionPair]:
    """All (concept, environment) mention pairs with non-overlapping spans.

    Concepts and environments are scanned independently, so a concept
    that overlaps an environment is still found; the overlapping pair is
    then dropped.  The concept anchor is the rightmost noun-tagged token
    of its span (rightmost token if none is a noun); the environment
    anchor is the last token of its span.  ``lowers`` are the sentence's
    words lowercased, if the caller has them.
    """
    if lowers is None:
        lowers = lowered_words(sentence)
    concept_spans = concepts.scan(lowers)
    if not concept_spans:
        return []
    env_spans = lexicon.index.scan(lowers)
    pairs = []
    for c_start, c_end, c_text in concept_spans:
        anchor = c_end
        for idx in range(c_end, c_start - 1, -1):
            if sentence.tags[idx - 1].startswith("NN"):
                anchor = idx
                break
        for e_start, e_end, scene in env_spans:
            if c_start <= e_end and e_start <= c_end:
                continue
            pairs.append(MentionPair(c_text, (c_start, c_end), anchor, scene, (e_start, e_end)))
    return pairs


def _up_from(heads: tuple[int | None, ...], node: int) -> list[int]:
    """``node`` and its ancestors, nearest first, up to the top of its tree:
    the root token, or a token with no head."""
    chain = [node]
    while head := heads[node - 1]:
        if len(chain) == len(heads):
            raise ValueError(f"head cycle above token {chain[0]}")
        chain.append(head)
        node = head
    return chain


def shortest_dep_path(graph: DepGraph, source: int, target: int) -> DepPath | None:
    """The path between two anchors through their lowest common ancestor.

    A parsed sentence's dependencies form a forest (each token has at
    most one head), so the path that climbs from each anchor to the
    first ancestor they share is the one shortest path between them.
    The root edge is not part of the forest.  Returns None when the
    anchors lie in different trees, as an unattached anchor always does.
    Raises ``ValueError`` for an anchor out of range, and for a head
    cycle above either anchor, which a parsed sentence never has.
    """
    n = len(graph)
    if not (1 <= source <= n and 1 <= target <= n):
        raise ValueError(f"anchor out of range: {source}, {target}")
    up = _up_from(graph.heads, source)
    down = _up_from(graph.heads, target)
    for below, top in enumerate(down):
        if top in up:  # chains are a few tokens long: a list beats a set
            break
    else:
        return None
    rising = up[: up.index(top)]  # from the source up to the ancestor
    falling = down[:below][::-1]  # from below the ancestor down to the target
    nodes = (*rising, top, *falling)
    labels, words = graph.labels, graph.words
    return DepPath(
        nodes,
        # an edge carries the label of its dependent, the end away from the ancestor
        tuple([labels[i - 1] for i in rising + falling]),
        tuple([words[i - 1] for i in nodes]),
    )


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


class PathOccurrence(NamedTuple):
    scene: str
    concept: str
    path: str
    sentence_ref: str


def occurrences_for_sentence(
    sentence: Sentence,
    concepts: PhraseIndex,
    lexicon: EnvironmentLexicon,
    on_unconnected: Callable[[MentionPair], None] | None = None,
) -> list[PathOccurrence]:
    """Rendered-path occurrences for every connected mention pair.

    A pair whose anchors no path connects is dropped and, if given,
    passed to ``on_unconnected``.
    """
    lowers = lowered_words(sentence)  # once, for the scan and for the path words
    pairs = find_mention_pairs(sentence, concepts, lexicon, lowers)
    if not pairs:
        return []
    graph = build_dep_graph(sentence, lowers)
    occurrences = []
    for pair in pairs:
        path = shortest_dep_path(graph, pair.env_anchor, pair.concept_anchor)
        if path is None:
            if on_unconnected is not None:
                on_unconnected(pair)
            continue
        occurrences.append(PathOccurrence(
            pair.scene, pair.concept_text, render_path(path, pair), sentence.sent_id))
    return occurrences


# each rendered path -> the distinct (scene, concept) pairs seen along it
PathPairs = dict[str, set[tuple[str, str]]]


def add_path_pairs(pairs_per_path: PathPairs, occurrences: Iterable[PathOccurrence]) -> None:
    """Add the (scene, concept) pair of each occurrence to the set of its path."""
    for occ in occurrences:
        pairs_per_path.setdefault(occ.path, set()).add((occ.scene, occ.concept))


def rank_paths_by_frequency(pairs_per_path: PathPairs) -> list[tuple[str, int]]:
    """Paths by how many distinct scene-sound pairs they occur with.

    The same pair seen twice under one path counts once.  Ties are
    broken by ascending path string.
    """
    return sorted(
        ((path, len(pairs)) for path, pairs in pairs_per_path.items()),
        key=lambda item: (-item[1], item[0]),
    )


class RelationExample(NamedTuple):
    """A path with the label of the seed list that holds it, ``POSITIVE`` or
    ``NEGATIVE``: distant supervision (Mintz et al., ACL 2009), where the
    label comes from the path alone."""

    path: str
    label: int


def generate_training_examples(
    occurrence_paths: Iterable[str],
    seed_positive: Iterable[str],
    seed_negative: Iterable[str],
) -> list[RelationExample]:
    """Label the path of each occurrence that is in a seed list; drop the
    rest.  Every occurrence of a path shares its one example."""
    positive = set(seed_positive)
    negative = set(seed_negative)
    overlap = positive & negative
    if overlap:
        raise DataError(f"overlapping seed sets: {sorted(overlap)}")
    labeled = {path: RelationExample(path, POSITIVE) for path in positive}
    labeled.update((path, RelationExample(path, NEGATIVE)) for path in negative)
    return [example for example in map(labeled.get, occurrence_paths) if example is not None]


def load_seed_paths(lines: Iterable[str]) -> list[str]:
    """One rendered path per line, each kept once in first-seen order;
    blank and ``#`` lines (``content_lines``) ignored."""
    return list(dict.fromkeys(line.strip() for _, line in content_lines(lines)))

