"""Discovery of "sound of Y" concept phrases via POS patterns.

Candidate mentions are occurrences of the trigger bigram "sound of" /
"sounds of".  The phrase after the trigger is generalized to its POS
signature and kept only when a prefix of it matches one of the six
valid patterns; the matched tokens (minus any determiner) become the
concept text.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable

from .corpus import SENTENCE_FINAL_PUNCT, Sentence

log = logging.getLogger(__name__)

TRIGGER_WORDS = ("sound", "sounds")
MAX_PHRASE_TOKENS = 4

NOUN = frozenset({"NN", "NNS"})
_SINGULAR = frozenset({"NN"})
_GERUND = frozenset({"VBG"})
_ADJ = frozenset({"JJ"})


@dataclass(frozen=True)
class PosPattern:
    id: str
    template: str
    allows_determiner: bool
    elements: tuple[frozenset[str], ...]


# The six signatures that express sound concepts; everything else is
# rejected.  NN(S) accepts NN or NNS, (DT) is an optional determiner.
PATTERNS: tuple[PosPattern, ...] = (
    PosPattern("P1", "<X> of (DT) VBG NN(S)", True, (_GERUND, NOUN)),
    PosPattern("P2", "<X> of VBG", False, (_GERUND,)),
    PosPattern("P3", "<X> of (DT) NN(S) VBG", True, (NOUN, _GERUND)),
    PosPattern("P4", "<X> of (DT) NN(S)", True, (NOUN,)),
    PosPattern("P5", "<X> of (DT) NN NN(S)", True, (_SINGULAR, NOUN)),
    PosPattern("P6", "<X> of (DT) JJ NN(S)", True, (_ADJ, NOUN)),
)

PATTERN_IDS = tuple(p.id for p in PATTERNS)


@dataclass(frozen=True)
class CandidateMention:
    """The phrase window that follows one occurrence of the trigger."""

    words: tuple[str, ...]
    tags: tuple[str, ...]


@dataclass(frozen=True)
class PatternMatch:
    """The concept a pattern accepted: its words and tags, determiner dropped."""

    pattern: str
    words: tuple[str, ...]
    tags: tuple[str, ...]
    consumed: int

    @property
    def text(self) -> str:
        return " ".join(word.lower() for word in self.words)


@dataclass
class ConceptEntry:
    text: str
    pattern: str
    frequency: int


def find_candidate_mentions(sentence: Sentence) -> list[CandidateMention]:
    """All trigger occurrences with their (up to 4-token) phrase windows.

    The window stops at the sentence end or at the first sentence-final
    punctuation token; an empty window yields no candidate.
    """
    words, tags = sentence.words, sentence.tags
    lowers = [word.lower() for word in words]
    found = []
    for i in range(len(lowers) - 1):
        if lowers[i] in TRIGGER_WORDS and lowers[i + 1] == "of":
            start = end = i + 2
            stop = min(len(lowers), start + MAX_PHRASE_TOKENS)
            while end < stop and lowers[end] not in SENTENCE_FINAL_PUNCT:
                end += 1
            if end > start:
                found.append(
                    CandidateMention(words=words[start:end], tags=tags[start:end])
                )
    return found


def match_valid_pattern(mention: CandidateMention) -> PatternMatch | None:
    """Longest pattern prefix match over the mention's phrase window.

    Each pattern is tried against a prefix of the window, consuming an
    optional leading determiner where permitted; the determiner never
    becomes part of the concept.  The longest consumed prefix wins and
    equal lengths go to the lowest pattern id.
    """
    tags = mention.tags
    best: PatternMatch | None = None
    for pattern in PATTERNS:
        start = 0
        if pattern.allows_determiner and tags and tags[0] == "DT":
            start = 1
        end = start + len(pattern.elements)
        if end > len(tags):
            continue
        if all(tags[start + k] in wanted for k, wanted in enumerate(pattern.elements)):
            if best is None or end > best.consumed:
                best = PatternMatch(
                    pattern.id, mention.words[start:end], tags[start:end], end
                )
    return best


def mine_sentence(sentence: Sentence) -> list[tuple[CandidateMention, PatternMatch]]:
    """Pattern-accepted mentions of one sentence."""
    accepted = []
    for mention in find_candidate_mentions(sentence):
        match = match_valid_pattern(mention)
        if match is not None:
            accepted.append((mention, match))
    return accepted


ConceptTable = dict[str, ConceptEntry]


def aggregate_concepts(
    accepted: Iterable[tuple[CandidateMention, PatternMatch]]
) -> ConceptTable:
    """Fold accepted mentions into a frequency table keyed by concept text.

    A concept seen under two different pattern ids keeps the lowest id,
    which makes the table independent of stream order; the conflict is
    logged.
    """
    table: ConceptTable = {}
    for _mention, match in accepted:
        _add(table, match.text, match.pattern, 1)
    return table


def _add(table: ConceptTable, text: str, pattern: str, count: int) -> None:
    entry = table.get(text)
    if entry is None:
        table[text] = ConceptEntry(text=text, pattern=pattern, frequency=count)
        return
    entry.frequency += count
    if entry.pattern != pattern:
        kept = min(entry.pattern, pattern)
        log.warning(
            "concept %r seen under %s and %s; keeping %s",
            text, entry.pattern, pattern, kept,
        )
        entry.pattern = kept


def merge_tables(*tables: ConceptTable) -> ConceptTable:
    """Merge shard tables; frequencies add, pattern conflicts take min id."""
    merged: ConceptTable = {}
    for table in tables:
        for entry in table.values():
            _add(merged, entry.text, entry.pattern, entry.frequency)
    return merged


def mine_corpus(sentences: Iterable[Sentence]) -> ConceptTable:
    """Concept table of every pattern-accepted mention in ``sentences``."""
    return aggregate_concepts(
        accepted for sentence in sentences for accepted in mine_sentence(sentence)
    )


def sorted_entries(table: ConceptTable) -> list[ConceptEntry]:
    """Entries by descending frequency, ties by ascending text."""
    return sorted(table.values(), key=lambda e: (-e.frequency, e.text))


def top_k_by_frequency(table: ConceptTable, k: int) -> list[ConceptEntry]:
    if k < 1:
        raise ValueError("k must be positive")
    return sorted_entries(table)[:k]


def pattern_counts(table: ConceptTable) -> dict[str, int]:
    """Number of distinct concepts per pattern id."""
    counts = {pid: 0 for pid in PATTERN_IDS}
    for entry in table.values():
        counts[entry.pattern] += 1
    return counts
