"""Discovery of "sound of Y" concept phrases via POS patterns.

Candidate mentions are occurrences of the trigger bigram "sound of" /
"sounds of".  The phrase after the trigger is generalized to its POS
signature, its tags.  The six valid patterns are expanded once into
``SIGNATURES``, every concrete tag sequence they accept mapped to a
pattern id:

- the longest window prefix in the table wins, so a rejected signature
  is a lookup miss;
- a signature that two patterns accept belongs to the lower id;
- a leading determiner is consumed but never kept: the concept text is
  the lowercased words after it;
- ``cli.cmd_mine`` drops concepts that begin with ``#``, which every
  reader of a TSV file takes for a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, NamedTuple

from .corpus import SENTENCE_FINAL_PUNCT, Sentence

TRIGGER_WORDS = ("sound", "sounds")
MAX_PHRASE_TOKENS = 4

NOUN = frozenset({"NN", "NNS"})
_SINGULAR = frozenset({"NN"})
_GERUND = frozenset({"VBG"})
_ADJ = frozenset({"JJ"})


class PosPattern(NamedTuple):
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


def _signatures(patterns: Iterable[PosPattern]) -> dict[tuple[str, ...], str]:
    """Each tag sequence a pattern accepts, mapped to the first such pattern."""
    table: dict[tuple[str, ...], str] = {}
    for pattern in patterns:
        for tags in product(*map(sorted, pattern.elements)):
            table.setdefault(tags, pattern.id)
            if pattern.allows_determiner:
                table.setdefault(("DT",) + tags, pattern.id)
    return table


SIGNATURES = _signatures(PATTERNS)
_WIDEST = max(map(len, SIGNATURES))


class CandidateMention(NamedTuple):
    """The phrase window that follows one occurrence of the trigger."""

    words: tuple[str, ...]
    tags: tuple[str, ...]


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
                found.append(CandidateMention(words[start:end], tags[start:end]))
    return found


def match_valid_pattern(mention: CandidateMention) -> tuple[str, str] | None:
    """(pattern id, concept text) of the longest window prefix in ``SIGNATURES``.

    A leading determiner is part of the signature but not of the text.
    """
    tags = mention.tags
    for end in range(min(len(tags), _WIDEST), 0, -1):
        pattern = SIGNATURES.get(tags[:end])
        if pattern is not None:
            start = 1 if tags[0] == "DT" else 0
            return pattern, " ".join(word.lower() for word in mention.words[start:end])
    return None


def mine_sentence(sentence: Sentence) -> list[tuple[str, str]]:
    """(pattern id, concept text) of each pattern-accepted mention of one sentence."""
    matches = map(match_valid_pattern, find_candidate_mentions(sentence))
    return [match for match in matches if match is not None]


ConceptTable = dict[str, ConceptEntry]

# called with (concept text, pattern id the entry holds, pattern id just seen)
OnConflict = Callable[[str, str, str], None] | None


def aggregate_concepts(accepted: Iterable[tuple[str, str]], on_conflict: OnConflict = None
                       ) -> ConceptTable:
    """Fold (pattern id, concept text) pairs into a frequency table keyed by text.

    A concept seen under two different pattern ids keeps the lowest id,
    which makes the table independent of stream order; each conflict is
    reported to ``on_conflict``.
    """
    table: ConceptTable = {}
    for pattern, text in accepted:
        _add(table, text, pattern, 1, on_conflict)
    return table


def _add(table: ConceptTable, text: str, pattern: str, count: int,
         on_conflict: OnConflict) -> None:
    entry = table.get(text)
    if entry is None:
        table[text] = ConceptEntry(text=text, pattern=pattern, frequency=count)
        return
    entry.frequency += count
    if entry.pattern != pattern:
        if on_conflict is not None:
            on_conflict(text, entry.pattern, pattern)
        entry.pattern = min(entry.pattern, pattern)


def merge_tables(*tables: ConceptTable, on_conflict: OnConflict = None) -> ConceptTable:
    """Merge shard tables; frequencies add, pattern conflicts take min id
    and are reported to ``on_conflict``."""
    merged: ConceptTable = {}
    for table in tables:
        for entry in table.values():
            _add(merged, entry.text, entry.pattern, entry.frequency, on_conflict)
    return merged


def mine_corpus(sentences: Iterable[Sentence], on_conflict: OnConflict = None) -> ConceptTable:
    """Concept table of every pattern-accepted mention in ``sentences``;
    pattern conflicts are reported to ``on_conflict``."""
    return aggregate_concepts(
        (match for sentence in sentences for match in mine_sentence(sentence)), on_conflict
    )


def sorted_entries(table: ConceptTable) -> list[ConceptEntry]:
    """Entries by descending frequency, ties by ascending text."""
    return sorted(table.values(), key=lambda e: (-e.frequency, e.text))


def pattern_counts(table: ConceptTable) -> dict[str, int]:
    """Number of distinct concepts per pattern id."""
    counts = {pid: 0 for pid in PATTERN_IDS}
    for entry in table.values():
        counts[entry.pattern] += 1
    return counts
