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
from typing import IO, Iterable

from .corpus import SENTENCE_FINAL_PUNCT, Sentence, Token

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
    """One occurrence of the trigger with its following phrase window."""

    sentence_ref: str
    trigger_span: tuple[int, int]
    y_tokens: tuple[Token, ...]

    @property
    def pos_signature(self) -> tuple[str, ...]:
        return tuple(t.pos for t in self.y_tokens)


@dataclass(frozen=True)
class PatternMatch:
    pattern: str
    concept_tokens: tuple[Token, ...]
    consumed: int

    @property
    def text(self) -> str:
        return " ".join(t.lower for t in self.concept_tokens)


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
    tokens = sentence.tokens
    found = []
    for i in range(len(tokens) - 1):
        if tokens[i].lower in TRIGGER_WORDS and tokens[i + 1].lower == "of":
            window: list[Token] = []
            for tok in tokens[i + 2 : i + 2 + MAX_PHRASE_TOKENS]:
                if tok.lower in SENTENCE_FINAL_PUNCT:
                    break
                window.append(tok)
            if window:
                found.append(
                    CandidateMention(
                        sentence_ref=sentence.sent_id,
                        trigger_span=(tokens[i].index, tokens[i + 1].index),
                        y_tokens=tuple(window),
                    )
                )
    return found


def generalize_pos(mention: CandidateMention) -> str:
    """Space-joined POS tags of the phrase window, e.g. "VBG NNS"."""
    return " ".join(mention.pos_signature)


def match_valid_pattern(mention: CandidateMention) -> PatternMatch | None:
    """Longest pattern prefix match over the mention's phrase window.

    Each pattern is tried against a prefix of the window, consuming an
    optional leading determiner where permitted; the determiner never
    becomes part of the concept.  The longest consumed prefix wins and
    equal lengths go to the lowest pattern id.
    """
    tokens = mention.y_tokens
    best: PatternMatch | None = None
    for pattern in PATTERNS:
        start = 0
        if pattern.allows_determiner and tokens and tokens[0].pos == "DT":
            start = 1
        end = start + len(pattern.elements)
        if end > len(tokens):
            continue
        if all(
            tokens[start + k].pos in wanted
            for k, wanted in enumerate(pattern.elements)
        ):
            if best is None or end > best.consumed:
                best = PatternMatch(pattern.id, tuple(tokens[start:end]), end)
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


def write_concepts_tsv(
    table: ConceptTable, out: IO[str], header_lines: Iterable[str] = ()
) -> None:
    """Write ``text<TAB>pattern<TAB>frequency`` rows, most frequent first."""
    for line in header_lines:
        out.write(f"# {line}\n")
    for entry in sorted_entries(table):
        out.write(f"{entry.text}\t{entry.pattern}\t{entry.frequency}\n")


def read_concept_texts(lines: Iterable[str]) -> list[str]:
    """Concept texts from either a concepts.tsv or a bare one-per-line list."""
    texts = []
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        texts.append(line.split("\t")[0].strip().lower())
    return texts
