"""Pattern mining: triggers, POS signatures, the six patterns, aggregation."""

import random

from soundkb.corpus import Sentence, parse_annotated_corpus
from soundkb.mining import (
    PATTERNS,
    CandidateMention,
    ConceptEntry,
    aggregate_concepts,
    find_candidate_mentions,
    match_valid_pattern,
    merge_tables,
    mine_corpus,
    mine_sentence,
    sorted_entries,
    top_k_by_frequency,
)

from conftest import PATTERN_EXAMPLES_CORPUS, CANONICAL_CONCEPTS


def sentence_from(words_tags: list[tuple[str, str]]) -> Sentence:
    words, tags = zip(*words_tags)
    rest = len(words) - 1
    return Sentence(words, tags, (0,) + (1,) * rest, ("root",) + ("dep",) * rest, sent_id="t")


def mention_of(words_tags: list[tuple[str, str]]) -> CandidateMention:
    words, tags = zip(*words_tags)
    return CandidateMention(words=words, tags=tags)


class TestCandidates:
    def test_honking_cars_window(self):
        sent = sentence_from(
            [("the", "DT"), ("sound", "NN"), ("of", "IN"), ("honking", "VBG"),
             ("cars", "NNS"), ("filled", "VBD"), ("the", "DT"), ("street", "NN")]
        )
        (mention,) = find_candidate_mentions(sent)
        assert mention.words[:2] == ("honking", "cars")
        assert mention.tags == ("VBG", "NNS", "VBD", "DT")
        assert len(mention.words) == 4

    def test_plural_trigger_and_final_punct(self):
        sent = sentence_from(
            [("sounds", "NNS"), ("of", "IN"), ("gunshots", "NNS"), (".", ".")]
        )
        (mention,) = find_candidate_mentions(sent)
        assert mention.words == ("gunshots",)

    def test_no_trigger(self):
        sent = sentence_from([("a", "DT"), ("quiet", "JJ"), ("park", "NN")])
        assert find_candidate_mentions(sent) == []

    def test_trigger_at_end_yields_nothing(self):
        sent = sentence_from([("the", "DT"), ("sound", "NN"), ("of", "IN")])
        assert find_candidate_mentions(sent) == []

    def test_window_capped_at_four(self):
        sent = sentence_from(
            [("sound", "NN"), ("of", "IN")]
            + [(f"w{i}", "NN") for i in range(6)]
        )
        (mention,) = find_candidate_mentions(sent)
        assert len(mention.words) == 4

    def test_two_triggers_two_candidates(self):
        sent = sentence_from(
            [("sound", "NN"), ("of", "IN"), ("rain", "NN"), ("and", "CC"),
             ("sounds", "NNS"), ("of", "IN"), ("thunder", "NN")]
        )
        assert len(find_candidate_mentions(sent)) == 2


class TestGeneralize:
    """The POS signature of a phrase window is its ``tags``."""

    @staticmethod
    def window(words_tags):
        sent = sentence_from([("sound", "NN"), ("of", "IN")] + words_tags + [(".", ".")])
        (mention,) = find_candidate_mentions(sent)
        return mention

    def test_vbg_nns(self):
        m = self.window([("honking", "VBG"), ("cars", "NNS")])
        assert m.tags == ("VBG", "NNS")

    def test_single(self):
        assert self.window([("gunshots", "NNS")]).tags == ("NNS",)

    def test_with_determiner(self):
        m = self.window([("the", "DT"), ("dogs", "NNS"), ("barking", "VBG")])
        assert m.tags == ("DT", "NNS", "VBG")


class TestPatternMatch:
    def test_p1_honking_cars(self):
        m = mention_of([("honking", "VBG"), ("cars", "NNS")])
        match = match_valid_pattern(m)
        assert match.pattern == "P1"
        assert match.text == "honking cars"

    def test_bare_adjective_rejected(self):
        assert match_valid_pattern(mention_of([("beautiful", "JJ")])) is None

    def test_determiner_consumed_not_kept(self):
        m = mention_of([("the", "DT"), ("dogs", "NNS"), ("barking", "VBG")])
        match = match_valid_pattern(m)
        assert match.pattern == "P3"
        assert match.text == "dogs barking"

    def test_longest_match_beats_lower_id(self):
        # hand enumeration for the signature "NNS VBG":
        #   P1 <X> of (DT) VBG NN(S) : first tag is NNS, no match
        #   P2 <X> of VBG            : no match
        #   P3 <X> of (DT) NN(S) VBG : matches both tokens
        #   P4 <X> of (DT) NN(S)     : matches first token only
        #   P5 <X> of (DT) NN NN(S)  : NNS is not NN, no match
        #   P6 <X> of (DT) JJ NN(S)  : no match
        # longest prefix -> P3
        m = mention_of([("dogs", "NNS"), ("barking", "VBG")])
        match = match_valid_pattern(m)
        assert match.pattern == "P3"
        assert match.consumed == 2

    def test_p5_needs_singular_first_noun(self):
        m = mention_of([("drums", "NNS"), ("beat", "NN")])
        match = match_valid_pattern(m)
        assert match.pattern == "P4"
        assert match.text == "drums"

    def test_p5_string_quartet_with_determiner(self):
        m = mention_of([("a", "DT"), ("string", "NN"), ("quartet", "NN")])
        match = match_valid_pattern(m)
        assert match.pattern == "P5"
        assert match.text == "string quartet"

    def test_p6_classical_music(self):
        m = mention_of([("classical", "JJ"), ("music", "NN")])
        assert match_valid_pattern(m).pattern == "P6"

    def test_p2_without_determiner_only(self):
        assert match_valid_pattern(mention_of([("yelling", "VBG")])).pattern == "P2"
        assert match_valid_pattern(mention_of([("the", "DT"), ("yelling", "VBG")])) is None

    def test_concept_text_lowercased(self):
        m = mention_of([("Honking", "VBG"), ("Cars", "NNS")])
        assert match_valid_pattern(m).text == "honking cars"

    def test_accepted_signature_rederives_to_same_pattern(self):
        # property: re-deriving the signature of the stored concept tokens and
        # rematching yields the stored pattern id
        rng = random.Random(5)
        tags = ["DT", "VBG", "NN", "NNS", "JJ", "IN", "PRP"]
        for _ in range(500):
            window = [(f"w{i}", rng.choice(tags)) for i in range(rng.randint(1, 4))]
            match = match_valid_pattern(mention_of(window))
            if match is None:
                continue
            assert match.tags[0] != "DT"
            rematch = match_valid_pattern(CandidateMention(match.words, match.tags))
            assert rematch is not None and rematch.pattern == match.pattern


class TestAggregate:
    def accepted(self, *texts_patterns):
        out = []
        for text, pattern in texts_patterns:
            words = text.split()
            tags = ["NN"] * len(words)
            m = mention_of(list(zip(words, tags)))
            from soundkb.mining import PatternMatch

            out.append(
                (m, PatternMatch(pattern, m.words, m.tags, len(words)))
            )
        return out

    def test_counting(self):
        table = aggregate_concepts(
            self.accepted(*[("honking cars", "P1")] * 3)
        )
        assert table["honking cars"].frequency == 3

    def test_merge_sums(self):
        a = {"x": ConceptEntry("x", "P4", 2)}
        b = {"x": ConceptEntry("x", "P4", 5)}
        assert merge_tables(a, b)["x"].frequency == 7

    def test_cross_pattern_conflict_keeps_lowest_id(self):
        table = aggregate_concepts(
            self.accepted(("dogs barking", "P3"), ("dogs barking", "P5"))
        )
        assert table["dogs barking"].pattern == "P3"
        assert table["dogs barking"].frequency == 2

    def test_order_independence(self):
        rng = random.Random(11)
        items = [("a b", "P1"), ("a b", "P3"), ("c", "P4"), ("c", "P4"), ("d e", "P5")] * 4
        base = aggregate_concepts(self.accepted(*items))
        for _ in range(20):
            shuffled = items[:]
            rng.shuffle(shuffled)
            table = aggregate_concepts(self.accepted(*shuffled))
            assert {
                t: (e.pattern, e.frequency) for t, e in table.items()
            } == {t: (e.pattern, e.frequency) for t, e in base.items()}

    def test_split_merge_homomorphism(self):
        rng = random.Random(13)
        items = [
            (rng.choice(["a", "b c", "d", "e f"]), rng.choice(["P1", "P3", "P4"]))
            for _ in range(200)
        ]
        whole = aggregate_concepts(self.accepted(*items))
        for cut in (1, 50, 117):
            left = aggregate_concepts(self.accepted(*items[:cut]))
            right = aggregate_concepts(self.accepted(*items[cut:]))
            merged = merge_tables(left, right)
            assert {t: (e.pattern, e.frequency) for t, e in merged.items()} == {
                t: (e.pattern, e.frequency) for t, e in whole.items()
            }


class TestCorpusMining:
    def test_example_corpus_yields_exactly_the_six_concepts(self):
        sentences = parse_annotated_corpus(PATTERN_EXAMPLES_CORPUS.splitlines())
        table = mine_corpus(sentences)
        assert {t: e.pattern for t, e in table.items()} == CANONICAL_CONCEPTS
        assert all(e.frequency == 1 for e in table.values())

    def test_no_concept_starts_with_determiner(self):
        sentences = parse_annotated_corpus(PATTERN_EXAMPLES_CORPUS.splitlines())
        for mention_match in map(mine_sentence, sentences):
            for _mention, match in mention_match:
                assert match.tags[0] != "DT"


class TestTopK:
    def table(self, freqs: dict[str, int]):
        return {t: ConceptEntry(t, "P4", f) for t, f in freqs.items()}

    def test_tie_broken_by_text(self):
        top = top_k_by_frequency(self.table({"a": 3, "b": 1, "c": 3}), 2)
        assert [e.text for e in top] == ["a", "c"]

    def test_k_larger_than_table(self):
        top = top_k_by_frequency(self.table({"a": 3, "b": 1}), 10)
        assert [e.text for e in top] == ["a", "b"]

    def test_matches_full_sort_oracle(self):
        rng = random.Random(17)
        freqs = {f"w{i}": rng.randint(1, 10_000) for i in range(100)}
        while len(set(freqs.values())) != len(freqs):
            freqs = {f"w{i}": rng.randint(1, 10_000) for i in range(100)}
        oracle = sorted(freqs.items(), key=lambda kv: -kv[1])
        top = top_k_by_frequency(self.table(freqs), 100)
        assert [(e.text, e.frequency) for e in top] == oracle


class TestTsv:
    def test_sorted_entries_key(self):
        table = {
            "b": ConceptEntry("b", "P4", 2),
            "a": ConceptEntry("a", "P4", 2),
            "z": ConceptEntry("z", "P4", 9),
        }
        assert [e.text for e in sorted_entries(table)] == ["z", "a", "b"]
