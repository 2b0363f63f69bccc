"""Pattern mining: triggers, POS signatures, the six patterns, aggregation."""

import random
from itertools import product

from soundkb.corpus import Sentence, parse_annotated_corpus
from soundkb.mining import (
    NOUN,
    CandidateMention,
    ConceptEntry,
    PosPattern,
    _signatures,
    aggregate_concepts,
    find_candidate_mentions,
    match_valid_pattern,
    merge_tables,
    mine_corpus,
    mine_sentence,
    sorted_entries,
)

from conftest import PATTERN_EXAMPLES_CORPUS, CANONICAL_CONCEPTS, match_per_pattern


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
        assert match_valid_pattern(m) == ("P1", "honking cars")

    def test_bare_adjective_rejected(self):
        assert match_valid_pattern(mention_of([("beautiful", "JJ")])) is None

    def test_determiner_consumed_not_kept(self):
        m = mention_of([("the", "DT"), ("dogs", "NNS"), ("barking", "VBG")])
        assert match_valid_pattern(m) == ("P3", "dogs barking")

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
        assert match_valid_pattern(m) == ("P3", "dogs barking")

    def test_p5_needs_singular_first_noun(self):
        m = mention_of([("drums", "NNS"), ("beat", "NN")])
        assert match_valid_pattern(m) == ("P4", "drums")

    def test_p5_string_quartet_with_determiner(self):
        m = mention_of([("a", "DT"), ("string", "NN"), ("quartet", "NN")])
        assert match_valid_pattern(m) == ("P5", "string quartet")

    def test_p6_classical_music(self):
        m = mention_of([("classical", "JJ"), ("music", "NN")])
        assert match_valid_pattern(m) == ("P6", "classical music")

    def test_p2_without_determiner_only(self):
        assert match_valid_pattern(mention_of([("yelling", "VBG")])) == ("P2", "yelling")
        assert match_valid_pattern(mention_of([("the", "DT"), ("yelling", "VBG")])) is None

    def test_concept_text_lowercased(self):
        m = mention_of([("Honking", "VBG"), ("Cars", "NNS")])
        assert match_valid_pattern(m) == ("P1", "honking cars")

    def test_agrees_with_per_pattern_matcher_on_every_window(self):
        # every window of 1-4 tags over the tags the patterns name, plus IN,
        # which none accepts; the words are mixed case and differ by position
        words = ("The", "hONKING", "Cars", "QUARTET")
        tags = ("DT", "VBG", "NN", "NNS", "JJ", "IN")
        windows = [w for n in range(1, 5) for w in product(tags, repeat=n)]
        assert len(windows) == 1554
        accepted = 0
        for window in windows:
            mention = CandidateMention(words[: len(window)], window)
            expected = match_per_pattern(mention)
            assert match_valid_pattern(mention) == expected, window
            accepted += expected is not None
        assert 0 < accepted < len(windows)

    def test_shared_signature_goes_to_the_first_pattern(self):
        # the six patterns share no signature, so two made-up ones that do
        table = _signatures((PosPattern("P1", "", False, (NOUN,)),
                             PosPattern("P2", "", True, (NOUN,))))
        assert table == {("NN",): "P1", ("NNS",): "P1",
                         ("DT", "NN"): "P2", ("DT", "NNS"): "P2"}


class TestAggregate:
    def accepted(self, *texts_patterns):
        return [(pattern, text) for text, pattern in texts_patterns]

    def test_counting(self):
        table = aggregate_concepts(
            self.accepted(*[("honking cars", "P1")] * 3)
        )
        assert table["honking cars"].frequency == 3

    def test_merge_sums(self):
        a = {"x": ConceptEntry("x", ("P4",), 2)}
        b = {"x": ConceptEntry("x", ("P4",), 5)}
        assert merge_tables(a, b)["x"].frequency == 7

    def test_cross_pattern_conflict_keeps_lowest_id(self):
        table = aggregate_concepts(
            self.accepted(("dogs barking", "P3"), ("dogs barking", "P5"))
        )
        assert table["dogs barking"].pattern == "P3"
        assert table["dogs barking"].frequency == 2

    def test_entries_hold_every_id_they_were_accepted_under(self):
        a = aggregate_concepts(
            self.accepted(("dogs barking", "P5"), ("dogs barking", "P3"), ("x", "P4"),
                          ("dogs barking", "P5")))
        assert a["dogs barking"].patterns == ("P3", "P5")
        assert a["x"].patterns == ("P4",)
        b = {"dogs barking": ConceptEntry("dogs barking", ("P1", "P5"), 1),
             "x": ConceptEntry("x", ("P4",), 1)}
        merged = merge_tables(a, b)
        assert merged["dogs barking"].patterns == ("P1", "P3", "P5")
        assert (merged["dogs barking"].pattern, merged["dogs barking"].frequency) == ("P1", 4)
        assert merged["x"].patterns == ("P4",)

    def test_order_independence(self):
        rng = random.Random(11)
        items = [("a b", "P1"), ("a b", "P3"), ("c", "P4"), ("c", "P4"), ("d e", "P5")] * 4
        base = aggregate_concepts(self.accepted(*items))
        for _ in range(20):
            shuffled = items[:]
            rng.shuffle(shuffled)
            table = aggregate_concepts(self.accepted(*shuffled))
            assert {
                t: (e.patterns, e.frequency) for t, e in table.items()
            } == {t: (e.patterns, e.frequency) for t, e in base.items()}

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
            assert {t: (e.patterns, e.frequency) for t, e in merged.items()} == {
                t: (e.patterns, e.frequency) for t, e in whole.items()
            }


class TestCorpusMining:
    def test_example_corpus_yields_exactly_the_six_concepts(self):
        sentences = parse_annotated_corpus(PATTERN_EXAMPLES_CORPUS.splitlines())
        table = mine_corpus(sentences)
        assert {t: e.pattern for t, e in table.items()} == CANONICAL_CONCEPTS
        assert all(e.frequency == 1 for e in table.values())

    def test_no_concept_starts_with_determiner(self):
        sentences = parse_annotated_corpus(PATTERN_EXAMPLES_CORPUS.splitlines())
        for sentence in sentences:
            determiners = {w.lower() for w, t in zip(sentence.words, sentence.tags) if t == "DT"}
            for _pattern, text in mine_sentence(sentence):
                assert text.split()[0] not in determiners


class TestTopK:
    def table(self, freqs: dict[str, int]):
        return {t: ConceptEntry(t, ("P4",), f) for t, f in freqs.items()}

    def test_tie_broken_by_text(self):
        top = sorted_entries(self.table({"a": 3, "b": 1, "c": 3}))[:2]
        assert [e.text for e in top] == ["a", "c"]

    def test_k_larger_than_table(self):
        top = sorted_entries(self.table({"a": 3, "b": 1}))[:10]
        assert [e.text for e in top] == ["a", "b"]

    def test_matches_full_sort_oracle(self):
        rng = random.Random(17)
        freqs = {f"w{i}": rng.randint(1, 10_000) for i in range(100)}
        while len(set(freqs.values())) != len(freqs):
            freqs = {f"w{i}": rng.randint(1, 10_000) for i in range(100)}
        oracle = sorted(freqs.items(), key=lambda kv: -kv[1])
        top = sorted_entries(self.table(freqs))[:100]
        assert [(e.text, e.frequency) for e in top] == oracle


class TestTsv:
    def test_sorted_entries_key(self):
        table = {
            "b": ConceptEntry("b", ("P4",), 2),
            "a": ConceptEntry("a", ("P4",), 2),
            "z": ConceptEntry("z", ("P4",), 9),
        }
        assert [e.text for e in sorted_entries(table)] == ["z", "a", "b"]
