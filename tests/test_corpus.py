"""Corpus reader: block parsing, validation, and dependency graphs."""

import random
import re
import sys

import pytest

from soundkb.corpus import (
    CorpusFormatError,
    Sentence,
    _check_reachability,
    build_dep_graph,
    parse_annotated_corpus,
    parse_block,
)

from conftest import (
    PARK_BLOCK,
    PARK_EDGES,
    block_to_sentence,
    check_reachability_from_root,
    to_block,
)


def numbered(text):
    return list(enumerate(text.splitlines(), 1))


def edges(sent):
    """The sentence's dependencies as (label, head, dependent) triples."""
    return {
        (label, head, dependent)
        for dependent, (head, label) in enumerate(zip(sent.heads, sent.labels), 1)
        if head is not None
    }


class TestParseBlock:
    def test_minimal_two_token_block(self):
        sent = parse_block(numbered("1\tThe\tDT\t2\tdet\n2\tpark\tNN\t0\troot"))
        assert len(sent) == 2
        assert sent.words == ("The", "park")
        assert sent.tags == ("DT", "NN")
        assert sent.heads == (2, 0)
        assert sent.labels == ("det", "root")

    def test_unattached_token_has_no_head_or_label(self):
        sent = parse_block(numbered("1\tof\tIN\t_\t_\n2\tpark\tNN\t0\troot"))
        assert sent.heads == (None, 0)
        assert sent.labels == (None, "root")

    def test_lines_in_any_order_fill_positions_by_index(self):
        sent = parse_block(numbered("2\tpark\tNN\t0\troot\n1\tThe\tDT\t2\tdet"))
        assert sent == parse_block(numbered("1\tThe\tDT\t2\tdet\n2\tpark\tNN\t0\troot"))
        assert sent.words == ("The", "park")

    def test_head_out_of_range(self):
        block = "1\ta\tDT\t2\tdet\n2\tb\tNN\t0\troot\n3\tc\tNN\t5\tdep"
        with pytest.raises(CorpusFormatError, match="head out of range") as exc:
            parse_block(numbered(block))
        assert exc.value.line == 3

    def test_park_sentence_edge_set(self):
        sent = block_to_sentence(PARK_BLOCK)
        assert len(sent) == 10
        assert edges(sent) == PARK_EDGES

    def test_non_integer_index(self):
        with pytest.raises(CorpusFormatError, match="non-integer index"):
            parse_block(numbered("x\ta\tNN\t0\troot"))

    def test_non_integer_head(self):
        with pytest.raises(CorpusFormatError, match="non-integer head"):
            parse_block(numbered("1\ta\tNN\ty\troot"))

    def test_duplicate_index(self):
        block = "1\ta\tNN\t0\troot\n1\tb\tNN\t1\tdet"
        with pytest.raises(CorpusFormatError, match="duplicate index"):
            parse_block(numbered(block))

    def test_index_gap(self):
        block = "1\ta\tNN\t0\troot\n3\tb\tNN\t1\tdet"
        with pytest.raises(CorpusFormatError, match="no gaps"):
            parse_block(numbered(block))

    def test_empty_block(self):
        with pytest.raises(CorpusFormatError, match="empty block"):
            parse_block([])

    def test_no_root(self):
        with pytest.raises(CorpusFormatError, match="no root"):
            parse_block(numbered("1\ta\tNN\t2\tdep\n2\tb\tNN\t1\tdep"))

    def test_multiple_roots(self):
        block = "1\ta\tNN\t0\troot\n2\tb\tNN\t0\troot"
        with pytest.raises(CorpusFormatError, match="multiple root"):
            parse_block(numbered(block))

    def test_self_head(self):
        with pytest.raises(CorpusFormatError, match="own head"):
            parse_block(numbered("1\ta\tNN\t0\troot\n2\tb\tNN\t2\tdep"))

    def test_unattached_must_blank_label(self):
        with pytest.raises(CorpusFormatError, match="label '_'"):
            parse_block(numbered("1\ta\tNN\t0\troot\n2\tb\tIN\t_\tdep"))

    def test_wrong_column_count(self):
        with pytest.raises(CorpusFormatError, match="5 TAB-separated columns"):
            parse_block(numbered("1\ta\tNN\t0"))

    def test_unreachable_cycle_rejected(self):
        # 2 and 3 head each other, disconnected from the root token
        block = "1\ta\tNN\t0\troot\n2\tb\tNN\t3\tdep\n3\tc\tNN\t2\tdep"
        with pytest.raises(CorpusFormatError, match="not reachable"):
            parse_block(numbered(block))


def test_reachability_walk_matches_the_search_from_the_root():
    """Random head arrays with one root, as ``parse_block`` checks them:
    unattached tokens, cycles, chains through a head-less token."""
    rng = random.Random(41)
    stranded = 0
    for _ in range(20_000):
        n = rng.randint(1, 12)
        heads = [rng.choice([None, None] + [h for h in range(1, n + 1) if h != i])
                 for i in range(1, n + 1)]
        heads[rng.randrange(n)] = 0
        outcomes = []
        for check in (_check_reachability, check_reachability_from_root):
            try:
                check(heads, 7)
                outcomes.append(None)
            except CorpusFormatError as err:
                outcomes.append((str(err), err.line))
        assert outcomes[0] == outcomes[1], heads
        stranded += outcomes[0] is not None
    assert 2_000 < stranded < 18_000  # both outcomes are well covered


# One block per CorpusFormatError site: (block, message, line).  The block
# starts at line 11, so a per-line error names its own line and a
# whole-block error names the block's first line.
ROOT = "1\ta\tNN\t0\troot"
FORMAT_ERRORS = {
    "empty-block": ("", "empty block", 0),
    "column-count": (ROOT + "\n2\tb\tNN\t1", "expected 5 TAB-separated columns, got 4", 12),
    "non-integer-index": (ROOT + "\nx\tb\tNN\t1\tdep", "non-integer index 'x'", 12),
    "index-below-one": (ROOT + "\n0\tb\tNN\t1\tdep", "token index must be >= 1, got 0", 12),
    "empty-surface": (ROOT + "\n2\t\tNN\t1\tdep", "empty surface form", 12),
    "empty-pos": (ROOT + "\n2\tb\t\t1\tdep", "empty POS tag", 12),
    "unattached-with-label": (
        ROOT + "\n2\tb\tIN\t_\tdep", "unattached token (head '_') must have label '_'", 12),
    "non-integer-head": (ROOT + "\n2\tb\tNN\ty\tdep", "non-integer head 'y'", 12),
    "empty-label": (ROOT + "\n2\tb\tNN\t1\t", "empty dependency label", 12),
    "blank-label": (ROOT + "\n2\tb\tNN\t1\t_", "empty dependency label", 12),
    "duplicate-index": (ROOT + "\n2\tb\tNN\t1\tdep\n2\tc\tNN\t1\tdep", "duplicate index 2", 13),
    "index-gap": (ROOT + "\n3\tb\tNN\t1\tdep", "token indices must be 1..2 with no gaps", 11),
    "head-out-of-range": (ROOT + "\n2\tb\tNN\t3\tdep", "head out of range: 3", 12),
    "negative-head": (ROOT + "\n2\tb\tNN\t-1\tdep", "head out of range: -1", 12),
    "own-head": (ROOT + "\n2\tb\tNN\t2\tdep", "token 2 is its own head", 12),
    "no-root": ("1\ta\tNN\t2\tdep\n2\tb\tNN\t1\tdep", "no root edge (head 0)", 11),
    "multiple-roots": (ROOT + "\n2\tb\tNN\t0\troot", "multiple root edges", 11),
    "unreachable": (
        ROOT + "\n2\tb\tNN\t3\tdep\n3\tc\tNN\t2\tdep\n4\td\tIN\t_\t_",
        "tokens not reachable from root: [2, 3]", 11),
    "head-is-unattached": (
        ROOT + "\n2\tb\tIN\t_\t_\n3\tc\tNN\t2\tdep", "tokens not reachable from root: [2, 3]", 11),
    # precedence: every line is read before the indices, the heads, the
    # root and the reachability are checked, in that order
    "line-error-before-gap": (
        ROOT + "\n5\tb\tNN\t1\tdep\n3\tc\tNN\t\tdep", "non-integer head ''", 13),
    "duplicate-before-gap": (
        ROOT + "\n5\tb\tNN\t1\tdep\n5\tc\tNN\t1\tdep", "duplicate index 5", 13),
    "gap-before-head": (ROOT + "\n2\tb\tNN\t9\tdep\n4\tc\tNN\t1\tdep",
                        "token indices must be 1..3 with no gaps", 11),
    "first-head-error-in-line-order": (
        "3\tc\tNN\t3\tdep\n" + ROOT + "\n2\tb\tNN\t7\tdep", "token 3 is its own head", 11),
    "head-before-root": ("1\ta\tNN\t2\tdep\n2\tb\tNN\t5\tdep", "head out of range: 5", 12),
    "root-before-reachability": (
        ROOT + "\n2\tb\tNN\t3\tdep\n3\tc\tNN\t2\tdep\n4\td\tNN\t0\troot",
        "multiple root edges", 11),
}


@pytest.mark.parametrize("block, message, line", FORMAT_ERRORS.values(), ids=FORMAT_ERRORS)
def test_format_error_message_and_line(block, message, line):
    lines = list(enumerate(block.splitlines(), 11))
    with pytest.raises(CorpusFormatError) as exc:
        parse_block(lines)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


# A path is whitespace-separated and "()" marks its edge labels, so a
# surface or a label that would break a path token is refused.
PATH_TOKEN_ERRORS = {
    "space-in-surface": (
        ROOT + "\n2\tnew york\tNNP\t1\tdep", "surface form contains whitespace: 'new york'"),
    "leading-space": (ROOT + "\n2\t york\tNNP\t1\tdep",
                      "surface form contains whitespace: ' york'"),
    "no-break-space": (ROOT + "\n2\tnew\xa0york\tNNP\t1\tdep",
                       "surface form contains whitespace: 'new\\xa0york'"),
    "unattached-surface": (ROOT + "\n2\tof it\tIN\t_\t_",
                           "surface form contains whitespace: 'of it'"),
    "edge-label-surface": (ROOT + "\n2\tamod()\tNN\t1\tdep",
                           "surface form ends in '()': 'amod()'"),
    "space-in-label": (ROOT + "\n2\tb\tNN\t1\tprep of",
                       "dependency label contains whitespace: 'prep of'"),
}


@pytest.mark.parametrize("block, message", PATH_TOKEN_ERRORS.values(), ids=PATH_TOKEN_ERRORS)
def test_path_token_error_message_and_line(block, message):
    lines = list(enumerate(block.splitlines(), 11))
    with pytest.raises(CorpusFormatError) as exc:
        parse_block(lines)
    assert exc.value.line == 12
    assert str(exc.value) == f"line 12: {message}"


def test_parentheses_inside_a_surface_are_kept():
    sent = parse_block(numbered(ROOT + "\n2\tf(x)\tNN\t1\tdep\n3\t()a\tNN\t1\tdep"))
    assert sent.words == ("a", "f(x)", "()a")


def test_path_token_error_skips_the_sentence():
    text = "1\ta\tNN\t0\troot\n\n1\tnew york\tNNP\t0\troot\n\n1\tc\tNN\t0\troot\n"
    errors = []
    sents = list(parse_annotated_corpus(text.splitlines(), on_error=errors.append))
    assert [s.words for s in sents] == [("a",), ("c",)]
    assert [str(err) for err in errors] == ["line 3: surface form contains whitespace: 'new york'"]


class TestParseCorpus:
    def test_corpus_order_and_ids(self):
        text = "1\ta\tNN\t0\troot\n\n1\tb\tNN\t0\troot\n"
        sents = list(parse_annotated_corpus(text.splitlines(), source_name="c.ann"))
        assert [s.sent_id for s in sents] == ["c.ann:1", "c.ann:2"]
        assert [s.words[0] for s in sents] == ["a", "b"]

    def test_malformed_block_skipped_not_fatal(self):
        text = (
            "1\ta\tNN\t0\troot\n"
            "\n"
            "1\tbad\tNN\t9\tdep\n"
            "\n"
            "1\tc\tNN\t0\troot\n"
        )
        errors = []
        sents = list(parse_annotated_corpus(text.splitlines(), on_error=errors.append))
        assert [s.words[0] for s in sents] == ["a", "c"]
        assert len(errors) == 1
        assert "head out of range" in str(errors[0])

    def test_without_on_error_the_first_malformed_block_raises(self):
        text = (
            "1\ta\tNN\t0\troot\n"
            "\n"
            "1\tbad\tNN\t9\tdep\n"
            "\n"
            "1\tworse\tNN\t7\tdep\n"
        )
        sents = parse_annotated_corpus(text.splitlines())
        assert next(sents).words == ("a",)
        with pytest.raises(CorpusFormatError, match=r"^line 3: head out of range: 9$") as info:
            next(sents)
        assert info.value.line == 3

    def test_comment_lines_ignored(self):
        text = "# header\n\n1\ta\tNN\t0\troot\n# trailing\n"
        errors = []
        sents = list(parse_annotated_corpus(text.splitlines(), on_error=errors.append))
        assert len(sents) == 1
        assert errors == []

    def test_comment_only_stream_yields_nothing(self):
        errors = []
        sents = list(
            parse_annotated_corpus(["# nothing else"], on_error=errors.append)
        )
        assert sents == [] and errors == []

    def test_lazy(self):
        gen = parse_annotated_corpus(iter(["1\ta\tNN\t0\troot"]))
        assert next(gen).words[0] == "a"


def random_sentence(rng: random.Random) -> Sentence:
    n = rng.randint(1, 10)
    words, tags, heads, labels = [], [], [], []
    vocabulary = ["park", "Sound", "of", "the", "música", "x1"]
    label_set = ["det", "nsubj", "prep_of", "amod", "dobj"]
    root = rng.randint(1, n)
    for i in range(1, n + 1):
        words.append(rng.choice(vocabulary))
        tags.append(rng.choice(["NN", "VBG", "DT"]))
        if i == root:
            heads.append(0)
            labels.append("root")
        elif rng.random() < 0.15:
            heads.append(None)  # unattached token
            labels.append(None)
        else:
            heads.append(rng.choice([j for j in range(1, n + 1) if j != i]))
            labels.append(rng.choice(label_set))
    return Sentence(tuple(words), tuple(tags), tuple(heads), tuple(labels))


class TestRoundTrip:
    def test_serialize_reparse_identity(self):
        rng = random.Random(1234)
        checked = 0
        for _ in range(300):
            sent = random_sentence(rng)
            block = to_block(sent)
            try:
                reparsed = parse_block(numbered(block))
            except CorpusFormatError:
                continue  # random attachment may strand tokens; not round-trip input
            assert reparsed == sent
            checked += 1
        assert checked > 100

    def test_park_round_trip(self):
        sent = block_to_sentence(PARK_BLOCK)
        assert parse_block(numbered(to_block(sent))) == sent

    def test_parsed_sentences_have_single_root_and_reachability(self):
        rng = random.Random(99)
        for _ in range(200):
            block = to_block(random_sentence(rng))
            try:
                sent = parse_block(numbered(block))
            except CorpusFormatError:
                continue
            roots = [dep for _label, head, dep in edges(sent) if head == 0]
            assert len(roots) == 1
            # reachability including the root edge: walk undirected
            adj = {}
            for _label, head, dep in edges(sent):
                if head == 0:
                    continue
                adj.setdefault(head, []).append(dep)
                adj.setdefault(dep, []).append(head)
            seen = set(roots)
            stack = list(roots)
            while stack:
                for nb in adj.get(stack.pop(), ()):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            attached = {dep for _label, _head, dep in edges(sent)} | {
                head for _label, head, _dep in edges(sent) if head != 0
            }
            assert attached <= seen


class TestDepGraph:
    """The parent-pointer view: each token's head and label, words lowercased."""

    def test_park_degrees(self):
        sent = block_to_sentence(PARK_BLOCK)
        graph = build_dep_graph(sent)
        # four edges of the sentence touch "filled" (incl. root)...
        incident = [e for e in edges(sent) if 4 in e[1:]]
        assert len(incident) == 4
        # ...the root edge, whose head 0 ends a walk up, and three dependents
        assert graph.heads[4 - 1] == 0
        assert [i for i, head in enumerate(graph.heads, 1) if head == 4] == [2, 3, 10]

    def test_single_token_sentence(self):
        sent = parse_block(numbered("1\tHello\tUH\t0\troot"))
        graph = build_dep_graph(sent)
        assert len(graph) == 1
        assert (graph.words, graph.heads, graph.labels) == (("hello",), (0,), ("root",))

    def test_chain_adjacency(self):
        block = "1\ta\tNN\t2\tdep\n2\tb\tNN\t3\tdep\n3\tc\tNN\t0\troot"
        graph = build_dep_graph(parse_block(numbered(block)))
        assert graph.heads == (2, 3, 0)
        assert graph.labels == ("dep", "dep", "root")

    def test_non_root_edges_preserved_with_direction(self):
        rng = random.Random(7)
        for _ in range(100):
            block = to_block(random_sentence(rng))
            try:
                sent = parse_block(numbered(block))
            except CorpusFormatError:
                continue
            graph = build_dep_graph(sent)
            # every non-root edge as (dependent, head, label)
            listed = sorted(
                (dependent, head, label)
                for dependent, (head, label) in enumerate(zip(graph.heads, graph.labels), 1)
                if head
            )
            expected = sorted(
                (dep, head, label) for label, head, dep in edges(sent) if head != 0
            )
            assert listed == expected
            assert graph.words == tuple(word.lower() for word in sent.words)

    def test_lower_words_exposed(self):
        sent = block_to_sentence(PARK_BLOCK)
        graph = build_dep_graph(sent)
        assert graph.words[0] == "the"
        assert graph.words[3] == "filled"


def test_alphanumeric_surfaces_and_identifier_labels_hold_no_whitespace():
    """``parse_block`` runs its whitespace search only on a surface that is
    not alphanumeric and a label that is not an identifier: no character
    that the search finds can be part of either."""
    spaces = re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))
    assert "\u2028" in spaces and "\xa0" in spaces
    for space in spaces:
        assert not f"a{space}1".isalnum() and not f"a{space}b".isidentifier(), hex(ord(space))
