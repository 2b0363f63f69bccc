"""Mention pairing, shortest dependency paths, rendering, and seed labeling."""

import random

import pytest

from soundkb import DataError
from soundkb.corpus import Sentence, build_dep_graph
from soundkb.paths import (
    NEGATIVE,
    POSITIVE,
    EnvironmentLexicon,
    MentionPair,
    PathOccurrence,
    PhraseIndex,
    find_mention_pairs,
    generate_training_examples,
    load_seed_paths,
    occurrences_for_sentence,
    rank_paths_by_frequency,
    render_path,
    shortest_dep_path,
)

from conftest import (
    AdjacencyGraph,
    bfs_shortest_path,
    block_to_sentence,
    default_seed_paths,
    plain_string,
)

PARK_GOLDEN = "nsubjpass() filled prepc_with() sound prep_of()"


def trivial_pair(env_anchor: int, concept_anchor: int) -> MentionPair:
    return MentionPair(
        concept_text="c",
        concept_span=(concept_anchor, concept_anchor),
        concept_anchor=concept_anchor,
        scene="s",
        env_span=(env_anchor, env_anchor),
    )


def random_graph(rng: random.Random, max_nodes: int = 12) -> AdjacencyGraph:
    """Random connected labeled graph: a spanning tree, extra edges, and
    the occasional parallel edge pair as produced by mutual heads."""
    n = rng.randint(2, max_nodes)
    labels = ["amod", "nsubj", "prep_of", "det", "dobj", "nn", "conj_and"]
    edges = set()
    for v in range(2, n + 1):
        edges.add((rng.randint(1, v - 1), v))
    for _ in range(rng.randint(0, n)):
        a, b = rng.randint(1, n), rng.randint(1, n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    multi = []
    for a, b in sorted(edges):
        multi.append((a, b, rng.choice(labels)))
        if rng.random() < 0.1:
            multi.append((a, b, rng.choice(labels)))
    adjacency = [[] for _ in range(n)]
    for a, b, label in multi:
        adjacency[a - 1].append((b, label))
        adjacency[b - 1].append((a, label))
    words = tuple(f"w{i}" for i in range(1, n + 1))
    return AdjacencyGraph(words=words, adjacency=tuple(tuple(x) for x in adjacency))


def random_parsed_sentence(rng: random.Random, max_tokens: int = 12) -> Sentence:
    """A random sentence that passes ``parse_block``: a dependency tree
    under the root token, plus unattached tokens, which head nothing.
    One sentence in ``max_tokens`` has a single token."""
    n = rng.randint(1, max_tokens)
    labels = ["amod", "nsubj", "prep_of", "det", "dobj", "nn", "conj_and"]
    order = rng.sample(range(1, n + 1), n)
    rows = {order[0]: ("0", "root")}
    attached = [order[0]]
    for token in order[1:]:
        if rng.random() < 0.2:
            rows[token] = ("_", "_")
        else:
            rows[token] = (str(rng.choice(attached)), rng.choice(labels))
            attached.append(token)
    block = "\n".join(
        f"{i}\t{rng.choice(['Park', 'sound', 'of', 'DOGS', 'x'])}\tNN\t{head}\t{label}"
        for i, (head, label) in sorted(rows.items())
    )
    return block_to_sentence(block)


def scan_phrases_oracle(lowers, phrases):
    """The per-call scan ``PhraseIndex`` replaced, kept as its reference:
    longest match left to right over a map rebuilt from every phrase."""
    phrase_map = {}
    max_len = 0
    for phrase in phrases:
        words = tuple(phrase.split())
        if words:
            phrase_map[words] = phrase
            max_len = max(max_len, len(words))
    matches = []
    n = len(lowers)
    i = 0
    while i < n:
        hit = None
        for width in range(min(max_len, n - i), 0, -1):
            candidate = tuple(lowers[i : i + width])
            if candidate in phrase_map:
                hit = (i + 1, i + width, phrase_map[candidate])
                break
        if hit:
            matches.append(hit)
            i = hit[1]
        else:
            i += 1
    return matches


def random_phrase_table(rng: random.Random, vocab: list[str]) -> list[str]:
    """Multiword phrases over a small vocabulary, so first tokens are shared,
    with over-long phrases, blank entries and spacing variants of one phrase."""
    table = []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.1:
            table.append(rng.choice(["", " ", "\t", "  \t "]))
        elif roll < 0.25 and table:
            # same words as an earlier phrase, spaced differently
            words = rng.choice(table).split() or ["x"]
            table.append(rng.choice(["  ", " ", "\t"]).join(words) + rng.choice(["", " "]))
        else:
            width = rng.choice([1, 1, 2, 2, 3, 4, 9])
            table.append(" ".join(rng.choice(vocab) for _ in range(width)))
    return table


def floyd_warshall(graph: AdjacencyGraph) -> list[list[float]]:
    n = len(graph)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for i in range(1, n + 1):
        for neighbor, _ in graph.neighbors(i):
            dist[i - 1][neighbor - 1] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return dist


class TestLexicon:
    def test_default_has_36_environments(self):
        lex = EnvironmentLexicon.default()
        assert len(lex.entries) == 36
        assert "park" in lex.entries
        assert "grocery store" in lex.entries
        assert "train station" in lex.entries

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EnvironmentLexicon(())

    def test_rejects_uppercase(self):
        with pytest.raises(ValueError):
            EnvironmentLexicon(("Park",))

    def test_rejects_entry_starting_with_hash(self):
        with pytest.raises(DataError, match="must not begin with '#': '# scenes'"):
            EnvironmentLexicon.from_lines(["park", "  # scenes"])
        with pytest.raises(DataError, match="must not begin with '#'"):
            EnvironmentLexicon(("park", "#park"))

    def test_rejects_entry_holding_a_tab(self):
        with pytest.raises(DataError, match="must not hold a TAB: 'the\\\\tpark'"):
            EnvironmentLexicon.from_lines(["park", "the\tpark"])

    @pytest.mark.parametrize("lines, repeated", [
        (["park", "beach", "park"], "park"),
        (["grocery store", "park", "Grocery  Store "], "grocery  store"),
    ], ids=["exact", "inner-spacing"])
    def test_rejects_repeated_entry(self, lines, repeated):
        with pytest.raises(ValueError, match=f"duplicate lexicon entry: '{repeated}'"):
            EnvironmentLexicon.from_lines(lines)


class TestPhraseIndex:
    def test_matches_oracle_on_random_tables(self):
        rng = random.Random(4049)
        vocab = ["a", "b", "c", "d", "park", "store"]
        for _ in range(400):
            table = random_phrase_table(rng, vocab)
            index = PhraseIndex(table)
            assert len(index) == len(table)
            for _ in range(5):
                lowers = [rng.choice(vocab + ["z"]) for _ in range(rng.randint(0, 12))]
                assert index.scan(lowers) == scan_phrases_oracle(lowers, table)

    def test_longest_match_left_to_right(self):
        index = PhraseIndex(["a", "a b", "a b c", "b c d"])
        assert index.scan(["a", "b", "c", "d", "a", "b"]) == [
            (1, 3, "a b c"),
            (5, 6, "a b"),
        ]

    def test_later_duplicate_wins_and_blanks_ignored(self):
        index = PhraseIndex(["dogs barking", "", "  ", "dogs  barking "])
        assert len(index) == 4
        assert index.scan(["dogs", "barking"]) == [(1, 2, "dogs  barking ")]

    def test_lexicon_compiles_its_entries(self):
        lex = EnvironmentLexicon(("park", "grocery store"))
        assert lex.index.scan(["the", "grocery", "store", "park"]) == [
            (2, 3, "grocery store"),
            (4, 4, "park"),
        ]
        assert lex == EnvironmentLexicon(("park", "grocery store"))


class TestMentionPairs:
    def test_park_sentence_single_pair(self, park_sentence):
        lex = EnvironmentLexicon.default()
        pairs = find_mention_pairs(
            park_sentence, PhraseIndex(["children playing"]), lex
        )
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.scene == "park"
        assert pair.env_span == (2, 2) and pair.env_anchor == 2
        assert pair.concept_span == (9, 10)
        # anchor is the rightmost noun of the span: children (NNS), not playing (VBG)
        assert pair.concept_anchor == 9

    def test_multiword_environment_anchor_is_last_token(self):
        block = (
            "1\tthe\tDT\t3\tdet\n"
            "2\tgrocery\tNN\t3\tnn\n"
            "3\tstore\tNN\t4\tnsubj\n"
            "4\thad\tVBD\t0\troot\n"
            "5\tmusic\tNN\t4\tdobj"
        )
        sent = block_to_sentence(block)
        pairs = find_mention_pairs(
            sent, PhraseIndex(["music"]), EnvironmentLexicon.default()
        )
        assert len(pairs) == 1
        assert pairs[0].env_span == (2, 3)
        assert pairs[0].env_anchor == 3
        assert pairs[0].scene == "grocery store"

    def test_two_concepts_cross_product(self):
        block = (
            "1\tpark\tNN\t2\tnsubj\n"
            "2\thad\tVBD\t0\troot\n"
            "3\tmusic\tNN\t2\tdobj\n"
            "4\tand\tCC\t3\tcc\n"
            "5\tlaughter\tNN\t3\tconj_and"
        )
        sent = block_to_sentence(block)
        pairs = find_mention_pairs(
            sent, PhraseIndex(["music", "laughter"]), EnvironmentLexicon.default()
        )
        assert len(pairs) == 2
        assert {p.concept_text for p in pairs} == {"music", "laughter"}

    def test_overlapping_spans_excluded(self):
        # "park" is both inside the concept text and the environment list
        block = (
            "1\tpark\tNN\t3\tnn\n"
            "2\tmusic\tNN\t3\tnn\n"
            "3\tplays\tVBZ\t0\troot"
        )
        sent = block_to_sentence(block)
        pairs = find_mention_pairs(
            sent, PhraseIndex(["park music"]), EnvironmentLexicon.default()
        )
        assert pairs == []

    def test_concept_overlapping_environment_is_still_found(self):
        # "grocery store" (1-2) and "store music" (2-3) overlap; two separate
        # scans find both, the overlapping pair is dropped and the concept
        # still pairs with the other environment
        block = (
            "1\tgrocery\tNN\t2\tnn\n"
            "2\tstore\tNN\t3\tnn\n"
            "3\tmusic\tNN\t4\tnsubj\n"
            "4\tfilled\tVBD\t0\troot\n"
            "5\tbeach\tNN\t4\tdobj"
        )
        sent = block_to_sentence(block)
        pairs = find_mention_pairs(
            sent, PhraseIndex(["store music"]), EnvironmentLexicon.default()
        )
        assert [(p.concept_text, p.concept_span, p.scene, p.env_span) for p in pairs] == [
            ("store music", (2, 3), "beach", (5, 5))
        ]

    def test_concept_anchor_falls_back_to_last_token(self):
        block = (
            "1\tpark\tNN\t3\tnsubj\n"
            "2\tloud\tJJ\t3\tadvmod\n"
            "3\tyelling\tVBG\t0\troot"
        )
        sent = block_to_sentence(block)
        pairs = find_mention_pairs(
            sent, PhraseIndex(["loud yelling"]), EnvironmentLexicon.default()
        )
        assert pairs[0].concept_anchor == 3

    def test_no_match_yields_empty(self, park_sentence):
        pairs = find_mention_pairs(
            park_sentence, PhraseIndex(["gunshots"]), EnvironmentLexicon(("library",))
        )
        assert pairs == []


class TestShortestPath:
    def test_chain(self):
        block = "1\ta\tNN\t2\tamod\n2\tb\tNN\t3\tamod\n3\tc\tNN\t0\troot"
        graph = build_dep_graph(block_to_sentence(block))
        path = shortest_dep_path(graph, 1, 3)
        assert path.nodes == (1, 2, 3)
        assert path.length == 2

    def test_park_to_children_hand_bfs(self, park_sentence):
        # hand BFS over the eight listed edges: park-2 reaches children-9
        # only through filled-4, playing-10, sound-7: four edges
        graph = build_dep_graph(park_sentence)
        path = shortest_dep_path(graph, 2, 9)
        assert path.nodes == (2, 4, 10, 7, 9)
        assert path.length == 4
        assert path.labels == ("nsubjpass", "prepc_with", "nsubj", "prep_of")

    def test_disconnected_returns_none(self):
        # token 3 is unattached
        block = "1\ta\tNN\t2\tamod\n2\tb\tNN\t0\troot\n3\tc\tNN\t_\t_"
        graph = build_dep_graph(block_to_sentence(block))
        assert shortest_dep_path(graph, 1, 3) is None

    def test_matches_floyd_warshall_oracle(self):
        # the breadth-first oracle, on general graphs with cycles and
        # parallel edges, which no parsed sentence has
        rng = random.Random(2024)
        for _ in range(60):
            graph = random_graph(rng)
            oracle = floyd_warshall(graph)
            n = len(graph)
            for src in range(1, n + 1):
                for dst in range(1, n + 1):
                    path = bfs_shortest_path(graph, src, dst)
                    expected = oracle[src - 1][dst - 1]
                    if expected == float("inf"):
                        assert path is None
                    else:
                        assert path.length == expected

    def test_deterministic_tie_break(self):
        rng = random.Random(55)
        for _ in range(40):
            graph = random_graph(rng)
            n = len(graph)
            src, dst = rng.randint(1, n), rng.randint(1, n)
            first = bfs_shortest_path(graph, src, dst)
            second = bfs_shortest_path(graph, src, dst)
            if first is None:
                assert second is None
            else:
                assert first == second
                rendered = render_path(first, trivial_pair(src, dst)) if src != dst else ""
                again = render_path(second, trivial_pair(src, dst)) if src != dst else ""
                assert rendered == again

    def test_anchor_out_of_range(self):
        block = "1\ta\tNN\t0\troot"
        graph = build_dep_graph(block_to_sentence(block))
        with pytest.raises(ValueError, match="anchor"):
            shortest_dep_path(graph, 1, 2)

    def test_head_cycle_raises(self):
        # parse_block rejects this sentence; one built by hand must not loop
        sentence = Sentence(words=("a", "b", "c", "d"), tags=("NN",) * 4,
                            heads=(0, 3, 4, 2), labels=("root", "amod", "amod", "amod"))
        graph = build_dep_graph(sentence)
        for src, dst in ((2, 1), (1, 3), (2, 4)):
            with pytest.raises(ValueError, match="head cycle"):
                shortest_dep_path(graph, src, dst)

    def test_tie_break_minimizes_rendered_string(self):
        # brute-force oracle: enumerate every simple path of minimal length
        # with every parallel-edge label choice and take the smallest string
        def oracle_min_string(graph, src, dst):
            n = len(graph)
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for node in frontier:
                    for nb, _ in graph.neighbors(node):
                        if nb not in dist:
                            dist[nb] = dist[node] + 1
                            nxt.append(nb)
                frontier = nxt
            if dst not in dist:
                return None
            target_len = dist[dst]
            strings = []

            def walk(node, visited, labels):
                if len(labels) > target_len:
                    return
                if node == dst and len(labels) == target_len:
                    items = []
                    inner = visited[1:-1]
                    for k, label in enumerate(labels):
                        items.append(label + "()")
                        if k < len(inner):
                            items.append(graph.word(inner[k]))
                    strings.append(" ".join(items))
                    return
                for nb, label in graph.neighbors(node):
                    if nb not in visited:
                        walk(nb, visited + [nb], labels + [label])

            walk(src, [src], [])
            return min(strings)

        rng = random.Random(97)
        checked = 0
        for _ in range(60):
            graph = random_graph(rng, max_nodes=8)
            n = len(graph)
            src, dst = rng.sample(range(1, n + 1), 2)
            expected = oracle_min_string(graph, src, dst)
            path = bfs_shortest_path(graph, src, dst)
            if expected is None:
                assert path is None
                continue
            assert plain_string(path) == expected
            checked += 1
        assert checked > 30


class TestRender:
    def test_park_golden_string(self, park_sentence):
        lex = EnvironmentLexicon.default()
        (pair,) = find_mention_pairs(
            park_sentence, PhraseIndex(["children playing"]), lex
        )
        graph = build_dep_graph(park_sentence)
        path = shortest_dep_path(graph, pair.env_anchor, pair.concept_anchor)
        assert render_path(path, pair) == PARK_GOLDEN

    def test_single_edge_path(self):
        block = "1\tpark\tNN\t2\tprep_of\n2\tsounds\tNNS\t0\troot"
        graph = build_dep_graph(block_to_sentence(block))
        path = shortest_dep_path(graph, 1, 2)
        assert render_path(path, trivial_pair(1, 2)) == "prep_of()"

    def test_plain_alternation_without_suppression(self):
        block = (
            "1\ta\tNN\t2\tamod\n2\tb\tNN\t3\tnsubj\n3\tc\tNN\t0\troot\n"
            "4\td\tNN\t3\tdobj"
        )
        graph = build_dep_graph(block_to_sentence(block))
        path = shortest_dep_path(graph, 1, 4)
        assert render_path(path, trivial_pair(1, 4)) == "amod() b nsubj() c dobj()"
        assert path.labels == ("amod", "nsubj", "dobj")
        assert path.words[1:-1] == ("b", "c")

    def test_mention_internal_node_suppressed_with_next_edge(self):
        # concept span covers nodes 3..4; node 3 sits on the path, so
        # it and the following edge label disappear
        block = (
            "1\tpark\tNN\t2\tnsubj\n2\tx\tNN\t3\tamod\n"
            "3\tloud\tJJ\t4\tamod\n4\tmusic\tNN\t0\troot"
        )
        graph = build_dep_graph(block_to_sentence(block))
        pair = MentionPair(
            concept_text="loud music",
            concept_span=(3, 4),
            concept_anchor=4,
            scene="park",
            env_span=(1, 1),
        )
        path = shortest_dep_path(graph, 1, 4)
        assert path.nodes == (1, 2, 3, 4)
        assert render_path(path, pair) == "nsubj() x amod()"

    def test_rendered_always_ends_with_edge_label_and_odd_parity(self):
        rng = random.Random(77)
        rendered_paths = 0
        for _ in range(200):
            graph = build_dep_graph(random_parsed_sentence(rng))
            n = len(graph)
            if n < 2:
                continue
            src, dst = rng.sample(range(1, n + 1), 2)
            path = shortest_dep_path(graph, src, dst)
            if path is None:
                continue
            spans = sorted(rng.sample(range(1, n + 1), 2))
            if not (spans[0] <= src <= spans[1]):
                continue
            # the environment span ends at its anchor, the path's source
            pair = MentionPair(
                concept_text="c",
                concept_span=(dst, dst),
                concept_anchor=dst,
                scene="s",
                env_span=(spans[0], src),
            )
            rendered = render_path(path, pair)
            items = rendered.split()
            assert items[-1].endswith("()")
            assert items[0].endswith("()")
            # suppression removes word+edge pairs, so parity stays odd
            assert len(items) % 2 == 1
            rendered_paths += 1
        assert rendered_paths > 40

    def test_endpoint_mismatch_rejected(self, park_sentence):
        graph = build_dep_graph(park_sentence)
        path = shortest_dep_path(graph, 2, 9)
        with pytest.raises(ValueError, match="anchors"):
            render_path(path, trivial_pair(4, 9))


class TestOccurrences:
    def test_park_occurrence(self, park_sentence):
        occs = occurrences_for_sentence(
            park_sentence, PhraseIndex(["children playing"]), EnvironmentLexicon.default()
        )
        assert len(occs) == 1
        occ = occs[0]
        assert (occ.scene, occ.concept) == ("park", "children playing")
        assert occ.path == PARK_GOLDEN
        assert occ.sentence_ref == park_sentence.sent_id

    def test_no_pairs_no_occurrences(self, park_sentence):
        assert occurrences_for_sentence(
            park_sentence, PhraseIndex(["gunshots"]), EnvironmentLexicon.default()
        ) == []


class TestRanking:
    def occ(self, path, scene, concept):
        return PathOccurrence(scene=scene, concept=concept, path=path,
                              sentence_ref="t")

    def test_distinct_pair_count_ordering(self):
        occs = [
            self.occ("amod()", "park", "x"),
            self.occ("amod()", "park", "y"),
            self.occ("amod()", "beach", "x"),
            self.occ("det()", "park", "x"),
            self.occ("det()", "park", "y"),
        ]
        assert rank_paths_by_frequency(occs) == [("amod()", 3), ("det()", 2)]

    def test_same_pair_counts_once(self):
        occs = [self.occ("amod()", "park", "x")] * 5
        assert rank_paths_by_frequency(occs) == [("amod()", 1)]

    def test_ties_by_path_string(self):
        occs = [
            self.occ("det()", "park", "x"),
            self.occ("amod()", "park", "x"),
        ]
        assert rank_paths_by_frequency(occs) == [("amod()", 1), ("det()", 1)]

    def test_matches_hash_count_oracle(self):
        rng = random.Random(31)
        paths_pool = [f"p{i}()" for i in range(10)]
        occs = [
            self.occ(
                rng.choice(paths_pool),
                rng.choice(["park", "beach", "bar"]),
                rng.choice(["x", "y", "z", "w"]),
            )
            for _ in range(500)
        ]
        # independent counting pass
        oracle: dict[str, set] = {}
        for o in occs:
            oracle.setdefault(o.path, set()).add((o.scene, o.concept))
        expected = sorted(
            ((p, len(s)) for p, s in oracle.items()), key=lambda kv: (-kv[1], kv[0])
        )
        assert rank_paths_by_frequency(occs) == expected


class TestTrainingExamples:
    def occ(self, path):
        return PathOccurrence(scene="park", concept="x", path=path, sentence_ref="t")

    def test_shipped_positive_seed_matches(self):
        pos, neg = default_seed_paths()
        examples = generate_training_examples(
            [self.occ("prep_of() sound nsubjpass() heard prep_in()")], pos, neg
        )
        assert len(examples) == 1 and examples[0].label == POSITIVE

    def test_shipped_negative_seed_matches(self):
        pos, neg = default_seed_paths()
        examples = generate_training_examples([self.occ("amod()")], pos, neg)
        assert len(examples) == 1 and examples[0].label == NEGATIVE

    def test_unseeded_path_excluded(self):
        pos, neg = default_seed_paths()
        assert generate_training_examples([self.occ("xcomp()")], pos, neg) == []

    def test_overlapping_seeds_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            generate_training_examples([], ["amod()"], ["amod()", "det()"])

    def test_labeling_is_function_of_path_string(self):
        pos, neg = default_seed_paths()
        occs = [
            PathOccurrence("park", "x", "prep_of()", "a"),
            PathOccurrence("beach", "y", "prep_of()", "b"),
        ]
        labels = {e.label for e in generate_training_examples(occs, pos, neg)}
        assert labels == {POSITIVE}

    def test_default_seed_lists_shape(self):
        pos, neg = default_seed_paths()
        assert "prep_of()" in pos            # kept positive; dropped from negatives
        assert "prep_of()" not in neg
        assert "nn() sound prep_of()" in neg
        assert len(pos) == 14 and len(neg) == 11

    def test_seed_loader_skips_comments_and_dupes(self):
        loaded = load_seed_paths(["# c", "amod()", "", "amod()", "det()"])
        assert loaded == ["amod()", "det()"]
