"""Embedding store loading and AWV/CWV phrase features."""

import io
import random
import re
import warnings

import numpy as np
import pytest

from soundkb import DataError, embeddings
from soundkb.embeddings import (
    EmbeddingFormatError,
    PhraseUnrepresentableError,
    featurize,
    featurize_rows,
    load_embeddings,
)

from conftest import dump_embeddings, load_per_row, make_store, words


def _assert_no_vector_lines(lines):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns when it reads no row
        with pytest.raises(EmbeddingFormatError, match="^no vector lines in embedding file$"):
            load_embeddings(lines)


class TestLoad:
    def test_three_words_dim_inferred(self):
        store = load_embeddings(
            ["cat 1 2 3 4", "dog 0 0 1 0", "park -1 0.5 0 2"]
        )
        assert store.dimension == 4
        assert len(store) == 3
        assert np.array_equal(store.get("cat"), [1, 2, 3, 4])

    def test_dimension_error_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(["cat 1 2 3 4", "dog 1 2 3"])

    def test_extra_column_is_rejected(self):
        with pytest.raises(EmbeddingFormatError, match="^line 2: expected 4 components, got 5$"):
            load_embeddings(["cat 1 2 3 4", "dog 1 2 3 4 5", "owl 1 2 3 4"])

    def test_one_row(self):
        store = load_embeddings(["cat 0.5 -2"])
        assert store.dimension == 2 and words(store) == ["cat"]

    def test_word_alone_has_no_components(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on a row it reads no data from
            for lines in (["cat"], ["dog 1", "cat"]):
                with pytest.raises(EmbeddingFormatError,
                                   match=f"^line {len(lines)}: no vector components$"):
                    load_embeddings(lines)

    def test_header_line(self):
        rows = [f"w{i} " + " ".join(["0.25"] * 300) for i in range(2)]
        store = load_embeddings(["2 300"] + rows)
        assert store.dimension == 300
        assert len(store) == 2

    def test_header_dim_mismatch(self):
        with pytest.raises(EmbeddingFormatError, match="header dimension"):
            load_embeddings(["2 300", "cat 1 2 3"])

    @pytest.mark.parametrize("lines, header_line, declared, found", [
        (["3 2", "a 1 0", "b 2 0"], 1, 3, 2),
        (["1 2", "a 1 0", "", "b 2 0"], 1, 1, 2),
        (["", " 2\t2 ", "a 1 0", "b 2 0", "c 3 0"], 2, 2, 3),
    ])
    def test_header_count_must_be_the_number_of_rows(self, lines, header_line, declared, found):
        message = f"^line {header_line}: header declares {declared} rows, the file has {found}$"
        for wanted in (None, {"a"}):
            for load in (load_embeddings, load_per_row):
                with pytest.raises(EmbeddingFormatError, match=message):
                    load(lines, wanted)

    def test_header_count_comes_after_a_bad_row_and_before_a_non_finite_one(self):
        for load in (load_embeddings, load_per_row):
            with pytest.raises(EmbeddingFormatError, match="^line 3: non-numeric"):
                load(["3 2", "a 1 0", "b x 0"])
            with pytest.raises(EmbeddingFormatError,
                               match="^line 1: header declares 3 rows, the file has 2$"):
                load(["3 2", "a nan 0", "b 1 0"])

    def test_duplicate_word(self):
        with pytest.raises(EmbeddingFormatError, match="duplicate word"):
            load_embeddings(["cat 1 2", "cat 3 4"])

    def test_non_numeric(self):
        with pytest.raises(EmbeddingFormatError, match="non-numeric"):
            load_embeddings(["cat 1 x"])

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_names_line(self, component):
        with pytest.raises(EmbeddingFormatError, match="^line 4: non-finite vector component$"):
            load_embeddings(["3 2", "cat 1 2", "", f"zz {component} 0", "dog 3 4"])

    def test_first_non_finite_line_is_named(self):
        with pytest.raises(EmbeddingFormatError, match="^line 2: non-finite"):
            load_embeddings(["cat 1 2", "dog 1 -inf", "owl nan 1"])

    def test_empty_file(self):
        _assert_no_vector_lines([])

    @pytest.mark.parametrize("lines", [["", "  \t "], ["2 3"], ["", "2 3", " "]])
    def test_no_vector_lines_without_warning(self, lines):
        _assert_no_vector_lines(lines)

    def test_lookup_is_lowercased(self):
        store = load_embeddings(["Cat 1 2"])
        assert "CAT" in store
        assert np.array_equal(store.get("cAt"), [1, 2])

    def test_dump_load_round_trip_9_digits(self):
        rng = np.random.default_rng(3)
        store = make_store({f"w{i}": rng.normal(size=5) for i in range(20)})
        buf = io.StringIO()
        dump_embeddings(store, buf)
        again = load_embeddings(buf.getvalue().splitlines())
        assert again.dimension == store.dimension and len(again) == len(store)
        for word in words(store):
            np.testing.assert_allclose(
                again.get(word), store.get(word), rtol=1e-8, atol=0
            )


# Atoms where numpy's text reader and Python's float() may part ways, or
# that the per-row reader rejects: overflow, non-finite values, forms only
# float() reads (underscores, non-ASCII digits), forms neither reads, and
# numpy's default comment and quote characters.
FUZZ_ATOMS = ["1e5", "1e999", "nan", "Infinity", "-inf", "1_0", "\uff11", ".", "1.2.3",
              "9" * 320, "1e-400", "-0", "1.", ".5", "+1", "0x10", "#2", '"3"']
FUZZ_SEPARATORS = [" ", "\t", "  ", "\xa0", "\x0b", "\x1c", "\x85", "\r", "\n"]
FUZZ_WORDS = ["cat", "Cat", "CAT", "dog", "#owl", '"owl', "'bee", "1", "2", "Stra\u00dfe"]


def _fuzz_number(rng: random.Random) -> str:
    if rng.random() < 0.08:
        return rng.choice(FUZZ_ATOMS)
    kind = rng.random()
    if kind < 0.4:
        return repr(rng.uniform(-5, 5))
    if kind < 0.7:
        return f"{rng.gauss(0, 3):.{rng.randint(0, 9)}g}"
    return str(rng.randint(-20, 20))


def _fuzz_vec(rng: random.Random) -> list[str]:
    """A small ``.vec`` text, mostly plain rows, sometimes a hard one."""
    dim, n = rng.randint(1, 4), rng.randint(0, 6)
    lines = []
    header = rng.random()
    if header < 0.3:
        lines.append(f"{n} {dim}")
    elif header < 0.4:
        lines.append(rng.choice([f"{n} {dim + 1}", "3", "2 2 2", f" {n}\t{dim} ", "x 2",
                                 f"{n} 1_0", "0 0"]))
    for _ in range(n):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "\t", "\xa0"]))
            continue
        width = dim if rng.random() < 0.9 else rng.choice([0, dim - 1, dim + 1])
        word = rng.choice(FUZZ_WORDS) if rng.random() < 0.4 else f"w{rng.randint(0, 10**6)}"
        odd = rng.random() < 0.2
        row = word + "".join((rng.choice(FUZZ_SEPARATORS) if odd else " ") + _fuzz_number(rng)
                             for _ in range(width))
        if rng.random() < 0.1:
            row = rng.choice([" ", "\t", "\xa0"]) + row
        if rng.random() < 0.1:
            row += rng.choice([" ", "\t", "\xa0", "\n", "\r"])
        lines.append(row)
    return lines


def _fuzz_words(rng: random.Random, lines: list[str]) -> set[str]:
    """Some of the lowercased words of a ``.vec`` text, perhaps none, and
    perhaps a word it does not hold."""
    present = sorted({line.split()[0].lower() for line in lines if line.split()})
    wanted = {word for word in present if rng.random() < 0.5}
    if rng.random() < 0.3:
        wanted.add("absent")
    return wanted


def _outcome(load, lines):
    """The error of a load, or its store: the dimension, the index in order
    and the matrix bytes."""
    try:
        store = load(lines)
    except EmbeddingFormatError as err:
        return type(err), str(err)
    return store.dimension, list(store.index.items()), store.matrix.tobytes()


def _restricted(outcome, wanted: set[str]):
    """The outcome of a whole-file load with only the rows of ``wanted`` kept."""
    if outcome[0] is EmbeddingFormatError:
        return outcome
    dimension, index, data = outcome
    kept = [(word, row) for word, row in index if word in wanted]
    matrix = np.frombuffer(data).reshape(-1, dimension)
    return (dimension, [(word, i) for i, (word, _) in enumerate(kept)],
            matrix[[row for _, row in kept]].tobytes())


def _per_row(words=None):
    return lambda lines: load_per_row(lines, words)


@pytest.fixture
def checked_row_by_row(monkeypatch):
    """The line numbers of each chunk that a load checks row by row, in order."""
    chunks = []
    check_rows = embeddings._check_rows

    def counted(line_nos, *rest):
        chunks.append(list(line_nos))
        return check_rows(line_nos, *rest)

    monkeypatch.setattr(embeddings, "_check_rows", counted)
    return chunks


class TestFastPass:
    """numpy's reader, chunk by chunk, against the per-row reference reader."""

    def test_differential_fuzz(self, monkeypatch, checked_row_by_row):
        """Whole and filtered, the load gives the whole-file store of the
        reference reader restricted to the wanted words, or its error;
        chunks of 1-3 rows cross chunk boundaries inside these small files."""
        rng = random.Random(7)
        fast = {"whole": 0, "filtered": 0}
        for _ in range(20_000):
            monkeypatch.setattr(embeddings, "LOAD_CHUNK_ROWS", rng.choice([1, 2, 3, 256]))
            lines = _fuzz_vec(rng)
            whole = _outcome(_per_row(), lines)
            wanted = _fuzz_words(rng, lines)
            for kind, chosen, want in (("whole", None, whole),
                                       ("filtered", wanted, _restricted(whole, wanted))):
                checked_row_by_row.clear()
                outcome = _outcome(lambda l: load_embeddings(l, chosen), lines)
                assert outcome == want, lines
                assert _outcome(_per_row(chosen), lines) == want, lines
                if outcome[0] is not EmbeddingFormatError and not checked_row_by_row:
                    fast[kind] += 1
        # numpy reads every chunk of many loads, not only a few
        assert min(fast.values()) > 5_000, fast

    def test_plain_file_never_falls_back(self, checked_row_by_row):
        lines = ["4 3", "", "Cat 1 -2.5 3e-3", "dog\t0 0 0 ", "  #owl +1 1e5 .5", "\"bee -0 1. 2"]
        store = load_embeddings(lines)
        assert checked_row_by_row == []
        assert store.dimension == 3 and words(store) == ["cat", "dog", "#owl", '"bee']
        assert np.array_equal(store.get("#OWL"), [1, 1e5, 0.5])

    def test_wide_first_row_is_named_not_allocated(self):
        # numpy sizes its matrix from the first row: 100,001 x 20,000 floats
        lines = ["wide " + "1 " * 20_000] + [f"w{i} 1" for i in range(100_000)]
        with pytest.raises(EmbeddingFormatError,
                           match="^line 2: expected 20000 components, got 1$"):
            load_embeddings(lines)

    @pytest.mark.parametrize("component, value", [("1_0", 10.0), ("\uff11", 1.0)])
    def test_float_syntax_numpy_rejects_still_loads(self, checked_row_by_row, component, value):
        store = load_embeddings(["dog 1 1", f"cat {component} 2"])
        assert checked_row_by_row == [[1, 2]]
        assert np.array_equal(store.get("cat"), [value, 2])


def _vec_lines(n: int, header: bool) -> list[str]:
    """A ``.vec`` text of ``n`` plain rows ``w0`` ... of dimension 3."""
    rng = np.random.default_rng(n)
    rows = [f"w{i} " + " ".join(repr(float(v)) for v in rng.normal(size=3)) for i in range(n)]
    return [f"{n} 3"] * header + rows


CHUNK_ROWS = embeddings.LOAD_CHUNK_ROWS


class TestFilteredLoad:
    """A load keeps the rows of the wanted words and checks every row."""

    def test_keeps_the_wanted_rows_in_file_order(self):
        lines = ["4 2", "Owl 1 2", "cat 3 4", "bee 5 6", "dog 7 8"]
        store = load_embeddings(lines, {"dog", "owl", "emu"})
        assert list(store.index.items()) == [("owl", 0), ("dog", 1)]
        np.testing.assert_array_equal(store.matrix, [[1, 2], [7, 8]])
        assert "OWL" in store and "cat" not in store and store.get("cat") is None

    def test_wanted_words_are_matched_on_their_lowercased_form(self):
        """The words to keep follow the store's key rule, as ``get`` does."""
        store = load_embeddings(["cat 1 2", "Owl 3 4", "bee 5 6"], {"Cat", "OWL"})
        assert list(store.index.items()) == [("cat", 0), ("owl", 1)]
        np.testing.assert_array_equal(store.get("Cat"), [1, 2])

    @pytest.mark.parametrize("wanted", [set(), {"emu"}], ids=["empty", "absent"])
    def test_no_wanted_word_gives_a_store_without_rows(self, wanted):
        for load in (load_embeddings, load_per_row):
            store = load(["3 2", "Owl 1 2", "cat 3 4", "bee 5 6"], wanted)
            assert store.matrix.shape == (0, 2) and store.dimension == 2 and len(store) == 0

    @pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["chunk-1", "chunk", "chunk+1"])
    def test_rows_around_the_chunk_size(self, checked_row_by_row, header, offset):
        n = CHUNK_ROWS + offset
        lines = _vec_lines(n, header)
        # rows on either side of the chunk boundary, the last row and an absent word
        wanted = {f"w{i}" for i in (0, CHUNK_ROWS - 2, CHUNK_ROWS - 1, CHUNK_ROWS, n - 1, n)}
        whole = _outcome(_per_row(), lines)
        assert len(whole[1]) == n
        for chosen, want in ((None, whole), (wanted, _restricted(whole, wanted))):
            assert _outcome(lambda l: load_embeddings(l, chosen), lines) == want
            assert _outcome(_per_row(chosen), lines) == want
        assert checked_row_by_row == []  # numpy read every chunk

    @pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
    @pytest.mark.parametrize("bad, message", [
        ("zz nan 0 0", "non-finite vector component"),
        ("zz 1.2.3 0 0", "non-numeric vector component"),
        ("zz 1 0", "expected 3 components, got 2"),
        ("W0 1 0 0", "duplicate word 'w0'"),
    ], ids=["nan", "dots", "width", "duplicate"])
    def test_bad_first_row_of_the_second_chunk(self, header, bad, message):
        lines = _vec_lines(2 * CHUNK_ROWS, header)
        line_no = CHUNK_ROWS + 1 + header
        lines[line_no - 1] = bad
        for wanted in (None, {"w0", "w1"}, set()):
            for load in (load_embeddings, load_per_row):
                with pytest.raises(EmbeddingFormatError,
                                   match=f"^line {line_no}: {re.escape(message)}$"):
                    load(lines, wanted)

    @pytest.mark.parametrize("first, later, message", [
        ("w9 1_0 0 0", ["W9 1 0 0"], "duplicate word 'w9'"),
        ("za nan 0 0", ["zb 1.2.3 0 0"], "non-numeric vector component"),
        ("w9 1_0 0 0", ["zb 2 0 0", "zb 3 0 0"], "duplicate word 'zb'"),
    ], ids=["repeat-after-fallback", "dots-after-nan", "repeat-inside-a-chunk"])
    def test_state_carries_across_chunks(self, checked_row_by_row, first, later, message):
        """A bad row in chunk 1 that numpy cannot read and later rows in
        chunk 3: the last of them is named, as the reference reader names it."""
        lines = _vec_lines(3 * CHUNK_ROWS, False)
        lines[9] = first  # line 10
        start = 2 * CHUNK_ROWS + 4
        lines[start:start + len(later)] = later
        for wanted in (None, {"w0", "w9"}, set()):
            for load in (load_embeddings, load_per_row):
                with pytest.raises(EmbeddingFormatError,
                                   match=f"^line {start + len(later)}: {re.escape(message)}$"):
                    load(lines, wanted)
        # numpy reads chunk 2; chunks 1 and 3 are checked row by row
        assert {chunk[0] for chunk in checked_row_by_row} == {1, 2 * CHUNK_ROWS + 1}

    def test_malformed_row_is_named_before_an_earlier_non_finite_one(self):
        lines = ["cat 1 2", "zz nan 1", "dog 3 4", "owl 1.2.3 1"]
        for wanted in (None, {"cat"}):
            with pytest.raises(EmbeddingFormatError, match="^line 4: non-numeric"):
                load_embeddings(lines, wanted)


class TestFeatures:
    def test_awv_idempotent_on_equal_vectors(self):
        store = make_store({"a": [1.0, -2.0], "b": [1.0, -2.0]})
        feature = featurize(store, ("a", "b"), "awv")
        np.testing.assert_array_equal(feature, [1.0, -2.0])

    def test_awv_opposite_vectors_cancel(self):
        store = make_store({"a": [3.0, -1.0], "b": [-3.0, 1.0]})
        np.testing.assert_array_equal(
            featurize(store, ("a", "b"), "awv"), [0.0, 0.0]
        )

    def test_awv_simple_average(self):
        store = make_store({"a": [1.0, 3.0], "b": [3.0, 1.0]})
        np.testing.assert_array_equal(
            featurize(store, ("a", "b"), "awv"), [2.0, 2.0]
        )

    def test_cwv_concatenates(self):
        store = make_store({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        feature = featurize(store, ("a", "b"), "cwv")
        np.testing.assert_array_equal(feature, [1.0, 2.0, 3.0, 4.0])

    def test_cwv_doubles_dimension(self):
        rng = np.random.default_rng(1)
        store = make_store({"a": rng.normal(size=300), "b": rng.normal(size=300)})
        assert featurize(store, ("a", "b"), "cwv").shape == (600,)

    def test_cwv_swap_swaps_halves(self):
        store = make_store({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        ab = featurize(store, ("a", "b"), "cwv")
        ba = featurize(store, ("b", "a"), "cwv")
        np.testing.assert_array_equal(ab[:2], ba[2:])
        np.testing.assert_array_equal(ab[2:], ba[:2])

    def test_awv_symmetric_property(self):
        rng = np.random.default_rng(2)
        store = make_store({f"w{i}": rng.normal(size=6) for i in range(10)})
        vocab = words(store)
        for _ in range(50):
            w1, w2 = rng.choice(vocab, size=2)
            np.testing.assert_array_equal(
                featurize(store, (w1, w2), "awv"),
                featurize(store, (w2, w1), "awv"),
            )

    def test_awv_sup_norm_bound(self):
        rng = np.random.default_rng(4)
        store = make_store({f"w{i}": rng.normal(size=8) for i in range(10)})
        vocab = words(store)
        for _ in range(50):
            w1, w2 = rng.choice(vocab, size=2)
            awv = featurize(store, (w1, w2), "awv")
            bound = max(
                np.abs(store.get(w1)).max(), np.abs(store.get(w2)).max()
            )
            assert np.abs(awv).max() <= bound + 1e-15

    def test_oov_contributes_zero(self):
        store = make_store({"a": [2.0, 4.0]})
        np.testing.assert_array_equal(
            featurize(store, ("a", "missing"), "awv"), [1.0, 2.0]
        )
        np.testing.assert_array_equal(
            featurize(store, ("missing", "a"), "cwv"), [0.0, 0.0, 2.0, 4.0]
        )

    def test_both_oov_unrepresentable(self):
        store = make_store({"a": [1.0]})
        with pytest.raises(PhraseUnrepresentableError, match="unrepresentable"):
            featurize(store, ("x", "y"), "awv")
        with pytest.raises(PhraseUnrepresentableError):
            featurize(store, ("x", "y"), "cwv")

    def test_unknown_kind_is_data_error(self):
        store = make_store({"a": [1.0]})
        with pytest.raises(DataError, match="unknown feature kind 'xyz'"):
            featurize(store, ("a", "a"), "xyz")


def _stacked_featurize(store, bigrams, kind):
    """``featurize`` row by row; zeros for an unrepresentable bigram."""
    width = store.dimension * (2 if kind == "cwv" else 1)
    rows, representable = [], []
    for bigram in bigrams:
        try:
            rows.append(featurize(store, bigram, kind))
            representable.append(True)
        except PhraseUnrepresentableError:
            rows.append(np.zeros(width))
            representable.append(False)
    return np.array(rows).reshape(-1, width), np.array(representable, dtype=bool)


class TestFeaturizeRows:
    """Bigrams given as the store rows of their words featurize as
    ``featurize`` featurizes each of them alone."""

    @staticmethod
    def _store(seed=6, n=12, dim=7):
        rng = np.random.default_rng(seed)
        vectors = {f"w{i}": rng.normal(size=dim) for i in range(n)}
        vectors["neg"] = -np.abs(rng.normal(size=dim))
        vectors["negzero"] = np.full(dim, -0.0)  # -0.0 + 0.0 is +0.0 in either path
        return load_embeddings(
            [f"{w} " + " ".join(repr(float(v)) for v in vec) for w, vec in vectors.items()])

    @staticmethod
    def _featurize(store, bigrams, kind):
        """``featurize_rows`` of bigrams of words, each word's row found
        apart from ``store.rows``."""
        ids = np.array([[store.index.get(w.lower(), -1) for w in bigram] for bigram in bigrams],
                       dtype=np.intp).reshape(-1, 2)
        return featurize_rows(store, ids, kind)

    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_equals_stacked_featurize_bitwise(self, kind):
        store = self._store()
        rng = random.Random(3)
        vocab = words(store) + ["W3", "Neg", "NEGZERO", "oov", "Missing"]
        bigrams = [(rng.choice(vocab), rng.choice(vocab)) for _ in range(400)]
        bigrams += [("w1", "oov"), ("oov", "w1"), ("negzero", "oov"), ("oov", "negzero"),
                    ("W1", "w1"), ("oov", "missing")]
        features, representable = self._featurize(store, bigrams, kind)
        want, want_representable = _stacked_featurize(store, bigrams, kind)
        assert features.shape == want.shape
        assert features.tobytes() == want.tobytes()
        assert representable.tolist() == want_representable.tolist()
        assert not representable.all() and representable.any()

    @pytest.mark.parametrize("kind, width", [("awv", 2), ("cwv", 4)])
    def test_unknown_word_on_either_side(self, kind, width):
        store = make_store({"a": [2.0, 4.0], "b": [-1.0, 3.0]})
        features, representable = self._featurize(
            store, [("a", "x"), ("x", "B"), ("x", "y"), ("A", "b")], kind)
        assert features.shape == (4, width)
        assert representable.tolist() == [True, True, False, True]
        if kind == "awv":
            np.testing.assert_array_equal(features, [[1, 2], [-0.5, 1.5], [0, 0], [0.5, 3.5]])
        else:
            np.testing.assert_array_equal(
                features, [[2, 4, 0, 0], [0, 0, -1, 3], [0, 0, 0, 0], [2, 4, -1, 3]])

    def test_the_store_matrix_is_not_changed(self):
        store = make_store({"a": [2.0, 4.0], "b": [-1.0, 3.0]})
        before = store.matrix.copy()
        self._featurize(store, [("x", "y"), ("a", "x"), ("y", "b")], "cwv")
        np.testing.assert_array_equal(store.matrix, before)

    @pytest.mark.parametrize("kind, width", [("awv", 3), ("cwv", 6)])
    def test_no_bigrams(self, kind, width):
        features, representable = self._featurize(make_store({"a": [1.0, 2.0, 3.0]}), [], kind)
        assert features.shape == (0, width) and representable.shape == (0,)

    def test_unknown_kind_is_data_error(self):
        with pytest.raises(DataError, match="unknown feature kind 'xyz'"):
            self._featurize(make_store({"a": [1.0]}), [("a", "a")], "xyz")

    @pytest.mark.parametrize("kind, width", [("awv", 2), ("cwv", 4)])
    def test_store_that_kept_no_row(self, kind, width):
        store = load_embeddings(["a 1 2", "b 3 4"], {"x", "y"})
        bigrams = [("x", "y"), ("A", "b")]
        features, representable = self._featurize(store, bigrams, kind)
        want, want_representable = _stacked_featurize(store, bigrams, kind)
        assert features.shape == want.shape == (2, width) and not features.any()
        assert features.tobytes() == want.tobytes()
        assert representable.tolist() == want_representable.tolist() == [False, False]

    def test_rows_are_looked_up_on_the_lowercased_word(self):
        store = make_store({"a": [1.0], "b": [2.0]})
        assert store.rows(["B", "x", "a", "A"]).tolist() == [1, -1, 0, 0]
        assert store.rows([]).dtype == np.intp


class TestMatrixStore:
    """The store keeps one matrix and a word -> row index."""

    def test_api_on_a_loaded_store(self):
        store = load_embeddings(["3 2", "Owl 1 2", "cat 3 4", "bee 5 6"])
        assert words(store) == ["owl", "cat", "bee"]
        assert len(store) == 3 and store.dimension == 2
        assert "OWL" in store and "dog" not in store
        assert store.get("dog") is None
        np.testing.assert_array_equal(store.get("Cat"), [3.0, 4.0])
        assert store.matrix.shape == (3, 2)
        for row, word in enumerate(words(store)):
            assert store.index[word] == row
            assert np.shares_memory(store.get(word), store.matrix)
            np.testing.assert_array_equal(store.get(word), store.matrix[row])

    def test_make_store_keeps_the_insertion_order(self):
        store = make_store({"zeta": [1.0, 0.0], "alpha": [0.0, 1.0], "mid": [2.0, 2.0]})
        assert words(store) == ["zeta", "alpha", "mid"]
        np.testing.assert_array_equal(store.matrix, [[1, 0], [0, 1], [2, 2]])
        np.testing.assert_array_equal(store.get("ALPHA"), [0.0, 1.0])
