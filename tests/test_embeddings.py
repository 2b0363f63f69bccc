"""Embedding store loading and AWV/CWV phrase features."""

import io

import numpy as np
import pytest

from soundkb import DataError
from soundkb.embeddings import (
    EmbeddingFormatError,
    PhraseUnrepresentableError,
    dump_embeddings,
    featurize,
    load_embeddings,
)

from conftest import make_store


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

    def test_header_line(self):
        rows = [f"w{i} " + " ".join(["0.25"] * 300) for i in range(2)]
        store = load_embeddings(["2 300"] + rows)
        assert store.dimension == 300
        assert len(store) == 2

    def test_header_dim_mismatch(self):
        with pytest.raises(EmbeddingFormatError, match="header dimension"):
            load_embeddings(["2 300", "cat 1 2 3"])

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
        with pytest.raises(EmbeddingFormatError, match="no vector lines"):
            load_embeddings([])

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
        for word in store.words():
            np.testing.assert_allclose(
                again.get(word), store.get(word), rtol=1e-8, atol=0
            )


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
        words = store.words()
        for _ in range(50):
            w1, w2 = rng.choice(words, size=2)
            np.testing.assert_array_equal(
                featurize(store, (w1, w2), "awv"),
                featurize(store, (w2, w1), "awv"),
            )

    def test_awv_sup_norm_bound(self):
        rng = np.random.default_rng(4)
        store = make_store({f"w{i}": rng.normal(size=8) for i in range(10)})
        words = store.words()
        for _ in range(50):
            w1, w2 = rng.choice(words, size=2)
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
