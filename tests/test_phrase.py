"""Linear max-margin phrase classifier and its cross-validation harness."""

import io

import numpy as np
import pytest

from soundkb import DataError
from soundkb.embeddings import featurize_awv
from soundkb.phrase import (
    LabeledPhrase,
    cross_validate,
    hinge_objective,
    load_model,
    make_folds,
    predict,
    save_model,
    train,
)

from conftest import malformed_phrase_models, separable_phrase_data


def clusters_with_verified_margin(n: int, dim: int, seed: int):
    """Two Gaussian blobs around +/-2 e1, checked point by point to have
    margin >= 1 against the generating hyperplane (w = e1, b = 0)."""
    rng = np.random.default_rng(seed)
    features = []
    labels = []
    for label in (+1, -1):
        for _ in range(n // 2):
            x = rng.normal(0.0, 0.3, size=dim)
            x[0] = label * (2.0 + abs(rng.normal(0.0, 0.5)))
            features.append(x)
            labels.append(label)
    w_true = np.zeros(dim)
    w_true[0] = 1.0
    assert min(y * (w_true @ x) for x, y in zip(features, labels)) >= 1.0
    return list(zip(features, labels))


class TestTrain:
    def test_separable_axis_pair(self):
        examples = [(np.array([1.0, 0.0]), +1), (np.array([-1.0, 0.0]), -1)]
        model = train(examples, reg=1e-4, epochs=50, seed=0)
        assert model.weights[0] > 0
        for x, y in examples:
            assert predict(model, x)[0] == y

    def test_two_hundred_point_clusters_fit_exactly(self):
        examples = clusters_with_verified_margin(200, 10, seed=42)
        model = train(examples, reg=1e-4, epochs=50, seed=1)
        correct = sum(predict(model, x)[0] == y for x, y in examples)
        assert correct == 200

    def test_deterministic_given_seed(self):
        examples = clusters_with_verified_margin(40, 5, seed=7)
        m1 = train(examples, reg=1e-3, epochs=10, seed=123)
        m2 = train(examples, reg=1e-3, epochs=10, seed=123)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias

    def test_different_seed_differs(self):
        examples = clusters_with_verified_margin(40, 5, seed=7)
        m1 = train(examples, reg=1e-3, epochs=1, seed=1)
        m2 = train(examples, reg=1e-3, epochs=1, seed=2)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_final_loss_not_above_initial(self):
        examples = clusters_with_verified_margin(100, 6, seed=3)
        reg = 1e-2
        model = train(examples, reg=reg, epochs=30, seed=0)
        initial = hinge_objective(np.zeros(6), 0.0, examples, reg)
        final = hinge_objective(model.weights, model.bias, examples, reg)
        assert final <= initial

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both labels"):
            train([(np.array([1.0]), +1), (np.array([2.0]), +1)])

    def test_no_examples_is_data_error(self):
        with pytest.raises(DataError, match="no training examples"):
            train([])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train([(np.array([1.0]), +1), (np.array([1.0, 2.0]), -1)])

    def test_bad_hyperparams(self):
        examples = [(np.array([1.0]), +1), (np.array([-1.0]), -1)]
        with pytest.raises(ValueError):
            train(examples, reg=0.0)
        with pytest.raises(ValueError):
            train(examples, epochs=0)


class TestPredict:
    def test_zero_model_is_negative_at_zero_margin(self):
        model = train(
            [(np.array([1.0, 0.0]), +1), (np.array([-1.0, 0.0]), -1)],
            reg=1e-4, epochs=1, seed=0,
        )
        model.weights = np.zeros(2)
        model.bias = 0.0
        assert predict(model, np.array([5.0, -3.0])) == (-1, 0.0)

    def test_simple_margin(self):
        model = train(
            [(np.array([1.0, 0.0]), +1), (np.array([-1.0, 0.0]), -1)],
            reg=1e-4, epochs=1, seed=0,
        )
        model.weights = np.array([1.0, 0.0])
        model.bias = 0.0
        assert predict(model, np.array([2.0, 5.0])) == (+1, 2.0)

    def test_sign_flip_symmetry(self):
        rng = np.random.default_rng(8)
        examples = clusters_with_verified_margin(40, 4, seed=8)
        model = train(examples, reg=1e-3, epochs=5, seed=0)
        flipped = train(examples, reg=1e-3, epochs=5, seed=0)
        flipped.weights = -model.weights
        flipped.bias = -model.bias
        for _ in range(20):
            x = rng.normal(size=4)
            label, margin = predict(model, x)
            flabel, fmargin = predict(flipped, x)
            if margin != 0.0:
                assert flabel == -label
            assert fmargin == pytest.approx(-margin)

    def test_positive_scaling_invariance(self):
        examples = clusters_with_verified_margin(40, 4, seed=9)
        model = train(examples, reg=1e-3, epochs=5, seed=0)
        scaled = train(examples, reg=1e-3, epochs=5, seed=0)
        scaled.weights = 7.5 * model.weights
        scaled.bias = 7.5 * model.bias
        rng = np.random.default_rng(10)
        for _ in range(30):
            x = rng.normal(size=4)
            assert predict(model, x)[0] == predict(scaled, x)[0]

    def test_dimension_mismatch(self):
        model = train(
            [(np.array([1.0, 0.0]), +1), (np.array([-1.0, 0.0]), -1)],
            reg=1e-4, epochs=1, seed=0,
        )
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.array([1.0, 2.0, 3.0]))


class TestFolds:
    def test_eight_examples_four_even_folds(self):
        folds = make_folds(8, 4, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2]

    def test_partition_properties_over_many_seeds(self):
        rng = np.random.default_rng(0)
        for seed in range(50):
            n = int(rng.integers(4, 60))
            folds = make_folds(n, 4, seed=seed)
            flat = [i for fold in folds for i in fold]
            assert sorted(flat) == list(range(n))          # coverage + disjoint
            sizes = [len(f) for f in folds]
            assert max(sizes) - min(sizes) <= 1            # balance

    def test_too_small_dataset(self):
        with pytest.raises(ValueError, match="folds"):
            make_folds(3, 4, seed=0)

    def test_seeded_partition_is_reproducible(self):
        assert make_folds(20, 4, seed=5) == make_folds(20, 4, seed=5)


class TestCrossValidate:
    def test_separable_bigrams_mean_accuracy_one(self):
        store, labeled = separable_phrase_data(24, 8, seed=21)
        dataset = [LabeledPhrase(b, y) for b, y in labeled]
        # exhaustive margin check on the actual AWV features
        for row in dataset:
            feat = featurize_awv(store, row.bigram).values
            assert row.label * feat[0] >= 1.0
        report = cross_validate(dataset, store, "awv", k=4, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.fold_accuracies == (1.0, 1.0, 1.0, 1.0)

    def test_cwv_also_separates(self):
        store, labeled = separable_phrase_data(16, 6, seed=22)
        dataset = [LabeledPhrase(b, y) for b, y in labeled]
        report = cross_validate(dataset, store, "cwv", k=4, seed=3)
        assert report.mean_accuracy == 1.0

    def test_deterministic_report(self):
        store, labeled = separable_phrase_data(10, 5, seed=23)
        dataset = [LabeledPhrase(b, y) for b, y in labeled]
        r1 = cross_validate(dataset, store, "awv", k=4, seed=9)
        r2 = cross_validate(dataset, store, "awv", k=4, seed=9)
        assert r1 == r2

    def test_dataset_smaller_than_k(self):
        store, labeled = separable_phrase_data(1, 4, seed=24)
        dataset = [LabeledPhrase(b, y) for b, y in labeled][:2]
        with pytest.raises(ValueError):
            cross_validate(dataset, store, "awv", k=4, seed=0)


class TestSerialization:
    def test_round_trip(self):
        examples = clusters_with_verified_margin(20, 4, seed=30)
        model = train(examples, reg=1e-3, epochs=5, seed=4, feature_kind="awv")
        buf = io.StringIO()
        save_model(model, buf)
        again = load_model(io.StringIO(buf.getvalue()))
        np.testing.assert_allclose(again.weights, model.weights, rtol=1e-8)
        assert again.bias == pytest.approx(model.bias, rel=1e-8)
        assert (again.reg, again.epochs, again.seed) == (1e-3, 5, 4)
        assert again.feature_kind == "awv"

    def test_serialization_is_deterministic(self):
        examples = clusters_with_verified_margin(20, 4, seed=31)
        bufs = []
        for _ in range(2):
            model = train(examples, reg=1e-3, epochs=5, seed=4)
            buf = io.StringIO()
            save_model(model, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_rejects_other_documents(self):
        with pytest.raises(ValueError, match="model file"):
            load_model(io.StringIO('{"format": "something-else"}'))

    @pytest.mark.parametrize("case", sorted(malformed_phrase_models()))
    def test_malformed_documents_raise_data_error(self, case):
        with pytest.raises(DataError, match="phrase"):
            load_model(io.StringIO(malformed_phrase_models()[case]))


class TestLabeledPhrase:
    def test_label_domain(self):
        with pytest.raises(ValueError):
            LabeledPhrase(("a", "b"), 0)
