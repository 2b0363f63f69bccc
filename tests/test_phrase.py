"""Linear max-margin phrase classifier and its cross-validation harness."""

import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from soundkb import DataError, phrase
from soundkb.embeddings import CWV, featurize, featurize_rows
from soundkb.phrase import (
    LinearModel,
    load_model,
    make_folds,
    margins,
    predict,
    save_model,
)

from conftest import (
    cross_validate,
    cross_validate_on_copies,
    hinge_objective,
    malformed_phrase_models,
    round9,
    separable_phrase_data,
    stack,
    train,
)


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

    @pytest.mark.parametrize("examples, reg", [
        # 1/(reg*n) overflows
        ([(np.array([1.0, 0.0]), +1), (np.array([-1.0, 0.0]), -1)], 1e-320),
        # the first violation adds an infinite step to the weights
        ([(np.array([1e308]), +1), (np.array([-1e308]), -1)], 1e-2),
    ])
    def test_non_finite_fit_is_data_error(self, examples, reg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="not finite at --reg"):
                train(examples, reg=reg, epochs=3, seed=0)

    def test_bad_hyperparams(self):
        examples = [(np.array([1.0]), +1), (np.array([-1.0]), -1)]
        with pytest.raises(ValueError):
            train(examples, reg=0.0)
        with pytest.raises(ValueError):
            train(examples, epochs=0)


def per_step_train(examples, reg, epochs, seed):
    """The trainer as one plain step per example: rescale the whole weight
    vector every step, add to it on a margin violation.  Returns weights,
    bias, the number of violations and the longest run of steps without
    one."""
    features, labels = stack(examples)
    n, dim = features.shape
    rng = np.random.default_rng(seed)
    weights = np.zeros(dim)
    bias = 0.0
    violations = streak = longest = 0
    t = n
    for _ in range(epochs):
        for idx in rng.permutation(n):
            t += 1
            eta = 1.0 / (reg * t)
            x = features[idx]
            y = labels[idx]
            margin = y * (weights @ x + bias)
            weights *= 1.0 - eta * reg
            if margin < 1.0:
                weights += eta * y * x
                bias += eta * y
                violations += 1
                streak = 0
            else:
                streak += 1
                longest = max(longest, streak)
    return weights, bias, violations, longest


def noisy_clusters(n: int, dim: int, seed: int, flip: float = 0.0):
    """Two Gaussian blobs around +/-2 e1 with a share ``flip`` of the
    labels flipped, so no hyperplane separates them."""
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(n) % 2 == 0, 1, -1)
    features = rng.normal(0.0, 0.5, size=(n, dim))
    features[:, 0] += 2.0 * labels
    flipped = rng.random(n) < flip
    labels = np.where(flipped, -labels, labels)
    return [(features[i], int(labels[i])) for i in range(n)]


def always_violating(n: int, dim: int, seed: int):
    """Tiny feature vectors with alternating labels: with a large reg no
    step ever reaches margin 1."""
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 1e-3, size=(n, dim))
    return [(features[i], 1 if i % 2 else -1) for i in range(n)]


class TestTrainMatchesPerStepLoop:
    """``train`` keeps scaled weights and checks runs of steps in one
    product; it must fit what the per-step loop fits."""

    @staticmethod
    def _check(examples, reg, epochs, seed):
        model = train(examples, reg=reg, epochs=epochs, seed=seed)
        weights, bias, violations, longest = per_step_train(examples, reg, epochs, seed)
        assert model.bias == bias
        np.testing.assert_allclose(model.weights, weights, rtol=1e-12)
        return violations, longest

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim, reg, epochs", [
        (1, 1e-2, 3), (5, 1e-3, 10), (20, 1e-2, 4), (50, 1e-1, 2), (200, 1e-2, 5),
    ])
    def test_separable(self, seed, dim, reg, epochs):
        examples = clusters_with_verified_margin(120, dim, seed=seed + 10)
        self._check(examples, reg, epochs, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim, reg, epochs", [(3, 1e-2, 5), (30, 1e-3, 3), (100, 1e-1, 8)])
    def test_labels_flipped(self, seed, dim, reg, epochs):
        examples = noisy_clusters(150, dim, seed=seed + 20, flip=0.2)
        violations, _ = self._check(examples, reg, epochs, seed)
        assert violations > 150 * epochs // 10

    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_step_violates(self, seed):
        examples = always_violating(60, 4, seed=seed)
        violations, _ = self._check(examples, reg=1.0, epochs=5, seed=seed)
        assert violations == 60 * 5

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("flip", [0.0, 0.02])
    def test_long_runs_hit_the_look_ahead_cap(self, seed, flip):
        n = 3 * phrase.LOOKAHEAD
        examples = noisy_clusters(n, 8, seed=seed + 30, flip=flip)
        violations, longest = self._check(examples, reg=1e-3, epochs=3, seed=seed)
        assert violations > 0
        if not flip:
            assert longest > 2 * phrase.LOOKAHEAD

    @pytest.mark.parametrize("skip_after, lookahead", [(1, 1), (1, 3), (2, 7), (4, 64)])
    @pytest.mark.parametrize("flip", [0.0, 0.2])
    def test_any_look_ahead_rule(self, monkeypatch, skip_after, lookahead, flip):
        # short streaks and windows put violations at every position of a
        # window, and windows cut short by every epoch's end
        monkeypatch.setattr(phrase, "SKIP_AFTER", skip_after)
        monkeypatch.setattr(phrase, "LOOKAHEAD", lookahead)
        examples = noisy_clusters(90, 6, seed=40, flip=flip)
        self._check(examples, reg=1e-2, epochs=6, seed=5)


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


class TestMargins:
    @staticmethod
    def _model(dim=6):
        return train(noisy_clusters(80, dim, seed=50, flip=0.1), reg=1e-2, epochs=4, seed=1)

    def test_one_vector_is_predicts_margin(self):
        model = self._model()
        x = np.random.default_rng(51).normal(size=6)
        assert float(margins(model, x)) == predict(model, x)[1]

    def test_rows_match_predict(self):
        model = self._model()
        features = np.random.default_rng(52).normal(size=(300, 6))
        got = margins(model, features)
        assert got.shape == (300,)
        for x, margin in zip(features, got):
            want = predict(model, x)[1]
            assert margin == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert f"{margin:.9g}" == f"{want:.9g}"

    def test_no_rows(self):
        assert margins(self._model(), np.zeros((0, 6))).shape == (0,)

    def test_dimension_mismatch_in_a_matrix(self):
        with pytest.raises(DataError, match="^feature dimension 5 != model dimension 6$"):
            margins(self._model(), np.zeros((3, 5)))


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
        # exhaustive margin check on the actual AWV features
        examples = [(featurize(store, b, "awv"), y) for b, y in labeled]
        for feat, label in examples:
            assert label * feat[0] >= 1.0
        report = cross_validate(examples, k=4, seed=0)
        assert report.mean_accuracy == 1.0
        assert report.fold_accuracies == (1.0, 1.0, 1.0, 1.0)

    def test_cwv_also_separates(self):
        store, labeled = separable_phrase_data(16, 6, seed=22)
        examples = [(featurize(store, b, "cwv"), y) for b, y in labeled]
        report = cross_validate(examples, k=4, seed=3)
        assert report.mean_accuracy == 1.0

    def test_deterministic_report(self):
        store, labeled = separable_phrase_data(10, 5, seed=23)
        examples = [(featurize(store, b, "awv"), y) for b, y in labeled]
        r1 = cross_validate(examples, k=4, seed=9)
        r2 = cross_validate(examples, k=4, seed=9)
        assert r1 == r2

    @pytest.mark.parametrize("seed", [0, 4])
    def test_fold_accuracies_match_per_example_predict(self, seed):
        examples = noisy_clusters(90, 5, seed=60 + seed, flip=0.25)
        report = cross_validate(examples, k=4, seed=seed, reg=1e-2, epochs=3)
        want = []
        for held_out in make_folds(len(examples), 4, seed):
            rest = [ex for i, ex in enumerate(examples) if i not in held_out]
            model = train(rest, reg=1e-2, epochs=3, seed=seed)
            correct = sum(predict(model, examples[i][0])[0] == examples[i][1] for i in held_out)
            want.append(correct / len(held_out))
        assert report.fold_accuracies == tuple(want)
        assert min(want) < 1.0  # the flipped labels make some held-out rows wrong

    def test_dataset_smaller_than_k(self):
        store, labeled = separable_phrase_data(1, 4, seed=24)
        examples = [(featurize(store, b, "awv"), y) for b, y in labeled][:2]
        with pytest.raises(ValueError):
            cross_validate(examples, k=4, seed=0)



def dropped_rows_matrix(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A CWV matrix made as ``train-phrase`` makes one: the rows of
    bigrams with unknown words are dropped, and some labels are flipped."""
    store, labeled = separable_phrase_data(60, 6, seed=seed)
    labeled = [(b, -y if i % 5 == 0 else y) for i, (b, y) in enumerate(labeled)]
    labeled[10:10] = [(("zz", "qq"), +1), (("yy", "xx"), -1)]
    labeled.append((("ww", "vv"), +1))
    ids = store.rows([w for b, _ in labeled for w in b]).reshape(-1, 2)
    features, known = featurize_rows(store, ids, CWV)
    keep = np.flatnonzero(known)
    labels = np.array([y for _, y in labeled], dtype=np.float64)
    return features[keep], labels[keep]


FOLD_MATRICES = {
    "noisy": lambda: stack(noisy_clusters(300, 12, seed=70, flip=0.1)),
    # long runs without a violation: the look-ahead gathers rows
    "separable": lambda: stack(clusters_with_verified_margin(240, 20, seed=71)),
    "dropped-rows": lambda: dropped_rows_matrix(72),
}


class TestFoldsFitOnRowIndices:
    """``cross_validate`` fits each fold on the row indices of the one
    matrix: every fold's model is bit for bit the one ``train`` fits on a
    copy of the fold's rows, and the report that of folds fitted on copies."""

    @pytest.mark.parametrize("data", FOLD_MATRICES)
    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_fold_fits_equal_fits_on_copies(self, data, k):
        features, labels = FOLD_MATRICES[data]()
        # distinct rows: a fit on any other rows than the fold's would differ
        assert len(np.unique(features, axis=0)) == len(features)
        for held_out in make_folds(len(features), k, seed=3):
            rest = np.ones(len(features), dtype=bool)
            rest[held_out] = False
            on_indices = phrase._fit(features, labels, np.flatnonzero(rest), 1e-2, 4, 3)
            on_copy = phrase.train(features[rest], labels[rest], reg=1e-2, epochs=4, seed=3)
            assert on_indices.weights.tobytes() == on_copy.weights.tobytes()
            assert on_indices.bias == on_copy.bias
        report = phrase.cross_validate(features, labels, k=k, seed=3, reg=1e-2, epochs=4)
        assert report == cross_validate_on_copies(features, labels, k, 3, 1e-2, 4)

    def test_rows_are_taken_in_the_order_given(self):
        features, labels = FOLD_MATRICES["noisy"]()
        subset = np.random.default_rng(5).permutation(len(features))[:200]
        on_indices = phrase._fit(features, labels, subset, 1e-2, 3, 7)
        on_copy = phrase.train(features[subset], labels[subset], reg=1e-2, epochs=3, seed=7)
        assert on_indices.weights.tobytes() == on_copy.weights.tobytes()
        assert on_indices.bias == on_copy.bias

    def test_a_training_fold_with_one_label_is_the_same_data_error(self):
        features, labels = stack(noisy_clusters(12, 3, seed=73))
        labels[:] = 1.0
        labels[4] = -1.0  # the folds of two hold it out once, leaving only +1 rows
        with pytest.raises(DataError) as on_copies:
            cross_validate_on_copies(features, labels, 2, 0, 1e-2, 3)
        with pytest.raises(DataError) as on_indices:
            phrase.cross_validate(features, labels, k=2, seed=0, reg=1e-2, epochs=3)
        assert str(on_indices.value) == str(on_copies.value) == (
            "training data must contain both labels")
        with pytest.raises(DataError, match="^training data must contain both labels$"):
            phrase._fit(features, labels, np.array([0, 1, 2]), 1e-2, 3, 0)
        with pytest.raises(DataError, match="^no training examples$"):
            phrase._fit(features, labels, np.array([], dtype=np.intp), 1e-2, 3, 0)

    def test_folds_copy_no_training_rows(self):
        """The folds of two thousand rows of 200 features trace less than
        half the matrix; a copy of the training rows of four folds alone
        takes three quarters of it."""
        rng = np.random.default_rng(74)
        features = rng.normal(size=(2000, 200))
        labels = np.where(features[:, 0] > 0, 1.0, -1.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            phrase.cross_validate(features, labels, k=4, seed=0, epochs=2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * features.nbytes

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

    def test_weights_and_bias_are_rounded_per_value(self):
        edges = [-0.0, 5e-324, 1e308, -1e16, 1.0, 0.1, 123456789.5, 0.99999999995]
        model = LinearModel(weights=np.array(edges), bias=-0.99999999995, reg=0.01,
                            epochs=1, seed=0)
        buf = io.StringIO()
        save_model(model, buf)
        doc = json.loads(buf.getvalue())
        assert doc["weights"] == [round9(w) for w in edges]
        assert doc["bias"] == round9(-0.99999999995)
        assert math.copysign(1.0, doc["weights"][0]) == -1.0  # -0.0 keeps its sign

    def test_model_without_kind_is_read_as_awv(self):
        examples = clusters_with_verified_margin(20, 4, seed=32)
        model = train(examples, reg=1e-3, epochs=5, seed=4)
        buf = io.StringIO()
        save_model(model, buf)
        assert '"feature_kind": ""' in buf.getvalue()
        assert load_model(io.StringIO(buf.getvalue())).feature_kind == "awv"

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

    @pytest.mark.parametrize("case, message", [
        ("missing-weights", "phrase model has no 'weights' array"),
        ("non-numeric-weights", "phrase model array 'weights' is not a 1-d array of JSON numbers"),
        ("count-mismatch", r"phrase model array 'weights' has shape \(2,\), expected \(3,\)"),
        ("nan-weight", "phrase model array 'weights' has non-finite weights"),
        ("no-weights", "phrase model has no weights"),
    ])
    def test_weights_are_read_as_the_relation_model_arrays_are(self, case, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            load_model(io.StringIO(malformed_phrase_models()[case]))
