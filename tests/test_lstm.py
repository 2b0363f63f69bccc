"""Recurrent path encoder: cell equations, BPTT gradients, training."""

import io
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from soundkb import DataError, lstm
from soundkb.lstm import (
    ARRAY_FIELDS,
    LEARNED,
    PRETRAINED,
    UNK_TOKEN,
    LstmParams,
    PathVocab,
    TrainConfig,
    build_vocab,
    evaluate,
    init_params,
    load_relation_model,
    loss_and_gradients,
    predict_paths,
    predict_relation,
    save_relation_model,
    softmax,
    tokenize_path,
    train,
)
from soundkb.paths import NEGATIVE, POSITIVE, RelationExample

from conftest import (
    batch_loss_and_gradients_row_major,
    evaluate_per_example,
    forward_whole_batch,
    learned_ids,
    lstm_cell,
    make_store,
    malformed_relation_models,
    predict_paths_row_major,
    round9,
    save_relation_model_per_value,
    train_row_major,
    zero_params,
)

EDGE_LABELS = ["amod()", "det()", "prep_of()", "nsubj()", "conj_and()", "dobj()"]
WORDS = ["children", "music", "dogs", "park", "noise", "heard", "came"]


def small_vocab(store=None) -> PathVocab:
    return build_vocab([EDGE_LABELS, WORDS], store=store)


def random_example(rng: random.Random, max_len: int = 7) -> RelationExample:
    length = rng.randint(1, max_len)
    tokens = [rng.choice(EDGE_LABELS + WORDS) for _ in range(length)]
    label = rng.choice([POSITIVE, NEGATIVE])
    return RelationExample(path=" ".join(tokens), label=label)


def gate(array: np.ndarray, name: str, h: int) -> np.ndarray:
    """One gate's block of a fused array; blocks are stacked i, f, o, u."""
    k = "ifou".index(name)
    return array[k * h : (k + 1) * h]


def run_path(params: LstmParams, vocab: PathVocab, tokens):
    """Final (h, c) of the shared forward pass over a path, and its final
    state as the pass returns it, (2 x h x 1)."""
    state = lstm._forward(params, np.array([[vocab.id_of(t) for t in tokens]]))
    return state[0, :, 0], state[1, :, 0], state


def traced_peak(call):
    """``call()`` and the tracemalloc peak it reached above the memory traced
    when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return result, peak


def scalar_cell_oracle(params: LstmParams, x, h_prev, c_prev):
    """Straight-line scalar re-implementation of the gate equations."""
    h = params.h
    d = params.d

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def affine(W, U, b, row):
        total = b[row]
        for col in range(d):
            total += W[row][col] * x[col]
        for col in range(h):
            total += U[row][col] * h_prev[col]
        return total

    def block(name):
        return gate(params.W, name, h), gate(params.U, name, h), gate(params.b, name, h)

    h_out = [0.0] * h
    c_out = [0.0] * h
    for row in range(h):
        i = sig(affine(*block("i"), row))
        f = sig(affine(*block("f"), row))
        o = sig(affine(*block("o"), row))
        u = math.tanh(affine(*block("u"), row))
        c_out[row] = i * u + f * c_prev[row]
        h_out[row] = o * math.tanh(c_out[row])
    return np.array(h_out), np.array(c_out)


def fd_loss(params, vocab, example):
    tokens = tokenize_path(example.path)
    probs = predict_relation(params, vocab, tokens)
    return -math.log(probs[example.label])


def fd_gradients(params, vocab, example, eps=1e-5):
    """Central finite differences through the forward pass only."""
    out = {}
    for name in ARRAY_FIELDS:
        array = getattr(params, name)
        grad = np.zeros_like(array)
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            saved = array[idx]
            array[idx] = saved + eps
            up = fd_loss(params, vocab, example)
            array[idx] = saved - eps
            down = fd_loss(params, vocab, example)
            array[idx] = saved
            grad[idx] = (up - down) / (2 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-4)
    return float((np.abs(analytic - numeric) / denom).max())


def kernel_batch(d, h, batch, length):
    """Parameters, a vocabulary with pretrained and learned rows, and
    random token ids (B x T)."""
    store = make_store({word: np.linspace(-0.5, 0.5, d) * (k + 1)
                        for k, word in enumerate(WORDS[:3])})
    vocab = build_vocab([EDGE_LABELS, WORDS + [f"w{i}" for i in range(40)]], store=store)
    params = init_params(vocab, d=d, h=h, store=store, seed=d + h + batch)
    ids = np.random.default_rng(length).integers(0, len(vocab), size=(batch, length))
    return params, vocab, ids


def assert_same_loss_and_gradients(result, expected, cancelling=False):
    """Loss and all five gradients agree to 12 digits.  With ``cancelling``,
    an entry may instead be within 1e-12 of its array's largest magnitude:
    an entry whose terms cancel keeps their rounding, which moves with the
    order the matmul sums them in."""
    (loss, grads), (expected_loss, expected_grads) = result, expected
    assert loss == pytest.approx(expected_loss, rel=1e-12)
    for name in ARRAY_FIELDS:
        want = getattr(expected_grads, name)
        atol = 1e-12 * np.abs(want).max() if cancelling else 0.0
        np.testing.assert_allclose(getattr(grads, name), want, rtol=1e-12, atol=atol)


def batch_gradients(params, vocab, examples):
    """Summed loss and gradients of same-length examples as one batch."""
    ids = np.array([[vocab.id_of(t) for t in tokenize_path(ex.path)] for ex in examples])
    targets = np.array([ex.label for ex in examples])
    return lstm._batch_loss_and_gradients(params, lstm._learned_mask(vocab), ids, targets,
                                          [ex.path for ex in examples])


def same_length_batch(rng: random.Random, tokens, size: int) -> list[RelationExample]:
    length = rng.randint(1, 7)
    return [RelationExample(" ".join(rng.choice(tokens) for _ in range(length)),
                            rng.choice([POSITIVE, NEGATIVE])) for _ in range(size)]


def max_batch_error(params, vocab, examples) -> tuple[float, float]:
    """Largest differences of the batch gradients from the sum of the
    one-example gradients (absolute) and from finite differences (relative,
    learned embedding rows only)."""
    loss, batch = batch_gradients(params, vocab, examples)
    singles = [loss_and_gradients(params, vocab, ex) for ex in examples]
    assert loss == pytest.approx(sum(single_loss for single_loss, _ in singles), rel=1e-14)
    numeric = [fd_gradients(params, vocab, ex) for ex in examples]
    worst_sum = worst_fd = 0.0
    for name in ARRAY_FIELDS:
        a = getattr(batch, name)
        summed = sum(getattr(grads, name) for _, grads in singles)
        n = sum(fd[name] for fd in numeric)
        worst_sum = max(worst_sum, float(np.abs(a - summed).max()))
        if name == "E":
            rows = learned_ids(vocab)
            a, n = a[rows], n[rows]
        worst_fd = max(worst_fd, max_relative_error(a, n))
    return worst_sum, worst_fd


def reference_train(params, vocab, examples, config):
    """Per-example training as it was before batches: one clipped step per
    example, in the order of each epoch's permutation."""
    rng = np.random.default_rng(config.seed)
    trace = []
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for idx in rng.permutation(len(examples)):
            loss, grads = loss_and_gradients(params, vocab, examples[int(idx)])
            total += loss
            norm = math.sqrt(sum(float(np.vdot(g, g)) for g in grads.arrays()))
            scale = config.learning_rate * min(1.0, config.clip / norm)
            for array, grad in zip(params.arrays(), grads.arrays()):
                array -= scale * grad
        trace.append((epoch, total / len(examples), evaluate(params, vocab, examples)))
    return trace


class TestCell:
    def test_zero_params_zero_state(self):
        params = zero_params(3, 2, 4)
        h, c = lstm_cell(params, np.zeros(2), np.zeros(4), np.zeros(4))
        np.testing.assert_allclose(h, 0.0, atol=1e-12)
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_zero_params_halve_cell_state(self):
        params = zero_params(3, 2, 4)
        c_prev = np.array([1.0, -2.0, 0.5, 3.0])
        h, c = lstm_cell(params, np.zeros(2), np.zeros(4), c_prev)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-12)
        # h is the output gate (0.5) times tanh of the halved state
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(42)
        vocab = small_vocab()
        for seed in range(10):
            params = init_params(vocab, d=2, h=3, seed=seed)
            x = rng.normal(size=2)
            h_prev = rng.normal(size=3)
            c_prev = rng.normal(size=3)
            h, c = lstm_cell(params, x, h_prev, c_prev)
            h_ref, c_ref = scalar_cell_oracle(params, x, h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(c, c_ref, rtol=1e-12, atol=1e-14)

    def test_gate_bounds_keep_h_below_one(self):
        rng = np.random.default_rng(1)
        vocab = small_vocab()
        params = init_params(vocab, d=4, h=5, seed=3)
        for _ in range(100):
            h, c = lstm_cell(
                params, rng.normal(size=4), np.tanh(rng.normal(size=5)),
                rng.normal(size=5),
            )
            assert np.all(np.abs(h) < 1.0)



class TestEncode:
    def test_single_token_equals_one_cell(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=0)
        h_path, c_path, _ = run_path(params, vocab, ["amod()"])
        x = params.E[vocab.id_of("amod()")]
        h, c = lstm_cell(params, x, np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(h_path, h)
        np.testing.assert_array_equal(c_path, c)

    def test_zero_params_zero_encoding(self):
        vocab = small_vocab()
        params = zero_params(len(vocab), 3, 4)
        h, _, _ = run_path(params, vocab, ["amod()", "children", "det()"])
        np.testing.assert_allclose(h, 0.0, atol=1e-15)

    def test_three_steps_equal_chained_cells(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=7)
        tokens = ["amod()", "children", "det()"]
        h_path, c_path, state = run_path(params, vocab, tokens)
        h = np.zeros(4)
        c = np.zeros(4)
        for tok in tokens:
            h, c = lstm_cell(params, params.E[vocab.id_of(tok)], h, c)
        np.testing.assert_allclose(h_path, h, rtol=1e-15)
        np.testing.assert_allclose(c_path, c, rtol=1e-15)
        assert state.shape == (2, 4, 1)  # feature-major: h and c, each (h x B)

    def test_predict_relation_decodes_chained_cells(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=8)
        tokens = ["prep_of()", "park", "amod()", "noise"]
        h = np.zeros(4)
        c = np.zeros(4)
        for tok in tokens:
            h, c = lstm_cell(params, params.E[vocab.id_of(tok)], h, c)
        np.testing.assert_allclose(
            predict_relation(params, vocab, tokens), softmax(params.W_r @ h), rtol=1e-14
        )

    def test_empty_path_rejected(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=0)
        with pytest.raises(ValueError, match="empty path"):
            predict_relation(params, vocab, [])
        with pytest.raises(ValueError, match="empty path"):
            predict_paths(params, vocab, ["amod()", ""])


class TestBatchedPredict:
    def _paths(self, n, seed):
        rng = random.Random(seed)
        pool = EDGE_LABELS + WORDS + ["neverseen", "alsounseen"]
        paths = [[rng.choice(pool) for _ in range(rng.randint(1, 9))] for _ in range(n)]
        return [" ".join(p) for p in paths + paths[: n // 3]]  # duplicates too

    # caps far under and over the number of sequences of one length
    @pytest.mark.parametrize("batch_size", [1, 7, 10_000])
    def test_matches_per_path_predict_relation(self, batch_size, monkeypatch):
        monkeypatch.setattr(lstm, "BATCH_SIZE", batch_size)
        vocab = small_vocab()
        params = init_params(vocab, d=5, h=6, seed=21)
        paths = self._paths(300, seed=21)
        assert len({len(tokenize_path(p)) for p in paths}) > 5
        probs = predict_paths(params, vocab, paths)
        assert probs.shape == (len(paths), 2)
        expected = [predict_relation(params, vocab, tokenize_path(p)) for p in paths]
        np.testing.assert_allclose(probs, expected, rtol=1e-12)

    def test_single_path_equals_predict_relation_bit_for_bit(self):
        """One path alone is a batch of one through the same forward pass."""
        vocab = small_vocab()
        params = init_params(vocab, d=5, h=6, seed=26)
        for path in self._paths(40, seed=26):
            probs = predict_paths(params, vocab, [path])
            assert tuple(probs[0]) == predict_relation(params, vocab, tokenize_path(path))

    def test_unknown_tokens_score_as_unk(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=22)
        probs = predict_paths(params, vocab, ["neverseen amod()", f"{UNK_TOKEN} amod()"])
        np.testing.assert_array_equal(probs[0], probs[1])

    def test_duplicates_get_identical_rows(self, monkeypatch):
        monkeypatch.setattr(lstm, "BATCH_SIZE", 1)
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=23)
        paths = ["amod() park", "det()", "amod() park", "det()"]
        probs = predict_paths(params, vocab, paths)
        np.testing.assert_array_equal(probs[0], probs[2])
        np.testing.assert_array_equal(probs[1], probs[3])

    def test_no_paths(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=24)
        assert predict_paths(params, vocab, []).shape == (0, 2)

    def test_evaluate_matches_per_path_rule(self):
        vocab = small_vocab()
        params = init_params(vocab, d=4, h=5, seed=25)
        rng = random.Random(25)
        examples = [random_example(rng, max_len=9) for _ in range(150)]
        correct = 0
        for ex in examples:
            p_pos, p_neg = predict_relation(params, vocab, tokenize_path(ex.path))
            correct += (POSITIVE if p_pos > p_neg else NEGATIVE) == ex.label
        assert evaluate(params, vocab, examples) == correct / len(examples)
        params.W_r[:] = 0.0  # p_pos == p_neg: ties go to the negative label
        negatives = sum(ex.label == NEGATIVE for ex in examples)
        assert evaluate(params, vocab, examples) == negatives / len(examples)

    @pytest.mark.parametrize("rows, accuracy", [
        ([(0.7, 0.3), (0.3, 0.7), (0.5, 0.5), (math.nan, math.nan)], 5 / 8),
        ([(0.5, 0.5)] * 4, 3 / 8),
        ([(math.nan, 0.2), (0.2, math.nan), (0.9, 0.1), (0.1, 0.9)], 3 / 8),
    ], ids=["mixed", "all-ties", "half-nan"])
    def test_evaluate_counts_ties_and_nan_as_negative(self, rows, accuracy, monkeypatch):
        probs = np.array(rows * 2)
        monkeypatch.setattr(lstm, "predict_paths", lambda params, vocab, paths: probs)
        labels = [POSITIVE, NEGATIVE, NEGATIVE, NEGATIVE] + [POSITIVE] * 4
        examples = [RelationExample(f"p{i}", label) for i, label in enumerate(labels)]
        assert evaluate(None, None, examples) == accuracy
        assert evaluate_per_example(None, None, examples) == accuracy

    def test_peak_memory_is_one_step_not_the_batch(self):
        """64 distinct 30-token paths at (d, h) = (64, 64): their whole-batch
        projection alone would take 3.75 MiB."""
        words = [f"w{i}" for i in range(200)]
        vocab = build_vocab([words])
        params = init_params(vocab, d=64, h=64, seed=27)
        rng = random.Random(27)
        paths = list(dict.fromkeys(" ".join(rng.choice(words) for _ in range(30))
                                   for _ in range(64)))
        assert len(paths) == 64
        probs, peak = traced_peak(lambda: predict_paths(params, vocab, paths))
        assert probs.shape == (64, 2)
        assert peak < 1.5 * (1 << 20)


class TestPerStepProjection:
    """Inference projects each step's inputs as the step comes, training
    projects the whole batch first; the row-major pass that projected the
    whole batch first, ``forward_whole_batch``, is the oracle for both."""

    SHAPES = [(3, 4, 1, 1), (5, 6, 7, 4), (8, 16, 64, 9), (32, 64, 16, 15), (6, 5, 100, 3)]

    @pytest.mark.parametrize("d, h, batch, length", SHAPES)
    def test_predict_paths_matches_whole_batch(self, d, h, batch, length):
        params, vocab, ids = kernel_batch(d, h, batch, length)
        paths = [" ".join(vocab.tokens[i] for i in row) for row in ids]
        expected = softmax(forward_whole_batch(params, ids)[0] @ params.W_r.T)
        np.testing.assert_allclose(predict_paths(params, vocab, paths), expected, rtol=1e-12)

    @pytest.mark.parametrize("d, h, batch, length", SHAPES)
    def test_batch_gradients_match_whole_batch(self, d, h, batch, length):
        params, vocab, ids = kernel_batch(d, h, batch, length)
        targets = np.random.default_rng(batch).integers(0, 2, size=batch)
        args = (params, lstm._learned_mask(vocab), ids, targets, ["path"] * batch)
        assert_same_loss_and_gradients(
            lstm._batch_loss_and_gradients(*args),
            batch_loss_and_gradients_row_major(*args, forward=forward_whole_batch))


class TestFeatureMajorKernel:
    """The feature-major kernel against the row-major one it replaced, at
    batch sizes where OpenBLAS switches kernels, which moves last bits."""

    @pytest.mark.parametrize("d, h", [(3, 4), (6, 5), (8, 16), (32, 64)])
    @pytest.mark.parametrize("length", [1, 15, 30])
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 5, 6, 9, 16, 64])
    def test_matches_row_major(self, d, h, length, batch):
        params, vocab, ids = kernel_batch(d, h, batch, length)
        targets = np.random.default_rng(batch + length).integers(0, 2, size=batch)
        args = (params, lstm._learned_mask(vocab), ids, targets, ["path"] * batch)
        assert_same_loss_and_gradients(lstm._batch_loss_and_gradients(*args),
                                       batch_loss_and_gradients_row_major(*args),
                                       cancelling=True)
        paths = [" ".join(vocab.tokens[i] for i in row) for row in ids]
        np.testing.assert_allclose(predict_paths(params, vocab, paths),
                                   predict_paths_row_major(params, vocab, paths), rtol=1e-12)

    def test_reused_work_arrays_give_the_same_gradients(self):
        """Batches of any size share one set of work arrays, sized for the
        largest, as ``train`` runs them."""
        work = lstm._work(30 * 16, 16, 16)
        for batch, length in [(16, 30), (3, 7), (16, 1), (9, 30), (1, 15)]:
            params, vocab, ids = kernel_batch(8, 16, batch, length)
            targets = np.random.default_rng(batch).integers(0, 2, size=batch)
            args = (params, lstm._learned_mask(vocab), ids, targets, ["path"] * batch)
            loss, grads = lstm._batch_loss_and_gradients(*args, work)
            expected_loss, expected = lstm._batch_loss_and_gradients(*args)
            assert loss == expected_loss
            for name in ARRAY_FIELDS:
                np.testing.assert_array_equal(getattr(grads, name), getattr(expected, name))

    def test_training_matches_row_major_trainer(self):
        examples = TestTrain()._task(120, seed=12)
        vocab = build_vocab([tokenize_path(e.path) for e in examples] + [["sound"]])
        params = init_params(vocab, d=6, h=8, seed=12)
        reference = LstmParams(*(a.copy() for a in params.arrays()))
        config = TrainConfig(epochs=2, seed=12)
        _, trace = train(params, vocab, examples, config)
        _, expected = train_row_major(reference, vocab, examples, config)
        assert [(s.epoch, s.accuracy) for s in trace] == [(s.epoch, s.accuracy) for s in expected]
        for stats, oracle in zip(trace, expected):
            assert stats.mean_loss == pytest.approx(oracle.mean_loss, rel=1e-12)
        for name in ARRAY_FIELDS:
            np.testing.assert_allclose(getattr(params, name), getattr(reference, name),
                                       rtol=1e-9)

    def test_peak_memory_of_a_training_batch(self):
        """16 paths of 15 tokens at (d, h) = (32, 64): the row-major kernel
        peaked 1,552,921 bytes above its entry in this test (numpy 2.4)."""
        params, vocab, ids = kernel_batch(32, 64, 16, 15)
        targets = np.random.default_rng(16).integers(0, 2, size=16)
        args = (params, lstm._learned_mask(vocab), ids, targets, ["path"] * 16)
        _, peak = traced_peak(lambda: lstm._batch_loss_and_gradients(*args))
        assert peak <= 1.55e6


class TestPredict:
    def test_zero_output_projection_gives_uniform(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=1)
        params.W_r[:] = 0.0
        p_pos, p_neg = predict_relation(params, vocab, ["amod()", "park"])
        assert p_pos == pytest.approx(0.5, abs=1e-12)
        assert p_neg == pytest.approx(0.5, abs=1e-12)

    def test_analytic_softmax(self):
        p = softmax(np.array([1.0, 1.0 + math.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = softmax(rng.normal(scale=10.0, size=2))
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0) and np.all(p < 1)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            z = rng.normal(scale=5.0, size=2)
            shift = rng.normal(scale=50.0)
            np.testing.assert_allclose(softmax(z), softmax(z + shift), atol=1e-10)

    def test_unknown_token_uses_unk_row(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=2)
        probs_unseen = predict_relation(params, vocab, ["neverseen"])
        probs_unk = predict_relation(params, vocab, [UNK_TOKEN])
        assert probs_unseen == probs_unk


class TestGradients:
    def test_zero_projection_loss_is_ln2(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=3)
        params.W_r[:] = 0.0
        for path in ("amod()", "amod() children det()"):
            example = RelationExample(path, POSITIVE)
            loss, _ = loss_and_gradients(params, vocab, example)
            assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_pretrained_row_gradient_zero(self):
        store = make_store({"children": [0.1] * 4, "park": [0.2] * 4})
        vocab = small_vocab(store)
        assert vocab.flags[vocab.id_of("children")] == PRETRAINED
        params = init_params(vocab, d=4, h=4, store=store, seed=4)
        example = RelationExample("amod() children park", NEGATIVE)
        _, grads = loss_and_gradients(params, vocab, example)
        assert np.all(grads.E[vocab.id_of("children")] == 0.0)
        assert np.all(grads.E[vocab.id_of("park")] == 0.0)
        assert np.any(grads.E[vocab.id_of("amod()")] != 0.0)

    def test_matches_finite_differences(self):
        rng = random.Random(2025)
        store = make_store({"children": [0.05] * 6, "park": [-0.05] * 6})
        for trial in range(5):
            h = rng.choice([4, 8])
            vocab = small_vocab(store)
            params = init_params(vocab, d=6, h=h, store=store, seed=trial)
            example = random_example(rng)
            _, analytic = loss_and_gradients(params, vocab, example)
            numeric = fd_gradients(params, vocab, example)
            worst = 0.0
            for name in ARRAY_FIELDS:
                a = getattr(analytic, name)
                n = numeric[name]
                if name == "E":
                    rows = learned_ids(vocab)
                    a, n = a[rows], n[rows]
                worst = max(worst, max_relative_error(a, n))
            assert worst < 1e-4

    def test_batch_is_the_sum_of_its_examples(self):
        rng = random.Random(2026)
        store = make_store({"children": [0.05] * 6, "park": [-0.05] * 6})
        vocab = small_vocab(store)
        for trial in range(4):
            params = init_params(vocab, d=6, h=[4, 8][trial % 2], store=store, seed=trial)
            examples = same_length_batch(rng, EDGE_LABELS + WORDS, rng.randint(2, 5))
            worst_sum, worst_fd = max_batch_error(params, vocab, examples)
            assert worst_sum < 1e-12
            assert worst_fd < 1e-4

    def test_batch_pretrained_row_gradient_zero(self):
        store = make_store({"children": [0.1] * 4})
        vocab = small_vocab(store)
        params = init_params(vocab, d=4, h=4, store=store, seed=5)
        examples = [RelationExample(path, label) for path, label in [
            ("amod() children", POSITIVE), ("children children", NEGATIVE),
            ("det() noise", NEGATIVE)]]
        _, grads = batch_gradients(params, vocab, examples)
        assert np.all(grads.E[vocab.id_of("children")] == 0.0)
        assert np.all(grads.E[vocab.id_of("noise")] != 0.0)

    def test_non_finite_loss_names_the_first_such_path(self):
        vocab = small_vocab()
        params = zero_params(len(vocab), 3, 4)
        params.b[12:] = 1.0  # candidate block: every path ends in the same h > 0
        params.W_r[0] = 1e6  # so p(negative) underflows to 0
        examples = [RelationExample(path, label) for path, label in [
            ("amod() park", POSITIVE), ("det() park", NEGATIVE), ("det() noise", NEGATIVE)]]
        with pytest.raises(ArithmeticError, match=r"non-finite loss for path 'det\(\) park'$"):
            batch_gradients(params, vocab, examples)


class TestTrain:
    def _task(self, n, seed):
        rng = random.Random(seed)
        examples = []
        for k in range(n):
            positive = k % 2 == 0
            length = rng.randint(1, 6)
            tokens = [rng.choice(EDGE_LABELS + WORDS) for _ in range(length)]
            if positive:
                tokens[rng.randrange(length)] = "sound"
            label = POSITIVE if positive else NEGATIVE
            examples.append(RelationExample(" ".join(tokens), label))
        return examples

    def _setup(self, n=60, seed=0, h=8):
        examples = self._task(n, seed)
        vocab = build_vocab([tokenize_path(e.path) for e in examples] + [["sound"]])
        params = init_params(vocab, d=6, h=h, seed=seed)
        return examples, vocab, params

    def test_deterministic_traces(self):
        traces = []
        for _ in range(2):
            examples, vocab, params = self._setup()
            config = TrainConfig(epochs=3, seed=11)
            _, trace = train(params, vocab, examples, config)
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_zero_learning_rate_keeps_params(self):
        examples, vocab, params = self._setup()
        before = [a.copy() for a in params.arrays()]
        config = TrainConfig(learning_rate=0.0, epochs=2, seed=0)
        train(params, vocab, examples, config)
        for old, new in zip(before, params.arrays()):
            np.testing.assert_array_equal(old, new)

    def test_loss_decreases_on_learnable_task(self):
        examples, vocab, params = self._setup(n=80, seed=1)
        config = TrainConfig(epochs=10, seed=1)
        _, trace = train(params, vocab, examples, config)
        assert trace[-1].mean_loss < trace[0].mean_loss
        assert trace[-1].accuracy > 0.8

    def test_single_class_rejected(self):
        examples, vocab, params = self._setup()
        positives = [e for e in examples if e.label == POSITIVE]
        with pytest.raises(ValueError, match="both relation labels"):
            train(params, vocab, positives, TrainConfig(epochs=1))

    # a label is a column index, so a string label is refused too
    @pytest.mark.parametrize("label", [2, -1, "positive", "neutral", "Positive", ""])
    def test_other_label_rejected(self, label):
        examples, vocab, params = self._setup(n=20, seed=2)
        examples[7] = examples[7]._replace(label=label)
        before = [a.copy() for a in params.arrays()]
        with pytest.raises(DataError, match="both relation labels"):
            train(params, vocab, examples, TrainConfig(epochs=1))
        assert all(np.array_equal(a, b) for a, b in zip(params.arrays(), before))

    @pytest.mark.parametrize("clip", [5.0, 0.5])  # 0.5 clips most steps
    def test_batch_size_one_is_per_example_training(self, clip, monkeypatch):
        monkeypatch.setattr(lstm, "TRAIN_BATCH_SIZE", 1)
        examples, vocab, params = self._setup(n=50, seed=4)
        reference = LstmParams(*(a.copy() for a in params.arrays()))
        config = TrainConfig(epochs=3, seed=4, clip=clip)
        _, trace = train(params, vocab, examples, config)
        expected = reference_train(reference, vocab, examples, config)
        assert [s.epoch for s in trace] == [epoch for epoch, _, _ in expected]
        for stats, (_, mean_loss, accuracy) in zip(trace, expected):
            assert abs(stats.mean_loss - mean_loss) <= 1e-15
            assert stats.accuracy == accuracy
        for name in ARRAY_FIELDS:
            assert np.abs(getattr(params, name) - getattr(reference, name)).max() <= 1e-15

    def test_each_distinct_path_is_encoded_once(self, monkeypatch):
        examples, vocab, params = self._setup(n=40, seed=9)
        examples = examples + examples[::2]  # every other path twice
        calls = []
        monkeypatch.setattr(lstm, "tokenize_path", lambda path: calls.append(path) or
                            path.split())
        config = TrainConfig(epochs=2, seed=9)
        train(params, vocab, examples, config)
        distinct = list(dict.fromkeys(ex.path for ex in examples))
        # train encodes each distinct path; every epoch's evaluate reuses its ids
        assert calls == distinct

    def test_batches_group_by_length(self):
        ids = [[1], [1, 2], [3], [4], [1, 2], [5, 6, 7], [8]]
        order = [6, 0, 1, 2, 3, 4, 5]
        assert list(lstm._length_batches(order, ids, 2)) == [[6, 0], [2, 3], [1, 4], [5]]
        assert list(lstm._length_batches(order, ids, 3)) == [[6, 0, 2], [3], [1, 4], [5]]
        assert list(lstm._length_batches(order, ids, 1)) == [[i] for i in order]

    def test_larger_batches_take_fewer_steps(self, monkeypatch):
        monkeypatch.setattr(lstm, "TRAIN_BATCH_SIZE", 16)
        examples, vocab, params = self._setup(n=60, seed=5)
        steps = []
        real = lstm._batch_loss_and_gradients
        monkeypatch.setattr(lstm, "_batch_loss_and_gradients",
                            lambda *args: steps.append(len(args[2])) or real(*args))
        train(params, vocab, examples, TrainConfig(epochs=2, seed=5))
        lengths = {len(tokenize_path(ex.path)) for ex in examples}
        assert sum(steps) == 2 * len(examples)
        assert max(steps) == 16
        assert len(steps) <= 2 * (len(examples) // 16 + len(lengths))

    def test_divergence_aborts(self):
        examples, vocab, params = self._setup()
        config = TrainConfig(learning_rate=1e18, epochs=50, clip=1e18, seed=0)
        with pytest.raises(RuntimeError, match="diverged"):
            train(params, vocab, examples, config)

    def test_frozen_rows_survive_training(self):
        store = make_store({"children": [0.25] * 6, "park": [-0.25] * 6})
        examples = self._task(40, seed=3)
        vocab = build_vocab(
            [tokenize_path(e.path) for e in examples] + [["sound"]], store=store
        )
        params = init_params(vocab, d=6, h=8, store=store, seed=3)
        train(params, vocab, examples, TrainConfig(epochs=2, seed=3))
        np.testing.assert_array_equal(
            params.E[vocab.id_of("children")], store.get("children")
        )


class TestInit:
    def test_pretrained_rows_copied_exactly(self):
        store = make_store({"children": [0.5, -1.5, 2.0], "park": [1.0, 0.0, -1.0]})
        vocab = small_vocab(store)
        params = init_params(vocab, d=3, h=4, store=store, seed=0)
        np.testing.assert_array_equal(
            params.E[vocab.id_of("children")], [0.5, -1.5, 2.0]
        )

    def test_edge_label_rows_random_within_scale(self):
        vocab = small_vocab()
        scale = 0.05
        params = init_params(vocab, d=3, h=4, seed=0, init_scale=scale)
        row = params.E[vocab.id_of("amod()")]
        assert vocab.flags[vocab.id_of("amod()")] == LEARNED
        assert np.all(np.abs(row) <= scale)
        assert np.any(row != 0.0)

    def test_same_seed_identical(self):
        vocab = small_vocab()
        p1 = init_params(vocab, d=3, h=4, seed=9)
        p2 = init_params(vocab, d=3, h=4, seed=9)
        for a, b in zip(p1.arrays(), p2.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_forget_bias_is_one(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=0)
        np.testing.assert_array_equal(gate(params.b, "f", 4), np.ones(4))
        np.testing.assert_array_equal(gate(params.b, "i", 4), np.zeros(4))

    def test_draws_in_per_gate_order(self):
        # the fused arrays hold the values that drawing W_xi ... W_xu,
        # U_hi ... U_hu and W_r one by one gives, so seeded runs start equal
        vocab = small_vocab()
        d, h = 3, 5
        params = init_params(vocab, d=d, h=h, seed=9, init_scale=0.1)
        rng = np.random.default_rng(9)
        E = rng.uniform(-0.1, 0.1, size=(len(vocab), d))
        scale = 1.0 / math.sqrt(h)
        W_x = [rng.uniform(-scale, scale, size=(h, d)) for _ in "ifou"]
        U_h = [rng.uniform(-scale, scale, size=(h, h)) for _ in "ifou"]
        W_r = rng.uniform(-scale, scale, size=(2, h))
        np.testing.assert_array_equal(params.E, E)
        for k, name in enumerate("ifou"):
            np.testing.assert_array_equal(gate(params.W, name, h), W_x[k])
            np.testing.assert_array_equal(gate(params.U, name, h), U_h[k])
        np.testing.assert_array_equal(params.W_r, W_r)

    def test_store_dimension_mismatch(self):
        store = make_store({"children": [1.0, 2.0]})
        vocab = small_vocab(store)
        with pytest.raises(ValueError, match="dimension"):
            init_params(vocab, d=3, h=4, store=store, seed=0)

    def test_gate_weight_scale(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=16, seed=2)
        bound = 1.0 / math.sqrt(16)
        for array in (gate(params.W, "i", 16), gate(params.U, "u", 16), params.W_r):
            assert np.all(np.abs(array) <= bound)


class TestVocab:
    def test_edge_labels_always_learned(self):
        store = make_store({"amod()": [1.0]})  # even if a store had it
        vocab = build_vocab([["amod()", "children"]], store=None)
        assert vocab.flags[vocab.id_of("amod()")] == LEARNED

    def test_unk_present_and_learned(self):
        vocab = build_vocab([["a"]])
        assert vocab.id_of(UNK_TOKEN) == 0
        assert vocab.flags[0] == LEARNED

    def test_dense_ids(self):
        vocab = small_vocab()
        assert sorted(vocab.ids.values()) == list(range(len(vocab)))

    def test_edge_label_flagged_pretrained_rejected(self):
        with pytest.raises(ValueError, match="must be learned"):
            PathVocab([UNK_TOKEN, "amod()"], [LEARNED, PRETRAINED])


class CharacterCount:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.characters = 0

    def write(self, text: str) -> None:
        self.characters += len(text)


class TestSerialization:
    def test_round_trip(self):
        store = make_store({"children": [0.5] * 5})
        vocab = small_vocab(store)
        params = init_params(vocab, d=5, h=6, store=store, seed=12)
        buf = io.StringIO()
        save_relation_model(params, vocab, buf)
        params2, vocab2 = load_relation_model(io.StringIO(buf.getvalue()))
        assert vocab2.tokens == vocab.tokens
        assert vocab2.flags == vocab.flags
        for name in ARRAY_FIELDS:
            np.testing.assert_allclose(
                getattr(params2, name), getattr(params, name), rtol=1e-8, atol=1e-12
            )

    def test_predictions_survive_round_trip(self):
        vocab = small_vocab()
        params = init_params(vocab, d=4, h=5, seed=13)
        buf = io.StringIO()
        save_relation_model(params, vocab, buf)
        params2, vocab2 = load_relation_model(io.StringIO(buf.getvalue()))
        tokens = ["amod()", "children", "prep_of()"]
        p1 = predict_relation(params, vocab, tokens)
        p2 = predict_relation(params2, vocab2, tokens)
        assert p1 == pytest.approx(p2, rel=1e-7)

    def test_bytes_equal_per_value_writer_on_trained_params(self):
        examples = [random_example(random.Random(k), max_len=6) for k in range(30)]
        examples[0] = RelationExample("amod()", POSITIVE)
        examples[1] = RelationExample("det()", NEGATIVE)
        store = make_store({"children": [0.25, -0.5, 0.125, 1.0]})
        vocab = small_vocab(store)
        params = init_params(vocab, d=4, h=5, store=store, seed=15)
        train(params, vocab, examples, TrainConfig(epochs=3, seed=15))
        ours, oracle = io.StringIO(), io.StringIO()
        save_relation_model(params, vocab, ours)
        save_relation_model_per_value(params, vocab, oracle)
        assert ours.getvalue() == oracle.getvalue()
        assert ours.getvalue().count("\n") == 1

    def test_bytes_equal_per_value_writer_on_edge_values(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=16)
        edges = [-0.0, 5e-324, 1e308, 1e16, 1.0, 0.1, 123456789.5, 0.99999999995]
        rng = np.random.default_rng(16)
        for k, array in enumerate(params.arrays()):
            flat = array.reshape(-1)
            flat[:] = rng.normal(size=flat.size) * 10.0 ** rng.integers(-20, 20, flat.size)
            flat[: len(edges)] = np.roll(edges, k)[: flat.size]
            flat[len(edges) : 2 * len(edges)] = np.negative(edges)[: flat.size - len(edges)]
        ours, oracle = io.StringIO(), io.StringIO()
        save_relation_model(params, vocab, ours)
        save_relation_model_per_value(params, vocab, oracle)
        assert ours.getvalue() == oracle.getvalue()
        written = [value for row in json.loads(ours.getvalue())["E"] for value in row]
        assert written[: len(edges)] == [round9(value) for value in edges]
        assert math.copysign(1.0, written[0]) == -1.0  # -0.0 keeps its sign

    def test_peak_memory_is_one_row_not_the_document(self):
        """A 5,000 x 64 ``E``: every array as float lists and the whole JSON
        text before one write would take about 40 MB."""
        vocab = build_vocab([[f"w{i}" for i in range(4999)]])
        params = init_params(vocab, d=64, h=64, seed=17)
        sink = CharacterCount()
        _, peak = traced_peak(lambda: save_relation_model(params, vocab, sink))
        text = io.StringIO()
        save_relation_model(params, vocab, text)
        assert params.E.shape == (5000, 64)
        assert sink.characters == len(text.getvalue())
        assert peak < 2 * (1 << 20)

    def test_rejects_other_documents(self):
        with pytest.raises(ValueError, match="relation model"):
            load_relation_model(io.StringIO('{"format": "nope"}'))

    def test_writes_version_2_layout(self):
        vocab = small_vocab()
        params = init_params(vocab, d=3, h=4, seed=14)
        buf = io.StringIO()
        save_relation_model(params, vocab, buf)
        doc = json.loads(buf.getvalue())
        assert list(doc) == ["format", "version", "d", "h", "vocab", "E", "W", "U",
                             "b", "W_r"]
        assert (doc["format"], doc["version"], doc["d"], doc["h"]) == (
            "soundkb-relation-model", 2, 3, 4)

    @pytest.mark.parametrize("case", sorted(malformed_relation_models()))
    def test_malformed_documents_raise_value_error(self, case):
        with pytest.raises(ValueError, match="relation model"):
            load_relation_model(io.StringIO(malformed_relation_models()[case]))

    def test_truncated_json_keeps_the_decoder_reason(self):
        text = malformed_relation_models()["truncated-json"]
        with pytest.raises(ValueError, match="not valid JSON: .*line 1") as info:
            load_relation_model(io.StringIO(text))
        assert isinstance(info.value.__cause__, json.JSONDecodeError)
