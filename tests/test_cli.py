"""CLI subcommands: outputs, diagnostics, exit codes."""

import argparse
import hashlib
import inspect
import io
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from soundkb import DataError, cli, embeddings, lstm, phrase
from soundkb.cli import main
from soundkb.embeddings import featurize, featurize_many, load_embeddings
from soundkb.lstm import load_relation_model, predict_relation, tokenize_path
from soundkb.paths import EnvironmentLexicon

from conftest import (
    PARK_BLOCK,
    PATTERN_EXAMPLES_CORPUS,
    RELATION_MODEL,
    classify_per_phrase,
    dump_embeddings,
    malformed_phrase_models,
    malformed_relation_models,
    separable_phrase_data,
    stack,
    words,
)

PARK_GOLDEN = "nsubjpass() filled prepc_with() sound prep_of()"
CHUNK = cli._READ_CHUNK  # characters per read of an input file


def data_lines(path):
    return [l for l in path.read_text(encoding="utf-8").splitlines()
            if not l.startswith("#")]


def write_embeddings(store, path):
    with open(path, "w", encoding="utf-8") as sink:
        dump_embeddings(store, sink)


def default_seed_files():
    base = resources.files("soundkb").joinpath("data")
    return str(base / "paths.pos"), str(base / "paths.neg")


@pytest.fixture
def phrase_setup(tmp_path):
    store, labeled = separable_phrase_data(16, 6, seed=77)
    vec = tmp_path / "emb.vec"
    write_embeddings(store, vec)
    data = tmp_path / "labeled.tsv"
    data.write_text(
        "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled), encoding="utf-8"
    )
    return store, labeled, vec, data


@pytest.fixture
def relation_setup(tmp_path):
    occ = tmp_path / "occ.tsv"
    rows = []
    for i in range(20):
        rows.append(f"park\tc{i}\tprep_of()\ts{i}")
        rows.append(f"beach\tc{i}\tamod()\ts{i}")
    occ.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return occ


class TestMine:
    def test_table1_fixture_golden_output(self, pattern_corpus_file, tmp_path, capsys):
        out = tmp_path / "concepts.tsv"
        assert main(["mine", "--corpus", str(pattern_corpus_file),
                     "--out", str(out)]) == 0
        assert data_lines(out) == [
            "classical music\tP6\t1",
            "dogs barking\tP3\t1",
            "gunshots\tP4\t1",
            "honking cars\tP1\t1",
            "string quartet\tP5\t1",
            "yelling\tP2\t1",
        ]
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("# soundkb")
        table = capsys.readouterr().out
        assert "P1\t<X> of (DT) VBG NN(S)\t1" in table

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.ann"
        corpus.write_text("", encoding="utf-8")
        out = tmp_path / "concepts.tsv"
        assert main(["mine", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert data_lines(out) == []

    def test_corrupt_block_skipped_with_diagnostic(self, tmp_path, capsys):
        corpus = tmp_path / "dirty.ann"
        corpus.write_text(
            "1\tsound\tNN\t0\troot\n\n1\tbroken\tNN\t9\tdep\n\n"
            "1\tsounds\tNNS\t4\tnsubj\n2\tof\tIN\t_\t_\n"
            "3\tgunshots\tNNS\t1\tprep_of\n4\tcame\tVBD\t0\troot\n",
            encoding="utf-8",
        )
        out = tmp_path / "concepts.tsv"
        assert main(["mine", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert "skipping sentence" in capsys.readouterr().err
        assert data_lines(out) == ["gunshots\tP4\t1"]

    def test_sharded_equals_unsharded(self, pattern_corpus_file, tmp_path):
        one = tmp_path / "one.tsv"
        four = tmp_path / "four.tsv"
        assert main(["mine", "--corpus", str(pattern_corpus_file), "--out", str(one)]) == 0
        assert main(["mine", "--corpus", str(pattern_corpus_file), "--out", str(four),
                     "--shards", "4"]) == 0
        assert data_lines(one) == data_lines(four)

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_sentence_k_goes_to_shard_k_mod_n(self, tmp_path, monkeypatch, shards):
        """The corpus is read in chunks; across them, shard i mines the
        sentences i, i + N, i + 2N, ... in order."""
        monkeypatch.setattr(cli, "SENTENCE_CHUNK", 5)
        folded = {}  # each shard table -> the sentences folded into it
        real = cli.mining.mine_corpus

        def spy(sentences, table):
            folded.setdefault(id(table), []).extend(s.sent_id for s in sentences)
            return real(sentences, table)

        monkeypatch.setattr(cli.mining, "mine_corpus", spy)
        corpus = tmp_path / "c.ann"
        corpus.write_text((PARK_BLOCK + "\n\n") * 23, encoding="utf-8")
        assert main(["mine", "--corpus", str(corpus), "--out", str(tmp_path / "o.tsv"),
                     "--shards", str(shards)]) == 0
        ids = [f"c.ann:{k}" for k in range(1, 24)]
        assert list(folded.values()) == [ids[i::shards] for i in range(shards)]

    def test_pattern_conflicts_warn_once_per_concept_at_any_shard_count(self, tmp_path, capsys):
        block = ("1\tthe\tDT\t2\tdet\n2\tsound\tNN\t0\troot\n3\tof\tIN\t2\tprep\n"
                 "4\t{}\t{}\t5\tamod\n5\t{}\t{}\t3\tpobj\n")
        # every shard of --shards 3 sees one id per concept, so only the
        # merge meets the conflicts; --shards 2 meets some in the shards
        mentions = [("running", "JJ", "water", "NN"), ("running", "VBG", "water", "NN"),
                    ("running", "NN", "water", "NN"), ("singing", "JJ", "birds", "NNS"),
                    ("singing", "JJ", "birds", "NNS"), ("singing", "VBG", "birds", "NNS")]
        corpus = tmp_path / "c.ann"
        corpus.write_text("\n".join(block.format(*m) for m in mentions), encoding="utf-8")
        printed = []
        for shards in ("1", "2", "3"):
            out = tmp_path / f"concepts{shards}.tsv"
            assert main(["mine", "--corpus", str(corpus), "--out", str(out),
                         "--shards", shards]) == 0
            printed.append((capsys.readouterr().err, out.read_bytes()))
        assert printed[0] == printed[1] == printed[2]
        assert printed[0][0] == (
            "warning: c.ann: concept 'running water' seen under P1, P5 and P6; keeping P1\n"
            "warning: c.ann: concept 'singing birds' seen under P1 and P6; keeping P1\n")

    def test_importing_the_cli_loads_no_logging(self):
        """The CLI prints every diagnostic itself; nothing sets up logging."""
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, soundkb.cli; print(sorted(m for m in sys.modules if 'logging' in m))"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "[]\n"

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["mine", "--corpus", str(tmp_path / "nope.ann"),
                     "--out", str(tmp_path / "o.tsv")]) == 2

    def test_concept_beginning_with_hash_is_dropped_and_counted(self, tmp_path, capsys):
        # a "#rain" row would read back as a comment, so paths would skip it
        rain = ("1\tThe\tDT\t2\tdet\n2\tsound\tNN\t5\tnsubj\n3\tof\tIN\t_\t_\n"
                "4\t{}\tNN\t2\tprep_of\n5\tfilled\tVBD\t0\troot\n6\tthe\tDT\t7\tdet\n"
                "7\tpark\tNN\t5\tdobj\n8\t.\t.\t5\tpunct\n")
        corpus = tmp_path / "c.ann"
        corpus.write_text(rain.format("#rain") + "\n" + rain.format("rain"), encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        assert main(["mine", "--corpus", str(corpus), "--out", str(concepts)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: c.ann: dropped 1 concepts that begin with '#'\n"
        assert data_lines(concepts) == ["rain\tP4\t1"]
        assert "P4\t<X> of (DT) NN(S)\t1\n" in captured.out
        assert "total\t\t1\n" in captured.out

        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--out", str(out)]) == 0
        assert data_lines(out) == [
            "park\train\tdobj() filled nsubj() sound prep_of()\tc.ann:2"]


class TestTrainPhrase:
    def test_separable_dataset_reports_100(self, phrase_setup, tmp_path, capsys):
        _, _, vec, data = phrase_setup
        out = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--featurizer", "awv", "--seed", "3", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Fold 1\tFold 2\tFold 3\tFold 4\tAvg"
        assert lines[1] == "100.00\t100.00\t100.00\t100.00\t100.00"
        assert out.exists()

    def test_too_few_rows_for_folds(self, phrase_setup, tmp_path, capsys):
        _, labeled, vec, _ = phrase_setup
        small = tmp_path / "small.tsv"
        small.write_text(
            "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled[:3]),
            encoding="utf-8",
        )
        assert main(["train-phrase", "--data", str(small), "--embeddings", str(vec),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "small.tsv: dataset of size 3 cannot be split into 4 folds" in (
            capsys.readouterr().err
        )

    def test_same_seed_identical_model_bytes(self, phrase_setup, tmp_path):
        _, _, vec, data = phrase_setup
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["train-phrase", "--data", str(data), "--embeddings",
                         str(vec), "--seed", "5", "--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_unrepresentable_rows_skipped_with_warning(self, phrase_setup, tmp_path, capsys):
        _, labeled, vec, _ = phrase_setup
        data = tmp_path / "with_oov.tsv"
        rows = "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled)
        data.write_text(rows + "zz\tqq\t+1\n", encoding="utf-8")
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(tmp_path / "m.json")]) == 0
        assert "unrepresentable" in capsys.readouterr().err

    def test_each_row_featurized_once(self, phrase_setup, tmp_path, monkeypatch, capsys):
        _, labeled, vec, _ = phrase_setup
        data = tmp_path / "with_oov.tsv"
        rows = "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled)
        data.write_text(rows + "zz\tqq\t+1\n", encoding="utf-8")
        calls = []

        def counting(store, bigrams, kind):
            calls.append(list(bigrams))
            return featurize_many(store, bigrams, kind)

        def one_row(store, bigram, kind):
            raise AssertionError(f"featurized {bigram} alone")

        monkeypatch.setattr(embeddings, "featurize_many", counting)
        # both names a layer could reach the one-row featurizer by
        monkeypatch.setattr(embeddings, "featurize", one_row)
        monkeypatch.setattr(phrase, "featurize", one_row)
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(tmp_path / "m.json")]) == 0
        assert calls == [[b for b, _ in labeled] + [("zz", "qq")]]
        assert capsys.readouterr().err == (f"warning: with_oov.tsv line {len(labeled) + 1}: "
                                           "skipping unrepresentable phrase: zz qq\n")

    def test_store_is_dropped_before_the_folds(self, phrase_setup, tmp_path, monkeypatch):
        """The fits need only the features: the store that ``featurize_many``
        copied its rows from is gone when cross-validation starts."""
        _, _, vec, data = phrase_setup
        stores, alive = [], []
        real_cross_validate = phrase.cross_validate

        def loading(lines, words=None):
            store = load_embeddings(lines, words)
            stores.append(weakref.ref(store))
            return store

        def cross_validating(*args, **kwargs):
            alive.append([ref() is not None for ref in stores])
            return real_cross_validate(*args, **kwargs)

        monkeypatch.setattr(embeddings, "load_embeddings", loading)
        monkeypatch.setattr(phrase, "cross_validate", cross_validating)
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(tmp_path / "m.json")]) == 0
        assert alive == [[False]]

    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_kept_rows_keep_their_labels(self, phrase_setup, tmp_path, capsys, kind):
        _, labeled, vec, _ = phrase_setup
        # every third label flipped, so no fold is separable and a label
        # paired with the wrong row changes the fit; unrepresentable rows
        # first, inside and last
        noisy = [(b, -y if i % 3 == 0 else y) for i, (b, y) in enumerate(labeled)]
        rows = ([(("zz", "qq"), +1)] + noisy[:7] + [(("yy", "xx"), -1)] + noisy[7:]
                + [(("ww", "vv"), +1)])
        data = tmp_path / "noisy.tsv"
        data.write_text("".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in rows),
                        encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--featurizer", kind, "--seed", "2", "--epochs", "5",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr()
        assert printed.err == "".join(
            f"warning: noisy.tsv line {line_no}: skipping unrepresentable phrase: {w1} {w2}\n"
            for line_no, (w1, w2) in ((1, ("zz", "qq")), (9, ("yy", "xx")),
                                      (len(rows), ("ww", "vv"))))

        store = load_embeddings(vec.read_text(encoding="utf-8").splitlines())
        features, labels = stack([(featurize(store, b, kind), y) for b, y in noisy])
        report = phrase.cross_validate(features, labels, k=4, seed=2, epochs=5)
        model = phrase.train(features, labels, epochs=5, seed=2, feature_kind=kind)
        assert min(report.fold_accuracies) < 1.0
        accuracies = [*report.fold_accuracies, report.mean_accuracy]
        assert printed.out.splitlines()[1] == "\t".join(f"{100 * a:.2f}" for a in accuracies)
        want = io.StringIO()
        phrase.save_model(model, want)
        assert out.read_text(encoding="utf-8").split("\n", 1)[1] == want.getvalue()

    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_non_finite_margin_names_the_line(self, tmp_path, capsys, kind):
        vec = tmp_path / "big.vec"
        vec.write_text("a 1 0\nb 2 0\nc -1 0\nd -2 0\nbig 1e308 1e308\n", encoding="utf-8")
        data = tmp_path / "labeled.tsv"
        # the average of the two big rows overflows; their concatenation is
        # finite, but its margin under the trained weights overflows
        data.write_text("a\tb\t+1\nb\ta\t+1\na\ta\t+1\nb\tb\t+1\nc\td\t-1\nd\tc\t-1\n"
                        "c\tc\t-1\nd\td\t-1\nbig\tbig\t+1\n", encoding="utf-8")
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
            err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                              "--featurizer", kind, "--folds", "2", "--out", str(out)], capsys)
        assert err.startswith("error: labeled.tsv line 9: the margin of 'big big' is not finite")
        assert "Warning" not in err and not out.exists()

    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_non_finite_margin_after_a_skipped_row_names_its_line(self, tmp_path, capsys, kind):
        vec = tmp_path / "big.vec"
        vec.write_text("a 1 0\nb 2 0\nc -1 0\nd -2 0\nbig 1e308 1e308\n", encoding="utf-8")
        data = tmp_path / "labeled.tsv"
        data.write_text("zz\tqq\t+1\na\tb\t+1\nb\ta\t+1\na\ta\t+1\nb\tb\t+1\nc\td\t-1\n"
                        "d\tc\t-1\nc\tc\t-1\nd\td\t-1\nbig\tbig\t+1\n", encoding="utf-8")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--featurizer", kind, "--folds", "2", "--out", str(tmp_path / "m.json")],
                         capsys)
        assert err.startswith(
            "warning: labeled.tsv line 1: skipping unrepresentable phrase: zz qq\n"
            "error: labeled.tsv line 10: the margin of 'big big' is not finite")

    @pytest.mark.parametrize("label", ["x", "2", "0", "+1.0"])
    def test_bad_label_names_file_and_line(self, phrase_setup, tmp_path, capsys, label):
        _, labeled, vec, _ = phrase_setup
        data = tmp_path / "bad_label.tsv"
        rows = "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled[:4])
        data.write_text("# labels\n" + rows + f"zz\tqq\t{label}\n", encoding="utf-8")
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert f"bad_label.tsv line 6: label must be +1 or -1, got {label!r}" in (
            capsys.readouterr().err
        )


class TestClassify:
    def test_batch_and_flags(self, phrase_setup, tmp_path):
        _, labeled, vec, data = phrase_setup
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--seed", "3", "--out", str(model)]) == 0
        positives = [b for b, y in labeled if y == +1]
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text(
            "".join(f"{w1}\t{w2}\n" for w1, w2 in positives[:5])
            + "zz\tqq\n",
            encoding="utf-8",
        )
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        rows = data_lines(out)
        assert len(rows) == 6
        for row in rows[:5]:
            assert row.split("\t")[2] == "+1"
        assert rows[5].split("\t")[2:] == ["unrepresentable", "NA"]

    def test_one_column_row_names_file_and_line(self, phrase_setup, tmp_path, capsys):
        _, labeled, vec, data = phrase_setup
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--seed", "3", "--out", str(model)]) == 0
        phrases = tmp_path / "phrases.tsv"
        w1, w2 = labeled[0][0]
        phrases.write_text(f"{w1}\t{w2}\n\nlonely\n", encoding="utf-8")
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(tmp_path / "p.tsv")]) == 2
        assert "phrases.tsv line 3: phrase rows need 2 columns" in capsys.readouterr().err

    def test_cwv_model_classifies_with_cwv_features(self, phrase_setup, tmp_path):
        _, labeled, vec, data = phrase_setup
        model_path = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--featurizer", "cwv", "--seed", "3", "--out", str(model_path)]) == 0
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("".join(f"{w1}\t{w2}\n" for (w1, w2), _ in labeled),
                           encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model_path), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        model = phrase.load_model(data_lines(model_path))
        assert model.feature_kind == "cwv"
        store = load_embeddings(data_lines(vec))
        expected = []
        for bigram, _ in labeled:
            label, margin = phrase.predict(model, featurize(store, bigram, "cwv"))
            expected.append(f"{bigram[0]}\t{bigram[1]}\t{label:+d}\t{margin:.9g}")
        assert data_lines(out) == expected

    @staticmethod
    def _train(data, vec, tmp_path, kind):
        model = tmp_path / f"{kind}_model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--featurizer", kind, "--seed", "3", "--out", str(model)]) == 0
        return model

    @pytest.mark.parametrize("per_chunk", [1, 3, 4, None])
    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_chunks_equal_per_phrase_predict(self, phrase_setup, tmp_path, monkeypatch,
                                             kind, per_chunk):
        store, labeled, vec, data = phrase_setup
        model_path = self._train(data, vec, tmp_path, kind)
        if per_chunk is not None:
            monkeypatch.setattr(cli, "CLASSIFY_CHUNK_FLOATS", per_chunk * 2 * store.dimension)
        known = [b for b, _ in labeled]
        unknown = ("zz", "qq")
        # with three phrases a chunk, the unrepresentable rows open and close
        # chunks, and the last chunk is a short one
        bigrams = [unknown, known[0], unknown, unknown, known[1], (known[2][0].upper(), "oov"),
                   ("OOV", known[3][1].title()), known[4], unknown, *known[5:], unknown]
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("".join(f"{w1}\t{w2}\n" for w1, w2 in bigrams), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model_path), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        model = phrase.load_model(data_lines(model_path))
        loaded = load_embeddings(data_lines(vec))
        expected = []
        for w1, w2 in bigrams:
            try:
                label, margin = phrase.predict(model, featurize(loaded, (w1, w2), kind))
            except embeddings.PhraseUnrepresentableError:
                expected.append(f"{w1}\t{w2}\tunrepresentable\tNA")
            else:
                expected.append(f"{w1}\t{w2}\t{label:+d}\t{margin:.9g}")
        assert data_lines(out) == expected

    @pytest.mark.parametrize("kind", ["awv", "cwv"])
    def test_word_slots_equal_per_phrase_featurize_many(self, phrase_setup, tmp_path,
                                                        monkeypatch, kind):
        store, labeled, vec, data = phrase_setup
        model_path = self._train(data, vec, tmp_path, kind)
        monkeypatch.setattr(cli, "CLASSIFY_CHUNK_FLOATS", 3 * 2 * store.dimension)
        (a, b), (c, d) = labeled[0][0], labeled[-1][0]
        # one word as written and capitalized, a word in both columns, unknown
        # words, an unrepresentable row, and repeated rows
        bigrams = [(a, b), (a.title(), b), (b, a.upper()), (a, a), (c, "oov"), ("OOV", d),
                   ("oov", "zz"), (a, b), (d, c.title()), ("zz", "oov"), (a.title(), b)]
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("".join(f"{w1}\t{w2}\n" for w1, w2 in bigrams), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model_path), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        model = phrase.load_model(data_lines(model_path))
        assert data_lines(out) == classify_per_phrase(load_embeddings(data_lines(vec)), model,
                                                      bigrams)

    def test_words_are_written_back_as_given(self, phrase_setup, tmp_path):
        _, labeled, vec, data = phrase_setup
        model = self._train(data, vec, tmp_path, "awv")
        a, b = labeled[0][0]
        rows = [(a.upper(), b), (a, b.title()), (a.upper(), a.upper()), ("Oov", "ZZ")]
        phrases = tmp_path / "phrases.tsv"
        # a third column is read past and not written
        phrases.write_text("".join(f"{w1}\t{w2}\tnote\n" for w1, w2 in rows), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        written = [line.split("\t") for line in data_lines(out)]
        assert [tuple(row[:2]) for row in written] == rows
        assert [row[2] for row in written] == ["+1", "+1", "+1", "unrepresentable"]

    @pytest.mark.parametrize("text", ["", "# no phrases\n\n"])
    def test_no_phrases_writes_the_two_header_lines(self, phrase_setup, tmp_path, text):
        _, _, vec, data = phrase_setup
        model = self._train(data, vec, tmp_path, "awv")
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text(text, encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and lines[0].startswith("# soundkb ")
        assert lines[1] == "# word1\tword2\tlabel\tmargin"

    @pytest.mark.parametrize("per_chunk", [2, None])
    def test_non_finite_margin_names_the_first_line(self, phrase_setup, tmp_path, capsys,
                                                    monkeypatch, per_chunk):
        store, labeled, vec, data = phrase_setup
        model = self._train(data, vec, tmp_path, "awv")
        if per_chunk is not None:
            monkeypatch.setattr(cli, "CLASSIFY_CHUNK_FLOATS", per_chunk * 2 * store.dimension)
        big = tmp_path / "big.vec"
        big.write_text(vec.read_text(encoding="utf-8")
                       + "big " + " ".join(["1e308"] * store.dimension) + "\n", encoding="utf-8")
        (w1, w2), _ = labeled[0]
        phrases = tmp_path / "phrases.tsv"
        # line 5 is the first whose average overflows; big with an unknown
        # word (line 4) halves to a finite feature
        phrases.write_text(f"# phrases\n{w1}\t{w2}\nzz\tqq\nbig\toov\nbig\tbig\n"
                           f"{w1}\tbig\nbig\tbig\n", encoding="utf-8")
        out = tmp_path / "preds.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
            err = data_error(["classify", "--model", str(model), "--embeddings", str(big),
                              "--phrases", str(phrases), "--out", str(out)], capsys)
        assert err.startswith("error: phrases.tsv line 5: the margin of 'big big' is not finite")
        assert "Warning" not in err and not out.exists()

    def test_featurizer_option_is_usage_error(self, phrase_setup, tmp_path, capsys):
        _, labeled, vec, data = phrase_setup
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(model)]) == 0
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("\t".join(labeled[0][0]) + "\n", encoding="utf-8")
        out = tmp_path / "p.tsv"
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--featurizer", "awv",
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --featurizer awv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(malformed_phrase_models()))
    def test_malformed_model_is_data_error(self, case, phrase_setup, tmp_path, capsys):
        _, labeled, vec, _ = phrase_setup
        model = tmp_path / "bad.json"
        model.write_text("# provenance\n" + malformed_phrase_models()[case], encoding="utf-8")
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("\t".join(labeled[0][0]) + "\n", encoding="utf-8")
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(tmp_path / "p.tsv")]) == 2
        assert "bad.json: " in capsys.readouterr().err


class TestPaths:
    def test_park_fixture_golden_path(self, tmp_path, capsys):
        corpus = tmp_path / "park.ann"
        corpus.write_text(PARK_BLOCK + "\n", encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--out", str(out)]) == 0
        rows = data_lines(out)
        assert rows == [f"park\tchildren playing\t{PARK_GOLDEN}\tpark.ann:1"]
        freq = data_lines(out.with_suffix(".freq.tsv"))
        assert freq == [f"{PARK_GOLDEN}\t1"]
        assert capsys.readouterr().err == ""

    def test_unconnected_pairs_counted_in_one_warning(self, tmp_path, capsys):
        # the environment word carries no dependency edge, so no path reaches it
        stranded = ("1\tgunshots\tNNS\t2\tnsubj\n2\techoed\tVBD\t0\troot\n"
                    "3\tin\tIN\t_\t_\n4\tpark\tNN\t_\t_\n")
        corpus = tmp_path / "c.ann"
        corpus.write_text(f"{stranded}\n{PARK_BLOCK}\n\n{stranded}", encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\ngunshots\tP4\t1\n", encoding="utf-8")
        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--out", str(out)]) == 0
        assert data_lines(out) == [f"park\tchildren playing\t{PARK_GOLDEN}\tc.ann:2"]
        assert capsys.readouterr().err == (
            "warning: c.ann: dropped 2 mention pairs with an anchor that has no "
            "dependency edge\n")

    def test_no_mentions_empty_outputs(self, tmp_path):
        corpus = tmp_path / "c.ann"
        corpus.write_text("1\thello\tUH\t0\troot\n", encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("gunshots\tP4\t1\n", encoding="utf-8")
        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--out", str(out)]) == 0
        assert data_lines(out) == []
        assert data_lines(out.with_suffix(".freq.tsv")) == []

    def test_duplicate_pair_counted_once_in_ranking(self, tmp_path):
        corpus = tmp_path / "c.ann"
        corpus.write_text((PARK_BLOCK + "\n\n") * 3, encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--out", str(out)]) == 0
        assert len(data_lines(out)) == 3
        assert data_lines(out.with_suffix(".freq.tsv")) == [f"{PARK_GOLDEN}\t1"]

    @pytest.mark.parametrize("existed", [True, False], ids=["outputs-existed", "no-outputs"])
    def test_a_failed_run_leaves_the_outputs_as_they_were(self, tmp_path, capsys, existed):
        """Rows are written as the corpus is read, into temporary files that
        replace the outputs only when the whole run succeeds: a byte that is
        not UTF-8 in the last block, read after chunks of rows were written,
        leaves every file as it was and no other file behind."""
        corpus = tmp_path / "c.ann"
        count = 3 * cli.SENTENCE_CHUNK
        corpus.write_bytes((PARK_BLOCK + "\n\n").encode() * count + b"1\tcaf\xe9\tNN\t0\troot\n")
        assert corpus.stat().st_size > 2 * CHUNK
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        out, freq = tmp_path / "occ.tsv", tmp_path / "occ.freq.tsv"
        if existed:
            out.write_text("an earlier output\n", encoding="utf-8")
            freq.write_text("earlier frequencies\n", encoding="utf-8")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        err = data_error(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                          "--out", str(out)], capsys)
        assert err == (f"error: c.ann line {11 * count + 1}: not UTF-8 text "
                       "(invalid continuation byte)\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    # command: (input files, argv without --out, the other outputs it writes)
    SYMLINKED = {
        "paths": ({"c.ann": PARK_BLOCK + "\n", "concepts.tsv": "children playing\tP3\t1\n"},
                  ["paths", "--corpus", "c.ann", "--concepts", "concepts.tsv",
                   "--freq-out", "f.tsv"], {"f.tsv"}),
        "train-relation": ({"occ.tsv": "park\tc1\tamod()\ts1\nstreet\tc2\tprep_of()\ts2\n",
                            "seeds.pos": "amod()\n", "seeds.neg": "prep_of()\n"},
                           ["train-relation", "--occurrences", "occ.tsv", "--seeds-pos",
                            "seeds.pos", "--seeds-neg", "seeds.neg", "--dim", "4", "--hidden",
                            "4", "--epochs", "2"], set()),
    }

    @pytest.mark.parametrize("command", SYMLINKED)
    def test_outputs_are_replaced_through_a_symlink_keeping_their_mode(self, tmp_path,
                                                                       monkeypatch, command):
        """The file that an output's symlink names gets the bytes of a plain
        output and keeps its permission bits; no other file is left."""
        monkeypatch.chdir(tmp_path)
        files, argv, others = self.SYMLINKED[command]
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        target = Path("real.out")
        target.write_text("an earlier output\n", encoding="utf-8")
        target.chmod(0o640)
        Path("link.out").symlink_to("real.out")
        before = set(os.listdir())
        assert main([*argv, "--out", "link.out"]) == 0
        assert Path("link.out").is_symlink()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert set(os.listdir()) == before | others
        assert main([*argv, "--out", "plain.out"]) == 0
        assert target.read_bytes() == Path("plain.out").read_bytes()
        if command == "paths":
            assert data_lines(target) == [f"park\tchildren playing\t{PARK_GOLDEN}\tc.ann:1"]

    def test_custom_environment_file(self, tmp_path):
        corpus = tmp_path / "c.ann"
        corpus.write_text(PARK_BLOCK + "\n", encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        envs = tmp_path / "envs.txt"
        envs.write_text("library\n", encoding="utf-8")
        out = tmp_path / "occ.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--environments", str(envs), "--out", str(out)]) == 0
        assert data_lines(out) == []

    def test_empty_file_options_mean_not_given(self, tmp_path):
        corpus = tmp_path / "c.ann"
        corpus.write_text(PARK_BLOCK + "\n", encoding="utf-8")
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        out = tmp_path / "o.tsv"
        assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                     "--environments", "", "--freq-out", "", "--out", str(out)]) == 0
        assert data_lines(out) == [f"park\tchildren playing\t{PARK_GOLDEN}\tc.ann:1"]
        assert data_lines(tmp_path / "o.freq.tsv") == [f"{PARK_GOLDEN}\t1"]
        preds = tmp_path / "preds.tsv"
        preds.write_text("library\tbooks\tp()\t0.9\n", encoding="utf-8")
        report = tmp_path / "r.tsv"
        assert main(["report", "--predictions", str(preds), "--environments", "",
                     "--out", str(report)]) == 0
        assert [row.split("\t")[0] for row in data_lines(report)] == list(
            EnvironmentLexicon.default().entries)


class TestTrainRelation:
    def test_trains_and_is_deterministic(self, relation_setup, tmp_path, capsys):
        pos, neg = default_seed_files()
        digests = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["train-relation", "--occurrences", str(relation_setup),
                         "--seeds-pos", pos, "--seeds-neg", neg, "--seed", "1",
                         "--hidden", "8", "--dim", "6", "--epochs", "4",
                         "--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
        stdout = capsys.readouterr().out
        assert stdout.count("epoch 4") == 2

    def test_overlapping_seed_files_rejected(self, relation_setup, tmp_path, capsys):
        pos = tmp_path / "p.pos"
        neg = tmp_path / "n.neg"
        pos.write_text("amod()\nprep_of()\n", encoding="utf-8")
        neg.write_text("amod()\n", encoding="utf-8")
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", str(pos), "--seeds-neg", str(neg),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "p.pos, n.neg: overlapping seed sets: ['amod()']" in capsys.readouterr().err

    def test_no_seeded_occurrence_is_data_error(self, tmp_path, capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("park\tc\txcomp()\ts1\n", encoding="utf-8")
        pos, neg = default_seed_files()
        assert main(["train-relation", "--occurrences", str(occ),
                     "--seeds-pos", pos, "--seeds-neg", neg,
                     "--out", str(tmp_path / "m.json")]) == 2
        assert "occ.tsv: no occurrence matched a seed path in paths.pos or paths.neg" in (
            capsys.readouterr().err
        )


    @pytest.mark.parametrize("dim, code, d", [("6", 1, None), ("4", 0, 4), (None, 0, 4)],
                             ids=["disagrees", "agrees", "omitted"])
    def test_dim_must_match_the_embeddings(self, relation_setup, tmp_path, capsys,
                                           dim, code, d):
        vec = tmp_path / "four.vec"
        vec.write_text("park 1 0 0 0\nbeach 0 1 0 0\n", encoding="utf-8")
        pos, neg = default_seed_files()
        out = tmp_path / "m.json"
        argv = ["train-relation", "--occurrences", str(relation_setup), "--seeds-pos", pos,
                "--seeds-neg", neg, "--embeddings", str(vec), "--hidden", "2",
                "--epochs", "1", "--out", str(out)]
        assert main(argv + (["--dim", dim] if dim else [])) == code
        if code:
            assert ("error: --dim 6 disagrees with four.vec, whose vectors have 4 dimensions"
                    in capsys.readouterr().err)
            assert not out.exists()
        else:
            params, _vocab = load_relation_model(data_lines(out))
            assert params.E.shape[1] == d

    def test_each_distinct_path_is_encoded_once(self, relation_setup, tmp_path,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(lstm, "tokenize_path", lambda path: calls.append(path) or
                            path.split())
        pos, neg = default_seed_files()
        out = tmp_path / "m.json"
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--hidden", "2", "--dim", "2",
                     "--epochs", "3", "--out", str(out)]) == 0
        # 40 examples over two paths: the vocabulary splits each path once and
        # training encodes it once, in first-seen order; the three epochs'
        # evaluations reuse those ids
        assert calls == ["prep_of()", "amod()"] * 2
        _params, vocab = load_relation_model(data_lines(out))
        assert vocab.tokens == ["<unk>", "prep_of()", "amod()"]

    def test_only_the_path_of_each_occurrence_is_kept(self, relation_setup, tmp_path,
                                                      monkeypatch):
        """``generate_training_examples`` gets one path string per occurrence
        row, in file order, and each distinct path is one string."""
        received = []
        real = cli.paths.generate_training_examples
        monkeypatch.setattr(
            cli.paths, "generate_training_examples",
            lambda paths, pos, neg: received.append(paths) or real(paths, pos, neg))
        pos, neg = default_seed_files()
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--hidden", "2", "--dim", "2",
                     "--epochs", "1", "--out", str(tmp_path / "m.json")]) == 0
        (paths,) = received
        assert paths == ["prep_of()", "amod()"] * 20
        assert len({id(path) for path in paths}) == 2

    def test_dim_defaults_to_32_without_embeddings(self, relation_setup, tmp_path):
        pos, neg = default_seed_files()
        out = tmp_path / "m.json"
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--hidden", "2",
                     "--epochs", "1", "--out", str(out)]) == 0
        params, _vocab = load_relation_model(data_lines(out))
        assert params.E.shape[1] == 32


class TestPredictAndReport:
    @pytest.fixture
    def trained_model(self, relation_setup, tmp_path):
        pos, neg = default_seed_files()
        model = tmp_path / "model.json"
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--seed", "2",
                     "--hidden", "8", "--dim", "6", "--epochs", "30",
                     "--out", str(model)]) == 0
        return model

    def test_predict_row_per_occurrence(self, trained_model, relation_setup, tmp_path):
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(trained_model),
                     "--occurrences", str(relation_setup), "--out", str(out)]) == 0
        rows = data_lines(out)
        assert len(rows) == 40
        by_path = {row.split("\t")[2]: float(row.split("\t")[3]) for row in rows}
        assert by_path["prep_of()"] > 0.5 > by_path["amod()"]

    def test_predict_rows_follow_input_order(self, trained_model, tmp_path):
        occ = tmp_path / "mixed.tsv"
        paths = ["amod()", "prep_of() park nsubj()", "prep_of()", "unseenword amod()",
                 "amod()", "nsubj() filled prep_of() sound", "prep_of()"]
        rows_in = [(["park", "beach"][k % 2], f"c{k}", path) for k, path in enumerate(paths)]
        occ.write_text(
            "# scene\tconcept\tpath\tsentence\n"
            + "".join(f"{s}\t{c}\t{p}\tref{k}\n" for k, (s, c, p) in enumerate(rows_in)),
            encoding="utf-8",
        )
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(trained_model),
                     "--occurrences", str(occ), "--out", str(out)]) == 0
        rows = [row.split("\t") for row in data_lines(out)]
        assert [tuple(row[:3]) for row in rows] == rows_in
        lines = [l for l in trained_model.read_text(encoding="utf-8").splitlines()
                 if not l.startswith("#")]
        params, vocab = load_relation_model(lines)
        for row in rows:
            p_pos, _ = predict_relation(params, vocab, tokenize_path(row[2]))
            assert float(row[3]) == pytest.approx(p_pos, rel=1e-8)
        # the p column is each float64 at 9 significant digits
        assert [row[3] for row in rows] == [
            f"{np.float64(p):.9g}" for p in lstm.predict_paths(params, vocab, paths)[:, 0]]
        by_path = {}
        for row in rows:
            assert by_path.setdefault(row[2], row[3]) == row[3]

    def test_rows_that_share_a_path_share_its_p_text(self, trained_model, tmp_path):
        paths = ["amod()", "prep_of()", "amod()", "nsubj() filled prep_of() sound",
                 "prep_of()", "amod()", "unseenword amod()", "nsubj() filled prep_of() sound"]
        occ = tmp_path / "shared.tsv"
        occ.write_text("".join(f"{['park', 'beach'][k % 2]}\tc{k}\t{path}\tref{k}\n"
                               for k, path in enumerate(paths)), encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(trained_model),
                     "--occurrences", str(occ), "--out", str(out)]) == 0
        rows = [row.split("\t") for row in data_lines(out)]
        assert [row[2] for row in rows] == paths
        texts = {}
        for row in rows:
            assert texts.setdefault(row[2], row[3]) == row[3]
        assert len(texts) == 4
        # each row's p is what one score per row gives
        params, vocab = load_relation_model(data_lines(trained_model))
        assert [row[3] for row in rows] == [
            f"{p:.9g}" for p in lstm.predict_paths(params, vocab, paths)[:, 0].tolist()]

    def test_each_distinct_path_is_scored_once_in_first_seen_order(self, tmp_path,
                                                                    monkeypatch):
        model = tmp_path / "model.json"
        model.write_text(RELATION_MODEL, encoding="utf-8")
        paths = ["b()", "a()", "b()", "c() x", "a()", "b()", "c() x"]
        occ = tmp_path / "occ.tsv"
        occ.write_text("".join(f"park\tc{k}\t{path}\tref{k}\n" for k, path in enumerate(paths)),
                       encoding="utf-8")
        calls = []

        def scored(params, vocab, distinct):
            calls.append(list(distinct))
            return np.array([[p, 1.0 - p] for p in (0.25, 0.5, 0.75)[:len(distinct)]])

        monkeypatch.setattr(lstm, "predict_paths", scored)
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(model), "--occurrences", str(occ),
                     "--out", str(out)]) == 0
        assert calls == [["b()", "a()", "c() x"]]
        assert [row.split("\t")[3] for row in data_lines(out)] == [
            "0.25", "0.5", "0.25", "0.75", "0.5", "0.25", "0.75"]

    def test_p_column_formats_edge_values(self, tmp_path, monkeypatch):
        values = [0.5, 1e-10, 0.99999999995, 5e-324, 1.0]
        model = tmp_path / "model.json"
        model.write_text(RELATION_MODEL, encoding="utf-8")
        occ = tmp_path / "occ.tsv"  # one path per row: a path has one score
        occ.write_text("".join(f"park\tc{k}\tamod() w{k}\tref{k}\n" for k in range(len(values))),
                       encoding="utf-8")
        probs = np.array([[p, 1.0 - p] for p in values])
        monkeypatch.setattr(lstm, "predict_paths", lambda *args: probs)
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(model), "--occurrences", str(occ),
                     "--out", str(out)]) == 0
        column = [row.split("\t")[3] for row in data_lines(out)]
        assert column == [f"{np.float64(p):.9g}" for p in values]
        assert column == ["0.5", "1e-10", "1", "4.94065646e-324", "1"]

    @pytest.mark.parametrize("case", sorted(malformed_relation_models()))
    def test_malformed_model_is_data_error(self, case, relation_setup, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(malformed_relation_models()[case], encoding="utf-8")
        assert main(["predict", "--model", str(model), "--occurrences",
                     str(relation_setup), "--out", str(tmp_path / "p.tsv")]) == 2
        assert "relation model" in capsys.readouterr().err

    def test_report_thresholds(self, trained_model, relation_setup, tmp_path):
        preds = tmp_path / "preds.tsv"
        main(["predict", "--model", str(trained_model),
              "--occurrences", str(relation_setup), "--out", str(preds)])

        everything = tmp_path / "all.tsv"
        assert main(["report", "--predictions", str(preds), "--threshold", "0",
                     "--out", str(everything)]) == 0
        listed = [r for r in data_lines(everything) if r.split("\t")[1]]
        assert {r.split("\t")[0] for r in listed} == {"park", "beach"}
        park_row = next(r for r in listed if r.startswith("park\t"))
        assert len(park_row.split("\t")[1].split(", ")) == 20

        nothing = tmp_path / "none.tsv"
        assert main(["report", "--predictions", str(preds), "--threshold", "1.01",
                     "--out", str(nothing)]) == 0
        assert all(not r.split("\t")[1] for r in data_lines(nothing))
        assert len(data_lines(nothing)) == 36

    def test_report_golden_from_hand_built_predictions(self, tmp_path):
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            "park\twaves\tp1()\t0.9\n"
            "park\tbirds\tp2()\t0.95\n"
            "park\twaves\tp3()\t0.2\n"     # same pair again: max wins
            "park\tquiet\tp4()\t0.3\n"     # below threshold
            "beach\twaves\tp1()\t0.7\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.tsv"
        assert main(["report", "--predictions", str(preds), "--threshold", "0.5",
                     "--out", str(out)]) == 0
        rows = {r.split("\t")[0]: r.split("\t")[1] for r in data_lines(out)}
        assert rows["park"] == "birds, waves"
        assert rows["beach"] == "waves"
        assert rows["library"] == ""

    def test_report_top_k(self, tmp_path):
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            "park\ta\tp()\t0.9\npark\tb\tp()\t0.8\npark\tc\tp()\t0.7\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.tsv"
        assert main(["report", "--predictions", str(preds), "--threshold", "0.5",
                     "--top-k", "2", "--out", str(out)]) == 0
        rows = {r.split("\t")[0]: r.split("\t")[1] for r in data_lines(out)}
        assert rows["park"] == "a, b"

    @pytest.mark.parametrize("top_k, park", [
        ("0", "dogs, gulls, wind"),
        ("2", "dogs, gulls"),
        ("1", "dogs"),
    ])
    def test_report_pins_pair_maximum_threshold_and_order(self, tmp_path, top_k, park):
        preds = tmp_path / "preds.tsv"
        preds.write_text(
            "park\tgulls\tp1()\t0.4\n"     # lower p first ...
            "park\tgulls\tp2()\t0.8\n"     # ... then the higher one, which is kept
            "park\tdogs\tp3()\t0.8\n"      # ties with gulls: ordered by name
            "park\twind\tp4()\t0.5\n"      # exactly the threshold: kept
            "park\twind\tp5()\t0.1\n"      # a lower p later does not replace it
            "park\tbells\tp6()\t0.45\n"    # below the threshold
            "beach\twaves\tp1()\t0.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.tsv"
        assert main(["report", "--predictions", str(preds), "--threshold", "0.5",
                     "--top-k", top_k, "--out", str(out)]) == 0
        rows = [r.split("\t") for r in data_lines(out)]
        assert [scene for scene, _ in rows] == list(EnvironmentLexicon.default().entries)
        listed = {scene: sounds for scene, sounds in rows if sounds}
        assert listed == {"park": park, "beach": "waves"}

    def test_report_folds_rows_as_it_reads_them(self, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("park\tgulls\tp1()\t0.4\npark\tgulls\tp2()\t0.8\n"
                         "beach\twaves\tp1()\t0.5\n", encoding="utf-8")
        lexicon = EnvironmentLexicon.default()
        rows = cli._read_predictions(preds, lexicon)
        assert iter(rows) is rows  # read as build_kb folds them, never listed
        listed = list(cli._read_predictions(preds, lexicon))
        assert cli.build_kb(rows, 0.5) == cli.build_kb(listed, 0.5) == {
            "park": ["gulls"], "beach": ["waves"]}
        # a bad row after good ones: exit 2, and no output file
        preds.write_text(preds.read_text(encoding="utf-8") + "park\tx\tp()\t1.5\n",
                         encoding="utf-8")
        out = tmp_path / "r.tsv"
        err = data_error(["report", "--predictions", str(preds), "--out", str(out)], capsys)
        assert err == "error: preds.tsv line 4: p must be a number in [0, 1], got '1.5'\n"
        assert not out.exists()

    def test_unknown_scene_is_data_error(self, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("volcano\tx\tp()\t0.9\n", encoding="utf-8")
        assert main(["report", "--predictions", str(preds),
                     "--out", str(tmp_path / "r.tsv")]) == 2
        assert "preds.tsv line 1: scene 'volcano' is not in the environment lexicon" in (
            capsys.readouterr().err
        )


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["mine", "--corpus", "x.ann"]) == 1

    def test_bad_featurizer_value(self, capsys):
        assert main(["train-phrase", "--data", "d", "--embeddings", "e",
                     "--featurizer", "xyz", "--out", "o"]) == 1

    @pytest.mark.parametrize("shards", ["0", "-3", "two"])
    def test_shards_below_one_is_usage_error(self, pattern_corpus_file, tmp_path,
                                             capsys, shards):
        out = tmp_path / "c.tsv"
        assert main(["mine", "--corpus", str(pattern_corpus_file), "--out", str(out),
                     "--shards", shards]) == 1
        assert "--shards" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_folds_below_two_is_usage_error(self, phrase_setup, tmp_path, capsys, folds):
        _, _, vec, data = phrase_setup
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--folds", folds, "--out", str(tmp_path / "m.json")]) == 1
        assert "--folds: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine", "report"])
    def test_negative_top_k_is_usage_error(self, command, tmp_path, capsys):
        source = {"mine": "--corpus", "report": "--predictions"}[command]
        out = tmp_path / "o.tsv"
        assert main([command, source, str(tmp_path / "in.tsv"), "--top-k", "-1",
                     "--out", str(out)]) == 1
        assert "--top-k: must be at least 0" in capsys.readouterr().err
        assert not out.exists()


class TestDigest:
    def test_chunked_digest_equals_whole_file_digest(self, tmp_path):
        data = tmp_path / "big.bin"
        payload = bytes(range(256)) * (2 * cli._DIGEST_CHUNK // 256) + b"tail"
        data.write_bytes(payload)
        assert data.stat().st_size > 2 * cli._DIGEST_CHUNK
        assert cli._digest(data) == hashlib.sha256(payload).hexdigest()[:12]
        assert f"big.bin:{cli._digest(data)}" in cli._provenance("mine", None, [data])


def data_error(argv, capsys) -> str:
    """Run a command that must exit 2; return its stderr."""
    capsys.readouterr()
    assert main(argv) == 2
    return capsys.readouterr().err


class TestDataErrorsNameTheirInput:
    """Each data error exits 2 and names the file (and the line, for rows)."""

    def test_non_utf8_file(self, tmp_path, capsys):
        corpus = tmp_path / "latin1.ann"
        corpus.write_bytes(b"# header\n1\tcaf\xe9\tNN\t0\troot\n")
        err = data_error(["mine", "--corpus", str(corpus), "--out", str(tmp_path / "o")],
                         capsys)
        assert "latin1.ann line 2: not UTF-8 text" in err

    @pytest.mark.parametrize("reader", ["corpus", "rows", "seeds", "model"])
    def test_non_utf8_byte_past_the_first_chunk(self, phrase_setup, relation_setup, tmp_path,
                                                 capsys, reader):
        """The reader's error names its line, and the command names the file
        once, however many chunks were read before it."""
        _, _, vec, data = phrase_setup
        neg = tmp_path / "seeds.neg"
        neg.write_text("prep_of()\n", encoding="utf-8")
        bad = tmp_path / "bad.txt"
        out = str(tmp_path / "out")
        if reader == "model":  # one long line before the byte
            bad.write_bytes(b"# provenance\n{" + b" " * CHUNK + b'"\xe9": 1}\n')
            line_no = 2
        else:
            good, last, lines_per_good = {
                "corpus": (b"1\tpark\tNN\t0\troot\n\n", b"1\tcaf\xe9\tNN\t0\troot\n", 2),
                "rows": (b"a\tb\t+1\n", b"\xe9\tb\t+1\n", 1),
                "seeds": (b"amod()\n", b"\xe9()\n", 1),
            }[reader]
            count = CHUNK // len(good) + 1
            bad.write_bytes(good * count + last)
            line_no = lines_per_good * count + 1
        argv = {
            "corpus": ["mine", "--corpus", str(bad), "--out", out],
            "rows": ["train-phrase", "--data", str(bad), "--embeddings", str(vec), "--out", out],
            "seeds": ["train-relation", "--occurrences", str(relation_setup),
                      "--seeds-pos", str(bad), "--seeds-neg", str(neg), "--out", out],
            "model": ["predict", "--model", str(bad), "--occurrences", str(relation_setup),
                      "--out", out],
        }[reader]
        err = data_error(argv, capsys)
        assert err == f"error: bad.txt line {line_no}: not UTF-8 text (invalid continuation byte)\n"

    def test_skipped_sentence_before_a_non_utf8_byte_is_reported_first(self, tmp_path, capsys):
        """The corpus is parsed as it is read: a bad sentence in an earlier
        chunk is reported before the byte that stops the command."""
        corpus = tmp_path / "c.ann"
        good = b"1\tpark\tNN\t0\troot\n\n"
        count = CHUNK // len(good) + 1
        corpus.write_bytes(b"1\tpark\tNN\t2\troot\n\n" + good * count + b"1\tcaf\xe9\tNN\t0\troot\n")
        err = data_error(["mine", "--corpus", str(corpus), "--out", str(tmp_path / "o")],
                         capsys)
        assert err == ("warning: c.ann line 1: skipping sentence: head out of range: 2\n"
                       f"error: c.ann line {2 * count + 3}: not UTF-8 text "
                       "(invalid continuation byte)\n")

    def test_bad_row_before_a_non_utf8_byte_is_the_error(self, phrase_setup, tmp_path, capsys):
        """Rows are checked as they are read: a bad row in an earlier chunk
        stops the command before the byte is read."""
        _, _, vec, _ = phrase_setup
        data = tmp_path / "labels.tsv"
        good = b"a\tb\t+1\n"
        data.write_bytes(b"a\tb\t7\n" + good * (CHUNK // len(good) + 1) + b"\xe9\tb\t+1\n")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert err == "error: labels.tsv line 1: label must be +1 or -1, got '7'\n"

    def test_embedding_format_error(self, phrase_setup, tmp_path, capsys):
        _, _, _, data = phrase_setup
        vec = tmp_path / "bad.vec"
        vec.write_text("cat 1 2\ndog 1\n", encoding="utf-8")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "bad.vec line 2: expected 2 components, got 1" in err

    @pytest.mark.parametrize("command", ["train-phrase", "classify"])
    def test_non_finite_vector_component(self, phrase_setup, tmp_path, capsys, command):
        store, labeled, vec, data = phrase_setup
        model = tmp_path / "m.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(model)]) == 0
        bad = tmp_path / "nan.vec"
        zeros = " 0" * (store.dimension - 1)
        bad.write_text(vec.read_text(encoding="utf-8") + f"zz nan{zeros}\n", encoding="utf-8")
        line_no = len(bad.read_text(encoding="utf-8").splitlines())
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("zz\taa\n", encoding="utf-8")
        argv = {"train-phrase": ["--data", str(data)],
                "classify": ["--model", str(model), "--phrases", str(phrases)]}[command]
        err = data_error([command, *argv, "--embeddings", str(bad),
                          "--out", str(tmp_path / "o")], capsys)
        assert f"nan.vec line {line_no}: non-finite vector component" in err

    def test_fold_with_one_label(self, phrase_setup, tmp_path, capsys):
        _, labeled, vec, _ = phrase_setup
        positives = [b for b, y in labeled if y == +1][:3]
        negative = next(b for b, y in labeled if y == -1)
        data = tmp_path / "skewed.tsv"
        data.write_text("".join(f"{w1}\t{w2}\t+1\n" for w1, w2 in positives)
                        + f"{negative[0]}\t{negative[1]}\t-1\n", encoding="utf-8")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "skewed.tsv: training data must contain both labels" in err

    def test_reg_too_small_for_finite_weights(self, phrase_setup, tmp_path, capsys):
        _, _, vec, data = phrase_setup
        model = tmp_path / "m.json"
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--reg", "1e-320", "--out", str(model)], capsys)
        assert "labeled.tsv: training diverged: the weights or bias are not finite at --reg" in err
        assert "Warning" not in err
        assert not model.exists()

    @pytest.mark.parametrize("row, message", [
        ("a\tb", "labeled phrase rows need 3 columns, got 2"),
        ("a\tb\t+1\textra", "labeled phrase rows need 3 columns, got 4"),
    ])
    def test_labeled_row_columns(self, phrase_setup, tmp_path, capsys, row, message):
        _, _, vec, _ = phrase_setup
        data = tmp_path / "rows.tsv"
        data.write_text(f"# comment\n\n{row}\n", encoding="utf-8")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert f"rows.tsv line 3: {message}" in err

    @staticmethod
    def _classify_with_three_dims(tmp_path, capsys, phrases_text: str):
        """Train on 2-d vectors, classify with 3-d ones; the command's stderr
        and the --out path."""
        vec2 = tmp_path / "two.vec"
        vec2.write_text("pa 1 0\npb 2 0\nna -1 0\nnb -2 0\nqa 1.5 0\nqb -1.5 0\n"
                        "ra 0.5 1\nrb -0.5 1\n", encoding="utf-8")
        data = tmp_path / "labeled.tsv"
        data.write_text("pa\tpb\t+1\nna\tnb\t-1\nqa\tpb\t+1\nqb\tnb\t-1\n"
                        "ra\tpa\t+1\nrb\tna\t-1\n", encoding="utf-8")
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec2),
                     "--folds", "2", "--out", str(model)]) == 0
        vec3 = tmp_path / "three.vec"
        vec3.write_text("pa 1 0 0\npb 2 0 0\n", encoding="utf-8")
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text(phrases_text, encoding="utf-8")
        out = tmp_path / "p.tsv"
        err = data_error(["classify", "--model", str(model), "--embeddings", str(vec3),
                          "--phrases", str(phrases), "--out", str(out)], capsys)
        return err, out

    def test_model_and_vectors_disagree_in_dimension(self, tmp_path, capsys):
        err, out = self._classify_with_three_dims(tmp_path, capsys, "pa\tpb\n")
        assert "model.json, three.vec: feature dimension 3 != model dimension 2" in err
        assert not out.exists()

    def test_dimension_mismatch_with_only_oov_phrases(self, tmp_path, capsys):
        err, out = self._classify_with_three_dims(tmp_path, capsys, "oov\tunseen\n")
        assert "model.json, three.vec: feature dimension 3 != model dimension 2" in err
        assert not out.exists()

    def test_version_1_model_names_the_file(self, relation_setup, tmp_path, capsys):
        model = tmp_path / "old.json"
        model.write_text(malformed_relation_models()["version-1"], encoding="utf-8")
        err = data_error(["predict", "--model", str(model), "--occurrences",
                          str(relation_setup), "--out", str(tmp_path / "p.tsv")], capsys)
        assert "old.json: unsupported relation model version 1" in err

    def test_relation_model_error_names_the_file(self, relation_setup, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text(malformed_relation_models()["duplicate-token"], encoding="utf-8")
        err = data_error(["predict", "--model", str(model), "--occurrences",
                          str(relation_setup), "--out", str(tmp_path / "p.tsv")], capsys)
        assert "bad.json: relation model vocabulary: duplicate vocabulary token" in err

    @pytest.mark.parametrize("row, message", [
        ("park\tc1\t\ts1", "empty path"),
        ("park\tc1\t   \ts1", "empty path"),
        ("park\tc1\tamod()", "occurrence rows need 4 columns, got 3"),
        ("park\tc1\tamod()\ts1\tx", "occurrence rows need 4 columns, got 5"),
    ])
    def test_occurrence_rows(self, relation_setup, tmp_path, capsys, row, message):
        model = tmp_path / "model.json"
        model.write_text(RELATION_MODEL, encoding="utf-8")
        occ = tmp_path / "occ.tsv"
        occ.write_text(f"park\tc0\tamod()\ts0\n{row}\n", encoding="utf-8")
        err = data_error(["predict", "--model", str(model), "--occurrences", str(occ),
                          "--out", str(tmp_path / "p.tsv")], capsys)
        assert f"occ.tsv line 2: {message}" in err

    def test_one_relation_label(self, tmp_path, capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("park\tc\tprep_of()\ts1\n", encoding="utf-8")
        pos, neg = default_seed_files()
        err = data_error(["train-relation", "--occurrences", str(occ), "--seeds-pos", pos,
                          "--seeds-neg", neg, "--out", str(tmp_path / "m.json")], capsys)
        assert "occ.tsv, paths.pos, paths.neg: training data must contain both" in err

    def test_divergence(self, tmp_path, capsys):
        # the labels' paths differ in length, so every batch holds one label and
        # a step at lr 1e18 makes the next batch's loss infinite
        occ = tmp_path / "occ.tsv"
        occ.write_text("".join(f"park\tc{i}\tprep_of()\ts{i}\n"
                               f"beach\tc{i}\tnn() sound prep_of()\ts{i}\n"
                               for i in range(20)), encoding="utf-8")
        pos, neg = default_seed_files()
        err = data_error(["train-relation", "--occurrences", str(occ),
                          "--seeds-pos", pos, "--seeds-neg", neg, "--dim", "4",
                          "--hidden", "4", "--lr", "1e18", "--clip", "1e18",
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "occ.tsv, paths.pos, paths.neg: training diverged at epoch" in err

    @staticmethod
    def _with_lexicon(command, envs_text, tmp_path, capsys) -> str:
        """Run ``command`` on empty inputs with ``envs_text`` as the lexicon; it
        must exit 2 without writing its output.  Returns stderr."""
        envs = tmp_path / "envs.txt"
        envs.write_text(envs_text, encoding="utf-8")
        inputs = tmp_path / "in.tsv"
        inputs.write_text("", encoding="utf-8")
        source = {"paths": ["--corpus", str(inputs), "--concepts", str(inputs)],
                  "report": ["--predictions", str(inputs)]}[command]
        out = tmp_path / "o.tsv"
        err = data_error([command, *source, "--environments", str(envs),
                          "--out", str(out)], capsys)
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["paths", "report"])
    def test_empty_environment_lexicon(self, command, tmp_path, capsys):
        err = self._with_lexicon(command, "# nothing\n\n", tmp_path, capsys)
        assert "envs.txt: environment lexicon is empty" in err

    @pytest.mark.parametrize("command", ["paths", "report"])
    def test_repeated_environment_entry(self, command, tmp_path, capsys):
        err = self._with_lexicon(command, "park\nbeach\npark\n", tmp_path, capsys)
        assert "envs.txt: duplicate lexicon entry: 'park'" in err

    @pytest.mark.parametrize("command", ["paths", "report"])
    def test_environment_entry_starting_with_hash(self, command, tmp_path, capsys):
        # spaces before the '#' make the line data, but its report row would
        # read back as a comment
        err = self._with_lexicon(command, "  # scenes\npark\n", tmp_path, capsys)
        assert "envs.txt: lexicon entries must not begin with '#': '# scenes'" in err

    @pytest.mark.parametrize("command", ["paths", "report"])
    def test_environment_entry_holding_a_tab(self, command, tmp_path, capsys):
        # its scene would add a column to each occurrence and report row
        err = self._with_lexicon(command, "park\nthe\tpark\n", tmp_path, capsys)
        assert "envs.txt: lexicon entries must not hold a TAB: 'the\\tpark'" in err

    @pytest.mark.parametrize("p", ["abc", "nan", "1.5", "-0.1", "inf", ""])
    def test_report_reads_p_strictly(self, tmp_path, capsys, p):
        preds = tmp_path / "preds.tsv"
        preds.write_text(f"park\ta\tp()\t0.9\npark\tb\tp()\t{p}\n", encoding="utf-8")
        out = tmp_path / "r.tsv"
        err = data_error(["report", "--predictions", str(preds), "--out", str(out)], capsys)
        assert f"preds.tsv line 2: p must be a number in [0, 1], got {p!r}" in err

    def test_prediction_row_columns(self, tmp_path, capsys):
        preds = tmp_path / "preds.tsv"
        preds.write_text("park\ta\t0.9\n", encoding="utf-8")
        err = data_error(["report", "--predictions", str(preds),
                          "--out", str(tmp_path / "r.tsv")], capsys)
        assert "preds.tsv line 1: prediction rows need 4 columns, got 3" in err


BOM = "\ufeff"

# a labeled phrase file whose fifth line has a bad label, with each line end,
# with and without a byte-order mark and a final line end
LABELS = "# labels\na\tb\t+1\n\nb\ta\t-1\nb\tb\t7\n"
LINE_END_TEXTS = {
    f"{name}{'-bom' * bom}{'-no-final-end' * (not final)}":
        (BOM * bom + LABELS.replace("\n", end)[: None if final else -len(end)]).encode()
    for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]
    for bom in (False, True) for final in (True, False)
}
# texts whose line ends or characters fall on the reader's chunk boundaries
CHUNK_TEXTS = {
    "crlf-across-chunks": b"a" * (CHUNK - 1) + b"\r\nb\r\nc",
    "cr-ends-a-chunk": b"a" * (CHUNK - 1) + b"\rb\rc\r",
    "line-over-two-chunks": b"x" * (2 * CHUNK + 5) + b"\ny\n",
    "multibyte-across-chunks": b"a" * (CHUNK - 1) + "\u20ac\u00e9\n".encode() + b"z",
    "empty": b"",
    "only-lf": b"\n",
}


class TestTextFiles:
    """One reader for every input: lines end at LF, CRLF or CR only, a
    byte-order mark is dropped, and blank and # lines are not data."""

    @pytest.mark.parametrize("raw", [*LINE_END_TEXTS.values(), *CHUNK_TEXTS.values()],
                             ids=[*LINE_END_TEXTS, *CHUNK_TEXTS])
    def test_line_ends_give_the_rows_and_lines_of_lf(self, tmp_path, monkeypatch, raw):
        """The lines of the whole text split at LF once CRLF and CR are LF,
        without the empty text after the last line end, at the reader's
        chunk size and at a chunk size that puts a boundary everywhere."""
        path = tmp_path / "in.tsv"
        path.write_bytes(raw)
        expected = raw.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not expected[-1]:
            expected.pop()
        for chunk in (CHUNK, 3):
            monkeypatch.setattr(cli, "_READ_CHUNK", chunk)
            assert list(cli._streamed_lines(path)) == expected
        if raw in LINE_END_TEXTS.values():
            assert expected == ["# labels", "a\tb\t+1", "", "b\ta\t-1", "b\tb\t7"]
            with pytest.raises(DataError, match="^in.tsv line 5: label must be"):
                cli._read_labeled_phrases(path)

    def test_form_feed_inside_a_field_does_not_split_the_row(self, phrase_setup,
                                                               tmp_path, capsys):
        data = tmp_path / "ff.tsv"
        data.write_text("a\fb\tb\t+1\nb\ta\t7\n", encoding="utf-8")
        assert list(cli._rows(data, 3, "labeled phrase")) == [
            (1, ["a\fb", "b", "+1"]), (2, ["b", "a", "7"])]
        _, _, vec, _ = phrase_setup
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "ff.tsv line 2: label must be +1 or -1, got '7'" in err

    def test_line_separator_inside_a_surface_keeps_the_line_numbers(self, tmp_path, capsys):
        corpus = tmp_path / "ls.ann"
        corpus.write_text("1\tsea\u2028gull\tNN\t0\troot\n\n"
                          "1\tsounds\tNNS\t0\troot\n2\tof\tIN\t_\t_\n3\tgunshots\tNNS\t1\tprep_of\n"
                          "\n1\tbroken\tNN\t9\tdep\n", encoding="utf-8")
        out = tmp_path / "c.tsv"
        assert main(["mine", "--corpus", str(corpus), "--out", str(out)]) == 0
        assert data_lines(out) == ["gunshots\tP4\t1"]
        warnings = capsys.readouterr().err.splitlines()
        assert warnings == [
            "warning: ls.ann line 1: skipping sentence: "
            "surface form contains whitespace: 'sea\\u2028gull'",
            "warning: ls.ann line 7: skipping sentence: head out of range: 9",
        ]

    @pytest.mark.parametrize("bom", [b"", BOM.encode()], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, end, bom):
        path = tmp_path / "bad.tsv"
        path.write_bytes(bom + end.join([b"# one", b"a\tb\t+1", b"\xe9t\tb\t+1", b"x"]))
        with pytest.raises(DataError, match=r"^bad.tsv line 3: not UTF-8 text"):
            cli._load(path, list)

    def test_byte_order_mark_before_a_vec_header(self, tmp_path):
        vec = tmp_path / "bom.vec"
        vec.write_text(BOM + "4 2\na 1 0\nb 2 0\nc -1 0\nd -2 0\n", encoding="utf-8")
        store = cli._load(vec, load_embeddings)
        assert words(store) == ["a", "b", "c", "d"] and store.dimension == 2

    def test_byte_order_mark_before_a_corpus(self, pattern_corpus_file, tmp_path, capsys):
        corpus = tmp_path / "bom.ann"
        corpus.write_text(BOM + PATTERN_EXAMPLES_CORPUS, encoding="utf-8")
        assert (list(cli._sentence_chunks(corpus))
                == list(cli._sentence_chunks(pattern_corpus_file)))
        assert capsys.readouterr().err == ""

    def test_byte_order_mark_before_a_lexicon_comment(self, tmp_path):
        envs = tmp_path / "envs.txt"
        envs.write_text(BOM + "# scenes\npark\n", encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        preds.write_text("park\tbirds\tp()\t0.9\n", encoding="utf-8")
        out = tmp_path / "r.tsv"
        assert main(["report", "--predictions", str(preds), "--environments", str(envs),
                     "--out", str(out)]) == 0
        assert data_lines(out) == ["park\tbirds"]

    def test_peak_memory_is_a_chunk_not_the_text(self, tmp_path):
        """Walking the rows of a file holds about one chunk and its lines;
        the text and a list of its lines would take about four times the
        file."""
        path = tmp_path / "big.tsv"
        with open(path, "w", encoding="utf-8") as sink:
            for i in range(100_000):
                sink.write(f"word{i}\tother{i}\t+1\n")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = sum(1 for _ in cli._rows(path, 3, "labeled phrase"))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rows == 100_000 and path.stat().st_size > 2_000_000
        assert peak < 8 * CHUNK

    @pytest.mark.parametrize("reader, kept", [
        ("rows", ["park", "  # indented", "beach"]),
        ("concepts", ["park", "# indented", "beach"]),
        ("seeds", ["park", "# indented", "beach"]),
        ("lexicon", ["park", "# indented", "beach"]),
    ])
    def test_one_comment_rule(self, tmp_path, monkeypatch, reader, kept):
        """Blank and # lines are not data; a line with spaces before its # is."""
        source = tmp_path / "in.txt"
        source.write_text("park\n\n \t \n# comment\n  # indented\nbeach\n", encoding="utf-8")
        if reader == "rows":
            found = [cols[0] for _, cols in cli._rows(source, 1, "row", exact=False)]
        elif reader == "concepts":
            built = []  # the phrases of each index: the concepts', then the lexicon's
            real_index = cli.paths.PhraseIndex

            def index(phrases):
                built.append(list(phrases))
                return real_index(built[-1])

            monkeypatch.setattr(cli.paths, "PhraseIndex", index)
            corpus = tmp_path / "c.ann"
            corpus.write_text("", encoding="utf-8")
            assert main(["paths", "--corpus", str(corpus), "--concepts", str(source),
                         "--out", str(tmp_path / "occ.tsv")]) == 0
            found = built[0]
        elif reader == "seeds":
            found = cli._load(source, cli.paths.load_seed_paths)
        else:  # the lexicon reads the same lines, then refuses the one that begins with #
            with pytest.raises(DataError, match=f"in.txt: lexicon entries must not begin "
                                                f"with '#': {kept[1]!r}$"):
                cli._lexicon(argparse.Namespace(environments=str(source)))
            return
        assert found == kept

    def test_phrase_model_json_error_names_the_file_line(self, phrase_setup, tmp_path,
                                                          capsys):
        _, _, vec, data = phrase_setup
        model = tmp_path / "m.json"
        assert main(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                     "--out", str(model)]) == 0
        lines = model.read_text(encoding="utf-8").split("\n")
        lines[11] += " x"
        text = "\n".join(lines)
        model.write_text(text, encoding="utf-8")
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("a\tb\n", encoding="utf-8")
        err = data_error(["classify", "--model", str(model), "--embeddings", str(vec),
                          "--phrases", str(phrases), "--out", str(tmp_path / "p.tsv")],
                         capsys)
        assert "m.json: phrase model is not valid JSON: " in err
        assert f"line 12 column {len(lines[11])} (char {text.index(' x') + 1})" in err

    def test_relation_model_json_error_names_the_file_line(self, relation_setup,
                                                            tmp_path, capsys):
        model = tmp_path / "m.json"
        document = json.dumps(json.loads(RELATION_MODEL)).replace(', "h"', ' "h"')
        model.write_text(f"# provenance\n{document}\n", encoding="utf-8")
        err = data_error(["predict", "--model", str(model), "--occurrences",
                          str(relation_setup), "--out", str(tmp_path / "p.tsv")], capsys)
        assert "m.json: relation model is not valid JSON: Expecting ',' delimiter: line 2" in err

    @pytest.mark.parametrize("columns, text", [
        ((), "# prov\nb\t1\na\t2\n"),
        (("word", "n"), "# prov\n# word\tn\nb\t1\na\t2\n"),
    ], ids=["no-column-line", "column-line"])
    def test_write_tsv(self, tmp_path, columns, text):
        out = tmp_path / "o.tsv"
        with cli._output(out, "prov", columns) as sink:
            sink.writelines(iter(["b\t1\n", "a\t2\n"]))
        assert out.read_bytes() == text.encode()


# the lines of a .vec file, each case written with every line end, with and
# without a byte-order mark and a final line end
STREAMED_VECS = {
    "plain": ["cat 1 2", "Dog 0.5 -3", "owl 1e-3 4"],
    "header": ["3 2", "cat 1 2", "Dog 0.5 -3", "owl 1e-3 4"],
    "blank-lines": ["", "cat 1 2", "   ", "Dog 0.5 -3", "", "owl 1e-3 4", ""],
    # numpy's reader gives up on 1_0 and the per-row reader accepts it
    "underscore": ["2 2", "cat 1_0 2", "dog 0.5 -3"],
}
LINE_ENDS = {"lf": b"\n", "crlf": b"\r\n", "cr": b"\r"}


def write_vec(path, lines, end=b"\n", bom=b"", final=True):
    path.write_bytes(bom + end.join(line.encode() for line in lines) + (end if final else b""))


class TestCorpusCommandsHoldAChunk:
    """mine and paths hold a chunk of sentences, not the corpus: on a corpus
    eight times as long their traced peak stays within 1.25 times."""

    @pytest.mark.parametrize("command", ["mine", "paths"])
    def test_peak_memory_does_not_grow_with_the_corpus(self, tmp_path, capsys, command):
        concepts = tmp_path / "concepts.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        peaks = []
        for copies in (4 * cli.SENTENCE_CHUNK, 32 * cli.SENTENCE_CHUNK):
            corpus = tmp_path / f"c{copies}.ann"
            corpus.write_text((PARK_BLOCK + "\n\n") * copies, encoding="utf-8")
            argv = [command, "--corpus", str(corpus), "--out", str(tmp_path / "o.tsv")]
            if command == "paths":
                argv += ["--concepts", str(concepts)]
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestStreamedStore:
    """Commands read a .vec file as a stream; the store is the one its list
    of lines gives, and so are the errors."""

    @pytest.mark.parametrize("final", [True, False], ids=["final-end", "no-final-end"])
    @pytest.mark.parametrize("bom", [b"", BOM.encode()], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
    @pytest.mark.parametrize("case", STREAMED_VECS)
    def test_store_equals_the_list_loaded(self, tmp_path, case, end, bom, final):
        lines = STREAMED_VECS[case]
        vec = tmp_path / "emb.vec"
        write_vec(vec, lines, end, bom, final)
        streamed, listed = cli._load(vec, load_embeddings), load_embeddings(lines)
        assert streamed.matrix.shape == listed.matrix.shape
        assert streamed.matrix.tobytes() == listed.matrix.tobytes()
        assert list(streamed.index.items()) == list(listed.index.items())

    @pytest.mark.parametrize("bom", [b"", BOM.encode()], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
    def test_bad_row_is_named_by_its_line(self, tmp_path, end, bom):
        lines = ["cat 1 2", "", "dog 1", "owl 1 2"]
        vec = tmp_path / "bad.vec"
        write_vec(vec, lines, end, bom)
        with pytest.raises(DataError) as listed:
            load_embeddings(lines)
        assert str(listed.value) == "line 3: expected 2 components, got 1"
        with pytest.raises(DataError, match=f"^bad.vec {listed.value}$"):
            cli._load(vec, load_embeddings)

    @pytest.fixture
    def walks(self, monkeypatch):
        """The path of each walk over a streamed file, in order."""
        walked = []
        streamed = cli._streamed_lines

        def counted(path):
            walked.append(path)  # on the first line asked for
            yield from streamed(path)

        monkeypatch.setattr(cli, "_streamed_lines", counted)
        return walked

    @pytest.mark.parametrize("case", ["plain", "underscore"])
    def test_every_vec_load_walks_its_file_once(self, tmp_path, walks, case):
        vec = tmp_path / "emb.vec"
        write_vec(vec, STREAMED_VECS[case])
        cli._load(vec, load_embeddings)
        assert walks == [vec]

    @pytest.mark.parametrize("far", [False, True], ids=["near", "past-first-read"])
    @pytest.mark.parametrize("bom", [b"", BOM.encode()], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", LINE_ENDS.values(), ids=LINE_ENDS.keys())
    def test_non_utf8_byte_exits_2_and_names_its_line(self, phrase_setup, tmp_path, walks,
                                                        capsys, end, bom, far):
        _, _, _, data = phrase_setup
        zeros = " 0" * (CHUNK // 3 if far else 1)  # far: line 3 starts past the first chunk
        vec = tmp_path / "emb.vec"
        vec.write_bytes(bom + end.join([f"cat 1{zeros}".encode(), f"dog 2{zeros}".encode(),
                                        f"\xe9t 3{zeros}".encode("latin-1"),
                                        f"owl 4{zeros}".encode()]) + end)
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert err == "error: emb.vec line 3: not UTF-8 text (invalid continuation byte)\n"
        # the labeled rows come first, and the .vec file is walked once
        assert walks == [data, vec]

    def test_missing_file(self, tmp_path):
        """The error holds the path as given and the system's reason, which
        ``main`` prints as ``error: <path>: <reason>``."""
        missing = tmp_path / "none.vec"
        with pytest.raises(FileNotFoundError) as exc:
            cli._load(missing, load_embeddings)
        assert exc.value.filename == str(missing)
        assert exc.value.strerror == "No such file or directory"

    def test_peak_memory_is_the_matrix_not_the_text(self, tmp_path):
        """Reading the text and a list of its lines next to the matrix
        would take about 2.5 times the matrix."""
        rng = np.random.default_rng(5)
        vec = tmp_path / "emb.vec"
        with open(vec, "w", encoding="utf-8") as sink:
            for i, row in enumerate(rng.standard_normal((5000, 50))):
                sink.write(f"w{i} " + " ".join(f"{x:.6f}" for x in row) + "\n")
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            store = cli._load(vec, load_embeddings)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert store.matrix.shape == (5000, 50)
        assert peak < 1.5 * store.matrix.nbytes + (1 << 20)

    def test_peak_memory_of_a_filtered_load_follows_its_words(self, tmp_path):
        """A load that keeps 10 of 5,000 rows holds the words and one chunk,
        not the matrix: well under half the peak of a whole load."""
        rng = np.random.default_rng(5)
        vec = tmp_path / "emb.vec"
        with open(vec, "w", encoding="utf-8") as sink:
            for i, row in enumerate(rng.standard_normal((5000, 100))):
                sink.write(f"w{i} " + " ".join(f"{x:.6f}" for x in row) + "\n")
        wanted = {f"w{i}" for i in range(0, 5000, 500)}
        peaks, stores = [], []
        for words in (None, wanted):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                stores.append(cli._load_vectors(vec, words))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        whole, filtered = stores
        assert filtered.matrix.shape == (10, 100) and whole.matrix.shape == (5000, 100)
        assert filtered.matrix.tobytes() == whole.matrix[::500].tobytes()
        assert peaks[1] < peaks[0] / 2, peaks


# A .vec file of dimension 2: the commands below look up a-d, and none looks up zz.
WORDS_VEC = ["a 1 0", "b 2 0", "c -1 0", "d -2 0", "zz 1 1"]
# eight representable rows, both labels in every training fold of two
LABELED_ABCD = "a\tb\t+1\nb\ta\t+1\na\ta\t+1\nb\tb\t+1\nc\td\t-1\nd\tc\t-1\nc\tc\t-1\nd\td\t-1\n"


class TestCommandsKeepTheirWords:
    """train-phrase, classify and train-relation --embeddings keep only the
    .vec rows of the words they look up, and still check every row."""

    @pytest.fixture
    def argv(self, tmp_path):
        """The command line of each command for a given .vec file."""
        labeled = tmp_path / "labeled.tsv"
        labeled.write_text(LABELED_ABCD, encoding="utf-8")
        good = tmp_path / "good.vec"
        write_vec(good, WORDS_VEC)
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(labeled), "--embeddings", str(good),
                     "--folds", "2", "--out", str(model)]) == 0
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("a\tb\nC\tqq\n", encoding="utf-8")
        occ = tmp_path / "occ.tsv"
        occ.write_text("park\tc1\tamod() a\ts1\nbeach\tc2\tprep_of() B\ts2\n",
                       encoding="utf-8")
        pos, neg = tmp_path / "seeds.pos", tmp_path / "seeds.neg"
        pos.write_text("amod() a\n", encoding="utf-8")
        neg.write_text("prep_of() B\n", encoding="utf-8")
        out = str(tmp_path / "out")
        argvs = {
            "train-phrase": ["train-phrase", "--data", str(labeled), "--folds", "2"],
            "classify": ["classify", "--model", str(model), "--phrases", str(phrases)],
            "train-relation": ["train-relation", "--occurrences", str(occ),
                               "--seeds-pos", str(pos), "--seeds-neg", str(neg),
                               "--hidden", "2", "--epochs", "1"],
        }
        return lambda command, vec: [*argvs[command], "--embeddings", str(vec), "--out", out]

    @pytest.mark.parametrize("command, kept", [
        ("train-phrase", ["a", "b", "c", "d"]),
        ("classify", ["a", "b", "c"]),
        ("train-relation", ["a", "b"]),
    ])
    def test_the_store_holds_only_the_words_looked_up(self, argv, tmp_path, monkeypatch,
                                                      command, kept):
        stores = []
        load = embeddings.load_embeddings
        monkeypatch.setattr(embeddings, "load_embeddings",
                            lambda *args: stores.append(load(*args)) or stores[-1])
        vec = tmp_path / "words.vec"
        write_vec(vec, ["6 2", "D -2 0", "zz 1 1", "c -1 0", "a 1 0", "qq0 3 3", "b 2 0"])
        assert main(argv(command, vec)) == 0
        [store] = stores
        assert words(store) == [w for w in ["d", "c", "a", "b"] if w in kept]
        np.testing.assert_array_equal(store.get("a"), [1, 0])

    @pytest.mark.parametrize("bad, message", [
        ("yy nan 0", "non-finite vector component"),
        ("yy 1.2.3 0", "non-numeric vector component"),
        ("yy 1 0 0", "expected 2 components, got 3"),
        ("zz 5 5", "duplicate word 'zz'"),
    ], ids=["nan", "dots", "width", "duplicate"])
    @pytest.mark.parametrize("command", ["train-phrase", "classify", "train-relation"])
    def test_a_bad_row_that_nothing_looks_up_exits_2(self, argv, tmp_path, capsys,
                                                      command, bad, message):
        vec = tmp_path / "bad.vec"
        write_vec(vec, [*WORDS_VEC, bad])
        err = data_error(argv(command, vec), capsys)
        assert err == f"error: bad.vec line 6: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("featurizer", ["awv", "cwv"])
    def test_classify_with_no_phrase_word_in_the_vectors(self, tmp_path, capsys, featurizer):
        labeled = tmp_path / "labeled.tsv"
        labeled.write_text(LABELED_ABCD, encoding="utf-8")
        vec = tmp_path / "words.vec"
        write_vec(vec, WORDS_VEC)
        model = tmp_path / "model.json"
        assert main(["train-phrase", "--data", str(labeled), "--embeddings", str(vec),
                     "--folds", "2", "--featurizer", featurizer, "--out", str(model)]) == 0
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("x\ty\nQ\tR\n", encoding="utf-8")
        out = tmp_path / "p.tsv"
        capsys.readouterr()
        assert main(["classify", "--model", str(model), "--embeddings", str(vec),
                     "--phrases", str(phrases), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert data_lines(out) == ["x\ty\tunrepresentable\tNA", "Q\tR\tunrepresentable\tNA"]

    def test_train_relation_with_no_path_word_in_the_vectors(self, argv, tmp_path):
        vec = tmp_path / "other.vec"
        write_vec(vec, ["x 1 0", "y 2 0"])
        assert main(argv("train-relation", vec)) == 0
        params, vocab = load_relation_model(data_lines(tmp_path / "out"))
        assert params.E.shape == (5, 2) and vocab.tokens[1:] == ["amod()", "a", "prep_of()", "B"]
        assert set(vocab.flags) == {lstm.LEARNED}

    @pytest.mark.parametrize("command, text, message", [
        ("train-phrase", "a\tb\t7\n", "labeled.tsv line 1: label must be +1 or -1, got '7'"),
        ("classify", "a\n", "phrases.tsv line 1: phrase rows need 2 columns, got 1"),
    ])
    def test_a_bad_phrase_file_is_named_before_a_bad_vec(self, argv, tmp_path, capsys,
                                                          command, text, message):
        (tmp_path / ("labeled.tsv" if command == "train-phrase" else "phrases.tsv")
         ).write_text(text, encoding="utf-8")
        vec = tmp_path / "bad.vec"
        write_vec(vec, [*WORDS_VEC, "yy nan 0"])
        assert data_error(argv(command, vec), capsys) == f"error: {message}\n"


# a sentence whose environment word carries no dependency edge
STRANDED = ("1\tgunshots\tNNS\t2\tnsubj\n2\techoed\tVBD\t0\troot\n"
            "3\tin\tIN\t_\t_\n4\tpark\tNN\t_\t_\n")
# "#rain" and "rain" under P4; a "#rain" row would read back as a comment
RAIN = ("1\tThe\tDT\t2\tdet\n2\tsound\tNN\t5\tnsubj\n3\tof\tIN\t_\t_\n"
        "4\t{}\tNN\t2\tprep_of\n5\tfilled\tVBD\t0\troot\n6\tthe\tDT\t7\tdet\n"
        "7\tpark\tNN\t5\tdobj\n8\t.\t.\t5\tpunct\n")
# "running water" under P1 (VBG) and P6 (JJ)
RUNNING = ("1\tthe\tDT\t2\tdet\n2\tsound\tNN\t0\troot\n3\tof\tIN\t2\tprep\n"
           "4\trunning\t{}\t5\tamod\n5\twater\tNN\t3\tpobj\n")


def phrase_model_text() -> str:
    """A phrase model file for the 2-d vectors of WORDS_VEC."""
    sink = io.StringIO()
    phrase.save_model(phrase.LinearModel(weights=np.array([1.0, 0.0]), bias=0.0, reg=1e-4,
                                          epochs=1, seed=0, feature_kind="awv"), sink)
    return sink.getvalue()


class TestOneDiagnosticForm:
    """Every line a command prints on stderr has one form: ``warning: <file>:``
    or ``error: <file>:``, with `` line N`` after the file for a row, and the
    file named once; a usage error reads ``error: soundkb <command>:``.  A
    file that cannot be opened, or an output that is also another file of the
    command, is named by its path as given.  A command that fails prints
    nothing on stdout and leaves no output file."""

    # case: (files written, a None text making a directory, argv with {name}
    # for each file's path, exit code, file named)
    CASES = {
        "skipped-sentence": (
            {"c.ann": "1\tnew york\tNNP\t0\troot\n\n1\tpark\tNN\t0\troot\n"},
            ["mine", "--corpus", "{c.ann}", "--out", "{out}"], 0, "c.ann"),
        "unrepresentable-phrase": (
            {"labeled.tsv": LABELED_ABCD + "x\ty\t+1\n", "w.vec": "\n".join(WORDS_VEC)},
            ["train-phrase", "--data", "{labeled.tsv}", "--embeddings", "{w.vec}",
             "--folds", "2", "--out", "{out}"], 0, "labeled.tsv"),
        "dropped-pair": (
            {"c.ann": f"{STRANDED}\n{PARK_BLOCK}\n", "concepts.tsv": "gunshots\tP4\t1\n"},
            ["paths", "--corpus", "{c.ann}", "--concepts", "{concepts.tsv}", "--out", "{out}"],
            0, "c.ann"),
        "hash-concept": (
            {"c.ann": RAIN.format("#rain") + "\n" + RAIN.format("rain")},
            ["mine", "--corpus", "{c.ann}", "--out", "{out}"], 0, "c.ann"),
        "pattern-conflict": (
            {"c.ann": "\n".join(RUNNING.format(tag) for tag in ("JJ", "VBG", "JJ"))},
            ["mine", "--corpus", "{c.ann}", "--out", "{out}"], 0, "c.ann"),
        "labeled-row": (
            {"labeled.tsv": "a\tb\t7\n", "w.vec": "\n".join(WORDS_VEC)},
            ["train-phrase", "--data", "{labeled.tsv}", "--embeddings", "{w.vec}",
             "--out", "{out}"], 2, "labeled.tsv"),
        "phrase-row": (
            {"model.json": phrase_model_text(), "phrases.tsv": "a\tb\nlonely\n",
             "w.vec": "\n".join(WORDS_VEC)},
            ["classify", "--model", "{model.json}", "--embeddings", "{w.vec}",
             "--phrases", "{phrases.tsv}", "--out", "{out}"], 2, "phrases.tsv"),
        "concept-row": (
            {"c.ann": PARK_BLOCK + "\n", "concepts.tsv": b"rain\n\xe9t\n"},
            ["paths", "--corpus", "{c.ann}", "--concepts", "{concepts.tsv}", "--out", "{out}"],
            2, "concepts.tsv"),
        "occurrence-row": (
            {"occ.tsv": "park\tc1\tamod()\ts1\nbeach\tc2\t\ts2\n",
             "seeds.pos": "amod()\n", "seeds.neg": "prep_of()\n"},
            ["train-relation", "--occurrences", "{occ.tsv}", "--seeds-pos", "{seeds.pos}",
             "--seeds-neg", "{seeds.neg}", "--out", "{out}"], 2, "occ.tsv"),
        "no-seeded-occurrence": (
            {"occ.tsv": "park\tc1\txcomp()\ts1\n",
             "seeds.pos": "amod()\n", "seeds.neg": "prep_of()\n"},
            ["train-relation", "--occurrences", "{occ.tsv}", "--seeds-pos", "{seeds.pos}",
             "--seeds-neg", "{seeds.neg}", "--out", "{out}"], 2, "occ.tsv"),
        "prediction-row": (
            {"preds.tsv": "park\ta\tp()\t0.9\nvolcano\tb\tp()\t0.9\n"},
            ["report", "--predictions", "{preds.tsv}", "--out", "{out}"], 2, "preds.tsv"),
        "usage": (
            {}, ["mine", "--corpus", "c.ann", "--out", "{out}", "--shards", "0"], 1, None),
        "missing-input": (
            {}, ["mine", "--corpus", "nope.ann", "--out", "{out}"], 2, "nope.ann"),
        "output-in-missing-directory": (
            {"preds.tsv": "park\ta\tp()\t0.9\n"},
            ["report", "--predictions", "{preds.tsv}", "--out", "missing/r.tsv"],
            2, "missing/r.tsv"),
        "freq-out-in-missing-directory": (
            {"c.ann": PARK_BLOCK + "\n", "concepts.tsv": "children playing\tP3\t1\n"},
            ["paths", "--corpus", "{c.ann}", "--concepts", "{concepts.tsv}", "--out", "{out}",
             "--freq-out", "missing/f.tsv"], 2, "missing/f.tsv"),
        "relation-model-in-missing-directory": (
            {"occ.tsv": "park\tc1\tamod()\ts1\nbeach\tc2\tprep_of()\ts2\n",
             "seeds.pos": "amod()\n", "seeds.neg": "prep_of()\n"},
            ["train-relation", "--occurrences", "{occ.tsv}", "--seeds-pos", "{seeds.pos}",
             "--seeds-neg", "{seeds.neg}", "--epochs", "2", "--out", "missing/m.json"],
            2, "missing/m.json"),
        "relation-model-under-a-file": (
            {"occ.tsv": "park\tc1\tamod()\ts1\nbeach\tc2\tprep_of()\ts2\n",
             "seeds.pos": "amod()\n", "seeds.neg": "prep_of()\n"},
            ["train-relation", "--occurrences", "{occ.tsv}", "--seeds-pos", "{seeds.pos}",
             "--seeds-neg", "{seeds.neg}", "--epochs", "2", "--out", "occ.tsv/m.json"],
            2, "occ.tsv/m.json"),
        "directory-input": (
            {"dir.ann": None}, ["mine", "--corpus", "{dir.ann}", "--out", "{out}"], 2, "dir.ann"),
        "output-is-input": (
            {"model.json": phrase_model_text(), "ph.tsv": "a\tb\n",
             "w.vec": "\n".join(WORDS_VEC)},
            ["classify", "--model", "{model.json}", "--embeddings", "{w.vec}",
             "--phrases", "{ph.tsv}", "--out", "{ph.tsv}"], 2, "ph.tsv"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_every_stderr_line_has_the_one_form(self, tmp_path, monkeypatch, capsys, case):
        files, argv, code, named = self.CASES[case]
        monkeypatch.chdir(tmp_path)  # relative paths, so that a path as given is short
        paths = {"out": "out"}
        for name, text in files.items():
            paths[name] = name
            if text is None:
                Path(name).mkdir()
            else:
                Path(name).write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main([paths[arg[1:-1]] if arg.startswith("{") else arg for arg in argv]) == code
        printed = capsys.readouterr()
        lines = printed.err.splitlines()
        assert lines
        if code:  # an error prints nothing on stdout and leaves no output file
            assert printed.out == "" and not Path("out").exists()
        if named is None:
            form = f"error: soundkb {argv[0]}: "
        else:
            kind = "warning" if code == 0 else "error"
            form = rf"{kind}: {re.escape(named)}( line \d+)?: \S"
        for line in lines:
            assert re.match(form, line), line
            assert named is None or line.count(named) == 1, line


class TestDataError:
    """A DataError holds its reason and its line; its text, and the text
    ``_naming`` gives it, put the line before the reason."""

    @pytest.mark.parametrize("line, text, named", [
        (7, "line 7: empty path", "occ.tsv line 7: empty path"),
        (None, "empty path", "occ.tsv: empty path"),
    ])
    def test_text_line_and_reason(self, line, text, named):
        err = DataError("empty path", line)
        assert (str(err), err.line, err.reason) == (text, line, "empty path")
        with pytest.raises(DataError) as exc:
            with cli._naming(Path("dir") / "occ.tsv"):
                raise err
        assert str(exc.value) == named
        assert exc.value.__cause__ is err


class TestOutputsNeverOverwrite:
    """An output file that is also another file of its command exits 2
    before anything is read or written, names the output as given, and
    leaves every file as it was."""

    FILES = {
        "c.ann": PARK_BLOCK + "\n", "k.tsv": "children playing\tP3\t1\n",
        "o.tsv": "an earlier output\n", "preds.tsv": "park\ta\tp()\t0.9\n",
        "labeled.tsv": LABELED_ABCD, "w.vec": "\n".join(WORDS_VEC) + "\n", "ph.tsv": "a\tb\n",
        "envs.txt": "park\n",
    }

    @pytest.mark.parametrize("argv, error", [
        (["classify", "--model", "model.json", "--embeddings", "w.vec", "--phrases", "ph.tsv",
          "--out", "ph.tsv"], "ph.tsv: --out and --phrases"),
        (["paths", "--corpus", "c.ann", "--concepts", "k.tsv", "--out", "o.tsv",
          "--freq-out", "o.tsv"], "o.tsv: --out and --freq-out"),
        (["paths", "--corpus", "c.ann", "--concepts", "k.tsv", "--out", "o.tsv",
          "--freq-out", "c.ann"], "c.ann: --freq-out and --corpus"),
        # the default --freq-out, o.freq.tsv, is checked too
        (["paths", "--corpus", "c.ann", "--concepts", "o.freq.tsv", "--out", "o.tsv"],
         "o.freq.tsv: --freq-out and --concepts"),
        (["paths", "--corpus", "c.ann", "--concepts", "k.tsv", "--environments", "envs.txt",
          "--out", "sub/../envs.txt"], "sub/../envs.txt: --out and --environments"),
        (["train-phrase", "--data", "labeled.tsv", "--embeddings", "w.vec",
          "--out", "w.vec"], "w.vec: --out and --embeddings"),
        (["report", "--predictions", "preds.tsv", "--out", "link.tsv"],
         "link.tsv: --out and --predictions"),
    ])
    def test_exit_2_and_every_file_is_left_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                     argv, error):
        monkeypatch.chdir(tmp_path)
        for name, text in {**self.FILES, "model.json": phrase_model_text(),
                           "o.freq.tsv": "concepts\n"}.items():
            Path(name).write_text(text, encoding="utf-8")
        Path("link.tsv").symlink_to("preds.tsv")
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error} name the same file\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_every_required_file_option_is_checked(self):
        subcommands = next(action for action in cli.build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        for parser in subcommands.choices.values():
            for action in parser._actions:
                assert action.type is not Path or action.dest in cli.FILE_OPTIONS, action.dest


# each command's argv over small inputs in the working directory, and its outputs
PIPELINE = {
    "mine": (["mine", "--corpus", "c.ann", "--out", "mined.tsv"], ["mined.tsv"]),
    "train-phrase": (["train-phrase", "--data", "labeled.tsv", "--embeddings", "emb.vec",
                      "--folds", "2", "--out", "phrase.json"], ["phrase.json"]),
    "classify": (["classify", "--model", "phrase.json", "--embeddings", "emb.vec",
                  "--phrases", "labeled.tsv", "--out", "classified.tsv"], ["classified.tsv"]),
    "paths": (["paths", "--corpus", "c.ann", "--concepts", "concepts.tsv", "--out", "occ.tsv"],
              ["occ.tsv", "occ.freq.tsv"]),
    "train-relation": (["train-relation", "--occurrences", "rel_occ.tsv",
                        "--seeds-pos", "seeds.pos", "--seeds-neg", "seeds.neg", "--dim", "4",
                        "--hidden", "4", "--epochs", "2", "--seed", "7",
                        "--out", "relation.json"], ["relation.json"]),
    "predict": (["predict", "--model", "relation.json", "--occurrences", "rel_occ.tsv",
                 "--out", "preds.tsv"], ["preds.tsv"]),
    "report": (["report", "--predictions", "preds.tsv", "--out", "report.tsv"], ["report.tsv"]),
}


class TestAFailedWriteLeavesTheOutputs:
    """An output is replaced only when its command succeeds: a write that
    fails part-way exits 2 with ``error: <output as given>: <reason>``, and
    every file, earlier outputs included, is left as it was, with no
    temporary file beside them."""

    @pytest.fixture
    def earlier_run(self, tmp_path, monkeypatch):
        """Every command of PIPELINE run once in ``tmp_path``, a comment line
        added to each output, so that a file rewritten with the bytes of a
        rerun would show; the bytes of every file in ``tmp_path``."""
        monkeypatch.chdir(tmp_path)
        store, labeled = separable_phrase_data(16, 6, seed=77)
        write_embeddings(store, Path("emb.vec"))
        Path("labeled.tsv").write_text(
            "".join(f"{b[0]}\t{b[1]}\t{y:+d}\n" for b, y in labeled), encoding="utf-8")
        Path("c.ann").write_text(PATTERN_EXAMPLES_CORPUS + ("\n" + PARK_BLOCK + "\n") * 40,
                                 encoding="utf-8")
        Path("concepts.tsv").write_text("children playing\tP3\t1\n", encoding="utf-8")
        Path("rel_occ.tsv").write_text("".join(
            f"park\tc{i}\tamod()\ts{i}\nstreet\tc{i}\tprep_of()\ts{i}\n" for i in range(20)),
            encoding="utf-8")
        Path("seeds.pos").write_text("amod()\n", encoding="utf-8")
        Path("seeds.neg").write_text("prep_of()\n", encoding="utf-8")
        for argv, outputs in PIPELINE.values():
            assert main(argv) == 0
            for output in outputs:
                with open(output, "a", encoding="utf-8") as sink:
                    sink.write("# an earlier run\n")
        return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    @pytest.mark.parametrize("command", PIPELINE)
    def test_a_write_past_the_file_size_limit(self, earlier_run, tmp_path, command):
        argv, (out, *_) = PIPELINE[command]
        limit = len(earlier_run[out]) // 2  # below the size of the output it writes

        def limit_file_size():  # runs in the child only
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE,
                               (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "soundkb.cli", *argv], cwd=tmp_path,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, preexec_fn=limit_file_size)
        assert (done.returncode, done.stderr) == (2, f"error: {out}: File too large\n")
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier_run

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("option", ["--out", "--freq-out"])
    def test_each_paths_output_names_its_own_failure(self, earlier_run, tmp_path, capsys,
                                                     option):
        """/dev/full, a device and so written directly, refuses every write."""
        argv = [*PIPELINE["paths"][0], "--freq-out", "occ.freq.tsv"]
        argv[argv.index(option) + 1] = "/dev/full"
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: /dev/full: No space left on device\n"
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier_run

    def test_an_interrupted_model_write_leaves_the_model(self, earlier_run, tmp_path,
                                                         monkeypatch):
        save = lstm.save_relation_model

        def interrupted(params, vocab, sink):
            text = io.StringIO()
            save(params, vocab, text)
            sink.write(text.getvalue()[: len(text.getvalue()) // 2])
            sink.flush()
            raise KeyboardInterrupt

        monkeypatch.setattr(lstm, "save_relation_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(PIPELINE["train-relation"][0])
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == earlier_run


class TestProvenanceNamesTheLexicon:
    """A given --environments file is the last provenance input of paths and
    report; without it, their first lines are as they were."""

    def test_paths_and_report(self, tmp_path):
        corpus = tmp_path / "c.ann"
        corpus.write_text(PARK_BLOCK + "\n", encoding="utf-8")
        concepts = tmp_path / "k.tsv"
        concepts.write_text("children playing\tP3\t1\n", encoding="utf-8")
        preds = tmp_path / "preds.tsv"
        preds.write_text("park\ta\tp()\t0.9\nbeach\tb\tp()\t0.9\n", encoding="utf-8")
        firsts, bodies = {}, {}
        for name, scenes in (("ab.txt", "park\nbeach\n"), ("ba.txt", "beach\npark\n"),
                             (None, None)):
            given = []
            if name is not None:
                (tmp_path / name).write_text(scenes, encoding="utf-8")
                given = ["--environments", str(tmp_path / name)]
            occ, report = tmp_path / "occ.tsv", tmp_path / "r.tsv"
            assert main(["paths", "--corpus", str(corpus), "--concepts", str(concepts),
                         *given, "--out", str(occ)]) == 0
            assert main(["report", "--predictions", str(preds), *given,
                         "--out", str(report)]) == 0
            texts = [path.read_text(encoding="utf-8") for path in
                     (occ, occ.with_suffix(".freq.tsv"), report)]
            firsts[name] = [text.split("\n", 1)[0] for text in texts]
            bodies[name] = texts[2].split("\n", 1)[1]
        assert bodies["ab.txt"] != bodies["ba.txt"]
        plain = firsts[None]
        assert plain[2] == (f"{plain[0].replace('paths', 'report', 1).split(' inputs=')[0]} "
                            f"inputs=preds.tsv:{cli._digest(preds)} threshold=0.5")
        for name in ("ab.txt", "ba.txt"):
            lexicon = f",{name}:{cli._digest(tmp_path / name)}"
            assert firsts[name] == [plain[0] + lexicon, plain[1] + lexicon,
                                    plain[2].replace(" threshold=", lexicon + " threshold=")]


def _default(function, name: str):
    return inspect.signature(function).parameters[name].default


class TestNumericOptions:
    @pytest.mark.parametrize("command, option, value, message", [
        ("train-phrase", "--epochs", "0", "must be at least 1"),
        ("train-phrase", "--reg", "0", "must be greater than 0"),
        ("train-phrase", "--reg", "nan", "must be greater than 0"),
        ("train-phrase", "--reg", "x", "invalid float value"),
        ("train-relation", "--epochs", "0", "must be at least 1"),
        ("train-relation", "--dim", "0", "must be at least 1"),
        ("train-relation", "--hidden", "0", "must be at least 1"),
        ("train-relation", "--lr", "-1", "must be at least 0"),
        ("train-relation", "--lr", "inf", "must be at least 0"),
        ("train-relation", "--init-scale", "0", "must be greater than 0"),
        ("train-relation", "--clip", "-5", "must be greater than 0"),
        ("report", "--threshold", "nan", "must be at least 0"),
        ("report", "--threshold", "inf", "must be at least 0"),
        ("report", "--threshold", "-inf", "must be at least 0"),
        ("report", "--threshold", "-0.5", "must be at least 0"),
    ])
    def test_out_of_range_is_usage_error(self, phrase_setup, relation_setup, tmp_path,
                                         capsys, command, option, value, message):
        _, _, vec, data = phrase_setup
        pos, neg = default_seed_files()
        predictions = tmp_path / "preds.tsv"
        predictions.write_text("park\tbirds\tp()\t0.9\n", encoding="utf-8")
        inputs = {
            "train-phrase": ["--data", str(data), "--embeddings", str(vec)],
            "train-relation": ["--occurrences", str(relation_setup), "--seeds-pos", pos,
                               "--seeds-neg", neg],
            "report": ["--predictions", str(predictions)],
        }[command]
        out = tmp_path / "m.json"
        # one argument, so that argparse reads "-inf" as a value, not an option
        assert main([command, *inputs, f"{option}={value}", "--out", str(out)]) == 1
        assert f"{option}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_are_the_library_defaults(self):
        parse = cli.build_parser().parse_args
        phrase_args = parse(["train-phrase", "--data", "d", "--embeddings", "e", "--out", "o"])
        relation_args = parse(["train-relation", "--occurrences", "o", "--seeds-pos", "p",
                               "--seeds-neg", "n", "--out", "o"])
        config = lstm.TrainConfig()
        assert (relation_args.lr, relation_args.epochs, relation_args.clip) == (
            config.learning_rate, config.epochs, config.clip)
        assert relation_args.init_scale == _default(lstm.init_params, "init_scale")
        assert phrase_args.folds == _default(phrase.cross_validate, "k")
        assert (phrase_args.reg, phrase_args.epochs) == (
            _default(phrase.cross_validate, "reg"), _default(phrase.cross_validate, "epochs"))

    def test_zero_learning_rate_is_allowed(self, relation_setup, tmp_path):
        pos, neg = default_seed_files()
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--dim", "2", "--hidden", "2",
                     "--epochs", "1", "--lr", "0", "--out", str(tmp_path / "m.json")]) == 0


def test_data_errors_are_data_error_and_os_error():
    assert cli.DATA_ERRORS == (DataError, OSError)
