"""CLI subcommands: outputs, diagnostics, exit codes."""

import hashlib
import io
from importlib import resources

import pytest

from soundkb import DataError, cli
from soundkb.cli import main
from soundkb.embeddings import dump_embeddings
from soundkb.lstm import load_relation_model, predict_relation, tokenize_path

from conftest import (
    PARK_BLOCK,
    PATTERN_EXAMPLES_CORPUS,
    V1_RELATION_MODEL,
    malformed_phrase_models,
    malformed_relation_models,
    separable_phrase_data,
)

PARK_GOLDEN = "nsubjpass() filled prepc_with() sound prep_of()"


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

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main(["mine", "--corpus", str(tmp_path / "nope.ann"),
                     "--out", str(tmp_path / "o.tsv")]) == 2


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
    def test_park_fixture_golden_path(self, tmp_path):
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
        by_path = {}
        for row in rows:
            assert by_path.setdefault(row[2], row[3]) == row[3]

    def test_predict_reads_version_1_model(self, relation_setup, tmp_path):
        model = tmp_path / "v1.json"
        model.write_text("# hand-written\n" + V1_RELATION_MODEL, encoding="utf-8")
        out = tmp_path / "preds.tsv"
        assert main(["predict", "--model", str(model),
                     "--occurrences", str(relation_setup), "--out", str(out)]) == 0
        params, vocab = load_relation_model(io.StringIO(V1_RELATION_MODEL))
        p_amod, _ = predict_relation(params, vocab, ["amod()"])
        rows = [row.split("\t") for row in data_lines(out)]
        assert len(rows) == 40
        assert {row[3] for row in rows if row[2] == "amod()"} == {f"{p_amod:.9g}"}

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

    def test_embedding_format_error(self, phrase_setup, tmp_path, capsys):
        _, _, _, data = phrase_setup
        vec = tmp_path / "bad.vec"
        vec.write_text("cat 1 2\ndog 1\n", encoding="utf-8")
        err = data_error(["train-phrase", "--data", str(data), "--embeddings", str(vec),
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "bad.vec line 2: expected 2 components, got 1" in err

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

    def test_model_and_vectors_disagree_in_dimension(self, tmp_path, capsys):
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
        phrases.write_text("pa\tpb\n", encoding="utf-8")
        err = data_error(["classify", "--model", str(model), "--embeddings", str(vec3),
                          "--phrases", str(phrases), "--out", str(tmp_path / "p.tsv")],
                         capsys)
        assert "model.json, three.vec: feature dimension 3 != model dimension 2" in err

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
    ])
    def test_occurrence_rows(self, relation_setup, tmp_path, capsys, row, message):
        model = tmp_path / "v1.json"
        model.write_text(V1_RELATION_MODEL, encoding="utf-8")
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

    def test_divergence(self, relation_setup, tmp_path, capsys):
        pos, neg = default_seed_files()
        err = data_error(["train-relation", "--occurrences", str(relation_setup),
                          "--seeds-pos", pos, "--seeds-neg", neg, "--dim", "4",
                          "--hidden", "4", "--lr", "1e18", "--clip", "1e18",
                          "--out", str(tmp_path / "m.json")], capsys)
        assert "occ.tsv, paths.pos, paths.neg: training diverged at epoch" in err

    @pytest.mark.parametrize("command", ["paths", "report"])
    def test_empty_environment_lexicon(self, command, tmp_path, capsys):
        envs = tmp_path / "envs.txt"
        envs.write_text("# nothing\n\n", encoding="utf-8")
        inputs = tmp_path / "in.tsv"
        inputs.write_text("", encoding="utf-8")
        source = {"paths": ["--corpus", str(inputs), "--concepts", str(inputs)],
                  "report": ["--predictions", str(inputs)]}[command]
        err = data_error([command, *source, "--environments", str(envs),
                          "--out", str(tmp_path / "o.tsv")], capsys)
        assert "envs.txt: environment lexicon is empty" in err

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
    ])
    def test_out_of_range_is_usage_error(self, phrase_setup, relation_setup, tmp_path,
                                         capsys, command, option, value, message):
        _, _, vec, data = phrase_setup
        pos, neg = default_seed_files()
        inputs = {
            "train-phrase": ["--data", str(data), "--embeddings", str(vec)],
            "train-relation": ["--occurrences", str(relation_setup), "--seeds-pos", pos,
                               "--seeds-neg", neg],
        }[command]
        out = tmp_path / "m.json"
        assert main([command, *inputs, option, value, "--out", str(out)]) == 1
        assert f"{option}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_learning_rate_is_allowed(self, relation_setup, tmp_path):
        pos, neg = default_seed_files()
        assert main(["train-relation", "--occurrences", str(relation_setup),
                     "--seeds-pos", pos, "--seeds-neg", neg, "--dim", "2", "--hidden", "2",
                     "--epochs", "1", "--lr", "0", "--out", str(tmp_path / "m.json")]) == 0


def test_data_errors_are_data_error_and_os_error():
    assert cli.DATA_ERRORS == (DataError, OSError)
