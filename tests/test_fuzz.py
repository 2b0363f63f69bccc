"""Seeded fuzzing of every CLI input file and of the corpus block parser,
and the check that a bug inside a layer is not reported as bad data."""

import random
import re

import pytest

from soundkb import cli, lstm, mining, paths, phrase
from soundkb.cli import main
from soundkb.corpus import CorpusFormatError, parse_block
from conftest import (
    PARK_BLOCK,
    PATTERN_EXAMPLES_CORPUS,
    dump_embeddings,
    separable_phrase_data,
)

# Each command with its arguments; an argument naming a workspace file is
# an input.  Sizes are kept small so one run takes milliseconds.
COMMANDS = {
    "mine": ["--corpus", "corpus.ann"],
    "paths": ["--corpus", "corpus.ann", "--concepts", "concepts.tsv",
              "--environments", "envs.txt"],
    "train-phrase": ["--data", "labeled.tsv", "--embeddings", "emb.vec",
                     "--folds", "2", "--epochs", "5"],
    "classify": ["--model", "phrase_model.json", "--embeddings", "emb.vec",
                 "--phrases", "phrases.tsv"],
    "train-relation": ["--occurrences", "occ.tsv", "--seeds-pos", "seeds.pos",
                       "--seeds-neg", "seeds.neg", "--embeddings", "emb.vec",
                       "--hidden", "2", "--epochs", "2"],
    "predict": ["--model", "relation_model.json", "--occurrences", "occ.tsv"],
    "report": ["--predictions", "preds.tsv", "--environments", "envs.txt"],
}


def build_workspace(base):
    """Valid inputs for every command; the models and the predictions are
    made by running the commands that write them."""
    store, labeled = separable_phrase_data(6, 4, seed=5)
    with open(base / "emb.vec", "w", encoding="utf-8") as sink:
        dump_embeddings(store, sink)
    (base / "labeled.tsv").write_text(
        "# word1\tword2\tlabel\n" + "".join(f"{a}\t{b}\t{y:+d}\n" for (a, b), y in labeled),
        encoding="utf-8")
    (base / "phrases.tsv").write_text(
        "".join(f"{a}\t{b}\n" for (a, b), _ in labeled), encoding="utf-8")
    (base / "corpus.ann").write_text(
        PATTERN_EXAMPLES_CORPUS + "\n" + PARK_BLOCK + "\n", encoding="utf-8")
    (base / "concepts.tsv").write_text(
        "children playing\tP3\t1\ngunshots\tP4\t1\n", encoding="utf-8")
    (base / "envs.txt").write_text("# scenes\npark\nstreet\n", encoding="utf-8")
    (base / "seeds.pos").write_text("prep_of()\n", encoding="utf-8")
    (base / "seeds.neg").write_text("amod()\n", encoding="utf-8")
    words = [w for (a, b), _ in labeled for w in (a, b)]
    (base / "occ.tsv").write_text(
        "# scene\tconcept\tpath\tsentence\n"
        + "".join(f"park\tc{k}\tprep_of()\ts{k}\nstreet\tc{k}\tamod()\ts{k}\n"
                  f"park\tc{k}\tprep_of() {w} amod()\ts{k}\n" for k, w in enumerate(words[:4])),
        encoding="utf-8")
    for command, out in (("train-phrase", "phrase_model.json"),
                         ("train-relation", "relation_model.json"),
                         ("predict", "preds.tsv")):
        assert main(argv(command, base, None, base / out)) == 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("workspace")
    build_workspace(base)
    return base


def inputs(command):
    return [arg for arg in COMMANDS[command] if "." in arg]


def argv(command, base, mutated, out):
    """The command's arguments, reading ``mutated`` in place of the
    workspace file of the same name."""
    def where(arg):
        if "." not in arg:
            return arg
        return str(mutated if mutated is not None and mutated.name == arg else base / arg)

    return [command, *map(where, COMMANDS[command]), "--out", str(out)]


def data_lines(data: bytes) -> list[int]:
    """Indices of the non-blank, non-comment lines."""
    lines = data.split(b"\n")
    return [i for i, line in enumerate(lines) if line.strip() and not line.startswith(b"#")]


def drop_tab(data, rng):
    sep = b"\t" if b"\t" in data else b" "
    spots = [i for i, byte in enumerate(data) if byte == sep[0]]
    if not spots:
        return data
    at = rng.choice(spots)
    return data[:at] + data[at + 1:]


def truncate(data, rng):
    lines = data.split(b"\n")
    row = rng.choice(data_lines(data))
    lines[row] = lines[row][: rng.randrange(1, max(2, len(lines[row])))]
    return b"\n".join(lines[: row + 1])


def garble(value):
    def mutate(data, rng):
        lines = data.split(b"\n")
        row = rng.choice(data_lines(data))
        sep = b"\t" if b"\t" in lines[row] else b" "
        fields = lines[row].split(sep)
        fields[rng.randrange(len(fields))] = value
        lines[row] = sep.join(fields)
        return b"\n".join(lines)

    return mutate


def inject_ff(data, rng):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


MUTATIONS = {
    "drop-tab": drop_tab,
    "truncate": truncate,
    "garble-abc": garble(b"abc"),
    "garble-nan": garble(b"nan"),
    "garble-empty": garble(b""),
    "inject-ff": inject_ff,
}
CASES = [(command, name) for command in COMMANDS for name in inputs(command)]


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("command, name", CASES)
def test_mutated_input_exits_0_or_2(workspace, tmp_path, capsys, command, name, mutation):
    names = inputs(command)
    for seed in range(2):
        rng = random.Random(f"{command}/{name}/{mutation}/{seed}")
        mutated = tmp_path / name
        mutated.write_bytes(MUTATIONS[mutation]((workspace / name).read_bytes(), rng))
        capsys.readouterr()
        code = main(argv(command, workspace, mutated, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert any(n in err for n in names), err


def corpus_blocks():
    text = PATTERN_EXAMPLES_CORPUS + "\n" + PARK_BLOCK
    blocks = text.split("\n\n")
    return [[l for l in block.splitlines() if not l.startswith("#")] for block in blocks]


def mutate_block(lines, rng):
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        row = rng.randrange(len(lines))
        kind = rng.randrange(6)
        if kind == 0:
            lines[row] = lines[row].replace("\t", "", 1)
        elif kind == 1:
            lines[row] = lines[row][: rng.randrange(len(lines[row]) + 1)]
        elif kind == 2:
            fields = lines[row].split("\t")
            fields[rng.randrange(len(fields))] = rng.choice(
                ["abc", "nan", "", "0", "-1", "99", "_", " 2", "1e3", "\xff"])
            lines[row] = "\t".join(fields)
        elif kind == 3:
            del lines[row]
        elif kind == 4:
            lines.insert(row, lines[rng.randrange(len(lines))])
        else:
            other = rng.randrange(len(lines))
            lines[row], lines[other] = lines[other], lines[row]
    return lines


def test_parse_block_raises_only_corpus_format_error():
    rng = random.Random(20161018)
    blocks = corpus_blocks()
    outcomes = {"parsed": 0, "rejected": 0}
    for _ in range(3000):
        lines = mutate_block(rng.choice(blocks), rng)
        try:
            parse_block(list(enumerate(lines, 1)))
            outcomes["parsed"] += 1
        except CorpusFormatError:
            outcomes["rejected"] += 1
    assert min(outcomes.values()) > 100, outcomes


def space_in_surface(data, rng):
    """Put a space somewhere inside the surface column of one token row."""
    lines = data.split(b"\n")
    row = rng.choice([i for i in data_lines(data) if lines[i].count(b"\t") == 4])
    fields = lines[row].split(b"\t")
    at = rng.randrange(len(fields[1]) + 1)
    fields[1] = fields[1][:at] + b" " + fields[1][at:]
    lines[row] = b"\t".join(fields)
    return b"\n".join(lines)


@pytest.mark.parametrize("command", ["mine", "paths"])
def test_space_in_surface_skips_the_sentence(workspace, tmp_path, capsys, command):
    for seed in range(5):
        rng = random.Random(f"{command}/space-in-surface/{seed}")
        mutated = tmp_path / "corpus.ann"
        mutated.write_bytes(space_in_surface((workspace / "corpus.ann").read_bytes(), rng))
        capsys.readouterr()
        assert main(argv(command, workspace, mutated, tmp_path / "out")) == 0
        err = capsys.readouterr().err
        assert re.search(r"^warning: corpus\.ann line \d+: skipping sentence: ", err, re.M)
        assert "surface form contains whitespace" in err


# A layer that each command calls through its module, so a patch reaches it.
LAYERS = [
    ("mine", mining, "mine_corpus"),
    ("paths", paths, "occurrences_for_sentence"),
    ("train-phrase", phrase, "cross_validate"),
    ("classify", phrase, "margins"),
    ("train-relation", lstm, "train"),
    ("predict", lstm, "predict_paths"),
    ("report", cli, "build_kb"),
]


@pytest.mark.parametrize("error", [ValueError, RuntimeError, ZeroDivisionError, KeyError])
@pytest.mark.parametrize("command, module, attr", LAYERS)
def test_bug_in_a_layer_is_not_a_data_error(workspace, tmp_path, monkeypatch, command,
                                            module, attr, error):
    def broken(*args, **kwargs):
        raise error("injected bug")

    monkeypatch.setattr(module, attr, broken)
    with pytest.raises(error, match="injected bug"):
        main(argv(command, workspace, None, tmp_path / "out"))
