"""Shared fixtures: hand-annotated sentences and small embedding stores."""

import io
import json
import math

import numpy as np
import pytest

from soundkb.corpus import parse_block
from soundkb.embeddings import EmbeddingStore
from soundkb.lstm import load_relation_model, save_relation_model
from soundkb.phrase import LinearModel, save_model

# "The park was filled with the sound of children playing", with its
# eight dependencies.  The collapsed prepositions carry no edge.
PARK_BLOCK = """\
1\tThe\tDT\t2\tdet
2\tpark\tNN\t4\tnsubjpass
3\twas\tVBD\t4\tauxpass
4\tfilled\tVBN\t0\troot
5\twith\tIN\t_\t_
6\tthe\tDT\t7\tdet
7\tsound\tNN\t10\tnsubj
8\tof\tIN\t_\t_
9\tchildren\tNNS\t7\tprep_of
10\tplaying\tVBG\t4\tprepc_with"""

PARK_EDGES = {
    ("det", 2, 1),
    ("nsubjpass", 4, 2),
    ("auxpass", 4, 3),
    ("root", 0, 4),
    ("det", 7, 6),
    ("nsubj", 10, 7),
    ("prep_of", 7, 9),
    ("prepc_with", 4, 10),
}

# One sentence per valid pattern plus one rejected "sound of JJ" sentence.
PATTERN_EXAMPLES_CORPUS = """\
# pattern fixture corpus
1\tThe\tDT\t2\tdet
2\tsound\tNN\t6\tnsubj
3\tof\tIN\t_\t_
4\thonking\tVBG\t5\tamod
5\tcars\tNNS\t2\tprep_of
6\tfilled\tVBD\t0\troot
7\tthe\tDT\t8\tdet
8\tstreet\tNN\t6\tdobj
9\t.\t.\t6\tpunct

1\tWe\tPRP\t2\tnsubj
2\theard\tVBD\t0\troot
3\tthe\tDT\t4\tdet
4\tsound\tNN\t2\tdobj
5\tof\tIN\t_\t_
6\tyelling\tVBG\t4\tprep_of
7\t.\t.\t2\tpunct

1\tThe\tDT\t2\tdet
2\tsound\tNN\t6\tnsubj
3\tof\tIN\t_\t_
4\tdogs\tNNS\t2\tprep_of
5\tbarking\tVBG\t4\tpartmod
6\twoke\tVBD\t0\troot
7\thim\tPRP\t6\tdobj
8\t.\t.\t6\tpunct

1\tThey\tPRP\t2\tnsubj
2\theard\tVBD\t0\troot
3\tthe\tDT\t4\tdet
4\tsounds\tNNS\t2\tdobj
5\tof\tIN\t_\t_
6\tgunshots\tNNS\t4\tprep_of
7\t.\t.\t2\tpunct

1\tThe\tDT\t2\tdet
2\tsound\tNN\t7\tnsubj
3\tof\tIN\t_\t_
4\ta\tDT\t6\tdet
5\tstring\tNN\t6\tnn
6\tquartet\tNN\t2\tprep_of
7\tdrifted\tVBD\t0\troot
8\tby\tIN\t7\tprep
9\t.\t.\t7\tpunct

1\tShe\tPRP\t2\tnsubj
2\tloves\tVBZ\t0\troot
3\tthe\tDT\t4\tdet
4\tsound\tNN\t2\tdobj
5\tof\tIN\t_\t_
6\tclassical\tJJ\t7\tamod
7\tmusic\tNN\t4\tprep_of
8\t.\t.\t2\tpunct

1\tHe\tPRP\t2\tnsubj
2\tspoke\tVBD\t0\troot
3\tof\tIN\t_\t_
4\tthe\tDT\t5\tdet
5\tsound\tNN\t2\tprep_of
6\tof\tIN\t_\t_
7\tbeautiful\tJJ\t5\tprep_of
8\t.\t.\t2\tpunct
"""

CANONICAL_CONCEPTS = {
    "honking cars": "P1",
    "yelling": "P2",
    "dogs barking": "P3",
    "gunshots": "P4",
    "string quartet": "P5",
    "classical music": "P6",
}


def block_to_sentence(block: str, sent_id: str = "test"):
    lines = list(enumerate(block.splitlines(), 1))
    return parse_block(lines, sent_id=sent_id)


@pytest.fixture
def park_sentence():
    return block_to_sentence(PARK_BLOCK, sent_id="park:1")


@pytest.fixture
def pattern_corpus_file(tmp_path):
    path = tmp_path / "table1.ann"
    path.write_text(PATTERN_EXAMPLES_CORPUS, encoding="utf-8")
    return path


def make_store(vectors: dict[str, list[float]]) -> EmbeddingStore:
    arrays = {w: np.asarray(v, dtype=np.float64) for w, v in vectors.items()}
    dims = {a.shape[0] for a in arrays.values()}
    assert len(dims) == 1
    return EmbeddingStore(dims.pop(), arrays)


def separable_phrase_data(n_per_class: int, dim: int, seed: int, margin: float = 2.0):
    """Bigram dataset that a known hyperplane separates with the given margin.

    Word vectors are placed at +/- (margin + noise) along the first axis,
    so every AWV feature satisfies y * u.x >= margin for u = e_1.  The
    caller should re-verify the margin exhaustively before relying on it.
    """
    rng = np.random.default_rng(seed)
    vectors = {}
    labeled = []
    for i in range(n_per_class):
        for sign, label in ((1.0, +1), (-1.0, -1)):
            tag = "p" if label > 0 else "n"
            w1, w2 = f"{tag}{i}a", f"{tag}{i}b"
            for w in (w1, w2):
                vec = rng.normal(0.0, 0.25, size=dim)
                vec[0] = sign * (margin + abs(rng.normal(0.0, 0.5)))
                vectors[w] = vec
            labeled.append(((w1, w2), label))
    return make_store(vectors), labeled


# A version 1 relation model, written by hand: one array per gate.
V1_RELATION_MODEL = """\
{"format": "soundkb-relation-model", "version": 1, "d": 2, "h": 2,
 "vocab": [["<unk>", "learned"], ["amod()", "learned"], ["park", "learned"]],
 "E": [[0.1, -0.2], [0.3, 0.05], [-0.4, 0.2]],
 "W_xi": [[0.1, 0.2], [-0.3, 0.4]], "W_xf": [[0.5, -0.1], [0.2, 0.2]],
 "W_xo": [[-0.2, 0.3], [0.1, -0.5]], "W_xu": [[0.4, 0.1], [-0.1, 0.3]],
 "U_hi": [[0.2, -0.1], [0.1, 0.3]], "U_hf": [[-0.3, 0.2], [0.4, 0.1]],
 "U_ho": [[0.1, 0.1], [-0.2, 0.2]], "U_hu": [[0.3, -0.4], [0.2, 0.1]],
 "b_i": [0.0, 0.1], "b_f": [1.0, 1.0], "b_o": [-0.1, 0.0], "b_u": [0.2, -0.2],
 "W_r": [[0.5, -0.5], [-0.3, 0.7]]}
"""


def malformed_relation_models() -> dict[str, str]:
    """Broken relation model documents, each a copy of a good one with one defect."""
    buf = io.StringIO()
    save_relation_model(*load_relation_model(io.StringIO(V1_RELATION_MODEL)), buf)
    v2 = buf.getvalue()
    cases = {"truncated-json": v2[: len(v2) // 2]}

    def variant(name, text, mutate):
        doc = json.loads(text)
        mutate(doc)
        cases[name] = json.dumps(doc)

    variant("unknown-version", v2, lambda doc: doc.update(version=3))
    variant("missing-array", v2, lambda doc: doc.pop("U"))
    variant("mis-shaped-array", v2, lambda doc: doc.update(b=doc["b"][:-1]))
    variant("ragged-array", v2, lambda doc: doc["E"][1].pop())
    variant("non-numeric-array", v2, lambda doc: doc.update(W_r="weights"))
    variant("non-finite-weight", v2, lambda doc: doc["W"][0].__setitem__(0, math.inf))
    variant("nan-weight", v2, lambda doc: doc["b"].__setitem__(1, math.nan))
    variant("bad-dimension", v2, lambda doc: doc.update(h="2"))
    variant("bad-vocab", v2, lambda doc: doc.update(vocab=["<unk>"]))
    variant("duplicate-token", v2, lambda doc: doc["vocab"].__setitem__(2, ["amod()", "learned"]))
    variant("no-unknown-token", v2, lambda doc: doc["vocab"].__setitem__(0, ["x", "learned"]))
    variant("bad-flag", v2, lambda doc: doc["vocab"].__setitem__(2, ["park", "frozen"]))
    variant("pretrained-edge-label", v2,
            lambda doc: doc["vocab"].__setitem__(1, ["amod()", "pretrained"]))
    variant("v1-missing-gate", V1_RELATION_MODEL, lambda doc: doc.pop("U_hf"))
    variant("v1-mis-shaped-gate", V1_RELATION_MODEL, lambda doc: doc["W_xo"].pop())
    return cases


def malformed_phrase_models() -> dict[str, str]:
    """Broken phrase model documents, each a copy of a good one with one defect."""
    buf = io.StringIO()
    model = LinearModel(weights=np.array([0.5, -0.25]), bias=0.125, reg=0.01, epochs=3,
                        seed=1, feature_kind="awv")
    save_model(model, buf)
    good = buf.getvalue()
    cases = {"truncated-json": good[: len(good) // 2], "not-an-object": "[1, 2]"}

    def variant(name, mutate):
        doc = json.loads(good)
        mutate(doc)
        cases[name] = json.dumps(doc)

    variant("other-format", lambda doc: doc.update(format="soundkb-relation-model"))
    variant("unknown-version", lambda doc: doc.update(version=2))
    variant("missing-weights", lambda doc: doc.pop("weights"))
    variant("missing-bias", lambda doc: doc.pop("bias"))
    variant("non-numeric-bias", lambda doc: doc.update(bias="0.125"))
    variant("non-integer-epochs", lambda doc: doc.update(epochs=2.5))
    variant("ragged-weights", lambda doc: doc.update(weights=[[0.5], -0.25]))
    variant("non-numeric-weights", lambda doc: doc.update(weights=["0.5", -0.25]))
    variant("weights-not-a-list", lambda doc: doc.update(weights="weights"))
    variant("non-finite-weight", lambda doc: doc["weights"].__setitem__(0, math.inf))
    variant("nan-weight", lambda doc: doc["weights"].__setitem__(1, math.nan))
    variant("non-finite-bias", lambda doc: doc.update(bias=math.inf))
    variant("count-mismatch", lambda doc: doc.update(dimension=3))
    variant("no-weights", lambda doc: doc.update(weights=[], dimension=0))
    variant("unknown-feature-kind", lambda doc: doc.update(feature_kind="xyz"))
    return cases
