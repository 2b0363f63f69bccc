"""The scripts under ``tools/``, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

from conftest import dump_embeddings, separable_phrase_data

ROOT = Path(__file__).resolve().parents[1]


def test_phrase_label_noise_times_both_checkouts(tmp_path):
    """Both sides, here the same checkout, fit the flipped labels, and each
    prints its median over the repeats (``statistics.quantiles`` needs two)."""
    store, labeled = separable_phrase_data(8, 4, seed=5)
    vec = tmp_path / "w.vec"
    with open(vec, "w", encoding="utf-8") as sink:
        dump_embeddings(store, sink)
    data = tmp_path / "labeled.tsv"
    rows = "".join(f"{w1}\t{w2}\t{y:+d}\n" for (w1, w2), y in labeled)
    data.write_text(rows + "zz\tqq\t+1\n", encoding="utf-8")  # one unrepresentable row
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phrase_label_noise.py"),
         "--parent", str(ROOT), "--change", str(ROOT), "--data", str(data),
         "--embeddings", str(vec), "--repeats", "2", "--epochs", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent", "change"]
    assert all(": median " in line and line.endswith(" over 2 runs") for line in lines)
