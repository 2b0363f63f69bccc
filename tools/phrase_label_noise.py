"""Time the phrase classifier's training on labels that no hyperplane separates.

Reads a labeled phrase set and its ``.vec`` file (for example the inputs a
``perfbench/run.py --workload phrase-embed`` run leaves in
``perfbench/.work``), flips a seeded share of the labels, and times what
``train-phrase`` runs in-process: ``phrase.cross_validate`` and the final
``phrase.train``.  The two checkouts take turns, each timing in its own
interpreter against its own ``src``; the result is each side's median and
quartiles in raw seconds:

    python3 tools/phrase_label_noise.py --parent parent --change change \\
        --data labeled.tsv --embeddings vectors.vec --record BENCH_11.json

``--record`` adds the result to a ``BENCH_*.json`` record under
``label_noise``.

Both checkouts must be recent enough that ``phrase.train`` and
``phrase.cross_validate`` take a feature matrix and a label array; an
older ``--parent`` fails in its first run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# Runs inside one checkout: prints the seconds of one cross-validation plus final fit.
CHILD = """
import random, sys, time
from pathlib import Path
import numpy as np
from soundkb import cli, embeddings, phrase
data, vec, featurizer, epochs, seed, flip = sys.argv[1:]
with open(vec, encoding="utf-8-sig") as lines:
    store = embeddings.load_embeddings(lines)
rnd = random.Random(int(seed))
(words, pairs, _), labels = cli._read_labeled_phrases(Path(data))
features, representable = embeddings.featurize_rows(
    store, store.rows(words)[pairs].reshape(-1, 2), featurizer)
labels = np.array([-y if rnd.random() < float(flip) else y for y in labels], dtype=np.float64)
features, labels = features[representable], labels[representable]
start = time.perf_counter()
phrase.cross_validate(features, labels, k=4, seed=int(seed), epochs=int(epochs))
phrase.train(features, labels, epochs=int(epochs), seed=int(seed))
print(time.perf_counter() - start)
"""


def time_once(checkout: Path, args) -> float:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(args.data), str(args.embeddings), args.featurizer,
         str(args.epochs), str(args.seed), str(args.flip)],
        env=env, capture_output=True, text=True, check=True)
    return float(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--data", type=Path, required=True)
    parser.add_argument("--embeddings", type=Path, required=True)
    parser.add_argument("--featurizer", default="cwv")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--flip", type=float, default=0.2)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = {side: [] for side in SIDES}
    for i in range(args.repeats):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            seconds[side].append(time_once(checkouts[side], args))
    result = {"data": args.data.name, "embeddings": args.embeddings.name,
              "featurizer": args.featurizer, "epochs": args.epochs, "seed": args.seed,
              "flip": args.flip, "unit": "s (raw)"}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(seconds[side], n=4, method="inclusive")
        result[side] = {"median": median, "q1": q1, "q3": q3, "samples": seconds[side]}
        print(f"{side}: median {median:.3f} s [{q1:.3f}, {q3:.3f}] over {args.repeats} runs")
    if args.record:
        record = json.loads(args.record.read_text(encoding="utf-8"))
        record["label_noise"] = result
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
