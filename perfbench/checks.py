"""Output checks: each command's output against the generator's ground truth.

Every check takes the run's ``Inputs`` and returns None when the output is
right, else a one-line reason.  A command's stderr is in ``<command>.err``
in the work directory.  A command counts as failed when it exits
non-zero or its check returns a reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path


def _rows(path: Path) -> list[list[str]]:
    """Tab-split data rows, without the ``#`` provenance and header lines."""
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def _json(path: Path) -> dict:
    return json.loads("".join(line for line in path.read_text(encoding="utf-8").splitlines(True)
                              if not line.startswith("#")))


def check_mine(inp) -> str | None:
    got = [tuple(row) for row in _rows(inp.out["concepts"])]
    want = [(text, pattern, str(freq)) for text, pattern, freq in inp.corpus.concept_rows]
    if got != want:
        return f"concept table differs: {len(got)} rows, expected {len(want)}"
    stderr = (inp.work / "mine.err").read_text(encoding="utf-8")
    skipped = sum(1 for line in stderr.splitlines() if "skipping sentence" in line)
    if skipped != inp.corpus.skipped:
        return f"{skipped} sentences reported skipped, expected {inp.corpus.skipped}"
    return None


def check_paths(inp) -> str | None:
    got = [tuple(row) for row in _rows(inp.out["occurrences"])]
    if got != inp.corpus.occurrences:
        return f"occurrences differ: {len(got)} rows, expected {len(inp.corpus.occurrences)}"
    return None


def check_train_phrase(inp) -> str | None:
    doc = _json(inp.out["phrase_model"])
    if doc.get("format") != "soundkb-linear-model" or doc.get("feature_kind") != "cwv":
        return "phrase model has the wrong format or feature kind"
    if not all(math.isfinite(w) for w in doc["weights"] + [doc["bias"]]):
        return "phrase model has non-finite weights"
    return None


def check_classify(inp) -> str | None:
    rows = _rows(inp.out["phrase_predictions"])
    if len(rows) != len(inp.phrases.phrases):
        return f"{len(rows)} phrase predictions for {len(inp.phrases.phrases)} phrases"
    for row, (w1, w2, label) in zip(rows, inp.phrases.phrases):
        if row[:3] != [w1, w2, f"{label:+d}"] or not math.isfinite(float(row[3])):
            return f"phrase {w1} {w2} labeled {row[2:]}, expected {label:+d}"
    return None


def check_train_relation(inp) -> str | None:
    doc = _json(inp.out["relation_model"])
    if doc.get("format") != "soundkb-relation-model":
        return "relation model has the wrong format"
    if (doc["d"], doc["h"]) != inp.lstm_dims:
        return f"relation model is (d,h)=({doc['d']},{doc['h']}), expected {inp.lstm_dims}"
    return None


def check_predict(inp) -> str | None:
    rows = _rows(inp.out["relation_predictions"])
    occurrences = inp.corpus.occurrences
    if len(rows) != len(occurrences):
        return f"{len(rows)} predictions for {len(occurrences)} occurrences"
    for row, occ in zip(rows, occurrences):
        p = float(row[3])
        if row[:3] != list(occ[:3]) or not (math.isfinite(p) and 0.0 <= p <= 1.0):
            return f"bad prediction row {row}"
    return None


def check_report(inp) -> str | None:
    rows = _rows(inp.out["report"])
    if [row[0] for row in rows] != inp.lexicon:
        return "report scenes are not the lexicon scenes in lexicon order"
    concepts = {text for text, _, _ in inp.corpus.concept_rows}
    for row in rows:
        sounds = [s for s in row[1].split(", ") if s] if len(row) > 1 else []
        if not set(sounds) <= concepts:
            return f"report lists unknown sounds for {row[0]}"
    return None


CHECKS = {
    "mine": check_mine,
    "paths": check_paths,
    "train-phrase": check_train_phrase,
    "classify": check_classify,
    "train-relation": check_train_relation,
    "predict": check_predict,
    "report": check_report,
}


def check(command: str, inp) -> str | None:
    """Run one command's check; an unreadable output is a failure too."""
    try:
        return CHECKS[command](inp)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {err!r}"
