"""soundkb pipeline benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus-scan --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, then runs the seven-command
CLI pipeline again and again for ``--seconds``.  Each command runs in its own
fresh process (``child.py``), which times ``import soundkb.cli`` and
``soundkb.cli.main(argv)`` and reads its peak RSS.  Every
output is checked against the generator's ground truth.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced pipeline runs alternate and the per-layer metrics are
printed (see ``spans.py``).  The last stdout line is the result object; the
line before it holds the run metadata, which is also written with the raw
samples to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s

# Few epochs: the benchmark times training steps, not convergence.
RELATION_EPOCHS = 1
PHRASE_EPOCHS = 10

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "corpus-scan": dict(
        corpus=gen.CorpusSpec(
            sentences=2000, concepts=2000, env_mentions=2,
            env_root_every=2, rejected_every=3, roots=4, env_chains=6, env_words=1,
            concept_chains=10, concept_words=1, seed_chains=1,
            seed_share=0.07),
        lstm=(8, 16), relation_embeddings=False,
        phrases=dict(dim=20, vec_rows=5000, words_per_class=500, labeled=1500,
                     phrases=15000),
    ),
    "relation-lstm": dict(
        corpus=gen.CorpusSpec(
            sentences=1200, concepts=40, env_mentions=1,
            env_root_every=2, rejected_every=5, roots=6, env_chains=10, env_words=2,
            concept_chains=24, concept_words=3, seed_chains=10,
            seed_share=0.42),
        lstm=(32, 64), relation_embeddings=True,  # so phrases.dim must be 32
        phrases=dict(dim=32, vec_rows=5000, words_per_class=500, labeled=600,
                     phrases=6000),
    ),
    "phrase-embed": dict(
        corpus=gen.CorpusSpec(
            sentences=300, concepts=24, env_mentions=1,
            env_root_every=3, rejected_every=4, roots=3, env_chains=4, env_words=1,
            concept_chains=6, concept_words=1, seed_chains=1,
            seed_share=0.2),
        lstm=(8, 16), relation_embeddings=False,
        phrases=dict(dim=100, vec_rows=20000, words_per_class=1000, labeled=2000,
                     phrases=20000),
    ),
}


class SetupError(Exception):
    """The directory is not a soundkb checkout."""


@dataclass
class Inputs:
    """Generated inputs, their ground truth and the command lines."""

    work: Path
    corpus: gen.CorpusTruth
    phrases: gen.PhraseTruth
    lexicon: list[str]
    lstm_dims: tuple[int, int]
    out: dict[str, Path]
    argv: dict[str, list[str]]


def make_inputs(root: Path, work: Path, workload: str, seed: int) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``work``."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    lexicon = gen.read_lexicon(root / "src" / "soundkb" / "data" / "environments.txt")
    corpus_text, corpus = gen.make_corpus(rng, spec["corpus"], lexicon, "corpus.ann")
    path_words = list(gen.ROOT_WORDS + gen.CHAIN_WORDS + gen.TRIGGERS)
    vec_text, phrases = gen.make_phrases_and_vectors(
        rng, extra_words=path_words, **spec["phrases"])
    files = {
        "corpus.ann": corpus_text,
        "seeds.pos": "".join(p + "\n" for p in corpus.seeds_pos),
        "seeds.neg": "".join(p + "\n" for p in corpus.seeds_neg),
        "vectors.vec": vec_text,
        "labeled.tsv": "".join(f"{a}\t{b}\t{y:+d}\n" for a, b, y in phrases.labeled),
        "phrases.tsv": "".join(f"{a}\t{b}\n" for a, b, _ in phrases.phrases),
    }
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")

    f = {name: str(work / name) for name in files}
    out = {key: work / name for key, name in (
        ("concepts", "concepts.tsv"), ("occurrences", "occurrences.tsv"),
        ("path_frequencies", "path_frequencies.tsv"), ("phrase_model", "phrase_model.json"),
        ("phrase_predictions", "phrase_predictions.tsv"),
        ("relation_model", "relation_model.json"),
        ("relation_predictions", "relation_predictions.tsv"), ("report", "report.tsv"))}
    o = {key: str(path) for key, path in out.items()}
    d, h = spec["lstm"]
    relation = ["--occurrences", o["occurrences"], "--seeds-pos", f["seeds.pos"],
                "--seeds-neg", f["seeds.neg"], "--dim", str(d), "--hidden", str(h),
                "--epochs", str(RELATION_EPOCHS), "--seed", str(seed),
                "--out", o["relation_model"]]
    if spec["relation_embeddings"]:
        relation += ["--embeddings", f["vectors.vec"]]
    argv = {
        "mine": ["--corpus", f["corpus.ann"], "--out", o["concepts"],
                 "--shards", str(os.cpu_count() or 1)],
        "paths": ["--corpus", f["corpus.ann"], "--concepts", o["concepts"],
                  "--out", o["occurrences"], "--freq-out", o["path_frequencies"]],
        "train-phrase": ["--data", f["labeled.tsv"], "--embeddings", f["vectors.vec"],
                         "--featurizer", "cwv", "--epochs", str(PHRASE_EPOCHS),
                         "--seed", str(seed), "--out", o["phrase_model"]],
        "classify": ["--model", o["phrase_model"], "--embeddings", f["vectors.vec"],
                     "--phrases", f["phrases.tsv"], "--out", o["phrase_predictions"]],
        "train-relation": relation,
        "predict": ["--model", o["relation_model"], "--occurrences", o["occurrences"],
                    "--out", o["relation_predictions"]],
        "report": ["--predictions", o["relation_predictions"], "--out", o["report"]],
    }
    return Inputs(work, corpus, phrases, lexicon, (d, h), out,
                  {cmd: [cmd] + args for cmd, args in argv.items()})


def input_sizes(inp: Inputs) -> dict[str, int]:
    seeds = set(inp.corpus.seeds_pos) | set(inp.corpus.seeds_neg)
    return {
        "sentences": inp.corpus.sentences,
        "malformed_blocks": inp.corpus.skipped,
        "oov_phrases": inp.phrases.oov_words,
        "candidate_mentions": inp.corpus.candidates,
        "accepted_mentions": inp.corpus.accepted,
        "concepts": len(inp.corpus.concept_rows),
        "occurrences": len(inp.corpus.occurrences),
        "distinct_paths": len({occ[2] for occ in inp.corpus.occurrences}),
        "examples": sum(1 for occ in inp.corpus.occurrences if occ[2] in seeds),
        "seed_paths": len(seeds),
        "vec_rows": inp.phrases.vec_rows,
        "labeled_phrases": len(inp.phrases.labeled),
        "phrases": len(inp.phrases.phrases),
    }


# ------------------------------------------------------------ child processes


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(root: Path, work: Path, argv: list[str], trace: bool,
              timeout: float) -> dict:
    """Run one command in a fresh interpreter; its result plus rc and RSS."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    err_path = work / f"{argv[0] if argv else 'import'}.err"
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(root / "src"),
             str(result_path), "1" if trace else "0"] + argv,
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = {"import_s": 0.0, "run_s": 0.0, "import_ref_s": 0.0, "run_ref_s": 0.0,
           "covered_s": 0.0, "covered_ref_s": 0.0, "speed": 1.0}
    if result_path.exists():
        doc = json.loads(result_path.read_text(encoding="utf-8"))
    doc["rc"] = proc.returncode
    # Process start and exit fall outside the child's clock: count them at
    # the speed the child measured.  A concurrent command's speed is not the
    # machine's (see child.py), so its wall time stays raw.
    doc["wall_ref_s"] = (wall if doc.get("concurrent") else
                         doc["covered_ref_s"] + (wall - doc["covered_s"]) * doc["speed"])
    # The child's and its children's high-water marks where it could read
    # them; wait4's ru_maxrss also counts this process's peak (see child.py).
    doc["rss_mb"] = doc.get("hwm_mb") or usage.ru_maxrss / 1024.0
    if proc.returncode != 0:
        doc["stderr"] = err_path.read_text(encoding="utf-8")[-2000:]
    return doc


def run_pipeline(root: Path, inp: Inputs, trace: bool, deadline: float) -> dict:
    """All seven commands in order, each in a fresh process, then the checks."""
    commands = {}
    start = time.perf_counter()
    for cmd in spans.COMMANDS:
        commands[cmd] = run_child(root, inp.work, inp.argv[cmd], trace,
                                  deadline - time.perf_counter())
    wall = time.perf_counter() - start
    failures = {}
    for cmd, doc in commands.items():
        reason = (f"exit code {doc['rc']}: {doc.get('stderr', '').strip()[-300:]}"
                  if doc["rc"] != 0 else checks.check(cmd, inp))
        if reason:
            failures[cmd] = reason
    return {"trace": trace, "wall_s": wall, "commands": commands, "failures": failures}


# ------------------------------------------------------------------ metrics


def end_to_end(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Medians over the pipeline runs, in seconds at reference speed."""
    med = statistics.median
    out = {"setup_s": (med(doc["import_ref_s"] for rep in reps
                           for doc in rep["commands"].values()), "s")}
    for cmd in spans.COMMANDS:
        if cmd != "report":  # too short to time steadily; counted in pipeline_s
            out[cmd.replace("-", "_") + "_s"] = (
                med(rep["commands"][cmd]["run_ref_s"] for rep in reps), "s")
    out["pipeline_s"] = (med(_pipeline_s(rep) for rep in reps), "s")
    out["peak_rss_mb"] = (med(max(doc["rss_mb"] for doc in rep["commands"].values())
                              for rep in reps), "MB")
    return out


def _pipeline_s(rep: dict) -> float:
    return sum(doc["wall_ref_s"] for doc in rep["commands"].values())


def per_layer(reps: list[dict], error_rate: float) -> dict[str, tuple[float, str]]:
    plain = [rep for rep in reps if not rep["trace"]]
    # A command that failed left no spans; its pipeline run gives no layer metrics.
    traced = [rep for rep in reps
              if rep["trace"] and all("trace" in doc for doc in rep["commands"].values())]
    rss = {cmd: [rep["commands"][cmd]["rss_mb"] for rep in plain] for cmd in spans.COMMANDS}
    return spans.layer_metrics(
        [{cmd: doc["trace"] for cmd, doc in rep["commands"].items()} for rep in traced],
        rss, [_pipeline_s(rep) for rep in traced], [_pipeline_s(rep) for rep in plain],
        error_rate)


def _git_rev(root: Path) -> str:
    # Without a .git of its own, git would search the parent directories.
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "soundkb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    if not (root / "src" / "soundkb" / "cli.py").is_file():
        raise SetupError(f"{root} holds no src/soundkb: run from the root of a soundkb checkout")
    work = BENCH_DIR / ".work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inp = make_inputs(root, work, workload, seed)
    generate_s = time.perf_counter() - started
    # One import first, so byte-code compilation is not timed as set-up.
    warm = run_child(root, work, [], False, deadline - time.perf_counter())
    if warm["rc"] != 0:
        raise SetupError(f"cannot import soundkb.cli: {warm.get('stderr', '')}")

    # Pipeline runs repeat while the next one, as long as the last, still
    # ends within ``seconds``; a traced run needs one plain and one traced.
    reps = []
    measure_start = time.perf_counter()
    while True:
        rep_trace = trace and len(reps) % 2 == 1  # traced runs alternate with plain ones
        rep_start = time.perf_counter()
        reps.append(run_pipeline(root, inp, rep_trace, deadline))
        now = time.perf_counter()
        if now + (now - rep_start) - measure_start > seconds and len(reps) >= 1 + trace:
            break
    attempted = sum(len(rep["commands"]) for rep in reps)
    failed = sum(len(rep["failures"]) for rep in reps)
    if trace:
        metrics = per_layer(reps, failed / attempted)
    else:
        metrics = end_to_end(reps)

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reps": len(reps), "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "git_rev": _git_rev(root),
        "src_digest": _src_digest(root), "lstm_dh": list(inp.lstm_dims),
        "generate_s": generate_s, "sizes": input_sizes(inp),
        "speed": statistics.median(doc["speed"] for rep in reps
                                   for doc in rep["commands"].values()),
        "raw_s": {cmd: statistics.median(rep["commands"][cmd]["run_s"] for rep in reps)
                  for cmd in spans.COMMANDS},
        "raw_pipeline_s": statistics.median(rep["wall_s"] for rep in reps),
        # Commands timed in raw seconds because they ran threads or processes.
        "concurrent": sorted({cmd for rep in reps for cmd, doc in rep["commands"].items()
                              if doc.get("concurrent")}),
        "failures": [rep["failures"] for rep in reps if rep["failures"]],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = BENCH_DIR / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    raw = [{"trace": rep["trace"], "wall_s": rep["wall_s"], "failures": rep["failures"],
            "commands": {cmd: {k: v for k, v in doc.items() if k != "trace"}
                         for cmd, doc in rep["commands"].items()}} for rep in reps]
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"meta": meta, "result": result, "reps": raw}, indent=1), encoding="utf-8")
    return meta, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        meta, result = run(Path.cwd(), args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for failures in meta["failures"]:
        for cmd, reason in failures.items():
            print(f"check failed: {cmd}: {reason}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
