"""Gather paired perfbench runs into one ``BENCH_*.json`` and compare them.

Each input file holds what one ``perfbench/run.py`` run printed: the
metadata line, then the result line.  Its name starts with the side,
``parent-`` or ``change-``; runs of the two sides pair up by workload,
seed and ``--trace``:

    python3 tools/bench_compare.py --benchmark BENCHMARK.json --out BENCH_7.json runs/*.out

For each workload and end-to-end metric of ``BENCHMARK.json`` the record
and the printed table give each side's median and quartiles over the
untraced runs, and in how many pairs the change was better.  Traced
pairs add their per-layer metrics side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")


def read_run(path: Path) -> dict:
    side = path.name.split("-", 1)[0]
    if side not in SIDES:
        raise SystemExit(f"{path}: the file name must start with parent- or change-")
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if len(lines) < 2:
        raise SystemExit(f"{path}: expected the metadata and result lines of run.py")
    return {"side": side, "meta": json.loads(lines[-2])["meta"],
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], bench: dict) -> dict:
    by_key = {}  # (workload, trace) -> side -> seed -> metrics
    for run in runs:
        meta = run["meta"]
        sides = by_key.setdefault((meta["workload"], meta["trace"]), {s: {} for s in SIDES})
        sides[run["side"]][meta["seed"]] = run["result"]["metrics"]
    summary = {}
    for (workload, trace), sides in sorted(by_key.items()):
        seeds = sorted(set(sides["parent"]) & set(sides["change"]))
        if not seeds:
            continue
        entry = summary.setdefault(workload, {})
        if trace:
            entry["traced"] = {
                name: {side: [sides[side][s][name]["value"] for s in seeds] for side in SIDES}
                for name in sides["parent"][seeds[0]]}
            continue
        rows = entry["end_to_end"] = {}
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [sides[side][s][name]["value"] for s in seeds] for side in SIDES}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            rows[name] = {"parent": spread(values["parent"]), "change": spread(values["change"]),
                          "change_wins": wins, "pairs": len(seeds), "bound": metric["bound"]}
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text(encoding="utf-8"))
    runs = sorted((read_run(path) for path in args.runs),
                  key=lambda r: (r["meta"]["workload"], r["meta"]["trace"], r["meta"]["seed"],
                                 r["side"]))
    summary = summarize(runs, bench)
    for workload, entry in summary.items():
        failed = {side: sum(r["result"]["failed"] for r in runs
                            if r["side"] == side and r["meta"]["workload"] == workload)
                  for side in SIDES}
        print(f"{workload}: failed commands parent {failed['parent']}, change {failed['change']}")
        for name, row in entry.get("end_to_end", {}).items():
            p, c = row["parent"], row["change"]
            ratio = c["median"] / p["median"] if p["median"] else float("nan")
            print(f"  {name:17} parent {p['median']:9.4f} [{p['q1']:.4f}, {p['q3']:.4f}]"
                  f"  change {c['median']:9.4f} [{c['q1']:.4f}, {c['q3']:.4f}]"
                  f"  change/parent {ratio:.3f}  better in {row['change_wins']}/{row['pairs']}"
                  f"  (bound {row['bound']})")
    if args.out:
        args.out.write_text(json.dumps({
            "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace T",
            "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
