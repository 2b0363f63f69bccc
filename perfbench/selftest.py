"""Self-tests of the benchmark itself (not of soundkb).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that inputs are a function of the seed, that every output check
catches a corrupted output, that the printed metrics are exactly the ones
BENCHMARK.json declares, that a command running threads or child processes
is told apart, and that the benchmark refuses to run outside a soundkb
checkout.  They take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402

SCRATCH = BENCH_DIR / ".work" / "selftest"


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _file_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ("corpus-scan", "relation-lstm"):
            first = _fresh(f"{workload}-a")
            again = _fresh(f"{workload}-b")
            other = _fresh(f"{workload}-c")
            run.make_inputs(ROOT, first, workload, 5)
            run.make_inputs(ROOT, again, workload, 5)
            run.make_inputs(ROOT, other, workload, 6)
            a, b, c = _file_bytes(first), _file_bytes(again), _file_bytes(other)
            self.assertEqual(a, b, workload)
            self.assertEqual(a.keys(), c.keys())
            for name in a:
                self.assertNotEqual(a[name], c[name], f"{workload}: {name}")

    def test_sizes_do_not_depend_on_the_seed(self):
        sizes = []
        for seed in (1, 2):
            sizes.append(run.input_sizes(
                run.make_inputs(ROOT, _fresh(f"sizes-{seed}"), "relation-lstm", seed)))
        for key in ("sentences", "malformed_blocks", "concepts", "occurrences",
                    "examples", "seed_paths", "vec_rows", "phrases"):
            self.assertEqual(sizes[0][key], sizes[1][key], key)


def _replace_line(path: Path, index: int, edit) -> None:
    """Apply ``edit`` to the ``index``-th data line (comment lines skipped)."""
    lines = path.read_text(encoding="utf-8").splitlines(True)
    data = [k for k, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    lines[data[index]] = edit(lines[data[index]])
    path.write_text("".join(lines), encoding="utf-8")


def _set_column(column: int, value: str):
    def edit(line: str) -> str:
        cols = line.rstrip("\n").split("\t")
        cols[column] = value
        return "\t".join(cols) + "\n"
    return edit


class ChecksTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from soundkb.cli import main

        cls.inp = run.make_inputs(ROOT, _fresh("checks"), "corpus-scan", 3)
        for command in checks.CHECKS:
            with open(cls.inp.work / f"{command}.err", "w", encoding="utf-8") as err, \
                    contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main(cls.inp.argv[command]) == 0, command

    def assert_flags(self, command: str, key: str, corrupt) -> None:
        path = self.inp.out[key]
        original = path.read_bytes()
        self.assertIsNone(checks.check(command, self.inp))
        try:
            corrupt(path)
            self.assertIsNotNone(checks.check(command, self.inp), command)
        finally:
            path.write_bytes(original)

    def test_mine(self):
        self.assert_flags("mine", "concepts", lambda p: _replace_line(p, 0, _set_column(2, "999")))

    def test_paths(self):
        self.assert_flags("paths", "occurrences",
                          lambda p: _replace_line(p, 7, _set_column(2, "amod()")))

    def test_train_phrase(self):
        self.assert_flags("train-phrase", "phrase_model", lambda p: p.write_text(
            p.read_text(encoding="utf-8").replace('"cwv"', '"awv"'), encoding="utf-8"))

    def test_classify(self):
        def flip(line):
            cols = line.split("\t")
            cols[2] = "-1" if cols[2] == "+1" else "+1"
            return "\t".join(cols)
        self.assert_flags("classify", "phrase_predictions", lambda p: _replace_line(p, 3, flip))

    def test_train_relation(self):
        self.assert_flags("train-relation", "relation_model", lambda p: p.write_text(
            p.read_text(encoding="utf-8").replace('"h": 16', '"h": 17'), encoding="utf-8"))

    def test_predict(self):
        self.assert_flags("predict", "relation_predictions",
                          lambda p: _replace_line(p, 2, _set_column(3, "1.5")))

    def test_report(self):
        def swap(path):
            lines = path.read_text(encoding="utf-8").splitlines(True)
            lines[-1], lines[-2] = lines[-2], lines[-1]
            path.write_text("".join(lines), encoding="utf-8")
        self.assert_flags("report", "report", swap)

    def test_mine_skipped_sentences(self):
        self.assert_flags("mine", "concepts", lambda p: (p.parent / "mine.err").write_text(
            "", encoding="utf-8"))

    def test_missing_output(self):
        self.assert_flags("predict", "relation_predictions", lambda p: p.unlink())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


class ResultTest(unittest.TestCase):
    def test_printed_metrics_are_the_declared_ones(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, "phrase-embed", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], proc.stderr)
            self.assertGreaterEqual(result["attempted"], 1)
            units = {m["name"]: m["unit"] for m in declared[key]}
            self.assertEqual(units, {name: m["unit"] for name, m in result["metrics"].items()})

    def test_refuses_to_run_outside_a_checkout(self):
        bare = _fresh("bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        proc = _bench(bare, "corpus-scan", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class ChildTest(unittest.TestCase):
    def test_threads_and_children_mark_a_run_concurrent(self):
        self.assertFalse(child._concurrent(False, cpu_s=0.5, children_cpu_s=0.0, wall_s=0.5))
        self.assertTrue(child._concurrent(False, cpu_s=0.9, children_cpu_s=0.0, wall_s=0.5))
        self.assertTrue(child._concurrent(False, cpu_s=0.5, children_cpu_s=0.3, wall_s=0.5))
        self.assertTrue(child._concurrent(True, cpu_s=0.5, children_cpu_s=0.0, wall_s=0.5))

    def test_peak_rss_counts_waited_children(self):
        touch_200_mb = "b = bytearray(200 << 20); b[::4096] = b'x' * len(b[::4096])"
        subprocess.run([sys.executable, "-c", touch_200_mb], check=True, timeout=60)
        self.assertGreater(child._peak_rss_mb(), 200)


if __name__ == "__main__":
    unittest.main()
