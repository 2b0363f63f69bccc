"""Run one soundkb command in this fresh process and record what it cost.

Usage::

    python child.py SRC_DIR RESULT_JSON TRACE [COMMAND ARGS...]

Times ``import soundkb.cli`` (the set-up every command pays) and
``soundkb.cli.main(argv)``, and writes both with the exit code and the peak
RSS to RESULT_JSON.  With TRACE 1 the module functions are wrapped first
and the spans are written too.  Without a command it only imports.  The
exit code is the command's.

Every time is written twice: as measured, and at reference speed (see
``SpeedClock``).  The reference-speed time assumes the command is the only
thing that runs in this process; a command that ran other threads or child
processes is marked ``concurrent`` and its reference-speed time is the raw
one.
"""

from __future__ import annotations

import bisect
import json
import resource
import signal
import sys
import threading
import time
from pathlib import Path

_perf = time.perf_counter

# How long work_slice() takes at the nominal speed of the 2-core x86-64 VM the
# bounds were set on, and how often it is timed while a command runs.
REFERENCE_SLICE_S = 0.00012
SLICE_PERIOD_S = 0.02


def work_slice() -> float:
    """A fixed slice of interpreter work: dict, string and float operations."""
    table: dict[str, int] = {}
    total = 0.0
    for i in range(150):
        words = f"w{i % 97} x{i % 13}".split()
        table[words[0]] = table.get(words[0], 0) + len(words[1])
        total += (i + 0.5) ** 0.5
    return total


class SpeedClock:
    """Maps ``perf_counter`` readings to seconds at reference speed.

    The machine's speed drifts by up to 1.7x, in spells that last from a
    fraction of a second to about a minute.  While the clock runs, a SIGALRM
    handler times ``work_slice()`` every ``SLICE_PERIOD_S``, in the main
    thread, between the program's bytecodes.  Between two slices the program
    ran at ``REFERENCE_SLICE_S / slice time`` (the mean of both slices) times
    the reference speed; ``to_ref`` integrates that rate and leaves the
    slices themselves out.  The slices cost about 1% of the run.

    This credits every slowdown of the slices to the machine.  When the
    command itself keeps other threads or processes busy, they slow the
    slices too, and the integrated time would hide part of the wait; such a
    run is detected (``_concurrent``) and reported in raw seconds.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self.saw_threads = False

    def _sample(self, *_) -> None:
        self.saw_threads = self.saw_threads or threading.active_count() > 1
        start = _perf()
        work_slice()
        self.slices.append((start, _perf()))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        speeds = [REFERENCE_SLICE_S / (end - start) for start, end in self.slices]
        self.seg_start = [end for _, end in self.slices[:-1]]
        self.seg_end = [start for start, _ in self.slices[1:]]
        self.rate = [(a + b) / 2 for a, b in zip(speeds, speeds[1:])]
        self.cumulative = [0.0]
        for begin, end, rate in zip(self.seg_start, self.seg_end, self.rate):
            self.cumulative.append(self.cumulative[-1] + (end - begin) * rate)

    def to_ref(self, t: float) -> float:
        """Seconds at reference speed from the first slice to ``t``."""
        k = bisect.bisect_right(self.seg_start, t) - 1
        if k < 0:
            return 0.0
        return self.cumulative[k] + (min(t, self.seg_end[k]) - self.seg_start[k]) * self.rate[k]

    def interval(self, start: float, end: float) -> float:
        return self.to_ref(end) - self.to_ref(start)

    def covered(self) -> tuple[float, float]:
        """Raw and reference seconds of the program between the first and last slice."""
        raw = sum(end - begin for begin, end in zip(self.seg_start, self.seg_end))
        return raw, self.cumulative[-1]


def _peak_rss_mb() -> float | None:
    """Peak RSS of this process and of the children it waited for, in MB.

    Its own peak is VmHWM, or None where /proc has no status.  ``ru_maxrss``
    from ``wait4`` cannot give it on Linux: exec keeps the parent's
    high-water mark, so a child started from the benchmark process would
    report at least the benchmark's own peak.  The children's is
    ``ru_maxrss`` of ``RUSAGE_CHILDREN``: the largest single child, not their
    sum.
    """
    own = None
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024.0
    except OSError:
        return None
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return None if own is None else max(own, children)


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _concurrent(saw_threads: bool, cpu_s: float, children_cpu_s: float, wall_s: float) -> bool:
    """Whether the command ran other threads or waited-for child processes.

    Python threads show in ``threading``; native threads show as more CPU
    time than wall time (10 ms of slack for the clocks' granularity).
    """
    return saw_threads or children_cpu_s > 0 or cpu_s > wall_s + 0.01


def main() -> int:
    src, result_path, trace = Path(sys.argv[1]).resolve(), sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[4:]
    clock = SpeedClock()
    clock.start()
    import_start = _perf()
    sys.path.insert(0, str(src))
    import soundkb.cli

    import_end = run_start = run_end = _perf()
    if not Path(soundkb.cli.__file__).resolve().is_relative_to(src):
        clock.stop()
        print(f"soundkb imported from {soundkb.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    rc = 0
    tracer = None
    if argv:
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
        cpu_start, run_start = _cpu_s(resource.RUSAGE_SELF), _perf()
        rc = soundkb.cli.main(argv)
        cpu_end, run_end = _cpu_s(resource.RUSAGE_SELF), _perf()
    clock.stop()
    concurrent = bool(argv) and _concurrent(
        clock.saw_threads or threading.active_count() > 1, cpu_end - cpu_start,
        _cpu_s(resource.RUSAGE_CHILDREN), run_end - run_start)

    covered_raw, covered_ref = clock.covered()
    doc = {
        "rc": rc,
        "import_s": import_end - import_start,
        "run_s": run_end - run_start,
        "import_ref_s": clock.interval(import_start, import_end),
        "run_ref_s": run_end - run_start if concurrent else clock.interval(run_start, run_end),
        "concurrent": concurrent,
        "covered_s": clock.slices[-1][1] - clock.slices[0][0],
        "covered_ref_s": covered_ref,
        "speed": covered_ref / covered_raw,
        "slices": len(clock.slices),
        "hwm_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        exported = tracer.export()
        if not concurrent:
            for span in exported["spans"]:
                span[2], span[3] = clock.to_ref(span[2]), clock.to_ref(span[3])
        doc["trace"] = exported
    with open(result_path, "w", encoding="utf-8") as sink:
        json.dump(doc, sink)
    return rc


if __name__ == "__main__":
    sys.exit(main())
