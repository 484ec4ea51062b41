"""Shared pieces of the benchmark: paths, child processes, the correctness
gate, in-memory spans and the statistics every workload reports.

Stdlib only.  Nothing here imports psu4designs, so the parent process and
the scan children pay for the package import only where it is measured.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A single child (scan pass, CLI command, set-up probe) never legitimately
# takes more than a few seconds; a hang is cut here and counted as failed.
CHILD_TIMEOUT_S = 60

# Time of ``speed_probe`` that every end-to-end time is scaled to.
REFERENCE_S = 0.008


def speed_probe(times: int = 3) -> float:
    """Median seconds of a fixed integer loop that does not use the package.

    The benchmark shares a host whose speed drifts by up to a third from
    one minute to the next, in CPU time as much as in wall time.  Raw
    times of two runs therefore differ more than most regressions.  The
    probe runs next to each timed window; scaling the window's times by
    REFERENCE_S over the probe's time gives them at a fixed reference
    speed, which cancels the drift but not a change in the program.
    """
    samples = []
    for _ in range(times):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's src first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_child(argv: list[str], cwd: Path | None = None) -> tuple[float, float, subprocess.CompletedProcess | None, str]:
    """Run one child to completion and time it.

    Returns (launch monotonic time, wall seconds, completed process or None,
    error text).  ``time.monotonic`` is CLOCK_MONOTONIC on Linux, which is
    system wide, so a child's own monotonic stamps can be compared with the
    launch time.  A timeout kills the child and waits for it.
    """
    launch = time.monotonic()
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return launch, perf_counter() - t0, None, f"timeout after {CHILD_TIMEOUT_S}s"
    wall = perf_counter() - t0
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return launch, wall, proc, f"exit {proc.returncode}: {' '.join(tail)}"
    return launch, wall, proc, ""


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Counts attempted operations and the failed ones.

    An operation fails when it raises, exits nonzero, times out or gives an
    answer other than the expected one.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {detail}" if detail else what)
        return ok

    def expect(self, what: str, got, want) -> bool:
        return self.check(what, got == want, f"got {got!r}, want {want!r}")


# returned by a timed call that raised
FAILED = object()


class Context:
    """The gate, the tracer and what one in-process run has measured."""

    def __init__(self, gate, tracer, expected: dict) -> None:
        self.gate = gate
        self.tracer = tracer
        self.expected = expected
        # durations by "name/input": one key per call type on one input,
        # as measured and at the reference speed
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self._window: list[tuple[str, float]] = []
        self.probes: list[float] = []
        self.counts: dict[str, int] = {}
        self.memo: dict = {}  # what a workload keeps from pass to pass
        self.busy = 0.0  # seconds inside timed calls

    def op(self, name: str, fn, *args, check=None, sample: str | None = None):
        """One timed public call inside a span; its answer goes to the gate.

        ``check`` maps the result to (ok, detail).  A call that raises
        counts as failed and returns FAILED.
        """
        with self.tracer.span(name):
            t0 = perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:
                self.gate.check(name, False, f"{type(exc).__name__}: {exc}")
                return FAILED
            dt = perf_counter() - t0
        self.record(sample or name, dt)
        try:
            ok, detail = check(result) if check else (True, "")
        except Exception as exc:
            ok, detail = False, f"checking the answer raised {type(exc).__name__}: {exc}"
        self.gate.check(name, ok, detail)
        return result

    def record(self, name: str, seconds: float) -> None:
        """One timed call; it is scaled when its window ends."""
        self.busy += seconds
        self.samples[name].append(seconds)
        self._window.append((name, seconds))

    def begin_window(self) -> None:
        """Start a speed window: probe, then record calls until it ends."""
        self._window = []
        self.probes.append(speed_probe())

    def end_window(self) -> float:
        """Scale the window's calls by the speed probed around them; returns
        the scale."""
        self.probes.append(speed_probe())
        scale = REFERENCE_S / ((self.probes[-2] + self.probes[-1]) / 2)
        for name, seconds in self._window:
            self.scaled[name].append(seconds * scale)
        self._window = []
        return scale

    def pooled(self, *names: str) -> list[float]:
        """All samples of the given names, whatever their input."""
        return [s for key, v in self.samples.items() if key.split("/")[0] in names for s in v]

    def rate(self) -> float:
        """Calls per second at the reference speed, each call type on each
        input timed at its median.

        The mix of calls is fixed by the script, so this is the rate of a
        typical pass, and one call slowed by a neighbour on the machine
        moves it no more than it moves a median.
        """
        calls = sum(map(len, self.scaled.values()))
        typical = sum(len(v) * statistics.median(v) for v in self.scaled.values())
        return calls / typical if typical else 0.0


def relabel(d, perm: list[int]):
    """Point i of an incidence structure renamed to perm[i]; written here so
    that inputs do not depend on the code under test."""
    return type(d)(d.v, tuple(tuple(sorted(perm[i] for i in b)) for b in d.blocks))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory, one list per pass: [name, start, end, parent],
    where parent is the index of the enclosing span in the same list or -1.
    The pass id of a span is the index of its list."""

    enabled = True

    def __init__(self) -> None:
        self.passes: list[list[list]] = []
        self._stack: list[int] = []

    def begin_pass(self) -> None:
        self.passes.append([])

    @contextmanager
    def span(self, name: str):
        spans = self.passes[-1]
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(spans))
        spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()


class NullTracer:
    """The untraced twin: the same calls, no records."""

    enabled = False
    _null = nullcontext()

    def begin_pass(self) -> None:
        pass

    def span(self, name: str):
        return self._null


def layer_stats(passes: list[list[list]]) -> dict[str, dict[str, float]]:
    """Per span name: calls and self time per pass (medians over passes),
    and the median and the largest single duration.

    A span's self time is its duration minus the time its children cover;
    spans of one thread never overlap, so the children's durations add up.
    """
    calls: dict[str, list[int]] = defaultdict(lambda: [0] * len(passes))
    busy: dict[str, list[float]] = defaultdict(lambda: [0.0] * len(passes))
    durations: dict[str, list[float]] = defaultdict(list)
    for pid, spans in enumerate(passes):
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            calls[name][pid] += 1
            busy[name][pid] += end - start - child_time[i]
            durations[name].append(end - start)
    return {
        name: {
            "calls": statistics.median(calls[name]),
            "busy_s": statistics.median(busy[name]),
            "s_p50": statistics.median(durs),
            "s_max": max(durs),
        }
        for name, durs in durations.items()
    }


# ---------------------------------------------------------------------------
# Statistics and the machine record
# ---------------------------------------------------------------------------

# percentiles tried for a tail, highest first
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def summary(samples: list[float]) -> dict:
    """Median and tail of a list of durations, with the sample count.

    The tail is the highest ladder percentile (nearest rank) that leaves at
    least ten samples beyond it; None when there are too few samples.
    """
    n = len(samples)
    out = {"p50": statistics.median(samples) if samples else None,
           "tail": None, "tail_percentile": None, "n": n}
    ordered = sorted(samples)
    for p in _TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            out.update(tail=ordered[rank - 1], tail_percentile=p)
            break
    return out


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
    }
