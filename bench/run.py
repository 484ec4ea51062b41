"""Benchmark of psu4designs: four cold-input workloads, one JSON result.

    python3 bench/run.py --workload scan-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Workloads (README.md in this directory says why each exists):

* ``scan-deep``  ``sieve.scan_all(2, 12)``, 90 cases with huge k-bounds
* ``scan-wide``  ``sieve.scan_all(400, 1)``, 857 cases with small bounds
* ``structures`` constructions, isomorphism search and group checks
* ``cli``        a fixed script of fresh ``python -m psu4designs.cli`` runs

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that alternates untraced and traced passes of one script and reports
the per-layer metrics, including the tracing overhead.  The next-to-last
line of output is a detail record (machine, seed, sample counts, the
per-leg latencies with their tails, gate errors); the last line is the
result.  One process drives the load, at most one child runs at a time,
and no threads are used.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import sys
import time

from expect import EXPECTED
from harness import (
    BENCH, REFERENCE_S, ROOT, SRC, Context, Gate, NullTracer, Tracer, last_json_line,
    layer_stats, machine_record, peak_rss_mb, run_child, speed_probe, summary,
)

WORKLOADS = ("scan-deep", "scan-wide", "structures", "cli")

# set-ups timed per run for the in-process workloads; a scan run times the
# set-up of every pass, since each pass is a fresh process
SETUP_PROBES = 5

# Passes over which an in-process run takes its peak resident set.  The
# unbounded ``permgroup._chain`` grows with every cold action, so a peak
# over the whole run would count how many passes fit in it.
RSS_PASSES = 3


def timed_passes(seconds: float, trace: bool):
    """Pass numbers until ``seconds`` are used.  A traced run alternates an
    untraced (even) and a traced (odd) pass and makes at least one of each."""
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        yield n
        if time.perf_counter() >= deadline and (n >= 1 or not trace):
            return


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _overhead(walls: dict[str, list[float]]) -> float:
    """Traced over untraced pass time, minus one."""
    if not walls["null"] or not walls["traced"]:
        return 0.0
    return statistics.median(walls["traced"]) / statistics.median(walls["null"]) - 1


def _span_values(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    return {f"{name}.{key}": value for name, row in stats.items() for key, value in row.items()}


def _dominant(stats: dict[str, dict[str, float]]) -> list:
    """The three span names with the most self time per pass, with shares."""
    rows = {k: v["busy_s"] for k, v in stats.items() if k != "pass"}
    total = sum(rows.values()) or 1.0
    top = sorted(rows.items(), key=lambda kv: -kv[1])[:3]
    return [{"layer": k, "busy_s": v, "share": v / total} for k, v in top]


def _trace_detail(stats: dict, walls: dict[str, list[float]]) -> dict:
    return {
        "dominant": _dominant(stats),
        "null_pass_s": summary(walls["null"]),
        "traced_pass_s": summary(walls["traced"]),
    }


def setup_probes(gate: Gate, workload: str, seed: int, tmp: str) -> tuple[list[float], list[float]]:
    """Launch-to-ready times of fresh processes that import the package and
    make the first pass's inputs: as measured, and at the reference speed."""
    raw, scaled = [], []
    for i in range(SETUP_PROBES):
        before = speed_probe()
        launch, _, proc, err = run_child(
            [sys.executable, str(BENCH / "child.py"), "setup", workload, str(seed), tmp], cwd=ROOT)
        after = speed_probe()
        if gate.check(f"set-up probe {i}", not err, err):
            raw.append(last_json_line(proc.stdout)["ready"] - launch)
            scaled.append(raw[-1] * REFERENCE_S / ((before + after) / 2))
    return raw, scaled


# ---------------------------------------------------------------------------
# scan-deep, scan-wide: every pass a fresh process
# ---------------------------------------------------------------------------


def _listed(rows: list) -> list:
    return sorted((line, q, tuple(triple)) for line, q, triple in rows)


def check_scan(gate: Gate, what: str, out: dict, exp: dict) -> bool:
    got = (out["cases"], _listed(out["survivors"]), _listed(out["unresolved"]),
           out.get("k_search_mismatch", 0))
    want = (exp["cases"], sorted(exp["survivors"]), sorted(exp["unresolved"]), 0)
    return gate.expect(what, got, want)


def run_scan(args, gate: Gate, expected: dict, tmp: str) -> tuple[dict, dict]:
    exp = expected[args.workload]
    pmax, amax = exp["range"]
    setups, raw_setups, rates, raw_rates, probes, spans, counts = [], [], [], [], [], [], []
    walls: dict[str, list[float]] = {"plain": [], "null": [], "traced": []}
    for n in timed_passes(args.seconds, args.trace):
        mode = ("null", "traced")[n % 2] if args.trace else "plain"
        launch, _, proc, err = run_child(
            [sys.executable, str(BENCH / "child.py"), "scan", str(pmax), str(amax), mode], cwd=ROOT)
        what = f"scan pass {n} ({mode})"
        if not gate.check(what + " ran", not err, err):
            continue
        out = last_json_line(proc.stdout)
        check_scan(gate, what, out, exp)
        scale = REFERENCE_S / out["probe"]
        probes.append(out["probe"])
        raw_setups.append(out["ready"] - launch)
        setups.append(raw_setups[-1] * scale)
        walls[mode].append(out["wall"] * scale)
        if mode == "plain":
            raw_rates.append(out["cases"] / out["wall"])
            rates.append(raw_rates[-1] / scale)
        elif mode == "traced":
            spans.append(out["spans"])
            counts.append((out["k_tried"], out["candidates"]))
    values = {"setup_s": _median(setups), "peak_rss_mb": peak_rss_mb(), "ops_per_s": _median(rates)}
    detail = {
        "speed_probe_s": summary(probes),
        "raw_setup_s": summary(raw_setups),
        "cases_per_s": _median(raw_rates) if raw_rates else None,
        "scan_s_at_reference": summary(walls["plain"]),
    }
    if args.trace:
        stats = layer_stats(spans)
        values.update(_span_values(stats))
        if counts:
            k_tried, cands = counts[0]
            gate.check("scan counts repeat", all(c == counts[0] for c in counts), str(counts))
            values.update({"sieve.k_tried": k_tried, "sieve.candidates": cands,
                           "sieve.k_useful_ratio": cands / k_tried if k_tried else 0.0})
        values["trace.overhead_frac"] = _overhead(walls)
        detail.update(_trace_detail(stats, walls))
    return values, detail


# ---------------------------------------------------------------------------
# structures, cli: passes driven from this process
# ---------------------------------------------------------------------------


def run_in_process(args, gate: Gate, expected: dict, tmp: str) -> tuple[dict, dict]:
    if args.workload == "structures":
        import structures

        def one_pass(ctx, n):
            return structures.run_pass(ctx, args.seed, n, probes=bool(args.trace))
    else:
        import commands

        def one_pass(ctx, n):
            return commands.run_pass(ctx, args.seed, n, tmp, probes=bool(args.trace))

    real, null = Tracer(), NullTracer()
    ctx = Context(gate, null, expected)
    raw_setups, setups = ([], []) if args.trace else setup_probes(gate, args.workload, args.seed, tmp)
    walls: dict[str, list[float]] = {"plain": [], "null": [], "traced": []}
    rss = None
    for n in timed_passes(args.seconds, args.trace):
        if n == RSS_PASSES:
            rss = peak_rss_mb()
        mode = ("null", "traced")[n % 2] if args.trace else "plain"
        ctx.tracer = real if mode == "traced" else null
        ctx.tracer.begin_pass()
        t0 = time.perf_counter()
        try:
            scale = one_pass(ctx, n)
        except Exception as exc:  # a broken pass must not end the run
            gate.check(f"{args.workload} pass {n}", False, f"{type(exc).__name__}: {exc}")
            continue
        walls[mode].append((time.perf_counter() - t0) * scale)
    values = {"setup_s": _median(setups), "peak_rss_mb": rss or peak_rss_mb(), "ops_per_s": ctx.rate()}
    pooled = ctx.pooled
    if args.workload == "structures":
        detail = {
            "construct_s": summary(pooled("construct")),
            "iso_s": summary(pooled("designs.iso_yes", "designs.iso_no")),
            "group_s": summary(pooled(
                "permgroup.group_order", "permgroup.is_primitive", "permgroup.rank",
                "permgroup.block_action", "permgroup.flag_transitive")),
        }
    else:
        detail = {
            "tables_cmd_s": summary(pooled("tables")),
            "sieve_cmd_s": summary(pooled("sieve")),
            "cmd_s": summary(pooled("construct", "verify", "iso", "group")),
        }
    detail["speed_probe_s"] = summary(ctx.probes)
    detail["raw_setup_s"] = summary(raw_setups)
    detail["pass_s_at_reference"] = summary(walls["plain"] or walls["null"])
    if args.trace:
        stats = layer_stats(real.passes)
        values.update(_span_values(stats))
        values.update(ctx.counts)
        for sample, metric in (
            ("designs.iso_yes", "designs.iso_yes.s_p50"),
            ("designs.iso_no", "designs.iso_no.s_p50"),
            ("bound_tables.cold_s", "sieve.bound_tables.cold_s"),
        ):
            if pooled(sample):
                values[metric] = statistics.median(pooled(sample))
        if pooled("probe.import"):
            values["cli.import_s"] = (statistics.median(pooled("probe.import"))
                                      - statistics.median(pooled("probe.bare")))
        values["trace.overhead_frac"] = _overhead(walls)
        detail.update(_trace_detail(stats, walls))
    return values, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def metrics_for(spec: dict, values: dict, trace: bool) -> dict:
    """Every metric the spec names for this mode.  A layer a workload never
    enters reports 0; an end-to-end value is missing only when every pass
    failed, and the gate has then already marked the run incorrect."""
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def run(args, expected: dict = EXPECTED) -> tuple[Gate, dict, dict]:
    """Run one workload; returns the gate, the metric values and the detail."""
    gate = Gate()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = run_scan if args.workload.startswith("scan-") else run_in_process
        values, detail = runner(args, gate, expected, str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return gate, values, detail


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now.

    The host's vCPUs drift in speed apart from each other, and a speed
    probe only describes the CPU it ran on.  The current CPU is field 39
    of /proc/self/stat; where that cannot be read, nothing is pinned.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_to_current_cpu()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "psu4designs" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout with src/psu4designs and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    gate, values, detail = run(args)
    if gate.attempted == 0:
        print("error: no operation was attempted", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(),
        "failed_frac": gate.failed / gate.attempted, "errors": gate.errors, **detail,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": metrics_for(spec, values, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
