"""Child processes of the benchmark.  Each prints one JSON line.

    python3 bench/child.py scan PMAX AMAX MODE     one scan pass
    python3 bench/child.py setup WORKLOAD SEED DIR  import and make inputs
    python3 bench/child.py bound_tables             first bound_tables() call

``sieve._bound_tables_cached`` is keyed by nothing and ``permgroup._chain``
by the action's value, so a repeated call in one process would time the
cache.  Every scan pass therefore runs here, in a fresh process, and
reports ``ready``, its monotonic time once imported, and ``probe``, the
mean of the speed probes taken just before and after the timed call.

Scan modes: ``plain`` times ``sieve.scan_all`` as a user calls it.
``traced`` walks the same cases through the public per-layer calls inside
spans; ``null`` makes the same calls with no spans, so that the two give
the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time

from harness import NullTracer, Tracer, speed_probe


def scan(pmax: int, amax: int, mode: str) -> dict:
    from psu4designs import catalog, exactmath, sieve

    ready = time.monotonic()
    probe = speed_probe()
    if mode == "plain":
        t0 = time.perf_counter()
        report = sieve.scan_all(pmax, amax)
        wall = time.perf_counter() - t0
        return {
            "ready": ready, "wall": wall, "probe": (probe + speed_probe()) / 2,
            "cases": len(report.outcomes),
            "survivors": report.survivors, "unresolved": report.unresolved,
        }

    tracer = Tracer() if mode == "traced" else NullTracer()
    tracer.begin_pass()
    span = tracer.span
    outcomes = []
    k_search_mismatch = 0
    t0 = time.perf_counter()
    with span("pass"):
        for q in sieve.scan_range(pmax, amax):
            with span("catalog.cases_for"):
                cases = catalog.cases_for(q)
            for case in cases:
                with span("catalog.case_data"):
                    v = case.point_count(q)
                    bound = case.k_divisor_bound(q)
                    subdeg = case.subdegree_divisors(q)
                with span("exactmath.factorize"):
                    exactmath.factorize(bound)
                with span("sieve.scan_case"):
                    oc = sieve.scan_case(case.line, q, case.subfield)
                outcomes.append(oc)
                if oc.reason == sieve.CUBE_PREFILTER:
                    continue  # scan_case never reached the k-search
                with span("sieve.k_search"):
                    found = sieve.feasible_candidates(v, bound, subdeg, q.p, case.parabolic)
                if [p.triple() for p, _ in found] != [p.triple() for p, _ in oc.candidates]:
                    k_search_mismatch += 1
    wall = time.perf_counter() - t0

    def listed(status: str) -> list:
        return [
            (oc.line, oc.q.q, params.triple())
            for oc in outcomes
            for params, trace in oc.candidates
            if trace.get("classification") == status
        ]

    candidates = sum(len(oc.candidates) for oc in outcomes)
    return {
        "ready": ready, "wall": wall, "probe": (probe + speed_probe()) / 2,
        "cases": len(outcomes),
        "survivors": listed(sieve.SURVIVOR), "unresolved": listed(sieve.UNRESOLVED),
        "k_tried": sum(sum(oc.rejections.values()) for oc in outcomes) + candidates,
        "candidates": candidates,
        "k_search_mismatch": k_search_mismatch,
        "spans": tracer.passes[0] if tracer.enabled else [],
    }


def setup(workload: str, seed: int, tmp: str) -> dict:
    if workload == "structures":
        import structures

        structures.make_inputs(seed, 0)
    elif workload == "cli":
        import commands

        commands.write_inputs(seed, 0, tmp)
    else:
        raise SystemExit(f"no set-up probe for {workload}")
    return {"ready": time.monotonic()}


def bound_tables() -> dict:
    from psu4designs import sieve

    t0 = time.perf_counter()
    tables = sieve.bound_tables()
    return {"cold_s": time.perf_counter() - t0, "ids": sorted(tables)}


def main(argv: list[str]) -> int:
    task = argv[0]
    if task == "scan":
        out = scan(int(argv[1]), int(argv[2]), argv[3])
    elif task == "setup":
        out = setup(argv[1], int(argv[2]), argv[3])
    elif task == "bound_tables":
        out = bound_tables()
    else:
        print(f"unknown task {task}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
