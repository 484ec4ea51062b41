"""One in-process pass of the benchmark's structures and scan workloads.

The passes call the package the way the benchmark does (the geometry probe
on what ``projective_points`` returns, the three-argument
``is_flag_transitive``; the traced scan's per-case ``point_count``,
``k_divisor_bound``, ``subdegree_divisors``, ``scan_case`` and
``feasible_candidates``), so a change to one of those call shapes fails
here and not only in a benchmark run.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_structures_pass_is_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import structures
    from expect import EXPECTED
    from harness import Context, Gate, NullTracer

    gate = Gate()
    structures.run_pass(Context(gate, NullTracer(), EXPECTED), 1, 0, probes=True)
    assert gate.failed == 0, gate.errors
    assert gate.attempted == 62


@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_scan_pass_is_clean(monkeypatch, mode):
    monkeypatch.syspath_prepend(str(BENCH))
    import child
    from expect import EXPECTED

    want = EXPECTED["scan-deep"]
    out = child.scan(2, 12, mode)
    assert out["cases"] == want["cases"] == 90
    assert sorted(out["survivors"]) == sorted(want["survivors"])
    assert sorted(out["unresolved"]) == sorted(want["unresolved"])
    if mode == "traced":
        assert out["k_search_mismatch"] == 0
