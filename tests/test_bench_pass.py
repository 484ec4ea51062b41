"""One in-process pass of the benchmark's structures workload.

The pass calls the package the way the benchmark does (the geometry probe
on what ``projective_points`` returns, the three-argument
``is_flag_transitive``), so a change to one of those call shapes fails
here and not only in a benchmark run.
"""

from pathlib import Path

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
