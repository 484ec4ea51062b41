"""Shows that the benchmark's correctness gate counts a wrong answer.

    python3 bench/gate_check.py

Each check runs the program as the benchmark does, once against the
expected answers in expect.py and once against a copy in which one answer
is wrong.  Only that copy is changed, never the program.  About ten
seconds; not collected by pytest, so the package's test run stays as it is.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import unittest

from expect import EXPECTED
from harness import ROOT, SRC, Context, Gate, NullTracer

sys.path.insert(0, str(SRC))

import run as bench  # noqa: E402  (needs src on the path first)


def tampered(*path_and_value) -> dict:
    """A deep copy of the expected answers with one entry replaced."""
    *path, value = path_and_value
    exp = copy.deepcopy(EXPECTED)
    node = exp
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return exp


def one_pass(workload: str, expected: dict) -> Gate:
    """The benchmark's own loop, cut to a single pass."""
    args = bench.parse_args(["--workload", workload, "--seed", "1", "--seconds", "0"])
    gate, _, _ = bench.run(args, expected)
    return gate


class GateCountsWrongAnswers(unittest.TestCase):
    def assert_counts(self, good: Gate, bad: Gate, where: str) -> None:
        self.assertEqual(good.failed, 0, good.errors)
        self.assertEqual(bad.attempted, good.attempted)
        self.assertEqual(bad.failed, 1, bad.errors)
        self.assertIn(where, bad.errors[0])

    def test_structures_rank(self):
        good = one_pass("structures", EXPECTED)
        bad = one_pass("structures", tampered("rank", "menon36", [1, 15, 21]))
        self.assert_counts(good, bad, "permgroup.rank")

    def test_scan_unresolved(self):
        good = one_pass("scan-deep", EXPECTED)
        bad = one_pass("scan-deep", tampered("scan-deep", "unresolved", [(6, 4, (41600, 2448, 145))]))
        self.assert_counts(good, bad, "scan pass 0")

    def test_cli_group_order(self):
        import commands

        def gate_for(expected: dict) -> Gate:
            gate = Gate()
            ctx = Context(gate, NullTracer(), expected)
            (ROOT / ".bench_tmp").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
                for step in commands.write_inputs(1, 0, tmp, expected):
                    if step["name"] == "group":
                        commands.run_step(ctx, step, tmp)
            return gate

        good = gate_for(EXPECTED)
        bad = gate_for(tampered("group_order", 25920))
        self.assert_counts(good, bad, "cli group --design")


if __name__ == "__main__":
    unittest.main()
