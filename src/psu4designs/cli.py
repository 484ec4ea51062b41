"""Command line front end.

Subcommands:

* ``sieve``     - run the feasibility scan over a (p, a) range
* ``tables``    - recompute a bound table and diff it against the embedded
                  golden values
* ``construct`` - build a design, verify it, optionally write the design file
* ``verify``    - verify a design file against the symmetric-design axioms
* ``iso``       - isomorphism test between two design files
* ``group``     - checks of the induced reflection group on a design

Exit codes: 0 success, 1 verified mismatch/violation, 2 usage/parse errors,
3 I/O failure.  All output is deterministic; the JSON report timestamp can
be suppressed with --no-timestamp for byte-level comparisons.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import __version__
from .exactmath import primes_up_to

if TYPE_CHECKING:
    from .designs import IncidenceStructure
    from .sieve import CaseOutcome

# designs, sieve and permgroup load only inside the subcommands that run
# them, so sieve and tables never load designs or geometry.

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

_GROUP_NAMES = {25920: "PSU4(2)", 51840: "PSU4(2):2"}

# designs.KINDS and sorted(designs.KIND_POINT_CLASS), written out so that
# the parser does not load designs; test_cli pins them to designs
_KINDS = ("menon36", "minus45", "higman40", "pg33")
_GROUP_KINDS = ("higman40", "menon36", "minus45")

# the largest --pmax of ``sieve``: a scan to 10^5 takes 8 s at 70 MB peak RSS
# on a 2-vCPU Xeon, one to 10^6 over a minute
_PMAX_CEILING = 10**5

# ---------------------------------------------------------------------------
# Golden table contents, by table id: {row key: value}.  The ``tables``
# command recomputes each table from the catalog/inequalities and diffs its
# rows against these.  Table 8 lists only its caps above 1, and its a<=1 row
# is checked by its count and its first two and last primes; lines 13-14 of
# table 9 are reported with divergence annotations instead of being
# compared, mirroring how the sieve reports rather than asserts for them.
# ---------------------------------------------------------------------------

GOLDEN = {
    "3": {  # q: (v, k_divides)
        2: (40, 1296),
        3: (8505, 3072),
        4: (339456, 12000),
        5: (5687500, 10368),
        8: (1982955520, 104976),
    },
    "4": {2: 10, 3: 6, 5: 4, 7: 3, 11: 2, 13: 2, 17: 2}
    | {p: 1 for p in primes_up_to(157) if p >= 19},
    "6": {2: 9, 3: 5, 5: 3, 7: 2, 11: 2, 13: 2} | {p: 1 for p in primes_up_to(89) if p >= 17},
    "7": {  # q: (v, m_bound)
        4: (1040, 2),
        8: (32832, 3),
        16: (1048832, 4),
        32: (33555456, 25),
        64: (1073745920, 6),
        128: (34359754752, 7),
        256: (1099511693312, 8),
        512: (35184372350976, 45),
    },
    "8": {
        3: 12, 5: 6, 13: 4,
        7: 3, 11: 3, 17: 3, 23: 3, 37: 3, 67: 3,
        29: 2, 41: 2, 43: 2, 71: 2,
    },
    "9": {11: [7], 12: [3], 15: [3], 16: [5, 11]},
}

# the a<=1 row of table 8 holds 122 primes, 53, 73, ..., 19433
GOLDEN_T8_CAP1 = (122, [53, 73], [19433])
GOLDEN_T9_REPORTED = {13: [], 14: []}  # reported, never compared

# How one row prints from its key, computed value and golden value
_ROW_FORMATS = {
    "3": "q={0}: v={1[0]} k_divides={1[1]}  golden v={2[0]} k_divides={2[1]}",
    "4": "p={0:<6} a<={1}  golden a<={2}",
    "6": "p={0:<6} a<={1}  golden a<={2}",
    "7": "q={0}: v,m_bound={1}  golden={2}",
    "8": "p={0:<6} a<={1}  golden a<={2}",
    "9": "line {0}: q in {1}  golden {2}",
}


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


def _outcome_json(oc: CaseOutcome) -> dict:
    entry = {
        "line": oc.line,
        "q": oc.q.q,
        "p": oc.q.p,
        "a": oc.q.a,
        "v": oc.v,
        "status": oc.status,
        "candidates": [
            {"k": params.k, "lambda": params.lam, "trace": trace}
            for params, trace in oc.candidates
        ],
    }
    if oc.reason is not None:
        entry["reason"] = oc.reason
    if oc.subfield is not None:
        entry["q0"] = oc.subfield[0].q
    return entry


def cmd_sieve(args: argparse.Namespace) -> int:
    from . import sieve

    if args.pmax < 2 or args.amax < 1:
        print("error: need --pmax >= 2 and --amax >= 1")
        return EXIT_USAGE
    if args.pmax > _PMAX_CEILING:
        print(f"error: --pmax above {_PMAX_CEILING} is not supported")
        return EXIT_USAGE
    lines = None if args.line == "all" else [int(args.line)]
    report = sieve.scan_all(args.pmax, args.amax, lines)
    print(f"sieve line={args.line} pmax={args.pmax} amax={args.amax}")
    for oc in report.outcomes:
        extra = ""
        if oc.reason:
            extra = f" [{oc.reason}]"
        if oc.candidates:
            extra = "  " + "; ".join(
                f"{p} [{t['classification']}]" for p, t in oc.candidates
            )
        sub = f" q0={oc.subfield[0].q}" if oc.subfield else ""
        print(f"line {oc.line:>2} q={oc.q.q:<6}{sub} v={oc.v:<24} {oc.status}{extra}")
    print()
    for title, found in (("survivors", report.survivors), ("unresolved", report.unresolved)):
        print(f"{title} ({len(found)}):")
        for line, qv, triple in found:
            print(f"  line {line} q={qv} {triple}")
    if args.json:
        import json
        from datetime import datetime, timezone

        payload = {
            "version": __version__,
            "command": f"sieve --line {args.line} --pmax {args.pmax} --amax {args.amax}",
            "outcomes": [_outcome_json(oc) for oc in report.outcomes],
        }
        if not args.no_timestamp:
            payload["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
        try:
            with open(args.json, "w", encoding="ascii") as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}")
            return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def cmd_tables(args: argparse.Namespace) -> int:
    from .sieve import bound_table

    tid = args.table
    rows = table = bound_table(tid)
    golden, fmt = GOLDEN[tid], _ROW_FORMATS[tid]
    if tid == "8":  # the caps above 1, and any cap the golden table lists
        rows = {p: a for p, a in table.items() if a > 1 or p in golden}
    reported = GOLDEN_T9_REPORTED if tid == "9" else {}
    # a row found on one side only shows None on the other
    absent = (None, None) if tid == "3" else None
    print(f"table {tid}")
    ok = True
    for key in sorted(rows.keys() | golden.keys()):
        got = rows.get(key, absent)
        if key in reported:
            want = reported[key]
            note = "matches golden" if got == want else f"DIVERGES from golden {want}"
            print(f"  line {key}: q in {got}  reported, not compared ({note})")
            continue
        want = golden.get(key, absent)
        ok = ok and got == want
        print("  " + fmt.format(key, got, want) + ("  ok" if got == want else "  MISMATCH"))
    if tid == "8":
        ones = sorted(p for p, a in table.items() if a == 1)
        got = (len(ones), ones[:2], ones[-1:])
        ok = ok and got == GOLDEN_T8_CAP1
        print(
            f"  a<=1 row: {got[0]} primes, first {got[1]}, last {got[2]}"
            f"  golden first {GOLDEN_T8_CAP1[1]}, last {GOLDEN_T8_CAP1[2]}"
            f"  {'ok' if got == GOLDEN_T8_CAP1 else 'MISMATCH'}"
        )
    print(f"table {tid}: {'MATCH' if ok else 'MISMATCH'}")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# construct / verify / iso / group
# ---------------------------------------------------------------------------


def _build_design(kind: str, complement: bool) -> IncidenceStructure:
    from . import designs

    d = designs.build(kind)
    if complement:
        d = designs.complement(d)
    return d


def cmd_construct(args: argparse.Namespace) -> int:
    from . import designs

    design = _build_design(args.kind, args.complement)
    result = designs.verify_symmetric(design)
    if isinstance(result, designs.VerificationFailure):
        print(f"verification failed: {result}")
        return EXIT_MISMATCH
    print(f"{args.kind}{' complement' if args.complement else ''}: {result}")
    if args.out:
        try:
            designs.write_design(design, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}")
            return EXIT_IO
        print(f"wrote {args.out}")
    return EXIT_OK


def _read_design(path: str) -> IncidenceStructure:
    from . import designs

    try:
        return designs.read_design(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}")
        raise SystemExit(EXIT_IO)
    except designs.DesignFormatError as exc:
        print(f"error: {path}: {exc}")
        raise SystemExit(EXIT_USAGE)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import designs

    design = _read_design(args.file)
    result = designs.verify_symmetric(design)
    if isinstance(result, designs.VerificationFailure):
        print(f"not a symmetric design: {result}")
        return EXIT_MISMATCH
    print(f"symmetric design {result}")
    return EXIT_OK


def cmd_iso(args: argparse.Namespace) -> int:
    from . import designs

    d1 = _read_design(args.file1)
    d2 = _read_design(args.file2)
    witness = designs.find_isomorphism(d1, d2)
    if witness is None:
        print("no")
    else:
        print("yes")
        print("witness: " + " ".join(map(str, witness)))
    return EXIT_OK


def cmd_group(args: argparse.Namespace) -> int:
    from . import designs, permgroup

    action = permgroup.orthogonal_reflection_action(designs.KIND_POINT_CLASS[args.design])
    if args.check == "order":
        order = permgroup.group_order(action)
        name = _GROUP_NAMES.get(order, "unrecognised")
        print(f"order {order} ({name})")
        return EXIT_OK
    if args.check == "primitive":
        try:
            prim = permgroup.is_primitive(action)
        except permgroup.NotTransitiveError:
            print("not transitive")
            return EXIT_MISMATCH
        print("yes" if prim else "no")
        return EXIT_OK
    if args.check == "rank":
        sizes = permgroup.stabilizer_orbit_sizes(action, 0)
        print(f"rank {len(sizes)} (stabilizer orbit sizes {sizes})")
        return EXIT_OK
    # flagtrans
    design = _build_design(args.design, args.complement)
    block_action = permgroup.induced_block_action(action, design)
    flag = permgroup.is_flag_transitive(action, design, block_action)
    print("yes" if flag else "no")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 2, matching the contract
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="psu4designs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="run the feasibility scan")
    p.add_argument("--line", default="all", choices=["all"] + [str(i) for i in range(1, 17)])
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--amax", type=int, required=True)
    p.add_argument("--json", metavar="PATH", help="write the full report as JSON")
    p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("tables", help="recompute a bound table against its golden values")
    p.add_argument("--table", required=True, choices=list(GOLDEN))
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("construct", help="build and verify a design")
    p.add_argument("kind", choices=_KINDS)
    p.add_argument("--complement", action="store_true")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a design file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iso", help="isomorphism test between two design files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("group", help="induced reflection-group checks")
    p.add_argument("--design", required=True, choices=_GROUP_KINDS)
    p.add_argument("--complement", action="store_true",
                   help="check the complement design; only flagtrans reads the "
                        "design, so order, primitive and rank ignore this flag")
    p.add_argument("--check", required=True,
                   choices=["flagtrans", "primitive", "order", "rank"])
    p.set_defaults(func=cmd_group)

    return parser


def main(argv: list[str] | None = None) -> int:
    # every SystemExit here carries an int: 0 from --version and --help,
    # EXIT_USAGE from _Parser.error, EXIT_IO or EXIT_USAGE from _read_design
    try:
        args = _make_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early, as by ``| head``: keep the flush at exit silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    console_main()
