"""The cli workload: a fixed script of fresh ``python -m psu4designs.cli``
processes on seeded relabelled design files.

It is the only workload that pays interpreter start, package import and
``bound_tables`` the way a user meets them: every command is a new process.
"""

from __future__ import annotations

import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from psu4designs import designs

from expect import EXPECTED
from harness import BENCH, last_json_line, relabel, run_child

GROUP_KINDS = ("menon36", "minus45", "higman40")
GROUP_NAME = {51840: "PSU4(2):2"}


@lru_cache(maxsize=None)
def _design(kind: str, comp: bool) -> designs.IncidenceStructure:
    """A design the inputs are made from (immutable, so safe to share)."""
    d = designs.build(kind)
    return designs.complement(d) if comp else d


def _params_text(triple: tuple[int, int, int]) -> str:
    return "({},{},{})".format(*triple)


def _stdout_is(want: str):
    return lambda out: (out == want, f"printed {out!r}, want {want!r}")


def write_inputs(seed: int, pass_no: int, tmp: str, expected: dict | None = None) -> list[dict]:
    """The commands of one pass, each with a check of what it prints.

    Writes the design files the commands read into ``tmp``.
    """
    exp = expected or EXPECTED
    rng = random.Random(f"cli:{seed}:{pass_no}")
    tmp_dir = Path(tmp)

    def perm(n: int) -> list[int]:
        p = list(range(n))
        rng.shuffle(p)
        return p

    def put(name: str, d: designs.IncidenceStructure) -> str:
        path = tmp_dir / name
        path.write_text(designs.format_design(d), encoding="ascii")
        return str(path)

    steps = []
    for table in ("3", "8", "9"):
        steps.append({
            "name": "tables", "tag": table, "argv": ["tables", "--table", table],
            "check": lambda out, t=table: (
                out.splitlines()[-1:] == [f"table {t}: MATCH"], "no MATCH line"),
        })
    report = tmp_dir / "sieve.json"
    pmax, amax = exp["cli-sieve"]["range"]
    steps.append({
        "name": "sieve", "tag": f"{pmax}-{amax}",
        "argv": ["sieve", "--pmax", str(pmax), "--amax", str(amax),
                 "--json", str(report), "--no-timestamp"],
        "report": report,
    })

    kind, comp = rng.choice(designs.KINDS), rng.random() < 0.5
    out = tmp_dir / "construct.des"
    label = f"{kind}{' complement' if comp else ''}: {_params_text(exp['params'][kind, comp])}"
    steps.append({
        "name": "construct", "tag": kind,
        "argv": ["construct", kind, *(["--complement"] if comp else []), "--out", str(out)],
        "check": lambda text, out=out, label=label, d=_design(kind, comp): (
            text == f"{label}\nwrote {out}\n"
            and out.read_text(encoding="ascii") == designs.format_design(d),
            f"printed {text!r} or wrote a different file"),
    })

    kind, comp = rng.choice(designs.KINDS), rng.random() < 0.5
    x = relabel(_design(kind, comp), perm(_design(kind, comp).v))
    steps.append({
        "name": "verify", "tag": kind, "argv": ["verify", put("verify.des", x)],
        "check": _stdout_is(f"symmetric design {_params_text(exp['params'][kind, comp])}\n"),
    })

    pick = rng.randrange(2 * len(designs.KINDS) + 2)
    if pick < 2 * len(designs.KINDS):
        kind, comp = designs.KINDS[pick // 2], bool(pick % 2)
        x = _design(kind, comp)
        y = relabel(x, perm(x.v))
        steps.append({
            "name": "iso", "tag": "yes", "argv": ["iso", put("iso1.des", x), put("iso2.des", y)],
            "check": lambda text, x=x, y=y: _iso_yes(text, x, y),
        })
    else:
        comp = bool(pick % 2)
        y = relabel(_design("higman40", comp), perm(40))
        steps.append({
            "name": "iso", "tag": "no",
            "argv": ["iso", put("iso1.des", _design("pg33", comp)), put("iso2.des", y)],
            "check": _stdout_is("no\n"),
        })

    kind, comp = rng.choice(GROUP_KINDS), rng.random() < 0.5
    order = exp["group_order"]
    yes_no = {True: "yes\n", False: "no\n"}
    for check, want in (
        ("order", f"order {order} ({GROUP_NAME.get(order, 'unrecognised')})\n"),
        ("primitive", yes_no[exp["primitive"]]),
        ("flagtrans", yes_no[exp["flagtrans"][kind, comp]]),
    ):
        argv = ["group", "--design", kind, "--check", check]
        if check == "flagtrans" and comp:
            argv.append("--complement")
        steps.append({"name": "group", "tag": check, "argv": argv, "check": _stdout_is(want)})
    return steps


def _iso_yes(text: str, x, y) -> tuple[bool, str]:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "yes" or not lines[1].startswith("witness: "):
        return False, f"printed {text[:80]!r}"
    witness = [int(t) for t in lines[1].split()[1:]]
    return designs.is_isomorphism(x, y, witness), "witness is not an isomorphism"


def _sieve_listed(payload: dict, status: str) -> list:
    return sorted(
        (oc["line"], oc["q"], (oc["v"], c["k"], c["lambda"]))
        for oc in payload["outcomes"]
        for c in oc["candidates"]
        if c["trace"]["classification"] == status
    )


def _check_sieve(ctx, report: Path) -> tuple[bool, str]:
    blob = report.read_bytes()
    first = ctx.memo.setdefault("sieve_json", blob)
    if blob != first:
        return False, "JSON report differs from the first pass"
    payload = json.loads(blob)
    want = ctx.expected["cli-sieve"]
    got = (_sieve_listed(payload, "survivor"), _sieve_listed(payload, "unresolved"))
    return got == (sorted(want["survivors"]), sorted(want["unresolved"])), f"survivors, unresolved = {got}"


def run_step(ctx, step: dict, tmp: str) -> float:
    """Run one command of the script in a fresh process, in its own speed
    window; time and check it.  Returns the window's scale."""
    ctx.begin_window()
    with ctx.tracer.span("cli." + step["name"]):
        _, wall, proc, err = run_child([sys.executable, "-m", "psu4designs.cli", *step["argv"]], cwd=tmp)
    ctx.record(f"{step['name']}/{step['tag']}", wall)
    scale = ctx.end_window()
    what = "cli " + " ".join(step["argv"][:3])
    if err:
        ctx.gate.check(what, False, err)
        return scale
    try:
        if "report" in step:
            ok, detail = _check_sieve(ctx, step["report"])
        else:
            ok, detail = step["check"](proc.stdout)
    except (OSError, ValueError, KeyError) as exc:
        ok, detail = False, f"unreadable output: {type(exc).__name__}: {exc}"
    ctx.gate.check(what, ok, detail)
    return scale


def run_pass(ctx, seed: int, pass_no: int, tmp: str, probes: bool = False) -> float:
    """One pass of the script; returns the mean scale of its windows.

    With ``probes``, also times a bare interpreter against one importing
    the CLI, and the first ``bound_tables()`` call in a fresh process.
    """
    scales = [run_step(ctx, step, tmp) for step in write_inputs(seed, pass_no, tmp, ctx.expected)]
    if probes:
        python = sys.executable
        for _ in range(3):
            for name, code in (("probe.bare", "pass"), ("probe.import", "import psu4designs.cli")):
                _, wall, _, err = run_child([python, "-c", code], cwd=tmp)
                ctx.gate.check(name, not err, err)
                ctx.samples[name].append(wall)
        _, _, proc, err = run_child([python, str(BENCH / "child.py"), "bound_tables"], cwd=tmp)
        if ctx.gate.check("bound_tables", not err, err):
            out = last_json_line(proc.stdout)
            ctx.gate.expect("bound_tables ids", out["ids"], ["3", "4", "6", "7", "8", "9"])
            ctx.samples["bound_tables.cold_s"].append(out["cold_s"])
    return sum(scales) / len(scales)
