import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import psu4designs
from psu4designs import cli
from psu4designs.designs import build, relabel, write_design


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sieve_line8_small(capsys):
    code, out = run(capsys, "sieve", "--line", "8", "--pmax", "2", "--amax", "1")
    assert code == 0
    assert "line  8 q=2" in out
    assert "survivor" in out
    assert "(36, 15, 6)" in out


def test_sieve_line6_unresolved(capsys):
    code, out = run(capsys, "sieve", "--line", "6", "--pmax", "5", "--amax", "2")
    assert code == 0
    assert "(41600,2448,144) [unresolved]" in out


def test_sieve_json_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _ = run(
            capsys, "sieve", "--line", "all", "--pmax", "3", "--amax", "1",
            "--json", str(path), "--no-timestamp",
        )
        assert code == 0
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert payload["version"] == cli.__version__
    assert "timestamp" not in payload
    assert payload["command"] == "sieve --line all --pmax 3 --amax 1"
    lines_qs = [(oc["line"], oc["q"]) for oc in payload["outcomes"]]
    assert lines_qs == sorted(lines_qs)
    survivor = next(oc for oc in payload["outcomes"] if oc["line"] == 8 and oc["q"] == 2)
    assert survivor["status"] == "survivor"
    assert survivor["candidates"][0]["k"] == 15
    assert survivor["candidates"][0]["lambda"] == 6
    eliminated = next(oc for oc in payload["outcomes"] if oc["line"] == 2 and oc["q"] == 2)
    assert eliminated["reason"]


def test_sieve_json_has_timestamp(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _ = run(capsys, "sieve", "--line", "8", "--pmax", "2", "--amax", "1",
                  "--json", str(path))
    assert code == 0
    assert "timestamp" in json.loads(path.read_text())


def test_sieve_bad_range(capsys):
    code, out = run(capsys, "sieve", "--line", "all", "--pmax", "1", "--amax", "1")
    assert code == 2


def test_tables_all_match(capsys):
    for table in ("3", "4", "6", "7", "8", "9"):
        code, out = run(capsys, "tables", "--table", table)
        assert code == 0, table
        assert f"table {table}: MATCH" in out


def test_tables_9_reports_divergence(capsys):
    code, out = run(capsys, "tables", "--table", "9")
    assert code == 0
    assert "line 14: q in [3, 5]  reported, not compared (DIVERGES from golden [])" in out
    assert "line 13: q in []  reported, not compared (matches golden)" in out


def test_tables_unknown_id_usage_error(capsys):
    assert cli.main(["tables", "--table", "5"]) == 2


def test_construct_and_verify(tmp_path, capsys):
    path = tmp_path / "pg33c.des"
    code, out = run(capsys, "construct", "pg33", "--complement", "--out", str(path))
    assert code == 0
    assert "(40,27,18)" in out
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "symmetric design (40,27,18)" in out


def test_construct_io_failure(capsys):
    code, out = run(capsys, "construct", "menon36", "--out", "/nonexistent-dir/x.des")
    assert code == 3


def test_verify_violation_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.des"
    # parseable file that is not a symmetric design
    path.write_text("4 4\n0 1\n2 3\n0 2\n1 3\n")
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert "not a symmetric design" in out


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.des"
    path.write_text("3 1\n0 zero\n")
    code, out = run(capsys, "verify", str(path))
    assert code == 2
    assert "line 2" in out


@pytest.mark.parametrize("blob, lineno", [(b"\xff\xfe\n", 1), (b"3 1\n0 \xff\n", 2)])
def test_verify_non_ascii_exit_2(tmp_path, capsys, blob, lineno):
    path = tmp_path / "binary.des"
    path.write_bytes(blob)
    code, out = run(capsys, "verify", str(path))
    assert code == 2
    assert f"line {lineno}: non-ASCII byte" in out


def test_iso_two_40_27_18_files(tmp_path, capsys):
    p1 = tmp_path / "a.des"
    p2 = tmp_path / "b.des"
    run(capsys, "construct", "pg33", "--complement", "--out", str(p1))
    run(capsys, "construct", "higman40", "--complement", "--out", str(p2))
    code, out = run(capsys, "iso", str(p1), str(p2))
    assert code == 0
    assert out.strip().endswith("no")
    code, out = run(capsys, "iso", str(p1), str(p1))
    assert code == 0
    assert "yes" in out
    assert "witness:" in out


# computed before the pair profiles were read from packed triple counts;
# the search must keep returning these very witnesses
_ISO_PINNED = {
    ("menon36", "menon36"): "yes\nwitness: 0 1 31 7 17 24 8 18 9 12 3 29 34 11 22 30 25 23"
    " 26 33 4 5 32 13 10 21 20 27 2 19 14 15 35 6 16 28\n",
    ("minus45", "minus45"): "yes\nwitness: 0 1 4 23 15 38 8 43 10 13 12 42 41 2 27 34 29 37"
    " 14 6 16 28 7 32 35 44 3 22 9 24 26 25 19 17 36 33 40 11 30 21 20 5 39 18 31\n",
    ("higman40", "higman40"): "yes\nwitness: 0 1 2 5 9 26 30 17 16 11 37 38 33 12 8 4 36 29"
    " 3 24 28 19 25 34 31 18 20 6 35 13 39 14 27 23 10 7 32 15 21 22\n",
    ("pg33", "pg33"): "yes\nwitness: 0 1 10 15 2 14 39 24 5 12 36 4 27 3 37 16 23 32 20 38"
    " 6 7 18 9 17 28 25 22 35 30 26 33 21 11 8 31 29 19 13 34\n",
    ("pg33", "higman40"): "no\n",
}


@pytest.mark.parametrize("kinds", list(_ISO_PINNED), ids="-".join)
def test_iso_witness_pinned(tmp_path, capsys, kinds):
    """``iso`` of a built design against a seeded relabelling prints exactly
    the pinned answer and witness."""
    kind1, kind2 = kinds
    d2 = build(kind2)
    perm = list(range(d2.v))
    random.Random(f"iso:{kind2}").shuffle(perm)
    p1, p2 = tmp_path / "a.des", tmp_path / "b.des"
    write_design(build(kind1), str(p1))
    write_design(relabel(d2, perm), str(p2))
    assert run(capsys, "iso", str(p1), str(p2)) == (0, _ISO_PINNED[kinds])


_RANK_SIZES = {"menon36": "[1, 15, 20]", "minus45": "[1, 12, 32]", "higman40": "[1, 12, 27]"}
_FLAGTRANS = {"menon36": ("yes", "no"), "minus45": ("yes", "no"), "higman40": ("no", "yes")}


@pytest.mark.parametrize("complement", [False, True], ids=["plain", "complement"])
@pytest.mark.parametrize("check", ["order", "primitive", "rank", "flagtrans"])
@pytest.mark.parametrize("design", ["menon36", "minus45", "higman40"])
def test_group_checks(capsys, design, check, complement):
    want = {
        "order": "order 51840 (PSU4(2):2)",
        "primitive": "yes",
        "rank": f"rank 3 (stabilizer orbit sizes {_RANK_SIZES[design]})",
        "flagtrans": _FLAGTRANS[design][complement],
    }[check]
    argv = ["group", "--design", design, "--check", check] + ["--complement"] * complement
    assert run(capsys, *argv) == (0, want + "\n")


def test_usage_errors(capsys):
    assert cli.main(["sieve", "--line", "17", "--pmax", "2", "--amax", "1"]) == 2
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["construct", "unknown-kind"]) == 2


def test_stdout_byte_identical_across_runs(capsys):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "tables", "--table", "9")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "sieve", "--line", "all", "--pmax", "3", "--amax", "1")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_sieve_31_3_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "scan.json"
    code, out = run(capsys, "sieve", "--pmax", "31", "--amax", "3",
                    "--json", str(path), "--no-timestamp")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "af7d0200cf2be2ae300c6ca199096efcf2684a27abfd88f86f0486ed80880f9a"
    )
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6466f1a048cfede98156ca6cfe0c79bbc2beccf29f6a4f8ed29257272b274435"
    )


# Run in a fresh interpreter: ``cli.main(argv)`` with stdout muted (or, for
# an empty argv, a bare import of ``designs``), then print the exit code, the
# psu4designs modules that got loaded, and which of the slow-to-import
# ``dataclasses`` and ``inspect`` got loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
code = None
with contextlib.redirect_stdout(io.StringIO()):
    if argv:
        from psu4designs import cli
        code = cli.main(argv)
    else:
        import psu4designs.designs
print(json.dumps([
    code,
    sorted(m for m in sys.modules if m.startswith("psu4designs.")),
    sorted({"dataclasses", "inspect"} & set(sys.modules)),
]))
"""


@pytest.mark.parametrize("argv, loaded, absent", [
    (["tables", "--table", "3"], {"sieve"}, {"permgroup"}),
    (["sieve", "--line", "8", "--pmax", "2", "--amax", "1"], {"sieve"}, {"permgroup"}),
    (["construct", "pg33"], {"designs"}, {"sieve", "catalog", "permgroup"}),
    (["verify", "DESIGN"], {"designs"}, {"sieve", "catalog", "permgroup"}),
    (["iso", "DESIGN", "DESIGN"], {"designs"}, {"sieve", "catalog", "permgroup"}),
    (["group", "--design", "higman40", "--complement", "--check", "flagtrans"],
     {"permgroup"}, {"sieve", "catalog"}),
    ([], {"designs"}, {"sieve", "catalog"}),
], ids=["tables", "sieve", "construct", "verify", "iso", "group", "import-designs"])
def test_import_footprint(tmp_path, argv, loaded, absent):
    """Each subcommand loads only the leg it runs, and none loads
    ``dataclasses`` or ``inspect``."""
    design = tmp_path / "pg33.des"
    write_design(build("pg33"), str(design))
    argv = [str(design) if a == "DESIGN" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(psu4designs.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, json.dumps(argv)],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    code, modules, slow = json.loads(proc.stdout)
    names = {m.removeprefix("psu4designs.") for m in modules}
    assert code == (0 if argv else None)
    assert loaded <= names and not absent & names, sorted(names)
    assert slow == []
