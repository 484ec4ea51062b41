import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import relabel

import psu4designs
from psu4designs import cli, designs, permgroup, sieve
from psu4designs.designs import IncidenceStructure, build, complement, write_design


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
    assert "timestamp" in json.loads(path.read_text(encoding="ascii"))


def test_sieve_bad_range(capsys):
    code, out = run(capsys, "sieve", "--line", "all", "--pmax", "1", "--amax", "1")
    assert code == 2


def test_sieve_pmax_ceiling(monkeypatch, capsys):
    """A --pmax above the ceiling is a usage error, refused before the prime
    sieve allocates anything; the ceiling itself reaches the scan."""
    def refuse(n):
        raise AssertionError(f"primes_up_to({n}) called")

    monkeypatch.setattr(sieve, "primes_up_to", refuse)
    for pmax in (cli._PMAX_CEILING + 1, 10**10):
        code, out = run(capsys, "sieve", "--pmax", str(pmax), "--amax", "1")
        assert (code, out) == (2, "error: --pmax above 100000 is not supported\n")
    code, out = run(capsys, "sieve", "--pmax", "1", "--amax", "1")
    assert (code, out) == (2, "error: need --pmax >= 2 and --amax >= 1\n")
    monkeypatch.setattr(sieve, "scan_all", lambda p, a, lines: sieve.ScanReport([]))
    code, out = run(capsys, "sieve", "--pmax", str(cli._PMAX_CEILING), "--amax", "1")
    assert code == 0 and out.startswith("sieve line=all pmax=100000 amax=1\n")


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
    assert capsys.readouterr().err == "usage: psu4designs tables [-h] --table {3,4,6,7,8,9}\n"


def test_tables_ids_are_the_sieve_tables():
    """The ``--table`` choices are the golden ids, which are the ids
    ``sieve.bound_table`` computes."""
    assert set(cli.GOLDEN) == set(sieve._TABLES)


# sha256 of each ``tables --table N`` stdout, and its exit code, computed
# before the golden rows were diffed in one loop
_TABLES_SHA256 = {
    "3": "bd946a14dac841a087f9c8fd140f689793d41ca74ee9391d80d1d6c7d7ca3c7b",
    "4": "3bb2f1f3e78d5d5a396d10481e7ba8fa979361866822b7db1d8dfd998b75868c",
    "6": "87a07d4f2d14490db98b2da4c2f5eeca8ac38c63a992098514234b3bccf9d98e",
    "7": "3a13491406d7569c97654f84c76aa4cac87b1773d8e06f99f5565c40afd3c16e",
    "8": "f21401a15aa29fffb616f8eb309106f357bc556eb93f600f7fde6a621d6db189",
    "9": "ea4071a1c2f896a8d80f79218d07292787eb1b8b4ca05ca43fba83807a86b9a1",
}


@pytest.mark.parametrize("table", list(_TABLES_SHA256))
def test_tables_stdout_pinned(capsys, table):
    code, out = run(capsys, "tables", "--table", table)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, _TABLES_SHA256[table])


# per table, a golden row key and a value the table does not compute there
_WRONG_GOLDEN = {
    "3": (2, (40, 1297)),
    "4": (2, 11),
    "6": (3, 4),
    "7": (4, (1040, 3)),
    "8": (3, 11),
    "9": (11, [7, 13]),
}


@pytest.mark.parametrize("edit", ["changed", "removed"])
@pytest.mark.parametrize("table", list(_WRONG_GOLDEN))
def test_tables_mismatch(monkeypatch, capsys, table, edit):
    """A golden value that differs, or a row found on one side only, prints
    one ``MISMATCH`` row and exits 1."""
    key, wrong = _WRONG_GOLDEN[table]
    golden = dict(cli.GOLDEN[table])
    if edit == "changed":
        golden[key] = wrong
    else:
        del golden[key]
    monkeypatch.setitem(cli.GOLDEN, table, golden)
    code, out = run(capsys, "tables", "--table", table)
    lines = out.splitlines()
    assert code == 1
    assert lines[-1] == f"table {table}: MISMATCH"
    mismatched = [line for line in lines[1:-1] if line.endswith("  MISMATCH")]
    assert len(mismatched) == 1
    assert re.match(rf"  (q=|p=|line ){key}[: ]", mismatched[0]), mismatched


def test_tables_8_cap1_count_compared(monkeypatch, capsys):
    """Dropping a cap-1 prime between the first two and the last one makes
    the a<=1 row of table 8 a mismatch."""
    table = sieve.bound_table("8")
    ones = sorted(p for p, a in table.items() if a == 1)
    caps = {p: a for p, a in table.items() if p != ones[5]}
    monkeypatch.setattr(sieve, "bound_table", lambda tid: caps)
    code, out = run(capsys, "tables", "--table", "8")
    lines = out.splitlines()
    assert code == 1
    assert lines[-1] == "table 8: MISMATCH"
    assert lines[-2].startswith("  a<=1 row: 121 primes, first [53, 73], last [19433]")
    assert lines[-2].endswith("  MISMATCH")
    assert not [line for line in lines[1:-2] if line.endswith("MISMATCH")]


def test_construct_and_verify(tmp_path, capsys):
    path = tmp_path / "pg33c.des"
    code, out = run(capsys, "construct", "pg33", "--complement", "--out", str(path))
    assert code == 0
    assert "(40,27,18)" in out
    code, out = run(capsys, "verify", str(path))
    assert code == 0
    assert "symmetric design (40,27,18)" in out


def test_construct_verification_failure(tmp_path, monkeypatch, capsys):
    """A built structure that fails an axiom prints the failure, exits 1 and
    writes no file."""
    bad = IncidenceStructure(4, ((0, 1), (2, 3), (0, 2), (1, 3)))
    monkeypatch.setattr(designs, "build", lambda kind: bad)
    path = tmp_path / "bad.des"
    code, out = run(capsys, "construct", "menon36", "--out", str(path))
    assert (code, out) == (1, "verification failed: point_pair violated at (0, 3, 0, 1)\n")
    assert not path.exists()


def test_construct_io_failure(capsys):
    code, out = run(capsys, "construct", "menon36", "--out", "/nonexistent-dir/x.des")
    assert code == 3


def test_sieve_json_io_failure(capsys):
    """The report is printed before the JSON file fails to open."""
    argv = ["sieve", "--line", "8", "--pmax", "2", "--amax", "1"]
    _, report = run(capsys, *argv)
    code, out = run(capsys, *argv, "--json", "/nonexistent-dir/r.json")
    assert code == 3
    assert out.startswith(report)
    error = out[len(report):]
    assert error.startswith("error: cannot write /nonexistent-dir/r.json: ")
    assert error.count("\n") == 1


def test_verify_missing_file_exit_3(tmp_path, capsys):
    path = tmp_path / "missing.des"
    code, out = run(capsys, "verify", str(path))
    assert code == 3
    assert out.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("missing", [0, 1])
def test_iso_missing_file_exit_3(tmp_path, capsys, missing):
    present = tmp_path / "pg33.des"
    write_design(build("pg33"), str(present))
    paths = [str(present), str(present)]
    paths[missing] = str(tmp_path / "missing.des")
    code, out = run(capsys, "iso", *paths)
    assert code == 3
    assert out.startswith(f"error: cannot read {paths[missing]}: ")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["tables", "--table", "3"],
    ["sieve", "--pmax", "13", "--amax", "3"],
], ids=["tables", "sieve"])
def test_closed_stdout_exits_io(argv, unbuffered):
    """A reader that closes stdout early, as ``| head -1`` does, gets exit 3
    and nothing on stderr, whether the write or the flush at exit fails."""
    env = dict(os.environ, PYTHONPATH=str(Path(psu4designs.__file__).parents[1]))
    env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "psu4designs.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (3, b"")


def test_verify_violation_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.des"
    # parseable file that is not a symmetric design
    path.write_text("4 4\n0 1\n2 3\n0 2\n1 3\n", encoding="ascii")
    code, out = run(capsys, "verify", str(path))
    assert code == 1
    assert "not a symmetric design" in out
    path.write_text("3 3\n0 1\n1 2\n0 2\n", encoding="ascii")
    code, out = run(capsys, "verify", str(path))
    assert (code, out) == (1, "not a symmetric design: nontriviality violated at (3,)\n")


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.des"
    for text in ("3 1\n0 zero\n", "12 1\n+0 1_1\n"):
        path.write_text(text, encoding="ascii")
        code, out = run(capsys, "verify", str(path))
        assert code == 2
        assert "line 2" in out
    path.write_text("0 0\n", encoding="ascii")
    code, out = run(capsys, "verify", str(path))
    assert (code, out) == (2, f"error: {path}: line 1: bad sizes v=0 b=0\n")


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


# the same for the complements, each against a relabelling seeded
# "iso:KIND:complement"; computed before colour classes were keyed by
# sorted code tuples and the pair profiles came back as code matrices
_ISO_PINNED_COMPLEMENT = {
    "menon36": "yes\nwitness: 0 2 30 4 16 33 3 27 24 26 22 18 13 14 23 20 9 12 10 32"
    " 8 34 17 7 11 31 29 19 25 35 5 21 15 6 28 1\n",
    "minus45": "yes\nwitness: 0 1 12 27 21 17 14 33 44 42 43 8 3 6 7 15 35 4 25 40 34"
    " 31 19 5 10 28 23 24 16 39 20 36 38 41 37 26 32 18 30 29 22 9 11 2 13\n",
    "higman40": "yes\nwitness: 0 5 4 3 28 17 39 18 19 20 33 23 21 26 29 15 16 31 1 34"
    " 6 27 35 2 13 37 12 11 25 30 32 7 22 14 24 38 9 36 10 8\n",
    "pg33": "yes\nwitness: 0 1 5 30 2 15 28 32 21 33 13 3 18 4 23 38 24 37 39 9 14 34"
    " 35 25 19 17 8 7 27 29 22 31 6 36 11 20 16 12 26 10\n",
}


@pytest.mark.parametrize("kind", list(_ISO_PINNED_COMPLEMENT))
def test_iso_complement_witness_pinned(tmp_path, capsys, kind):
    d = complement(build(kind))
    perm = list(range(d.v))
    random.Random(f"iso:{kind}:complement").shuffle(perm)
    p1, p2 = tmp_path / "a.des", tmp_path / "b.des"
    write_design(d, str(p1))
    write_design(relabel(d, perm), str(p2))
    assert run(capsys, "iso", str(p1), str(p2)) == (0, _ISO_PINNED_COMPLEMENT[kind])


# sha256 of each ``construct KIND [--complement] --out PATH`` file, computed
# before ``build`` took Gram-row dot products
_CONSTRUCT_SHA256 = {
    ("menon36", False): "017ac17e88a608f5686c71dffed5b2aa7835a291aa161ef5b914bf13572cac89",
    ("menon36", True): "c3a666790c127daed8b44342cebf9aac310595bdcb861bc8787ed020730a62e6",
    ("minus45", False): "a1ebc1ec7a06f7516fe11dd7c3d60cf3b3dc4a568c91eda3850c7fad7d2e7d96",
    ("minus45", True): "4bbc399abf2093ae8e5c67c635b3a3600dc0ba72239c2b34a9f45035dfc2be01",
    ("higman40", False): "311d674f65b77d3a941e90d5e718f6a2c0497864f3a0706eef1ecff98bbf57ef",
    ("higman40", True): "2b97b7628dd3461d4e48b6c3e335b40decac056fbe259c05755772d55d7e0ff0",
    ("pg33", False): "1b0203b05963eb1d82b7f5dbc6b3192fdcfbf970f667227769a334367fa3b5ef",
    ("pg33", True): "e55f4aef5c0153f318410a66f108b8d3f968c6915bd212aea11dd09d9830997b",
}


@pytest.mark.parametrize(
    "kind, comp", list(_CONSTRUCT_SHA256),
    ids=[f"{k}-{'complement' if c else 'plain'}" for k, c in _CONSTRUCT_SHA256],
)
def test_construct_file_pinned(tmp_path, capsys, kind, comp):
    path = tmp_path / "d.des"
    code, _ = run(capsys, "construct", kind, *["--complement"] * comp, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _CONSTRUCT_SHA256[kind, comp]


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


def test_group_primitive_not_transitive(monkeypatch, capsys):
    swap = (1, 0) + tuple(range(2, 36))
    monkeypatch.setattr(
        permgroup, "orthogonal_reflection_action",
        lambda point_class: permgroup.PermutationAction(36, (swap,)),
    )
    argv = ["group", "--design", "menon36", "--check", "primitive"]
    assert run(capsys, *argv) == (1, "not transitive\n")


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
        capture_output=True, encoding="ascii", env=env, cwd=tmp_path, check=True,
    )
    code, modules, slow = json.loads(proc.stdout)
    names = {m.removeprefix("psu4designs.") for m in modules}
    assert code == (0 if argv else None)
    assert loaded <= names and not absent & names, sorted(names)
    assert slow == []
