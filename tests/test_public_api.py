import ast
import importlib
import sys
from pathlib import Path

import pytest

import psu4designs
from psu4designs import catalog, cli, designs, exactmath, geometry, permgroup, sieve

MODULES = ("exactmath", "catalog", "sieve", "geometry", "designs", "permgroup")


# The exact public surface, sorted, so that every change to it shows here.
PUBLIC = {
    "exactmath": ["DesignParams", "PrimePower", "factorize", "is_perfect_square",
                  "is_prime", "primes_up_to"],
    "catalog": ["CLOSED_FORM_V", "CatalogError", "LINES", "SubgroupCase", "case_for", "cases_for",
                "out_order", "socle_order"],
    "sieve": ["CaseOutcome", "ELIMINATED", "KNOWN_DESIGN_PARAMS", "SURVIVOR", "ScanReport",
              "UNRESOLVED", "bound_table", "bound_tables", "feasible_candidates",
              "scan_all", "scan_case"],
    "geometry": ["ISOTROPIC", "NONSQUARE_TYPE", "SQUARE_TYPE", "class_points", "classify_point",
                 "design_space", "pg_hyperplanes", "projective_points", "reflection"],
    "designs": ["DesignFormatError", "IncidenceStructure", "KINDS", "KIND_POINT_CLASS",
                "VerificationFailure", "build", "complement", "find_isomorphism",
                "format_design", "is_isomorphism", "parse_design", "read_design",
                "verify_symmetric", "write_design"],
    "permgroup": ["NotTransitiveError", "Permutation", "PermutationAction", "StabilizerChain",
                  "compose", "group_order", "identity_perm", "induce", "induced_block_action",
                  "inverse", "is_flag_transitive", "is_primitive",
                  "orthogonal_reflection_action", "stabilizer_chain", "stabilizer_orbit_sizes"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"psu4designs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(module.__all__) == PUBLIC[name]


# Public names that no program reads, each with the reason it stays public.
UNREAD_PUBLIC = {
    ("catalog", "CLOSED_FORM_V"): "the tests' independent cross-check of the index identity",
    ("exactmath", "is_perfect_square"): "the test of the sieve's planned Schuetzenberger stage "
                                        "(v even forces k - lambda to be a square)",
}


def _program_files() -> list[Path]:
    """The package modules and the benchmark scripts."""
    root = Path(__file__).resolve().parents[1]
    return sorted([*(root / "src" / "psu4designs").glob("*.py"), *(root / "bench").glob("*.py")])


def _program_reads() -> set[tuple[str, str]]:
    """(module, name) for each name the package and benchmark scripts read:
    as ``<module>.<name>``, by ``from psu4designs.<module> import`` or
    ``from .<module> import``, or by name in its own module, outside the
    top-level statement that defines it."""
    reads = set()
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix("psu4designs.") if node.level == 0 else node.module
                reads.update((module, alias.name) for alias in node.names)
        if path.parent.name != "psu4designs":
            continue
        for stmt in tree.body:
            defined = getattr(stmt, "name", None)
            reads.update(
                (path.stem, node.id) for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != defined
            )
    return reads


def test_public_names_have_program_readers():
    """Every name in ``__all__`` is read by the package or the benchmark, or
    is in UNREAD_PUBLIC with its reason; a routine only tests call belongs
    in ``tests/helpers.py``.  An allowed name that gains a reader leaves the
    list."""
    reads = _program_reads()
    unread = sorted(
        (name, attr)
        for name in MODULES
        for attr in importlib.import_module(f"psu4designs.{name}").__all__
        if (name, attr) not in reads
    )
    assert unread == sorted(UNREAD_PUBLIC)


def _attribute_reads() -> set[str]:
    """Every name read as an attribute ``x.<name>`` in the package or the
    benchmark scripts."""
    return {
        node.attr
        for path in _program_files()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }


def _public_members(cls: type) -> set[str]:
    """A class's record fields and the public names its own module's class
    bodies define for it (methods and properties), bases included."""
    members = set(getattr(cls, "_fields", ()))
    for klass in cls.__mro__:
        if klass.__module__ != cls.__module__:
            continue
        tree = ast.parse(Path(sys.modules[klass.__module__].__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == klass.__name__:
                members.update(
                    stmt.name for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
                )
    return members


def test_public_record_members_have_program_readers():
    """Every field, method and property of a public class is read as an
    attribute by the package or the benchmark; a member only tests read
    belongs in ``tests/helpers.py``."""
    reads = _attribute_reads()
    unread = []
    for name in MODULES:
        module = importlib.import_module(f"psu4designs.{name}")
        for attr in module.__all__:
            cls = getattr(module, attr)
            if isinstance(cls, type):
                unread += [f"{attr}.{m}" for m in sorted(_public_members(cls)) if m not in reads]
    assert unread == []


def _fano():
    return designs.IncidenceStructure(7, tuple(map(tuple, geometry.pg_hyperplanes(3, 2))))


def _cycle():
    return permgroup.PermutationAction(3, ((1, 2, 0),))


# Each package record: how to make one, and its field names in order.
RECORDS = {
    "PrimePower": (lambda: exactmath.PrimePower.of(2, 1), ("q", "p", "a")),
    "DesignParams": (lambda: exactmath.DesignParams(36, 15, 6), ("v", "k", "lam")),
    "SubgroupCase": (lambda: catalog.cases_for(exactmath.PrimePower.of(2, 1))[0],
                     ("line", "subfield")),
    "IncidenceStructure": (_fano, ("v", "blocks")),
    "VerificationFailure": (lambda: designs.VerificationFailure("point_pair", (0, 1)),
                            ("axiom", "witness")),
    "CaseOutcome": (lambda: sieve.scan_all(2, 1, [8]).outcomes[0],
                    ("line", "q", "v", "k_bound", "status", "reason", "candidates", "rejections",
                     "subfield")),
    "ScanReport": (lambda: sieve.scan_all(2, 1, [8]), ("outcomes",)),
    "PermutationAction": (_cycle, ("degree", "generators")),
    "StabilizerChain": (lambda: permgroup.stabilizer_chain(_cycle()), ("base", "transversals", "order")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    """Name, field order, repr, hash and immutability of every record."""
    make, names = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    values = tuple(getattr(record, n) for n in names)
    assert repr(record) == f"{name}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"
    try:
        want = hash(values)
    except TypeError:  # a record holding a list or dict is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[0])
    assert type(record)(*values) == record


def test_subgroup_case_parabolic_is_derived():
    """``SubgroupCase.parabolic`` is read from the line, not stored."""
    assert [line for line in catalog.LINES if catalog.SubgroupCase(line).parabolic] == [1, 2]


@pytest.mark.parametrize("make, message", [
    (lambda: designs.IncidenceStructure(3, ((0, 1), (1, 3))),
     "block 1 has an out-of-range point index"),
    (lambda: designs.IncidenceStructure(3, ((-1, 0),)), "block 0 has an out-of-range point index"),
    (lambda: designs.IncidenceStructure(3, ((0, 2), (2, 1))), "block 1 is not strictly sorted"),
    (lambda: designs.IncidenceStructure(3, ((1, 1),)), "block 0 is not strictly sorted"),
    (lambda: exactmath.DesignParams(36, 15, 7), r"k\(k-1\) = lambda\(v-1\) fails for \(36, 15, 7\)"),
    (lambda: exactmath.PrimePower(4, 2, 0), "exponent must be >= 1"),
    (lambda: exactmath.PrimePower(8, 2, 2), r"8 != 2\^2"),
    (lambda: permgroup.PermutationAction(3, ((0, 0, 1),)), "not a permutation of 0..n-1"),
], ids=[
    "incidence-range", "incidence-negative", "incidence-order", "incidence-repeat",
    "design-params", "prime-power-exponent", "prime-power-value", "permutation-action",
])
def test_record_checks(make, message):
    """Constructing a record runs its checks, with their messages."""
    with pytest.raises(ValueError, match=message):
        make()


def _fano_action():
    """PSL(3, 2) on the Fano plane's points, from a coordinate 3-cycle and a
    transvection."""
    matrices = [((0, 0, 1), (1, 0, 0), (0, 1, 0)), ((1, 1, 0), (0, 1, 0), (0, 0, 1))]
    return permgroup.induce(matrices, geometry.projective_points(3, 2), 2)


def _fano_answers(design, action):
    blocks = permgroup.induced_block_action(action, design)
    return (designs.verify_symmetric(design), designs.find_isomorphism(design, design), blocks,
            permgroup.group_order(action), permgroup.is_primitive(action),
            permgroup.stabilizer_orbit_sizes(action, 0),
            permgroup.is_flag_transitive(action, design, blocks))


@pytest.mark.parametrize("listed", ["IncidenceStructure", "PermutationAction"])
def test_records_hold_tuples_of_list_input(listed):
    """A record made from lists holds tuples, as its repr shows, and answers
    as the record made from tuples does; lists would be unhashable in the
    block lookups and orbit sets."""
    design, action = _fano(), _fano_action()
    want = _fano_answers(design, action)
    assert want[3] == 168
    if listed == "IncidenceStructure":
        record = designs.IncidenceStructure(7, [list(b) for b in design.blocks])
        same, design = design, record
    else:
        record = permgroup.PermutationAction(7, [list(g) for g in action.generators])
        same, action = action, record
    assert repr(record) == repr(same) and record == same
    assert _fano_answers(design, action) == want


def test_runtime_imports_are_stdlib_only():
    """Zero runtime dependencies: every import in the package's modules is a
    standard-library module or the package itself."""
    checked = 0
    for path in sorted(Path(psu4designs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else ["psu4designs"]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "psu4designs", (path.name, name)
                checked += 1
    assert checked > 30


# The SubgroupCase members bench/child.py calls on each case of a scan.
BENCH_CASE_MEMBERS = ("point_count", "k_divisor_bound", "subdegree_divisors", "parabolic")


def _bench_names() -> set[tuple[str, str]]:
    """(module, name) for every package name the benchmark scripts read: each
    ``from psu4designs.X import Y``, and each attribute of a package module
    bound by ``from psu4designs import X``."""
    names = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psu4designs"):
                for alias in node.names:
                    names.add((node.module, alias.name))
                    if node.module == "psu4designs":
                        modules[alias.asname or alias.name] = f"psu4designs.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                names.add((modules[node.value.id], node.attr))
    return names


def test_benchmark_names_resolve():
    """Every package name the benchmark reads exists, so deleting one fails
    here and not only when the benchmark runs."""
    names = _bench_names()
    assert ("psu4designs.sieve", "scan_range") in names
    missing = []
    for module, name in sorted(names):
        try:
            getattr(importlib.import_module(module), name)
        except AttributeError:
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append((module, name))
    missing += [name for name in BENCH_CASE_MEMBERS if not hasattr(catalog.SubgroupCase, name)]
    assert missing == []


def test_console_script_and_version():
    """The installed ``psu4designs`` command resolves to ``cli.console_main``,
    and the packaged version is the one the CLI prints."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    module, _, attr = project["scripts"]["psu4designs"].partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert target is cli.console_main and callable(target)
    assert project["version"] == psu4designs.__version__
