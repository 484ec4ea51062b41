"""The structures workload: the constructions and group legs, in process.

One pass builds the four designs and their complements, verifies them and
round-trips them through the file format, runs the isomorphism search
against seeded relabellings, and runs the group checks on the three
reflection actions conjugated by seeded point permutations.  The
relabellings are fresh every pass, so ``permgroup._chain``, which caches
stabiliser chains by the action's value, never serves a timed call.
"""

from __future__ import annotations

import random
from collections import Counter

from psu4designs import designs, geometry, permgroup
from psu4designs.designs import IncidenceStructure
from psu4designs.permgroup import PermutationAction

from harness import Context, relabel

ACTIONS = (
    ("menon36", geometry.SQUARE_TYPE),
    ("minus45", geometry.NONSQUARE_TYPE),
    ("higman40", geometry.ISOTROPIC),
)
SIZES = {"menon36": 36, "minus45": 45, "higman40": 40, "pg33": 40}

def make_inputs(seed: int, pass_no: int) -> dict:
    """The seeded point permutations of one pass."""
    rng = random.Random(f"structures:{seed}:{pass_no}")

    def perm(n: int) -> list[int]:
        p = list(range(n))
        rng.shuffle(p)
        return p

    return {
        "iso": {(k, c): perm(SIZES[k]) for k in designs.KINDS for c in (False, True)},
        "iso_no": {c: perm(40) for c in (False, True)},
        "action": {k: perm(SIZES[k]) for k, _ in ACTIONS},
    }


def conjugate(action: PermutationAction, perm: list[int]) -> PermutationAction:
    """The action on relabelled points: perm[y] goes to perm[g[y]]."""
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    gens = tuple(tuple(perm[g[inv[x]]] for x in range(len(perm))) for g in action.generators)
    return PermutationAction(action.degree, gens)


def _equals(want):
    return lambda got: (got == want, f"got {got!r}, want {want!r}")


def _params(want):
    def check(result):
        got = result.triple() if hasattr(result, "triple") else str(result)
        return got == want, f"got {got}, want {want}"
    return check


def _roundtrip(d: IncidenceStructure) -> IncidenceStructure:
    return designs.parse_design(designs.format_design(d))


def run_pass(ctx: Context, seed: int, pass_no: int, probes: bool = False) -> float:
    """One pass, one speed window; returns the window's scale.  With
    ``probes``, also times the geometry layer on its own and, once, records
    the chain sizes of the unconjugated actions."""
    exp = ctx.expected
    inputs = make_inputs(seed, pass_no)
    op = ctx.op
    ctx.begin_window()

    built = {}
    for kind in designs.KINDS:
        busy_before = ctx.busy
        d = op("designs.build", designs.build, kind, sample=f"designs.build/{kind}")
        c = op("designs.complement", designs.complement, d, sample=f"designs.complement/{kind}")
        for comp, x in ((False, d), (True, c)):
            op("designs.verify", designs.verify_symmetric, x, sample=f"designs.verify/{kind}/{comp}",
               check=_params(exp["params"][(kind, comp)]))
            op("designs.format_parse", _roundtrip, x, sample=f"designs.format_parse/{kind}/{comp}",
               check=_equals(x))
        ctx.samples[f"construct/{kind}"].append(ctx.busy - busy_before)
        built[kind] = {False: d, True: c}

    for (kind, comp), perm in inputs["iso"].items():
        x = built[kind][comp]
        y = relabel(x, perm)
        op("designs.iso", designs.find_isomorphism, x, y, sample=f"designs.iso_yes/{kind}/{comp}",
           check=lambda w, x=x, y=y: (
               w is not None and designs.is_isomorphism(x, y, w), f"witness {w!r} is not valid"))
    for comp, perm in inputs["iso_no"].items():
        y = relabel(built["higman40"][comp], perm)
        op("designs.iso", designs.find_isomorphism, built["pg33"][comp], y,
           sample=f"designs.iso_no/{comp}", check=lambda w: (w is None, "pg33 matched higman40"))

    actions = []
    for kind, point_class in ACTIONS:
        perm = inputs["action"][kind]
        action = op("permgroup.action", permgroup.orthogonal_reflection_action, point_class,
                    sample=f"permgroup.action/{kind}")
        actions.append(action)
        g = conjugate(action, perm)
        op("permgroup.group_order", permgroup.group_order, g, sample=f"permgroup.group_order/{kind}",
           check=_equals(exp["group_order"]))
        op("permgroup.is_primitive", permgroup.is_primitive, g, sample=f"permgroup.is_primitive/{kind}",
           check=_equals(exp["primitive"]))
        op("permgroup.rank", permgroup.stabilizer_orbit_sizes, g, 0, sample=f"permgroup.rank/{kind}",
           check=_equals(exp["rank"][kind]))
        for comp in (False, True):
            x = relabel(built[kind][comp], perm)
            blocks = op("permgroup.block_action", permgroup.induced_block_action, g, x,
                        sample=f"permgroup.block_action/{kind}/{comp}")
            op("permgroup.flag_transitive", permgroup.is_flag_transitive, g, x, blocks,
               sample=f"permgroup.flag_transitive/{kind}/{comp}",
               check=_equals(exp["flagtrans"][(kind, comp)]))
    scale = ctx.end_window()

    if probes:
        if not ctx.counts:
            for action in actions:
                _chain_sizes(ctx, action)
        _geometry_probe(ctx)
    return scale


def _chain_sizes(ctx: Context, action: PermutationAction) -> None:
    chain = permgroup.stabilizer_chain(action)
    ctx.gate.expect("stabilizer_chain order", chain.order, ctx.expected["group_order"])
    for key, value in (
        ("permgroup.chain.base_len", len(chain.base)),
        ("permgroup.chain.transversal_total", sum(map(len, chain.transversals))),
    ):
        ctx.counts[key] = ctx.counts.get(key, 0) + value


def _geometry_probe(ctx: Context) -> None:
    span = ctx.tracer.span
    space = geometry.design_space()
    with span("geometry.points"):
        points = geometry.projective_points(5, 3)
        classes = [geometry.classify_point(space, pt) for pt in points]
        hyperplanes = geometry.pg_hyperplanes(4, 3)
    with span("geometry.reflections"):
        mirrors = [pt for pt, cls in zip(points, classes) if cls != geometry.ISOTROPIC]
        matrices = [geometry.reflection(space, pt) for pt in mirrors]
    ctx.gate.expect(
        "geometry point classes",
        (sorted(Counter(classes).values()), len(hyperplanes), len(matrices)),
        ([36, 40, 45], 40, 81),
    )
