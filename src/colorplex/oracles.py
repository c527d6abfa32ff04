"""Property suites cross-checking the fast paths against brute force.

Each suite runs its checks over the builder library plus seeded random
instances and returns a structured report: one entry per property with a
pass flag and a counterexample dump on failure.  The same seed always
produces the same instances (Python's Mersenne Twister is stable across
platforms).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from . import builders
from .circles import (
    CircleLayers,
    brute_force_circle_colorable,
    circle_colorable,
    circle_holonomy,
    circle_intersections,
    verify_circle_coloring,
)
from .gamma import gamma_complex, gamma_coloring_transfer
from .gems import (
    Gem,
    GemError,
    bicolored_cycles,
    gem_from_coloring,
    gem_report,
    is_planar_multigraph,
)
from .holonomy import (
    brute_force_colorable,
    hol_generators,
    is_colorable,
    is_locally_colorable,
    link_loop_permutation,
    verify_coloring,
)
from .perms import Permutation
from .suites import SUITE_NAMES
from .triangulation import (
    Triangulation,
    face_census,
    is_even_cyclic,
    orientability,
)


def _builder_suite() -> list[tuple[str, Triangulation]]:
    return [
        ("simplex_boundary:2", builders.simplex_boundary(2)),
        ("simplex_boundary:3", builders.simplex_boundary(3)),
        ("cross_polytope_boundary:2", builders.cross_polytope_boundary(2)),
        ("cross_polytope_boundary:3", builders.cross_polytope_boundary(3)),
        ("circle:4", builders.circle(4)),
        ("circle:5", builders.circle(5)),
        ("torus7", builders.torus7()),
        ("rp2_6", builders.rp2_6()),
    ]


def _subdivided_suite() -> list[tuple[str, Triangulation]]:
    out = []
    for name, t in [
        ("simplex_boundary:2", builders.simplex_boundary(2)),
        ("cross_polytope_boundary:2", builders.cross_polytope_boundary(2)),
        ("circle:4", builders.circle(4)),
        ("simplex_boundary:3", builders.simplex_boundary(3)),
    ]:
        sub, _coloring = builders.barycentric_subdivide(t)
        out.append((f"subdivided {name}", sub))
    return out


def _relabel(t: Triangulation, rng: random.Random) -> Triangulation:
    """Random order-preserving vertex relabeling."""
    verts = t.vertices
    targets = sorted(rng.sample(range(10 * len(verts) + 10), len(verts)))
    mapping = dict(zip(verts, targets))
    return Triangulation.from_simplices(
        t.dimension, [tuple(mapping[v] for v in s) for s in t.simplices]
    )


def seeded_refinements(seed: int) -> list[tuple[str, Triangulation]]:
    """Twenty barycentric refinements of randomly chosen orientable builders
    with random order-preserving relabelings."""
    rng = random.Random(seed)
    bases = [
        ("simplex_boundary:2", builders.simplex_boundary(2)),
        ("simplex_boundary:3", builders.simplex_boundary(3)),
        ("cross_polytope_boundary:2", builders.cross_polytope_boundary(2)),
        ("cross_polytope_boundary:3", builders.cross_polytope_boundary(3)),
        ("torus7", builders.torus7()),
    ]
    out = []
    for k in range(20):
        name, base = rng.choice(bases)
        if rng.random() < 0.5:
            base = _relabel(base, rng)
            name = f"relabeled {name}"
        sub, _coloring = builders.barycentric_subdivide(base)
        if base.dimension == 2 and rng.random() < 0.25:
            sub, _coloring = builders.barycentric_subdivide(sub)
            name = f"twice-subdivided {name}"
        else:
            name = f"subdivided {name}"
        out.append((f"{k}: {name}", sub))
    return out


def random_circle_layers(rng: random.Random, max_layers: int = 3) -> CircleLayers:
    """A random layered circle with distinct half-integer boundary points."""
    j = rng.randint(1, max_layers)
    counts = [rng.randint(2, 4) for _ in range(j)]
    total = sum(counts)
    c = 2 * total + rng.randint(1, 6)
    pool = rng.sample(range(2 * c), total)
    positions = [Fraction(x, 2) for x in pool]
    rng.shuffle(positions)
    layers = []
    at = 0
    for m in counts:
        layers.append(tuple(sorted(positions[at : at + m])))
        at += m
    return CircleLayers(circumference=Fraction(c), layers=tuple(layers))


def random_gem(rng: random.Random, vertex_count: int) -> Gem:
    """A random connected gem: each color class is a random perfect matching.
    Raises ValueError unless ``vertex_count`` is even and at least 2."""
    if vertex_count < 2 or vertex_count % 2:
        raise ValueError(f"gem vertex count must be even and >= 2, got {vertex_count}")
    while True:
        edges = []
        for color in range(1, 5):
            order = list(range(vertex_count))
            rng.shuffle(order)
            edges.extend(
                (order[i], order[i + 1], color) for i in range(0, vertex_count, 2)
            )
        try:
            return Gem.from_edges(edges)
        except GemError:
            continue  # disconnected draw; resample


def _prop(name: str, passed: bool, detail=None) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    if detail is not None and not passed:
        entry["counterexample"] = detail
    return entry


# ---------------------------------------------------------------------------
# suites


def _suite_loc123(seed: int) -> list[dict]:
    props = []
    suite = _builder_suite() + _subdivided_suite()

    bad = []
    for name, t in suite:
        witness = is_colorable(t)
        locally, _odd = is_locally_colorable(t)
        if witness is not None and not locally:
            bad.append(name)
    props.append(_prop("colorable implies locally colorable", not bad, bad))

    bad = []
    checked = 0
    for name, t in suite + seeded_refinements(seed):
        if t.dimension < 2 or not orientability(t):
            continue
        checked += 1
        locally, _odd = is_locally_colorable(t)
        if locally != is_even_cyclic(t):
            bad.append(name)
    props.append(
        _prop(
            f"orientable n>=2: locally colorable iff even cyclic ({checked} inputs)",
            not bad,
            bad,
        )
    )

    bad = []
    for name, t in suite:
        witness = is_colorable(t)
        if witness is not None and not verify_coloring(t, witness, t.dimension + 1):
            bad.append(name)
    props.append(_prop("extracted colorings verify as proper", not bad, bad))

    bad = []
    for name, t in suite:
        if "simplex_boundary" not in name and "cross_polytope" not in name:
            continue
        if t.dimension < 2:
            continue
        locally, _odd = is_locally_colorable(t)
        if locally != (is_colorable(t) is not None):
            bad.append(name)
    props.append(
        _prop("simply connected: locally colorable iff colorable", not bad, bad)
    )

    bad = []
    for name, t in suite:
        if len(t.vertices) > 40:
            continue
        fast = is_colorable(t) is not None
        brute = brute_force_colorable(t, t.dimension + 1) is not None
        if fast != brute:
            bad.append(name)
    props.append(_prop("holonomy test matches brute-force search", not bad, bad))

    bad = []
    for name, t in suite:
        if t.dimension < 2:
            continue
        for face, degree in face_census(t).codim2_degrees:
            perm, d = link_loop_permutation(t, face)
            if d != degree or perm.is_identity != (degree % 2 == 0):
                bad.append((name, face))
    props.append(
        _prop("link loops are transpositions to the face degree", not bad, bad[:3])
    )

    bad = []
    for name, t in suite:
        hol = t.holonomy
        if not hol.trivial:
            continue
        if hol.colors != hol_generators(t, reverse_neighbors=True).colors:
            bad.append(name)
    props.append(
        _prop("trivial holonomy: labelings independent of the tree", not bad, bad)
    )
    return props


def _suite_circle(seed: int) -> list[dict]:
    props = []

    bad = []
    for m in range(3, 13):
        cl = CircleLayers(
            circumference=Fraction(m),
            layers=(tuple(Fraction(i) for i in range(m)),),
        )
        rho = circle_holonomy(cl)
        expected = Permutation.transposition(2, 1, 2).power(m)
        witness = circle_colorable(cl)
        if rho != expected or (witness is not None) != (m % 2 == 0):
            bad.append(m)
    props.append(_prop("single layer parity law for m=3..12", not bad, bad))

    interleaved = CircleLayers(
        circumference=Fraction(4),
        layers=((Fraction(0), Fraction(2)), (Fraction(1), Fraction(3))),
    )
    nested = CircleLayers(
        circumference=Fraction(4),
        layers=((Fraction(0), Fraction(2)), (Fraction(1, 2), Fraction(3, 2))),
    )
    rho = circle_holonomy(interleaved)
    props.append(
        _prop(
            "interleaved 2-layer: 3-cycle holonomy, no 3-coloring",
            rho.cycle_type() == (3,)
            and circle_colorable(interleaved) is None
            and brute_force_circle_colorable(interleaved) is None,
            rho.cycle_string(),
        )
    )
    witness = circle_colorable(nested)
    props.append(
        _prop(
            "nested 2-layer: identity holonomy and verified 3-coloring",
            circle_holonomy(nested).is_identity
            and witness is not None
            and verify_circle_coloring(nested, witness),
        )
    )

    rng = random.Random(seed)
    bad = []
    for k in range(20):
        cl = random_circle_layers(rng)
        if cl.arc_count() > 12:
            continue
        fast = circle_colorable(cl)
        brute = brute_force_circle_colorable(cl)
        ok = (fast is None) == (brute is None)
        if fast is not None:
            ok = ok and verify_circle_coloring(cl, fast)
        if not ok:
            bad.append((k, str(cl)))
    props.append(_prop("sweep matches exhaustive search on seeded instances", not bad, bad[:2]))

    bad = []
    rng = random.Random(seed + 1)
    for k in range(20):
        cl = random_circle_layers(rng)
        rho = circle_holonomy(cl)
        if circle_holonomy(cl, reverse=True) != rho.inverse():
            bad.append(k)
        # two laps: each layer's points again, shifted by C, on a circle of 2C
        c = cl.circumference
        doubled = CircleLayers(
            circumference=2 * c,
            layers=tuple(points + tuple(p + c for p in points) for points in cl.layers),
        )
        if circle_holonomy(doubled) != rho.compose(rho):
            bad.append(k)
    props.append(
        _prop("reverse sweep inverts; double sweep squares", not bad, bad)
    )
    return props


def _suite_gamma(seed: int) -> list[dict]:
    props = []
    rng = random.Random(seed)
    instances = [random_circle_layers(rng) for _ in range(50)]

    bad = []
    for k, cl in enumerate(instances):
        data = circle_intersections(cl)
        try:
            gamma_complex(data)  # raises on a dimension-law violation
        except ValueError as exc:
            bad.append((k, str(exc)))
    props.append(
        _prop("dimension and degree laws on 50 seeded instances", not bad, bad[:3])
    )

    bad = []
    rng2 = random.Random(seed + 1)
    for k, cl in enumerate(instances[:10]):
        data = circle_intersections(cl)
        regions = data.region_ids()
        for _trial in range(100):
            coloring = {r: rng2.randint(1, data.j + 1) for r in regions}
            reported = gamma_coloring_transfer(data, coloring)
            # direct: the meeting pairs of the crossing sweep, not the record
            if reported != verify_circle_coloring(cl, coloring):
                bad.append((k, coloring))
                break
    props.append(
        _prop("transfer agrees with direct properness (100 colorings x 10)", not bad, bad[:1])
    )
    return props


def _suite_gem(seed: int) -> list[dict]:
    props = []

    minimal = Gem.from_edges([(0, 1, c) for c in range(1, 5)])
    report = gem_report(minimal)
    props.append(
        _prop(
            "2-vertex gem: F=6, R=4, chi=0, ecpx, planar",
            report.f_count == 6
            and report.r_count == 4
            and report.euler == 0
            and report.ecpx
            and report.all_planar,
            report.to_json(),
        )
    )

    t = builders.cross_polytope_boundary(3)
    coloring = {v: v // 2 + 1 for v in t.vertices}
    gem = gem_from_coloring(t, coloring)
    report = gem_report(gem)
    props.append(
        _prop(
            "16-cell gem: V=16 E=32 F=24 R=8 chi=0, cycles all length 4",
            report.vertex_count == 16
            and report.edge_count == 32
            and report.f_count == 24
            and report.r_count == 8
            and report.euler == 0
            and all(
                lengths == (4, 4, 4, 4) for _pair, lengths in report.cycle_lengths
            )
            and report.all_planar,
            report.to_json(),
        )
    )

    bad = []
    sub, dim_coloring = builders.barycentric_subdivide(builders.simplex_boundary(3))
    for name, g in [
        ("16-cell gem", gem),
        ("subdivided 4-simplex gem", gem_from_coloring(sub, dim_coloring)),
    ]:
        r = gem_report(g)
        if r.euler != 0 or not r.ecpx:
            bad.append(name)
    props.append(_prop("constructed gems have chi=0 and even cycles", not bad, bad))

    bad = []
    for name, source, g in [
        ("16-cell", t, gem),
        ("subdivided 4-simplex", sub, gem_from_coloring(sub, dim_coloring)),
    ]:
        from_gem = sorted(
            length
            for a in range(1, 5)
            for b in range(a + 1, 5)
            for length in bicolored_cycles(g, a, b)
        )
        from_t = sorted(d for _f, d in face_census(source).codim2_degrees)
        if from_gem != from_t:
            bad.append(name)
    props.append(
        _prop("bicolored cycle lengths reproduce codim-2 degrees", not bad, bad)
    )

    # counts and residues from the edge list alone, none from the mate table;
    # a connected residue whose bicolored cycles give chi = F_res - V_res/2 = 2
    # is a 2-sphere with those cycles as faces, so it must be flagged planar
    rng = random.Random(seed)
    bad = []
    for k in range(10):
        g = random_gem(rng, rng.choice([4, 8, 12, 16, 24, 32]))
        r = gem_report(g)
        pair_comps = {p: _edge_components(g, p) for p in combinations(range(1, 5), 2)}
        cycles = [(p, len(comps)) for p, comps in pair_comps.items()]
        residues = [(t, _edge_components(g, t)) for t in combinations(range(1, 5), 3)]
        f = sum(count for _pair, count in cycles)
        rr = sum(len(comps) for _triple, comps in residues)
        v = sum(len(vs) for vs, _es in residues[0][1])  # each vertex lies in one residue
        if (
            (r.vertex_count, r.edge_count) != (v, len(g.edges))
            or [(pair, len(lengths)) for pair, lengths in r.cycle_lengths] != cycles
            or (r.f_count, r.r_count) != (f, rr)
            or r.euler != v - len(g.edges) + f - rr
            or list(r.triple_components) != [
                (triple, len(comps), tuple(is_planar_multigraph(vs, es) for vs, es in comps))
                for triple, comps in residues
            ]
            or any(
                chi == 2 and not flag
                for (triple, comps), (_t, _count, flags) in zip(residues, r.triple_components)
                for chi, flag in zip(
                    _residue_euler(comps, [pair_comps[p] for p in combinations(triple, 2)]),
                    flags,
                )
            )
        ):
            bad.append(k)
    props.append(
        _prop("random gems: F, R, chi and residue planarity match a union-find", not bad, bad)
    )
    return props


def _residue_euler(residues, cycle_components) -> list[int]:
    """Euler characteristic F - V/2 of each residue, a (vertices, edges)
    component, as the closed surface whose faces are the bicolored cycles in
    ``cycle_components``, the components of its triple's three color pairs.
    A residue is cubic, so E = 3V/2."""
    where = {w: i for i, (vs, _es) in enumerate(residues) for w in vs}
    faces = [0] * len(residues)
    for comps in cycle_components:
        for vs, _es in comps:
            faces[where[vs[0]]] += 1
    return [f - len(vs) // 2 for f, (vs, _es) in zip(faces, residues)]


def _edge_components(g: Gem, colors) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
    """Components of the subgraph of ``g`` on ``colors`` by a union-find over
    its edge list, as (vertices, edges) pairs sorted by least vertex."""
    parent = {w: w for u, v, _c in g.edges for w in (u, v)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = [edge for edge in g.edges if edge[2] in colors]
    for u, v, _c in kept:
        ru, rv = find(u), find(v)
        parent[max(ru, rv)] = min(ru, rv)  # each root is its component's least vertex
    comps: dict[int, tuple[list, list]] = {}
    for w in sorted(parent):
        comps.setdefault(find(w), ([], []))[0].append(w)
    for edge in kept:
        comps[find(edge[0])][1].append(edge)
    return [comps[root] for root in sorted(comps)]


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "loc123":
        props = _suite_loc123(seed)
    elif name == "circle":
        props = _suite_circle(seed)
    elif name == "gamma":
        props = _suite_gamma(seed)
    elif name == "gem":
        props = _suite_gem(seed)
    else:
        raise ValueError(f"unknown suite {name!r}; choices: {SUITE_NAMES}")
    return {
        "suite": name,
        "seed": seed,
        "properties": props,
        "passed": all(p["passed"] for p in props),
    }
