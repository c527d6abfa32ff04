"""Correctness checks computed by the benchmark's own code.

Each check takes a program output plus facts the benchmark derived itself
(from known topology or from ``inputs``) and raises ``CheckFailed`` naming
the first disagreement.  Nothing here imports ``colorplex``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from inputs import components, facet_owners


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# homology


def known_homology(kind: str, n: int):
    """(Betti numbers, torsion per dimension) of the named topology."""
    if kind == "sphere":
        return (1,) + (0,) * (n - 1) + (1,), ((),) * (n + 1)
    if kind == "torus":
        return (1, 2, 1), ((), (), ())
    if kind == "rp2":
        return (1, 0, 0), ((), (2,), ())
    raise ValueError(kind)


def check_homology(profile, kind: str, n: int, chi: int) -> None:
    betti, torsion = known_homology(kind, n)
    require(tuple(profile.betti) == betti, f"{kind}: Betti {profile.betti}, expected {betti}")
    got = tuple(tuple(t) for t in profile.torsion)
    require(got == torsion, f"{kind}: torsion {got}, expected {torsion}")
    alternating = sum(b if k % 2 == 0 else -b for k, b in enumerate(profile.betti))
    require(alternating == chi, f"{kind}: Betti alternating sum {alternating} != Euler {chi}")


# ---------------------------------------------------------------------------
# triangulation and holonomy


def check_validation(report) -> None:
    require(report.closed and report.connected and report.passed,
            f"closed connected input failed validation: {report}")
    require(report.components == 1 and not report.bad_faces, f"bad validation report {report}")


def check_census(census, counts, degrees) -> None:
    require(tuple(census.counts) == tuple(counts), f"face counts {census.counts} != {counts}")
    require(dict(census.codim2_degrees) == degrees, "codim-2 degrees differ from own count")


def check_dual(graph, cx) -> None:
    n, simplices = cx
    require(graph.node_count == len(simplices), "dual graph node count")
    require(len(graph.edges) == len(simplices) * (n + 1) // 2, "dual graph edge count")
    require(set(graph.degrees()) == {n + 1}, "dual graph is not (n+1)-regular")


def check_coloring(coloring, cx) -> None:
    """A total coloring by 1..n+1 that is rainbow on every simplex."""
    n, simplices = cx
    require(coloring is not None, "colorable input reported as obstructed")
    verts = {v for s in simplices for v in s}
    require(set(coloring) == verts, "coloring does not cover exactly the vertices")
    require(set(coloring.values()) <= set(range(1, n + 2)), "color outside 1..n+1")
    for s in simplices:
        require(len({coloring[v] for v in s}) == n + 1, f"simplex {s} is not rainbow")


def check_obstructed(coloring, degrees):
    """An obstructed input returns None; returns one of its odd faces."""
    require(coloring is None, "input with odd codim-2 faces reported colorable")
    odd = sorted(f for f, d in degrees.items() if d % 2)
    require(bool(odd), "obstructed input has no odd face of its own")
    return odd[0]


def check_invariants(inv, cx, colorable: bool) -> None:
    n, simplices = cx
    dual_edges = len(simplices) * (n + 1) // 2
    require(inv["generator_count"] == dual_edges - len(simplices) + 1,
            f"generator count {inv['generator_count']} != dual edges - simplices + 1")
    require(inv["degree"] == n + 1, "holonomy degree")
    require(inv["trivial"] == colorable, "holonomy triviality disagrees with colorability")
    order = inv["image_order"]
    if colorable:
        require(order == 1, f"trivial holonomy with image order {order}")
    else:
        require(order % 2 == 0 and math.factorial(n + 1) % order == 0,
                f"image order {order} of an obstructed input")


def is_identity(images) -> bool:
    return tuple(images) == tuple(range(1, len(images) + 1))


def check_link_loop(result, degree: int) -> None:
    perm, got = result
    require(got == degree, f"link loop degree {got} != own count {degree}")
    require(is_identity(perm.images) == (degree % 2 == 0),
            f"link loop of degree {degree} gave {perm.images}")


def check_defects(defects, degrees) -> None:
    odd = sorted(f for f, d in degrees.items() if d % 2)
    require(list(defects.odd_edges) == odd, "defect odd edges differ from own odd faces")
    require(set(defects.regions) == {v for e in odd for v in e}, "defect regions")


def check_subdivision(sub, coloring, cx, counts) -> None:
    n, simplices = cx
    out = list(sub.simplices)
    require(len(out) == math.factorial(n + 1) * len(simplices), "subdivision simplex count")
    require(len({v for s in out for v in s}) == sum(counts), "subdivision vertex count")
    require(all(len(s) == n + 1 for s in out), "subdivision simplex arity")
    for s in out:
        require(sorted(coloring[v] for v in s) == list(range(1, n + 2)),
                f"dimension coloring not rainbow on {s}")
    require(all(len(o) == 2 for o in facet_owners(out).values()), "subdivision is not closed")


# ---------------------------------------------------------------------------
# circle layers and the gamma complex


def lap(layers):
    """Own sweep: crossing a point of layer i swaps its color with the free
    one.  Returns (images of the lap, coloring of every arc id)."""
    colors = list(range(1, layers.j + 1))
    free = layers.j + 1
    coloring = {f"l{i + 1}a{len(pts) - 1}": colors[i] for i, pts in enumerate(layers.points)}
    seen = [0] * layers.j
    conflict = False
    for e in layers.events:
        colors[e], free = free, colors[e]
        arc = f"l{e + 1}a{seen[e]}"
        seen[e] += 1
        conflict |= coloring.setdefault(arc, colors[e]) != colors[e]
    return tuple(colors) + (free,), (None if conflict else coloring)


def intersections(layers, max_size: int | None = None) -> dict:
    """Every arc-id set with a common point -> dimension of the common part.

    Such a set lies in the stab of some boundary point p: the two arcs of
    p's layer that meet at p plus the arc of every other layer covering p.
    Its common part is the point p when it holds both arcs of p's layer,
    and an interval otherwise (no two layers share a position).
    """
    out = {}
    current = [len(pts) - 1 for pts in layers.points]
    seen = [0] * layers.j
    for e in layers.events:
        before = f"l{e + 1}a{current[e]}"
        current[e] = seen[e]
        seen[e] += 1
        after = f"l{e + 1}a{current[e]}"
        stab = sorted([f"l{i + 1}a{k}" for i, k in enumerate(current)] + [before])
        for size in range(1, (max_size or len(stab)) + 1):
            for q in itertools.combinations(stab, size):
                out[q] = 0 if before in q and after in q else 1
    return out


def check_circle_holonomy(forward, backward, layers) -> None:
    images, _ = lap(layers)
    require(tuple(forward.images) == images, f"lap {forward.images} != own sweep {images}")
    composed = tuple(forward.images[c - 1] for c in backward.images)
    require(is_identity(composed), "reverse sweep does not invert the forward lap")


def proper(coloring, layers) -> bool:
    """Arcs whose closures meet carry distinct colors."""
    return all(coloring[q[0]] != coloring[q[1]]
               for q in intersections(layers, max_size=2) if len(q) == 2)


def check_circle_coloring(coloring, layers) -> None:
    images, own = lap(layers)
    if own is None:
        require(coloring is None and not is_identity(images), "obstructed layers colored")
        return
    require(coloring is not None, "colorable layers reported obstructed")
    require(set(coloring) == set(own), "coloring does not cover exactly the arcs")
    require(proper(coloring, layers), "arc coloring is not proper")


def check_intersections(data, layers) -> None:
    got = {tuple(ids): d for ids, d in data.intersections}
    require(got == intersections(layers), "intersecting arc sets differ from own geometry")


def check_gamma(complex_, data) -> None:
    n, j = data.n, data.j
    require(len(complex_.cells) == len(data.intersections), "gamma cell count")
    for ids, dim in complex_.cells:
        require(dim == n + j - len(ids), f"cell {ids} has dimension {dim}")


def check_transfer(verdict: bool, layers, coloring) -> None:
    direct = proper(coloring, layers)
    require(verdict == direct, f"transfer verdict {verdict} != direct pair check {direct}")


# ---------------------------------------------------------------------------
# gems


def bicolored(edges, a: int, b: int) -> list:
    """Own cycle lengths of the subgraph on colors a and b."""
    step = {}
    for u, v, c in edges:
        if c in (a, b):
            step[(u, c)] = v
            step[(v, c)] = u
    verts = sorted({u for u, _ in step})
    seen = set()
    lengths = []
    for start in verts:
        if start in seen:
            continue
        cur, color, length = start, a, 0
        while True:
            seen.add(cur)
            cur = step[(cur, color)]
            color = b if color == a else a
            length += 1
            if cur == start and color == a:
                break
        lengths.append(length)
    return sorted(lengths)


def check_gem_report(report, edges, vertex_count: int, codim2=None) -> None:
    """E = 2V; every bicolored cycle even, each pair's lengths summing to V
    and equal to own cycles; Euler characteristic from own F and R.  For a
    gem of a colored complex, the cycles are its codim-2 degrees, chi = 0."""
    require(report.vertex_count == vertex_count, "gem vertex count")
    require(report.edge_count == 2 * vertex_count, "gem edge count is not 2V")
    all_lengths = []
    f_count = 0
    for (a, b), lengths in report.cycle_lengths:
        require(all(x % 2 == 0 for x in lengths), f"odd bicolored cycle on {a},{b}")
        require(sum(lengths) == vertex_count, f"cycles on {a},{b} do not cover V")
        require(sorted(lengths) == bicolored(edges, a, b), f"cycles on {a},{b} differ")
        all_lengths.extend(lengths)
        f_count += len(lengths)
    r_count = 0
    for triple, count, _flags in report.triple_components:
        own = len(components(vertex_count, [e for e in edges if e[2] in triple]))
        require(count == own, f"components on {triple}: {count} != {own}")
        r_count += own
    euler = vertex_count - len(edges) + f_count - r_count
    require(report.euler == euler, f"gem Euler {report.euler} != own {euler}")
    if codim2 is not None:
        require(Counter(all_lengths) == Counter(codim2.values()),
                "gem cycles differ from the codim-2 degrees")
        require(euler == 0, f"closed 3-manifold gem with chi {euler}")
