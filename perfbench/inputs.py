"""Benchmark inputs, generated by this file's own code from a seed.

Nothing here imports ``colorplex``: a change to the program cannot change
what the benchmark feeds it.  A complex is a ``(dimension, simplices)`` pair
with every simplex a sorted vertex tuple.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# closed complexes of known topology


def cross_polytope(n: int):
    """Boundary of the (n+1)-cross polytope, an n-sphere with 2^(n+1) simplices."""
    return n, [tuple(2 * i + b for i, b in enumerate(bits))
               for bits in itertools.product((0, 1), repeat=n + 1)]


def torus7():
    """The 7-vertex torus."""
    simplices = []
    for i in range(7):
        simplices.append(tuple(sorted((i + k) % 7 for k in (0, 1, 3))))
        simplices.append(tuple(sorted((i + k) % 7 for k in (1, 3, 4))))
    return 2, simplices


def rp2_6():
    """The 6-vertex projective plane."""
    return 2, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
               (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def faces(simplices, size: int) -> set:
    """Every face with ``size`` vertices."""
    return {f for s in simplices for f in itertools.combinations(s, size)}


def face_counts(cx) -> tuple:
    n, simplices = cx
    return tuple(len(faces(simplices, k + 1)) for k in range(n + 1))


def euler(cx) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(face_counts(cx)))


def codim2_degrees(cx) -> dict:
    """Codimension-2 face -> number of simplices containing it."""
    n, simplices = cx
    degrees: dict = {}
    for s in simplices:
        for f in itertools.combinations(s, n - 1):
            degrees[f] = degrees.get(f, 0) + 1
    return degrees


def facet_owners(simplices) -> dict:
    """Facet -> indices of the simplices containing it."""
    owners: dict = {}
    for i, s in enumerate(simplices):
        for f in itertools.combinations(s, len(s) - 1):
            owners.setdefault(f, []).append(i)
    return owners


def subdivide(cx):
    """Barycentric subdivision with its dimension coloring.

    Vertex ids are assigned to faces in order of first appearance; the
    coloring maps each new vertex to 1 + the dimension of its face.
    """
    n, simplices = cx
    face_id: dict = {}
    out = []
    for s in simplices:
        for order in itertools.permutations(s):
            chain = []
            for k in range(1, n + 2):
                f = tuple(sorted(order[:k]))
                if f not in face_id:
                    face_id[f] = len(face_id)
                chain.append(face_id[f])
            out.append(tuple(sorted(chain)))
    coloring = {i: len(f) for f, i in face_id.items()}
    return (n, sorted(out)), coloring


def stellar(cx, index: int):
    """Cone a new vertex over the boundary of simplex ``index``.

    Every face of that simplex of codimension 2 gains one coface and every
    new codimension-2 face has degree n, so the result has odd faces.
    """
    n, simplices = cx
    apex = 1 + max(v for s in simplices for v in s)
    s = simplices[index]
    out = [x for i, x in enumerate(simplices) if i != index]
    out.extend(tuple(sorted(f + (apex,))) for f in itertools.combinations(s, n))
    return n, sorted(out)


def relabeling(cx, rng: random.Random) -> dict:
    """A seeded order-preserving vertex map.

    Sorted simplices stay sorted and in the same order, so the relabeled
    complex costs the program the same work while no cache keyed on the
    complex has seen it.
    """
    verts = sorted({v for s in cx[1] for v in s})
    targets = sorted(rng.sample(range(4 * len(verts)), len(verts)))
    return dict(zip(verts, targets))


def apply_map(cx, mapping):
    n, simplices = cx
    return n, [tuple(mapping[v] for v in s) for s in simplices]


def to_text(cx) -> str:
    n, simplices = cx
    return f"dim {n}\n" + "".join(" ".join(map(str, s)) + "\n" for s in simplices)


def parse_text(text: str):
    """Read back the triangulation file format (header and simplex lines)."""
    lines = [ln.split() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0][0] != "dim":
        raise ValueError("missing 'dim <n>' header")
    return int(lines[0][1]), sorted(tuple(sorted(map(int, ln))) for ln in lines[1:])


# ---------------------------------------------------------------------------
# gems


def random_gem(vertex_count: int, rng: random.Random):
    """Four random perfect matchings, one per color, redrawn until connected."""
    while True:
        edges = []
        for color in range(1, 5):
            perm = list(range(vertex_count))
            rng.shuffle(perm)
            edges.extend((min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1]), color)
                         for i in range(0, vertex_count, 2))
        if len(components(vertex_count, edges)) == 1:
            return sorted(edges)


def components(vertex_count: int, edges) -> list:
    """Vertex sets of the connected components of a graph on 0..V-1."""
    parent = list(range(vertex_count))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, *_ in edges:
        parent[root(u)] = root(v)
    groups: dict = {}
    for x in range(vertex_count):
        groups.setdefault(root(x), []).append(x)
    return list(groups.values())


def gem_of_coloring(cx, coloring):
    """Gem of a 4-colored 3-complex: one vertex per simplex (its index), one
    edge per shared facet, colored by the color missing from the facet."""
    _n, simplices = cx
    edges = []
    for facet, (a, b) in facet_owners(simplices).items():
        (opposite,) = set(simplices[a]) - set(facet)
        edges.append((a, b, coloring[opposite]))
    return sorted(edges)


def gem_text(edges) -> str:
    return "gem 3\n" + "".join(f"{u} {v} {c}\n" for u, v, c in edges)


# ---------------------------------------------------------------------------
# layered arcs on the circle


class Layers:
    """j layers of boundary points on a circle of circumference ``c``.

    ``events`` lists the layer crossed at each point, in increasing position;
    no point sits at 0, so a lap from 0+ crosses them in this order.
    """

    def __init__(self, c: Fraction, events: list, positions: list):
        self.c = c
        self.events = events
        self.positions = positions
        self.j = max(events) + 1
        self.points = [[p for p, e in zip(positions, events) if e == layer]
                       for layer in range(self.j)]

    def text(self) -> str:
        def fmt(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        rows = [f"circle {self.j}", f"C={fmt(self.c)}"]
        rows.extend("layer: " + " ".join(fmt(p) for p in pts) for pts in self.points)
        return "\n".join(rows) + "\n"


def random_layers(j: int, per_layer: int, rng: random.Random, *, obstructed: bool) -> Layers:
    """Random layers whose crossing word is w + reverse(w), so the lap is
    trivial; ``obstructed`` inserts one extra crossing in the middle, which
    leaves a nontrivial lap."""
    half = [layer for layer in range(j) for _ in range(per_layer // 2)]
    rng.shuffle(half)
    events = half + ([rng.randrange(j)] if obstructed else []) + half[::-1]
    denominator = rng.randrange(3, 12)
    position = 0
    positions = []
    for _ in events:
        position += rng.randrange(1, 50)
        positions.append(Fraction(position, denominator))
    return Layers(Fraction(position + rng.randrange(1, 50), denominator), events, positions)
