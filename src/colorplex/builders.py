"""Canonical triangulation instances and barycentric subdivision."""

from __future__ import annotations

import itertools
import math
import operator

from .errors import BudgetError
from .triangulation import FACE_BUDGET, Triangulation, _check_face_budget, _faces, _gc_paused


def simplex_boundary(n: int) -> Triangulation:
    """Boundary of the (n+1)-simplex: all (n+1)-subsets of {0..n+1}.

    Triangulates the n-sphere with the fewest possible vertices.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    _check_face_budget(n, n + 2)
    verts = range(n + 2)
    return Triangulation.from_simplices(n, itertools.combinations(verts, n + 1))


def cross_polytope_boundary(n: int) -> Triangulation:
    """Boundary of the (n+1)-dimensional cross polytope.

    Vertices come in n+1 antipodal pairs (2i, 2i+1); the 2^(n+1) simplices
    pick one vertex from each pair.  n=2 is the octahedron.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    _check_face_budget(n, 1)  # the dimension alone, before 2^(n+1) is formed
    _check_face_budget(n, 2 ** (n + 1))
    simplices = []
    for choice in itertools.product((0, 1), repeat=n + 1):
        simplices.append(tuple(2 * i + b for i, b in enumerate(choice)))
    return Triangulation.from_simplices(n, simplices)


def circle(m: int) -> Triangulation:
    """The circle cut into m arcs (m >= 3): edges {i, i+1 mod m}."""
    if m < 3:
        raise ValueError(f"circle needs at least 3 arcs, got {m}")
    _check_face_budget(1, m)
    return Triangulation.from_simplices(1, [(i, (i + 1) % m) for i in range(m)])


def torus7() -> Triangulation:
    """The 7-vertex torus: 14 triangles {i, i+1, i+3} and {i+1, i+3, i+4}
    with indices mod 7.  Its 1-skeleton is the complete graph K7."""
    simplices = []
    for i in range(7):
        simplices.append(tuple((i + k) % 7 for k in (0, 1, 3)))
        simplices.append(tuple((i + k) % 7 for k in (1, 3, 4)))
    return Triangulation.from_simplices(2, simplices)


def rp2_6() -> Triangulation:
    """The 6-vertex projective plane (antipodal quotient of the icosahedron):
    10 triangles on vertices 0..5, one from each complementary triple pair."""
    faces = [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
        (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
    ]
    return Triangulation.from_simplices(2, faces)


_BUILDERS = {
    "simplex_boundary": (simplex_boundary, 1),
    "cross_polytope_boundary": (cross_polytope_boundary, 1),
    "circle": (circle, 1),
    "torus7": (torus7, 0),
    "rp2_6": (rp2_6, 0),
}


def example(name: str, params: list[int] | tuple[int, ...] = ()) -> Triangulation:
    """Look up a named builder, e.g. ``example("circle", [5])``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown example {name!r}; choices: {sorted(_BUILDERS)}")
    fn, arity = _BUILDERS[name]
    params = tuple(params)
    if len(params) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


@_gc_paused
def barycentric_subdivide(t: Triangulation) -> tuple[Triangulation, dict[int, int]]:
    """Barycentric subdivision plus its dimension colouring.

    New vertices correspond to the faces of ``t`` (ids assigned in order of
    (face dimension, face)); the new
    simplices are the maximal chains f_0 < f_1 < ... < f_n of faces under
    inclusion.  The returned colouring maps each new vertex to 1 + dimension
    of its originating face, which is proper on the 1-skeleton because chain
    members have distinct dimensions.  More than FACE_BUDGET chains in all
    raise BudgetError before any is built.
    """
    n = t.dimension
    faces = [f for k in range(n) for f in _faces(t, k)] + list(t.simplices)
    chain_count = len(t.simplices) * math.factorial(n + 1)
    if chain_count > FACE_BUDGET:
        raise BudgetError(
            f"the subdivision would have {chain_count} simplices, over the "
            f"budget of {FACE_BUDGET}"
        )
    face_id = {f: i for i, f in enumerate(faces)}
    coloring = {i: len(f) for i, f in enumerate(faces)}

    # The sub-faces of a simplex, listed size by size in combinations order,
    # each at the slot its bitmask of positions names; a chain reads the slots
    # of the growing prefix masks of one permutation of positions.
    positions, sizes = range(n + 1), range(1, n + 2)
    subsets = (c for size in sizes for c in itertools.combinations(positions, size))
    slot = {sum(1 << p for p in c): k for k, c in enumerate(subsets)}
    prefixes = [
        operator.itemgetter(*(slot[m] for m in itertools.accumulate(1 << p for p in order)))
        for order in itertools.permutations(positions)
    ]
    chains: list[tuple[int, ...]] = []
    for s in t.simplices:
        sub_faces = (f for size in sizes for f in itertools.combinations(s, size))
        ids = list(map(face_id.__getitem__, sub_faces))
        chains.extend(prefix(ids) for prefix in prefixes)
    # the chains are distinct, of n+1 vertices, and ascending, since face ids
    # are ordered by dimension: no ``from_simplices`` check is left to make
    return Triangulation(n, tuple(sorted(chains))), coloring
