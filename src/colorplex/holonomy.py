"""Forced color propagation and the holonomy of a triangulated complex.

Around each dual vertex (top simplex) the n+1 regions touching it carry n+1
distinct colors: a rainbow labeling of the simplex's vertices.  Crossing a
dual edge (shared facet) keeps the facet's colors and forces the opposite
vertex of the far simplex to take the one unused color.  Transporting a
labeling around dual loops gives color permutations; the complex is
(n+1)-colorable exactly when every loop acts trivially.

Labelings are plain color tuples, ``colors[i]`` on a simplex's i-th smallest
vertex.  :func:`hol_generators` transports them by position along the
breadth-first tree that the facet index has already grown.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetError
from .perms import CLOSURE_DEGREE_LIMIT, Permutation, subgroup_closure
from .triangulation import Triangulation, _breadth_first, _slot_facet

BRUTE_FORCE_VERTEX_LIMIT = 40


# ---------------------------------------------------------------------------
# holonomy generators over a dual spanning tree


@dataclass(frozen=True)
class HolonomyData:
    """Spanning-tree presentation of the dual-loop holonomy.

    ``colors[k]`` is the labeling carried along the tree from simplex 0 to
    simplex k (``colors[k][i]`` colors its i-th smallest vertex).  One
    generator loop per non-tree dual edge (a, b), a < b, in (a, b) order:
    tree path to a, cross to b, tree path back.  ``permutations[k]`` is the
    color permutation of generator k.
    """

    colors: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, int], ...]
    permutations: tuple[Permutation, ...]

    @property
    def trivial(self) -> bool:
        """True iff every generator permutation is the identity.  Each
        distinct permutation object is checked once (``_distinct``): equal
        permutations that are separate objects are checked once each, so
        the answer never depends on ``hol_generators`` interning them, only
        the time does."""
        return all(p.is_identity for p in _distinct(self.permutations).values())


def _distinct(perms) -> dict[int, Permutation]:
    """``perms`` by object identity, each object once, in order of first
    occurrence: one C-level pass with no hash of a permutation's fields.
    ``hol_generators`` interns its permutations, so this leaves at most
    (n+1)! of them."""
    return dict(zip(map(id, perms), perms))


def _transport(colors: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """Cross a facet: the source drops its vertex at position i, the target
    its vertex at position j, and the shared facet keeps the order of its
    colors."""
    rest = colors[:i] + colors[i + 1 :]
    return rest[:j] + (colors[i],) + rest[j:]


def hol_generators(
    t: Triangulation, *, reverse_neighbors: bool = False
) -> HolonomyData:
    """Tree-propagated colors plus one permutation per non-tree dual edge.

    The tree is the facet index's breadth-first tree (``_FacetIndex.into``
    and ``.order``): simplex 0, with color i on its i-th smallest vertex, is
    its root, and each simplex's neighbours are taken in ascending id.
    Following the visit order, each simplex gets the colors carried across
    its tree edge from its parent (by position, see ``_transport``); no
    walk of the graph is made here.  Then every paired slot x < mates[x]
    that is not a tree edge is a non-tree edge (a, b), a < b, and its
    permutation compares b's tree colors with a's colors carried across.
    The generators are sorted by their (a, b) key alone: the pairs are
    distinct, because two simplices share at most one facet.

    A step depends only on the colors carried and the dropped positions
    (i, j), so each distinct step is computed once per call and its result
    interned by value: the transport makes at most (n+1)! * (n+1)^2
    distinct steps, and the returned ``colors`` share at most (n+1)! tuple
    objects.  Each pair of tree and crossed colors likewise builds its
    permutation once, and equal permutations are one object.  The readers
    (``HolonomyData.trivial``, ``holonomy_invariants``) work per distinct
    permutation object, so interning keeps them at (n+1)! permutations or
    fewer; it makes them fast, not correct.

    ``reverse_neighbors`` takes each simplex's neighbours in descending id,
    which grows a different spanning tree by the same walk
    (``_breadth_first``); when all generators are trivial the resulting
    colors must not depend on this choice.
    """
    index = t.facet_index
    if len(index.odd) != 1:
        raise ValueError("dual graph is disconnected; validate the input first")
    mates = index.mates
    degree = t.dimension + 1
    if reverse_neighbors:
        into, order, _odd = _breadth_first(mates, degree, reverse=True)
    else:
        into, order = index.into, index.order
    colors: list[tuple[int, ...] | None] = [None] * len(t.simplices)
    colors[0] = tuple(range(1, degree + 1))
    steps: dict[tuple[tuple[int, ...], int, int], tuple[int, ...]] = {}
    interned = {colors[0]: colors[0]}

    def carried(x: int, y: int) -> tuple[int, ...]:
        """The colors of slot x's simplex carried across to slot y's."""
        key = (colors[x // degree], x % degree, y % degree)
        moved = steps.get(key)
        if moved is None:
            moved = _transport(*key)
            moved = steps[key] = interned.setdefault(moved, moved)
        return moved

    for b in order[1:]:  # order[0] is the root, simplex 0
        y = into[b]
        colors[b] = carried(mates[y], y)

    found = []
    generated: dict[tuple[tuple[int, ...], tuple[int, ...]], Permutation] = {}
    distinct: dict[Permutation, Permutation] = {}
    for x, y in enumerate(mates):
        if y <= x:  # each pair once, from its smaller slot; -1 is unpaired
            continue
        a, b = x // degree, y // degree
        if into[b] == y or into[a] == x:  # the tree edge of b or of a
            continue
        pair = (colors[b], carried(x, y))
        perm = generated.get(pair)
        if perm is None:
            images = [0] * degree
            for c_tree, c_cross in zip(*pair):
                images[c_tree - 1] = c_cross
            perm = Permutation(tuple(images))
            perm = generated[pair] = distinct.setdefault(perm, perm)
        found.append(((a, b), perm))
    found.sort(key=itemgetter(0))
    return HolonomyData(
        colors=tuple(colors),
        generators=tuple(map(itemgetter(0), found)),
        permutations=tuple(map(itemgetter(1), found)),
    )


def link_loop_permutation(t: Triangulation, face) -> tuple[Permutation, int]:
    """Transport around the cycle of simplices sharing a codim-2 face.

    Returns (permutation, degree).  The two colors at the start simplex's
    non-face vertices swap once per step, so the result is that transposition
    raised to the degree: the identity exactly when the degree is even.
    That law needs the cofaces to form one cycle; when the walk closes
    before it has visited every coface (the face's link is not connected,
    as at a pinched vertex), or reaches a facet that two simplices do not
    share, ValueError is raised.  The walk goes by position: it crosses the
    facet opposite one outside vertex, looking up that facet's slot in the
    facet index, and follows the other one.  The cofaces are sought in the
    smallest star of the face's vertices (``Triangulation.stars``, built on
    the first call for a triangulation).
    """
    face = tuple(sorted(face))
    if len(face) != t.dimension - 1 or len(set(face)) != len(face):
        raise ValueError(f"{face} is not a codimension-2 face")
    index = t.facet_index
    inside = set(face)
    candidates = (
        min((t.stars.get(v, ()) for v in face), key=len)
        if face
        else range(len(t.simplices))
    )
    cofaces = [sid for sid in candidates if inside <= set(t.simplices[sid])]
    if not cofaces:
        raise ValueError(f"{face} is not a face of any simplex")

    start = cur = cofaces[0]
    keep, drop = (k for k, v in enumerate(t.simplices[start]) if v not in inside)
    width = t.dimension + 1
    colors = tuple(range(1, width + 1))
    steps = 0
    while True:
        m = index.mates[cur * width + drop]
        if m < 0:
            raise ValueError(
                f"a loop around {face} reaches the facet {_slot_facet(t, cur * width + drop)}, "
                "which two simplices do not share"
            )
        nxt, j = divmod(m, width)
        colors = _transport(colors, drop, j)
        # j is the far side's new outside vertex; the kept one moves along
        cur, keep, drop = nxt, j, t.simplices[nxt].index(t.simplices[cur][keep])
        steps += 1
        if cur == start:
            break
    if steps != len(cofaces):
        raise ValueError(
            f"the link of {face} is not connected: a loop around it meets "
            f"{steps} of its {len(cofaces)} cofaces"
        )
    return Permutation(colors), len(cofaces)


# ---------------------------------------------------------------------------
# colorability


def is_locally_colorable(t: Triangulation) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """True iff every codim-2 face has even degree (every dual 2-cell is even
    sided); also returns the offending odd faces.  Vacuously true for n=1,
    whose census lists no codim-2 face."""
    odd = t.census.odd_faces
    return not odd, odd


def is_colorable(t: Triangulation) -> dict[int, int] | None:
    """Extract the forced (n+1)-coloring, or None when holonomy obstructs it.

    A coloring exists iff every generator permutation is the identity; the
    witness reads each region's color off the tree-propagated colors.  A
    valid pseudomanifold whose vertex stars are not manifold-like (pinched)
    can leave the extraction inconsistent even with trivial generators; that
    is detected and reported rather than returned.
    """
    hol = t.holonomy
    if not hol.trivial:
        return None
    coloring: dict[int, int] = {}
    for simplex, colors in zip(t.simplices, hol.colors):
        for v, c in zip(simplex, colors):
            if coloring.setdefault(v, c) != c:
                raise ValueError(
                    f"forced colors disagree at region {v}; "
                    "its star is not a manifold neighborhood"
                )
    return coloring


def verify_coloring(t: Triangulation, coloring, color_count: int) -> bool:
    """Check a region coloring: total, colors within 1..color_count, and both
    endpoints of every 1-skeleton edge distinct."""
    vertices = t.vertices
    missing = [v for v in vertices if v not in coloring]
    if missing:
        raise ValueError(f"partial coloring; missing regions {missing[:5]}")
    if any(not 1 <= coloring[v] <= color_count for v in vertices):
        return False
    for s in t.simplices:
        for a, b in itertools.combinations(s, 2):
            if coloring[a] == coloring[b]:
                return False
    return True


def _least_proper_coloring(order, pairs, colors: int) -> list[int] | None:
    """Backtracking over the proper colorings of the graph on ``order`` whose
    edges are ``pairs``: items are colored in order, colors 1..colors tried
    ascending, so the first complete assignment is the least in that order.
    Returns its colors aligned with ``order``, or None.  Refuses more than
    BRUTE_FORCE_VERTEX_LIMIT items."""
    if len(order) > BRUTE_FORCE_VERTEX_LIMIT:
        raise BudgetError(
            f"{len(order)} regions exceed the search budget of "
            f"{BRUTE_FORCE_VERTEX_LIMIT}"
        )
    position = {v: k for k, v in enumerate(order)}
    earlier: list[list[int]] = [[] for _ in order]
    for u, v in pairs:
        a, b = sorted((position[u], position[v]))
        earlier[b].append(a)
    assignment = [0] * len(order)
    k = 0
    while 0 <= k < len(order):
        used = {assignment[p] for p in earlier[k]}
        c = next((c for c in range(assignment[k] + 1, colors + 1) if c not in used), 0)
        assignment[k] = c
        k += 1 if c else -1
    return assignment if k == len(order) else None


def brute_force_colorable(
    t: Triangulation, color_count: int
) -> dict[int, int] | None:
    """Exhaustive backtracking over proper colorings of the 1-skeleton.

    Vertices are tried in descending-degree order (ties by id) and colors in
    increasing order, so the witness is deterministic: the least one in that
    search order.  Refuses complexes with more than BRUTE_FORCE_VERTEX_LIMIT
    vertices.
    """
    edges = {e for s in t.simplices for e in itertools.combinations(s, 2)}
    degree = Counter(itertools.chain.from_iterable(edges))
    order = sorted(t.vertices, key=lambda v: (-degree[v], v))
    found = _least_proper_coloring(order, edges, color_count)
    return None if found is None else dict(sorted(zip(order, found)))


def holonomy_invariants(t: Triangulation) -> dict:
    """Summary of the holonomy over the default spanning tree.

    ``image_order`` and ``trivial`` describe the image subgroup, which does
    not depend on the tree.  ``generator_count`` is the number of non-tree
    dual edges, fixed by the dual graph.  ``cycle_types`` and
    ``cycle_strings`` describe one generator per non-tree edge, so they
    depend on the tree: another breadth-first order can change even their
    multiset.  Color degrees above the closure limit raise BudgetError.

    Each distinct permutation object (``_distinct``) is described once, and
    the generators read their descriptions by ``id``; equal permutations
    that are separate objects would only be described once each, so
    interning affects the time alone.  ``trivial`` is read off the closure:
    the image has order 1 exactly when every generator is the identity."""
    degree = t.dimension + 1
    if degree > CLOSURE_DEGREE_LIMIT:
        raise BudgetError(
            f"holonomy degree {degree} exceeds the closure limit {CLOSURE_DEGREE_LIMIT}"
        )
    hol = t.holonomy
    distinct = _distinct(hol.permutations)
    types = {k: p.cycle_type() for k, p in distinct.items()}
    strings = {k: p.cycle_string() for k, p in distinct.items()}
    ids = list(map(id, hol.permutations))
    order, _elements = subgroup_closure(distinct.values(), degree=degree)
    return {
        "degree": degree,
        "generator_count": len(hol.generators),
        "cycle_types": tuple(map(types.__getitem__, ids)),
        "cycle_strings": tuple(map(strings.__getitem__, ids)),
        "image_order": order,
        "trivial": order == 1,
    }


# ---------------------------------------------------------------------------
# defect analysis for n = 3


@dataclass(frozen=True)
class DefectGraphs:
    """Regions without 4-colorable stars and the two graphs joining them.

    ``regions`` collects the vertices of the triangulation that lie on some
    odd-degree edge (their dual star is not 4-colorable).  ``odd_edges`` has
    one edge per odd-degree edge of the triangulation; ``adjacency_edges``
    adds the even-degree edges whose endpoints both sit in ``regions``.

    ``odd_degrees_even`` (the CLI ``defects`` field of that name) is an
    invariant, always true on a result of :func:`defect_graphs`: every region
    lies on an even number of odd-degree edges, and :func:`defect_graphs`
    raises rather than return a value where it is false.  It stays in the
    JSON.
    """

    regions: frozenset[int]
    odd_edges: tuple[tuple[int, int], ...]
    adjacency_edges: tuple[tuple[int, int], ...]

    def _degrees(self, edges) -> dict[int, int]:
        counts = Counter(itertools.chain.from_iterable(edges))
        return {v: counts[v] for v in self.regions}

    def odd_degrees(self) -> dict[int, int]:
        return self._degrees(self.odd_edges)

    @property
    def odd_degrees_even(self) -> bool:
        return all(d % 2 == 0 for d in self.odd_degrees().values())

    def adjacency_degrees(self) -> dict[int, int]:
        return self._degrees(self.adjacency_edges)

    @property
    def adjacency_empty(self) -> bool:
        return not self.adjacency_edges

    def adjacency_triangle_free(self) -> bool:
        """True iff no edge of the adjacency graph has its two endpoints
        joined to a common third region."""
        neighbours: dict[int, set[int]] = {}
        for a, b in self.adjacency_edges:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
        return all(
            neighbours[a].isdisjoint(neighbours[b]) for a, b in self.adjacency_edges
        )


def defect_graphs(t: Triangulation) -> DefectGraphs:
    """Locate the 4-coloring defects of a 3-dimensional complex.

    On a closed complex every triangle lies in two tetrahedra, so the T
    tetrahedra and E triangles at a vertex v satisfy 3T = 2E and T is even.
    The degrees of the edges at v sum to 3T, so v lies on an even number of
    odd-degree edges.  A complex where that fails is not closed, and raises
    ValueError.
    """
    if t.dimension != 3:
        raise ValueError(f"defect graphs are defined for n=3, got n={t.dimension}")
    odd = []
    even = []
    for edge, deg in t.census.codim2_degrees:
        (odd if deg % 2 else even).append(edge)
    regions = frozenset(v for e in odd for v in e)
    # census edges are distinct, so the odd and the even ones are disjoint
    joined = [e for e in even if e[0] in regions and e[1] in regions]
    result = DefectGraphs(
        regions=regions,
        odd_edges=tuple(sorted(odd)),
        adjacency_edges=tuple(sorted(odd + joined)),
    )
    if not result.odd_degrees_even:
        raise ValueError(
            "a region with an odd number of odd-degree edges; "
            "the complex is not closed"
        )
    return result


def defect_free_four_coloring(t: Triangulation) -> dict[int, int] | None:
    """The forced 4-coloring of a defect-free 3-complex.

    When the defect adjacency graph is empty the complex has only even-sided
    dual 2-cells; if the holonomy is additionally trivial (checked, not
    assumed) the forced coloring exists and is returned.
    """
    defects = defect_graphs(t)
    if not defects.adjacency_empty:
        return None
    return is_colorable(t)
