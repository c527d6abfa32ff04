"""Forced color propagation and the holonomy of a triangulated complex.

Around each dual vertex (top simplex) the n+1 regions touching it carry n+1
distinct colors: a rainbow labeling of the simplex's vertices.  Crossing a
dual edge (shared facet) keeps the facet's colors and forces the opposite
vertex of the far simplex to take the one unused color.  Transporting a
labeling around dual loops gives color permutations; the complex is
(n+1)-colorable exactly when every loop acts trivially.

:func:`hol_generators` transports plain color tuples, indexed by simplex id,
in one breadth-first walk; :func:`propagate` carries one labeling by vertex,
the reference for that walk and for explicit loops.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass

from .errors import BudgetError
from .perms import CLOSURE_DEGREE_LIMIT, Permutation, subgroup_closure
from .triangulation import Triangulation

BRUTE_FORCE_VERTEX_LIMIT = 40


@dataclass(frozen=True)
class SimplexLabeling:
    """Rainbow color assignment on one simplex; ``colors[i]`` colors the
    i-th smallest vertex."""

    simplex: int
    colors: tuple[int, ...]

    def as_mapping(self, t: Triangulation) -> dict[int, int]:
        return dict(zip(t.simplices[self.simplex], self.colors))


def base_labeling(t: Triangulation, sid: int) -> SimplexLabeling:
    """The canonical start labeling: i-th smallest vertex gets color i."""
    return SimplexLabeling(sid, tuple(range(1, t.dimension + 2)))


def propagate(
    t: Triangulation, labeling: SimplexLabeling, target: int
) -> SimplexLabeling:
    """Carry a labeling across the dual edge into ``target``.

    The shared facet keeps its colors; the vertex of ``target`` opposite the
    facet is forced to the color that the facet does not use.  Raises
    ValueError when the two simplices are not facet-adjacent.
    """
    src = t.simplices[labeling.simplex]
    dst = t.simplices[target]
    shared = set(src) & set(dst)
    if target == labeling.simplex or len(shared) != t.dimension:
        raise ValueError(
            f"simplices {src} and {dst} do not share a facet"
        )
    by_vertex = dict(zip(src, labeling.colors))
    (dropped,) = set(src) - shared
    forced = by_vertex[dropped]
    return SimplexLabeling(
        target,
        tuple(by_vertex[v] if v in shared else forced for v in dst),
    )


def path_permutation(t: Triangulation, path) -> Permutation:
    """Color permutation picked up around a closed dual walk.

    ``path`` lists simplex ids, starting and ending at the same simplex;
    repeated consecutive entries are allowed (and skipped) so loops can be
    concatenated.  The result p satisfies p(start color of a vertex) = its
    end color.
    """
    path = list(path)
    if path[0] != path[-1]:
        raise ValueError("path is not a loop")
    lab = base_labeling(t, path[0])
    start = lab
    for nxt in path[1:]:
        if nxt != lab.simplex:
            lab = propagate(t, lab, nxt)
    images = [0] * (t.dimension + 1)
    for c_start, c_end in zip(start.colors, lab.colors):
        images[c_start - 1] = c_end
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# holonomy generators over a dual spanning tree


@dataclass(frozen=True)
class HolonomyData:
    """Spanning-tree presentation of the dual-loop holonomy.

    The base is the lexicographically least simplex; the tree comes from a
    breadth-first search with lexicographic neighbor order.  ``colors[k]``
    is the labeling carried along the tree to simplex k (``colors[k][i]``
    colors its i-th smallest vertex; ``SimplexLabeling(k, colors[k])`` is
    the same labeling as an object).  One generator loop per non-tree dual
    edge (a, b), a < b, in (a, b) order: tree path to a, cross to b, tree
    path back.  ``permutations[k]`` is the color permutation of generator k.
    """

    base: int
    parent: tuple[int, ...]  # parent simplex id, -1 at the base
    colors: tuple[tuple[int, ...], ...]
    generators: tuple[tuple[int, int], ...]
    permutations: tuple[Permutation, ...]

    @property
    def trivial(self) -> bool:
        return all(p.is_identity for p in self.permutations)

    def _chain_to_base(self, sid: int) -> list[int]:
        chain = [sid]
        while self.parent[chain[-1]] != -1:
            chain.append(self.parent[chain[-1]])
        return chain

    def generator_loop(self, k: int) -> tuple[int, ...]:
        """The explicit simplex-id loop realising generator k."""
        a, b = self.generators[k]
        to_a = self._chain_to_base(a)[::-1]
        from_b = self._chain_to_base(b)
        return tuple(to_a + from_b)


def _transport(colors: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """``propagate`` by positions: the source drops its vertex at position
    i, the target its vertex at position j, and the shared facet keeps the
    order of its colors."""
    rest = colors[:i] + colors[i + 1 :]
    return rest[:j] + (colors[i],) + rest[j:]


def hol_generators(
    t: Triangulation, *, reverse_neighbors: bool = False
) -> HolonomyData:
    """Tree-propagated colors plus one permutation per non-tree dual edge.

    One breadth-first walk from simplex 0 labels each simplex it reaches
    with the colors carried across the tree edge (by position, see
    ``_transport``, with the same result as ``propagate``).  When the walk
    at ``a`` meets an already-labelled neighbour ``b > a`` that is not
    ``a``'s parent, (a, b) is a non-tree edge and its permutation is taken
    there: two simplices share at most one facet, so a labelled tree
    neighbour can only be the parent, and each non-tree edge is met once
    from its smaller end.  The generators are listed in (a, b) order.

    ``reverse_neighbors`` flips the visiting order, producing a different
    spanning tree; when all generators are trivial the resulting colors
    must not depend on this choice.
    """
    index = t.facet_index
    if index.components != 1:
        raise ValueError("dual graph is disconnected; validate the input first")
    adjacency = index.adjacency
    degree = t.dimension + 1
    parent = [-1] * len(adjacency)
    colors: list[tuple[int, ...] | None] = [None] * len(adjacency)
    colors[0] = base_labeling(t, 0).colors
    found = []
    distinct: dict[tuple[int, ...], Permutation] = {}
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nb, i, j in reversed(adjacency[cur]) if reverse_neighbors else adjacency[cur]:
            if colors[nb] is None:
                parent[nb] = cur
                colors[nb] = _transport(colors[cur], i, j)
                queue.append(nb)
            elif cur < nb and nb != parent[cur]:
                images = [0] * degree
                for c_tree, c_cross in zip(colors[nb], _transport(colors[cur], i, j)):
                    images[c_tree - 1] = c_cross
                key = tuple(images)
                perm = distinct.get(key)
                if perm is None:
                    perm = distinct[key] = Permutation(key)
                found.append(((cur, nb), perm))
    found.sort()
    return HolonomyData(
        base=0,
        parent=tuple(parent),
        colors=tuple(colors),
        generators=tuple(ab for ab, _perm in found),
        permutations=tuple(perm for _ab, perm in found),
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
    facet opposite one outside vertex and follows the other one.
    """
    face = tuple(sorted(face))
    if len(face) != t.dimension - 1 or len(set(face)) != len(face):
        raise ValueError(f"{face} is not a codimension-2 face")
    index = t.facet_index
    inside = set(face)
    candidates = (
        min((index.stars.get(v, ()) for v in face), key=len)
        if face
        else range(len(t.simplices))
    )
    cofaces = [sid for sid in candidates if inside <= set(t.simplices[sid])]
    if not cofaces:
        raise ValueError(f"{face} is not a face of any simplex")

    start = cur = cofaces[0]
    keep, drop = (k for k, v in enumerate(t.simplices[start]) if v not in inside)
    colors = base_labeling(t, start).colors
    steps = 0
    while True:
        crossing = [(b, j) for b, i, j in index.adjacency[cur] if i == drop]
        if not crossing:
            s = t.simplices[cur]
            raise ValueError(
                f"a loop around {face} reaches the facet {s[:drop] + s[drop + 1 :]}, "
                "which two simplices do not share"
            )
        ((nxt, j),) = crossing
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
    sided); also returns the offending odd faces.  Vacuously true for n=1."""
    if t.dimension == 1:
        return True, ()
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
    missing = [v for v in t.vertices if v not in coloring]
    if missing:
        raise ValueError(f"partial coloring; missing regions {missing[:5]}")
    if any(not 1 <= coloring[v] <= color_count for v in t.vertices):
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
    multiset.  Color degrees above the closure limit raise BudgetError."""
    degree = t.dimension + 1
    if degree > CLOSURE_DEGREE_LIMIT:
        raise BudgetError(
            f"holonomy degree {degree} exceeds the closure limit {CLOSURE_DEGREE_LIMIT}"
        )
    hol = t.holonomy
    # at most degree! distinct permutations among the generators
    described = {
        p: (p.cycle_type(), p.cycle_string()) for p in dict.fromkeys(hol.permutations)
    }
    order, _elements = subgroup_closure(described, degree=degree)
    return {
        "degree": degree,
        "generator_count": len(hol.generators),
        "cycle_types": tuple(described[p][0] for p in hol.permutations),
        "cycle_strings": tuple(described[p][1] for p in hol.permutations),
        "image_order": order,
        "trivial": all(p.is_identity for p in described),
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
    """Locate the 4-coloring defects of a 3-dimensional complex."""
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
        raise AssertionError(
            "a region with an odd number of odd-degree edges contradicts "
            "the boundary-parity of its star"
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
