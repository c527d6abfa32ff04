import dataclasses
import importlib
import itertools
import math
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorplex import (
    Permutation,
    barycentric_subdivide,
    brute_force_colorable,
    defect_free_four_coloring,
    defect_graphs,
    face_census,
    hol_generators,
    holonomy_invariants,
    is_colorable,
    is_locally_colorable,
    link_loop_permutation,
    validate,
    verify_coloring,
)
from colorplex.builders import (
    circle,
    cross_polytope_boundary,
    rp2_6,
    simplex_boundary,
    torus7,
)
from colorplex.errors import BudgetError
from colorplex.holonomy import DefectGraphs
from colorplex.perms import subgroup_closure
from colorplex.triangulation import Triangulation
from dual_forest import stellar_moves
from reference_transport import (
    generator_loop,
    path_permutation,
    propagate,
    tree_into,
    tree_parents,
)


def _sid(t, verts):
    return t.simplices.index(tuple(sorted(verts)))


def _dual_edges(t):
    """The dual edges (a, b), a < b, ascending, from the vertex sets alone:
    a map from each facet to the simplices that have it, and the facets
    that exactly two have."""
    having = {}
    for sid, s in enumerate(t.simplices):
        for facet in itertools.combinations(s, t.dimension):
            having.setdefault(facet, []).append(sid)
    return sorted(tuple(sids) for sids in having.values() if len(sids) == 2)


def _dual_neighbours(t):
    """Each simplex's facet-adjacent simplices, from ``_dual_edges``."""
    neighbours = [[] for _ in t.simplices]
    for a, b in _dual_edges(t):
        neighbours[a].append(b)
        neighbours[b].append(a)
    return neighbours


# ---------------------------------------------------------------------------
# propagation


def test_propagate_forces_the_missing_color():
    t = simplex_boundary(2)  # simplices on vertices 0..3
    out = propagate(t, _sid(t, (0, 1, 2)), (1, 2, 3), _sid(t, (0, 1, 3)))
    # facet {0,1} keeps colors 1,2; vertex 3 is forced to 3
    assert out == (1, 2, 3)  # on vertices 0, 1, 3


def test_propagate_loop_transposes_two_colors():
    # hand propagation: (012)->(013)->(023)->(012) swaps the colors of
    # vertices 1 and 2
    t = simplex_boundary(2)
    colors = (1, 2, 3)
    loop = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 2)]
    expected = [{0: 1, 1: 2, 3: 3}, {0: 1, 2: 2, 3: 3}, {0: 1, 1: 3, 2: 2}]
    for here, there, by_vertex in zip(loop, loop[1:], expected):
        colors = propagate(t, _sid(t, here), colors, _sid(t, there))
        assert dict(zip(there, colors)) == by_vertex


def test_propagate_is_an_involution():
    rng = random.Random(3)
    t = cross_polytope_boundary(3)
    neighbours = _dual_neighbours(t)
    for _ in range(30):
        sid = rng.randrange(len(t.simplices))
        colors = list(range(1, 5))
        rng.shuffle(colors)
        colors = tuple(colors)
        nb = rng.choice(neighbours[sid])
        there = propagate(t, sid, colors, nb)
        assert propagate(t, nb, there, sid) == colors


def test_propagate_rejects_non_adjacent_target():
    t = cross_polytope_boundary(2)
    # opposite simplex shares no facet with simplex 0
    opposite = _sid(t, tuple(v ^ 1 for v in t.simplices[0]))
    with pytest.raises(ValueError, match="facet"):
        propagate(t, 0, (1, 2, 3), opposite)


# ---------------------------------------------------------------------------
# generators


def test_tetrahedron_boundary_has_transposition_generators():
    hol = hol_generators(simplex_boundary(2))
    # dual K4: 6 edges, 3 tree edges, 3 generators
    assert len(hol.generators) == 3
    assert all(p.cycle_type() == (2, 1) for p in hol.permutations)
    assert not hol.trivial


def test_octahedron_generators_are_identity():
    hol = hol_generators(cross_polytope_boundary(2))
    assert hol.trivial


def test_torus_has_nontrivial_generator():
    hol = hol_generators(torus7())
    assert not hol.trivial


def test_generator_permutations_match_their_loops():
    """Each generator's permutation is its loop's, on both trees, over
    subdivisions and obstructed inputs alike."""
    for t in _closed_tree_inputs():
        for reverse_neighbors in (False, True):
            hol = hol_generators(t, reverse_neighbors=reverse_neighbors)
            into = tree_into(t, reverse_neighbors)
            for g, perm in zip(hol.generators, hol.permutations):
                assert path_permutation(t, generator_loop(t, g, into)) == perm


def test_concatenated_loops_compose():
    """Over every pair of generators, so on the inputs of 40 simplices or
    fewer."""
    small = [t for t in _closed_tree_inputs() if len(t.simplices) <= 40]
    for t, reverse_neighbors in itertools.product(small, (False, True)):
        hol = hol_generators(t, reverse_neighbors=reverse_neighbors)
        into = tree_into(t, reverse_neighbors)
        loops = [generator_loop(t, g, into) for g in hol.generators]
        for a in range(len(loops)):
            for b in range(len(loops)):
                joined = loops[a] + loops[b]
                expected = hol.permutations[a].compose(hol.permutations[b])
                assert path_permutation(t, joined) == expected


def test_cycle_types_invariant_under_order_preserving_relabeling():
    for t in (simplex_boundary(2), torus7(), rp2_6(), cross_polytope_boundary(3)):
        relabeled = Triangulation.from_simplices(
            t.dimension,
            [tuple(3 * v + 5 for v in s) for s in t.simplices],
        )
        before = sorted(p.cycle_type() for p in hol_generators(t).permutations)
        after = sorted(p.cycle_type() for p in hol_generators(relabeled).permutations)
        assert before == after


def test_labelings_tree_independent_when_trivial():
    for t in (cross_polytope_boundary(2), cross_polytope_boundary(3)):
        first = hol_generators(t)
        second = hol_generators(t, reverse_neighbors=True)
        assert first.trivial and second.trivial
        assert first.colors == second.colors


# ---------------------------------------------------------------------------
# link loops


def _expected_link_permutation(t, face, degree):
    cofaces = [s for s in t.simplices if set(face) <= set(s)]
    start = min(cofaces)
    extras = sorted(set(start) - set(face))
    positions = {v: i + 1 for i, v in enumerate(start)}
    swap = Permutation.transposition(
        t.dimension + 1, positions[extras[0]], positions[extras[1]]
    )
    return swap.power(degree)


def test_link_loops_are_transposition_powers():
    for t in (
        simplex_boundary(2),
        simplex_boundary(3),
        cross_polytope_boundary(2),
        cross_polytope_boundary(3),
        torus7(),
        rp2_6(),
    ):
        for face, degree in face_census(t).codim2_degrees:
            perm, d = link_loop_permutation(t, face)
            assert d == degree
            assert perm == _expected_link_permutation(t, face, degree)
            assert perm.is_identity == (degree % 2 == 0)


def _coface_cycle(t, face):
    """The cofaces of ``face`` as a closed walk, each step to a coface sharing
    n vertices with the last one, built from vertex sets alone."""
    cofaces = [sid for sid, s in enumerate(t.simplices) if set(face) <= set(s)]
    ring = [cofaces[0]]
    remaining = set(cofaces[1:])
    while remaining:
        last = set(t.simplices[ring[-1]])
        nxt = min(sid for sid in remaining if len(last & set(t.simplices[sid])) == t.dimension)
        ring.append(nxt)
        remaining.discard(nxt)
    assert len(set(t.simplices[ring[-1]]) & set(t.simplices[ring[0]])) == t.dimension
    return ring + ring[:1]


def test_link_loops_match_path_permutation_over_a_coface_cycle():
    for t in _examples_and_subdivisions():
        if t.dimension < 2:
            continue
        for face, degree in face_census(t).codim2_degrees:
            cycle = _coface_cycle(t, face)
            assert link_loop_permutation(t, face) == (path_permutation(t, cycle), degree)


def test_link_loop_rejects_an_unshared_facet():
    # around vertex 2 the loop crosses (1, 2) into (1, 2, 4), then meets its
    # facet (2, 4), which no other triangle has
    open_disk = Triangulation.from_simplices(2, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    with pytest.raises(ValueError) as err:
        link_loop_permutation(open_disk, (2,))
    assert str(err.value) == (
        "a loop around (2,) reaches the facet (2, 4), which two simplices do not share"
    )


def test_link_loop_rejects_a_face_of_no_simplex():
    # 0 and 1 are opposite vertices of the octahedral 3-sphere
    with pytest.raises(ValueError) as err:
        link_loop_permutation(cross_polytope_boundary(3), (0, 1))
    assert str(err.value) == "(0, 1) is not a face of any simplex"


@pytest.mark.parametrize("m", range(3, 9))
def test_link_loop_around_the_empty_face_of_a_circle(m):
    # n = 1: the codim-2 face is the empty face, and every edge is its coface
    perm, degree = link_loop_permutation(circle(m), ())
    assert degree == m
    assert perm == Permutation.transposition(2, 1, 2).power(m)
    assert perm.is_identity == (m % 2 == 0)


def test_path_permutation_rejects_an_open_path():
    with pytest.raises(ValueError) as err:
        path_permutation(simplex_boundary(2), [0, 1])
    assert str(err.value) == "path is not a loop"


def test_link_loop_rejects_a_repeated_vertex():
    # (0, 0) has the length of a codim-2 face of a 3-complex, but one vertex
    with pytest.raises(ValueError, match=r"^\(0, 0\) is not a codimension-2 face$"):
        link_loop_permutation(cross_polytope_boundary(3), (0, 0))


# ---------------------------------------------------------------------------
# colorability


def test_locally_colorable_examples():
    ok, odd = is_locally_colorable(simplex_boundary(2))
    assert not ok and len(odd) == 4
    ok, odd = is_locally_colorable(cross_polytope_boundary(2))
    assert ok and odd == ()
    ok, odd = is_locally_colorable(simplex_boundary(3))
    assert not ok and len(odd) == 10
    ok, odd = is_locally_colorable(circle(5))  # vacuous for n=1
    assert ok and odd == ()


def test_octahedron_coloring_pairs_antipodes():
    t = cross_polytope_boundary(2)
    coloring = is_colorable(t)
    assert coloring is not None
    assert verify_coloring(t, coloring, 3)
    for pair in range(3):
        assert coloring[2 * pair] == coloring[2 * pair + 1]


def test_cross_polytope_coloring_by_antipodal_pair():
    t = cross_polytope_boundary(3)
    coloring = is_colorable(t)
    assert coloring is not None
    assert verify_coloring(t, coloring, 4)
    for pair in range(4):
        assert coloring[2 * pair] == coloring[2 * pair + 1]


def test_torus_is_not_3_colorable():
    assert is_colorable(torus7()) is None


def test_verify_coloring_rejects_clashes_and_partial_input():
    t = simplex_boundary(2)
    assert not verify_coloring(t, {0: 1, 1: 2, 2: 3, 3: 1}, 3)
    assert not verify_coloring(t, {0: 1, 1: 2, 2: 3, 3: 9}, 4)
    with pytest.raises(ValueError, match="partial"):
        verify_coloring(t, {0: 1}, 3)


def test_brute_force_witnesses():
    t = simplex_boundary(2)
    four = brute_force_colorable(t, 4)
    assert four is not None and verify_coloring(t, four, 4)
    assert brute_force_colorable(t, 3) is None
    assert brute_force_colorable(torus7(), 7) is not None
    assert brute_force_colorable(torus7(), 6) is None


def test_brute_force_budget():
    with pytest.raises(BudgetError):
        brute_force_colorable(circle(41), 2)


def test_brute_force_is_deterministic():
    t = cross_polytope_boundary(2)
    assert brute_force_colorable(t, 3) == brute_force_colorable(t, 3)


def test_holonomy_invariants_summary():
    inv = holonomy_invariants(cross_polytope_boundary(2))
    assert inv["trivial"] and inv["image_order"] == 1
    inv = holonomy_invariants(simplex_boundary(2))
    assert not inv["trivial"]
    assert inv["image_order"] >= 2
    assert (2, 1) in inv["cycle_types"]


def test_holonomy_invariants_degree_budget():
    with pytest.raises(BudgetError, match="^holonomy degree 9 exceeds the closure limit 8$"):
        holonomy_invariants(simplex_boundary(8))


# ---------------------------------------------------------------------------
# defects (n = 3)


def test_defects_of_4simplex_boundary_form_k5():
    defects = defect_graphs(simplex_boundary(3))
    assert defects.regions == frozenset(range(5))
    assert len(defects.odd_edges) == 10  # every edge has degree 3
    assert set(defects.odd_degrees().values()) == {4}
    assert defects.odd_degrees_even
    assert defects.adjacency_edges == defects.odd_edges
    assert not defects.adjacency_triangle_free()


def _has_triangle(edges):
    """Reference: some triple of vertices is pairwise joined."""
    joined = {frozenset(e) for e in edges}
    vertices = sorted({v for e in edges for v in e})
    return any(
        {frozenset((a, b)), frozenset((a, c)), frozenset((b, c))} <= joined
        for a, b, c in itertools.combinations(vertices, 3)
    )


def test_triangle_check_is_fast_on_a_long_cycle():
    n = 400
    cycle = DefectGraphs(
        regions=frozenset(range(n)),
        odd_edges=(),
        adjacency_edges=tuple(sorted([(0, n - 1)] + [(k, k + 1) for k in range(n - 1)])),
    )
    started = time.perf_counter()
    assert cycle.adjacency_triangle_free()
    # enumerating the C(400, 3) region triples instead takes seconds
    assert time.perf_counter() - started < 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: tuple(sorted(e))),
            unique=True,
            max_size=n * (n - 1) // 2,
        )
    )
)
def test_triangle_check_matches_triple_enumeration(edges):
    graphs = DefectGraphs(
        regions=frozenset(v for e in edges for v in e),
        odd_edges=(),
        adjacency_edges=tuple(sorted(edges)),
    )
    assert graphs.adjacency_triangle_free() == (not _has_triangle(edges))


def test_defects_of_cross_polytope_are_empty():
    defects = defect_graphs(cross_polytope_boundary(3))
    assert defects.regions == frozenset()
    assert defects.odd_edges == ()
    assert defects.adjacency_empty


def test_defects_of_subdivided_4simplex_are_empty():
    sub, _ = barycentric_subdivide(simplex_boundary(3))
    defects = defect_graphs(sub)
    assert defects.regions == frozenset()


def test_defects_require_dimension_3():
    with pytest.raises(ValueError, match="n=3"):
        defect_graphs(simplex_boundary(2))


def test_defects_of_a_complex_that_is_not_closed_raise_value_error():
    # one tetrahedron: every vertex lies on three edges of degree 1
    with pytest.raises(ValueError, match="not closed"):
        defect_graphs(Triangulation.from_simplices(3, [(0, 1, 2, 3)]))


def test_defect_free_four_coloring():
    t = cross_polytope_boundary(3)
    coloring = defect_free_four_coloring(t)
    assert coloring is not None and verify_coloring(t, coloring, 4)

    assert defect_free_four_coloring(simplex_boundary(3)) is None

    sub, _ = barycentric_subdivide(simplex_boundary(3))
    coloring = defect_free_four_coloring(sub)
    assert coloring is not None and verify_coloring(sub, coloring, 4)


def test_even_odd_edge_counts_on_all_3d_suite_inputs():
    sub, _ = barycentric_subdivide(simplex_boundary(3))
    for t in (simplex_boundary(3), cross_polytope_boundary(3), sub):
        defects = defect_graphs(t)
        assert defects.odd_degrees_even
        assert sum(defects.odd_degrees().values()) % 2 == 0


# ---------------------------------------------------------------------------
# pinched input: trivial holonomy but no consistent region coloring


def _pinched_sphere():
    """A sphere subdivision with two far-apart vertices identified: still a
    valid closed pseudomanifold with connected dual graph, but one region's
    star is two cones."""
    sub, coloring = barycentric_subdivide(simplex_boundary(2))
    verts = sub.vertices
    # pick two vertices of different dimension colors with disjoint stars
    def star(v):
        return {s for s in sub.simplices if v in s}

    for a in verts:
        for b in verts:
            if a >= b or coloring[a] == coloring[b]:
                continue
            if any(set(s1) & set(s2) for s1 in star(a) for s2 in star(b)):
                continue
            merged = [
                tuple(sorted(a if v == b else v for v in s)) for s in sub.simplices
            ]
            return Triangulation.from_simplices(2, merged)
    raise AssertionError("no pinchable vertex pair found")


def test_pinched_pseudomanifold_reports_inconsistency():
    t = _pinched_sphere()
    from colorplex import validate

    assert validate(t).passed  # closed and dual-connected, yet not a manifold
    assert hol_generators(t).trivial
    with pytest.raises(ValueError, match="manifold"):
        is_colorable(t)


# ---------------------------------------------------------------------------
# pinched link: a codim-2 face whose cofaces form two cycles


def _icosahedron():
    """Apex 0, upper ring 1-5, lower ring 6-10, apex 11."""
    faces = []
    for k in range(5):
        u, u1 = 1 + k, 1 + (k + 1) % 5
        lo, lo1 = 6 + k, 6 + (k + 1) % 5
        faces += [(0, u, u1), (11, lo, lo1), (u, u1, lo), (u1, lo, lo1)]
    return Triangulation.from_simplices(2, faces)


def test_link_loop_rejects_a_pinched_face():
    ico = _icosahedron()
    assert all(d == 5 for _f, d in face_census(ico).codim2_degrees)
    pinched = Triangulation.from_simplices(
        2, [tuple(0 if v == 11 else v for v in s) for s in ico.simplices]
    )
    assert validate(pinched).passed  # closed and dual-connected
    assert dict(face_census(pinched).codim2_degrees)[(0,)] == 10
    with pytest.raises(ValueError, match="not connected"):
        link_loop_permutation(pinched, (0,))
    for v in range(1, 11):  # the other links are single cycles
        perm, degree = link_loop_permutation(pinched, (v,))
        assert perm.is_identity == (degree % 2 == 0)


# ---------------------------------------------------------------------------
# the positional transport of hol_generators against propagate


def _propagated_holonomy(t, reverse_neighbors):
    """hol_generators rebuilt from the reference ``propagate``: the same
    breadth-first tree over the dual graph, one generator per non-tree edge."""
    neighbours = _dual_neighbours(t)
    for nbs in neighbours:
        nbs.sort(key=lambda nb: t.simplices[nb], reverse=reverse_neighbors)
    parent = [-1] * len(t.simplices)
    colors = [None] * len(t.simplices)
    colors[0] = tuple(range(1, t.dimension + 2))
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nb in neighbours[cur]:
            if colors[nb] is None:
                parent[nb] = cur
                colors[nb] = propagate(t, cur, colors[cur], nb)
                queue.append(nb)
    generators, permutations = [], []
    for a, b in _dual_edges(t):
        if parent[a] == b or parent[b] == a:
            continue
        crossed = propagate(t, a, colors[a], b)
        images = [0] * (t.dimension + 1)
        for c_tree, c_cross in zip(colors[b], crossed):
            images[c_tree - 1] = c_cross
        generators.append((a, b))
        permutations.append(Permutation(tuple(images)))
    return tuple(parent), tuple(colors), tuple(generators), tuple(permutations)


def _examples_and_subdivisions():
    bases = [
        simplex_boundary(2),
        simplex_boundary(3),
        cross_polytope_boundary(2),
        cross_polytope_boundary(3),
        circle(5),
        torus7(),
        rp2_6(),
    ]
    return bases + [barycentric_subdivide(t)[0] for t in bases]


def test_hol_generators_rejects_a_disconnected_dual_graph():
    # the tetrahedron boundary beside a disjoint octahedron boundary
    shifted = [tuple(v + 10 for v in s) for s in cross_polytope_boundary(2).simplices]
    union = Triangulation.from_simplices(2, list(simplex_boundary(2).simplices) + shifted)
    with pytest.raises(ValueError, match="dual graph is disconnected"):
        hol_generators(union)
    with pytest.raises(ValueError, match="dual graph is disconnected"):
        hol_generators(Triangulation.from_simplices(2, []))  # no component at all


# Connected but not closed: the open disk has three facets of degree 1, and
# the branched disk has the facet (1, 2) of degree 3 and one dual cycle;
# the walk skips their unpaired slots.
OPEN_DISK = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]
BRANCHED_DISK = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 2, 5), (2, 4, 5), (3, 4, 5)]


def _closed_tree_inputs():
    rng = random.Random(11)
    bases = [torus7(), rp2_6(), cross_polytope_boundary(2), cross_polytope_boundary(3)]
    return _examples_and_subdivisions() + [stellar_moves(b, rng, rng.randint(1, 4)) for b in bases]


@pytest.mark.parametrize("reverse_neighbors", [False, True])
def test_hol_generators_match_propagate(reverse_neighbors):
    not_closed = [Triangulation.from_simplices(2, s) for s in (OPEN_DISK, BRANCHED_DISK)]
    assert [(validate(t).closed, validate(t).connected) for t in not_closed] == [(False, True)] * 2
    for t in _closed_tree_inputs() + not_closed:
        hol = hol_generators(t, reverse_neighbors=reverse_neighbors)
        parents = tree_parents(t, tree_into(t, reverse_neighbors))
        got = (parents, hol.colors, hol.generators, hol.permutations)
        assert got == _propagated_holonomy(t, reverse_neighbors)


def test_holonomy_tree_is_the_facet_index_tree():
    """The default tree is the index's: the parents read off ``into``, each
    before its children in ``order``, which starts at simplex 0 and lists
    every simplex once."""
    not_closed = [Triangulation.from_simplices(2, s) for s in (OPEN_DISK, BRANCHED_DISK)]
    for t in _closed_tree_inputs() + not_closed:
        index = t.facet_index
        width = t.dimension + 1
        parents = tree_parents(t, index.into)
        assert index.order[0] == 0 and sorted(index.order) == list(range(len(t.simplices)))
        assert all(y // width == b for b, y in enumerate(index.into) if y >= 0)
        position = {b: k for k, b in enumerate(index.order)}
        assert all(position[a] < position[b] for b, a in enumerate(parents) if a >= 0)


def test_one_walk_serves_validation_and_holonomy(monkeypatch):
    """``validate``, ``is_colorable`` and ``holonomy_invariants`` on one
    triangulation walk its dual graph once, when the facet index is built;
    the reverse tree is one more walk by the same routine."""
    tri = importlib.import_module("colorplex.triangulation")
    module = importlib.import_module("colorplex.holonomy")
    walks = []
    walk = tri._breadth_first

    def counting(mates, width, reverse=False):
        walks.append((id(mates), reverse))
        return walk(mates, width, reverse)

    monkeypatch.setattr(tri, "_breadth_first", counting)
    monkeypatch.setattr(module, "_breadth_first", counting)
    inputs = _closed_tree_inputs()
    for t in inputs:
        validate(t)
        is_colorable(t)
        holonomy_invariants(t)
    assert walks == [(id(t.facet_index.mates), False) for t in inputs]
    walks.clear()
    for t in inputs:
        hol_generators(t, reverse_neighbors=True)
    assert walks == [(id(t.facet_index.mates), True) for t in inputs]


def _holding(t, hol):
    """A fresh copy of ``t`` that holds ``hol`` as its holonomy."""
    copy = Triangulation(t.dimension, t.simplices)
    vars(copy)["holonomy"] = hol
    return copy


def test_invariants_over_distinct_generators_match_full_closure():
    """``trivial`` and ``holonomy_invariants`` against a per-generator scan,
    on colorable, obstructed and non-orientable (``rp2_6`` subdivided)
    inputs, over both trees, and with a fresh ``Permutation`` object per
    generator: the readers' dedupe by identity is only a speed-up."""
    rng = random.Random(9)
    bases = [torus7(), rp2_6(), cross_polytope_boundary(2), cross_polytope_boundary(3)]
    obstructed = [stellar_moves(b, rng, rng.randint(1, 4)) for b in bases for _ in range(3)]
    seen = set()
    for t in _examples_and_subdivisions() + obstructed:
        degree = t.dimension + 1
        for reverse_neighbors in (False, True):
            hol = hol_generators(t, reverse_neighbors=reverse_neighbors)
            perms = hol.permutations
            expected = {
                "degree": degree,
                "generator_count": len(hol.generators),
                "cycle_types": tuple(p.cycle_type() for p in perms),
                "cycle_strings": tuple(p.cycle_string() for p in perms),
                "image_order": subgroup_closure(perms, degree=degree)[0],
                "trivial": all(p.is_identity for p in perms),
            }
            fresh = dataclasses.replace(
                hol, permutations=tuple(Permutation(p.images) for p in perms)
            )
            for held in (hol, fresh):
                assert held.trivial == expected["trivial"]
                assert holonomy_invariants(_holding(t, held)) == expected
            seen.add(hol.trivial)
    assert seen == {False, True}


def test_holonomy_image_does_not_depend_on_the_tree():
    rng = random.Random(3)
    bases = [torus7(), rp2_6(), cross_polytope_boundary(2), cross_polytope_boundary(3)]
    inputs = [stellar_moves(b, rng, rng.randint(2, 5)) for b in bases for _ in range(10)]
    types_differ = 0
    for t in inputs:
        degree = t.dimension + 1
        default = hol_generators(t).permutations
        other = hol_generators(t, reverse_neighbors=True).permutations
        assert subgroup_closure(default, degree=degree) == subgroup_closure(other, degree=degree)
        types_differ += sorted(p.cycle_type() for p in default) != sorted(
            p.cycle_type() for p in other
        )
    # the generators' cycle types are the tree's, as the docstring says
    assert types_differ > 0


def test_hol_generators_intern_labelings_and_permutations():
    rng = random.Random(5)
    bases = [torus7(), cross_polytope_boundary(3), simplex_boundary(4)]
    for t in bases + [stellar_moves(b, rng, 2) for b in bases]:
        hol = hol_generators(t)
        assert len({id(c) for c in hol.colors}) <= math.factorial(t.dimension + 1)
        assert len({id(p) for p in hol.permutations}) == len(set(hol.permutations))


# ---------------------------------------------------------------------------
# the holonomy data is held by its triangulation


def test_one_holonomy_per_input(monkeypatch):
    module = importlib.import_module("colorplex.holonomy")
    calls = []
    original = module.hol_generators

    def counting(t, **kwargs):
        calls.append(t)
        return original(t, **kwargs)

    monkeypatch.setattr(module, "hol_generators", counting)
    inputs = _examples_and_subdivisions() + [cross_polytope_boundary(3)]
    for t in inputs:
        is_colorable(t)
        holonomy_invariants(t)
        if t.dimension == 3:
            defect_free_four_coloring(t)
        is_colorable(t)
    assert list(map(id, calls)) == list(map(id, inputs))


# ---------------------------------------------------------------------------
# the readers work per distinct permutation


def test_readers_check_each_distinct_permutation_once(monkeypatch):
    t = barycentric_subdivide(cross_polytope_boundary(3))[0]
    checks = []
    is_identity = Permutation.is_identity.fget
    monkeypatch.setattr(
        Permutation, "is_identity", property(lambda p: checks.append(p) or is_identity(p))
    )
    assert is_colorable(t) is not None
    assert holonomy_invariants(t)["trivial"]
    assert len(t.holonomy.generators) == 385
    # a per-generator scan would check each of the 385 generators
    assert 0 < len(checks) <= math.factorial(t.dimension + 1)
