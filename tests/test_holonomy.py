import importlib
import itertools
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorplex import (
    Permutation,
    SimplexLabeling,
    barycentric_subdivide,
    base_labeling,
    brute_force_colorable,
    defect_free_four_coloring,
    dual_graph,
    defect_graphs,
    face_census,
    hol_generators,
    holonomy_invariants,
    is_colorable,
    is_locally_colorable,
    link_loop_permutation,
    path_permutation,
    propagate,
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
from colorplex.perms import compose, subgroup_closure
from colorplex.triangulation import Triangulation


def _sid(t, verts):
    return t.simplices.index(tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# propagation


def test_propagate_forces_the_missing_color():
    t = simplex_boundary(2)  # simplices on vertices 0..3
    lab = SimplexLabeling(_sid(t, (0, 1, 2)), (1, 2, 3))
    out = propagate(t, lab, _sid(t, (0, 1, 3)))
    # facet {0,1} keeps colors 1,2; vertex 3 is forced to 3
    assert out.as_mapping(t) == {0: 1, 1: 2, 3: 3}


def test_propagate_loop_transposes_two_colors():
    # hand propagation: (012)->(013)->(023)->(012) swaps the colors of
    # vertices 1 and 2
    t = simplex_boundary(2)
    lab = SimplexLabeling(_sid(t, (0, 1, 2)), (1, 2, 3))
    lab = propagate(t, lab, _sid(t, (0, 1, 3)))
    assert lab.as_mapping(t) == {0: 1, 1: 2, 3: 3}
    lab = propagate(t, lab, _sid(t, (0, 2, 3)))
    assert lab.as_mapping(t) == {0: 1, 2: 2, 3: 3}
    lab = propagate(t, lab, _sid(t, (0, 1, 2)))
    assert lab.as_mapping(t) == {0: 1, 1: 3, 2: 2}


def test_propagate_is_an_involution():
    rng = random.Random(3)
    t = cross_polytope_boundary(3)
    from colorplex.triangulation import dual_graph

    adjacency = dual_graph(t).adjacency()
    for _ in range(30):
        sid = rng.randrange(len(t.simplices))
        colors = list(range(1, 5))
        rng.shuffle(colors)
        lab = SimplexLabeling(sid, tuple(colors))
        nb, _facet = rng.choice(adjacency[sid])
        there = propagate(t, lab, nb)
        back = propagate(t, there, sid)
        assert back == lab


def test_propagate_rejects_non_adjacent_target():
    t = cross_polytope_boundary(2)
    lab = base_labeling(t, 0)
    # opposite simplex shares no facet with simplex 0
    opposite = _sid(t, tuple(v ^ 1 for v in t.simplices[0]))
    with pytest.raises(ValueError, match="facet"):
        propagate(t, lab, opposite)


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
    for t in (simplex_boundary(2), simplex_boundary(3), torus7(), rp2_6()):
        hol = hol_generators(t)
        for k, perm in enumerate(hol.permutations):
            assert path_permutation(t, hol.generator_loop(k)) == perm


def test_concatenated_loops_compose():
    for t in (simplex_boundary(2), torus7(), rp2_6()):
        hol = hol_generators(t)
        loops = [hol.generator_loop(k) for k in range(len(hol.generators))]
        for a in range(len(loops)):
            for b in range(len(loops)):
                joined = loops[a] + loops[b]
                expected = compose(hol.permutations[a], hol.permutations[b])
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
    open_disk = Triangulation.from_simplices(2, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    with pytest.raises(ValueError, match="which two simplices do not share"):
        link_loop_permutation(open_disk, (2,))


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
    dg = dual_graph(t)
    adjacency = dg.adjacency()
    for sid in adjacency:
        adjacency[sid].sort(key=lambda nb: t.simplices[nb[0]], reverse=reverse_neighbors)
    parent = [-1] * len(t.simplices)
    labelings = [None] * len(t.simplices)  # labelings[k].simplex == k
    labelings[0] = base_labeling(t, 0)
    queue = deque([0])
    while queue:
        cur = queue.popleft()
        for nb, _facet in adjacency[cur]:
            if labelings[nb] is None:
                parent[nb] = cur
                labelings[nb] = propagate(t, labelings[cur], nb)
                queue.append(nb)
    generators, permutations = [], []
    for a, b, _facet in dg.edges:
        if parent[a] == b or parent[b] == a:
            continue
        crossed = propagate(t, labelings[a], b)
        images = [0] * (t.dimension + 1)
        for c_tree, c_cross in zip(labelings[b].colors, crossed.colors):
            images[c_tree - 1] = c_cross
        generators.append((a, b))
        permutations.append(Permutation(tuple(images)))
    colors = tuple(lab.colors for lab in labelings)
    return tuple(parent), colors, tuple(generators), tuple(permutations)


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


@pytest.mark.parametrize("reverse_neighbors", [False, True])
def test_hol_generators_match_propagate(reverse_neighbors):
    for t in _examples_and_subdivisions():
        hol = hol_generators(t, reverse_neighbors=reverse_neighbors)
        got = (hol.parent, hol.colors, hol.generators, hol.permutations)
        assert got == _propagated_holonomy(t, reverse_neighbors)


def test_invariants_over_distinct_generators_match_full_closure():
    for t in _examples_and_subdivisions():
        inv = holonomy_invariants(t)
        perms = hol_generators(t).permutations
        assert inv["image_order"] == subgroup_closure(perms, degree=t.dimension + 1)[0]
        assert inv["cycle_types"] == tuple(p.cycle_type() for p in perms)
        assert inv["cycle_strings"] == tuple(p.cycle_string() for p in perms)
        assert inv["trivial"] == all(p.is_identity for p in perms)


def _stellar_moves(t, rng, moves):
    """``moves`` stellar subdivisions of seeded top simplices: each replaces
    a simplex by the cone from a new vertex over its boundary, which makes
    the faces of that simplex odd-degree."""
    for _ in range(moves):
        s = t.simplices[rng.randrange(len(t.simplices))]
        apex = max(t.vertices) + 1
        cone = [s[:i] + (apex,) + s[i + 1 :] for i in range(len(s))]
        t = Triangulation.from_simplices(
            t.dimension, [x for x in t.simplices if x != s] + cone
        )
    return t


def test_holonomy_image_does_not_depend_on_the_tree():
    rng = random.Random(3)
    bases = [torus7(), rp2_6(), cross_polytope_boundary(2), cross_polytope_boundary(3)]
    inputs = [_stellar_moves(b, rng, rng.randint(2, 5)) for b in bases for _ in range(10)]
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
