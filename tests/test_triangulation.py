import gc
import itertools
import random
import sys
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colorplex import (
    BudgetError,
    FormatError,
    Triangulation,
    barycentric_subdivide,
    defect_graphs,
    dual_graph,
    euler_characteristic,
    face_census,
    gem_from_coloring,
    gem_report,
    hol_generators,
    holonomy_invariants,
    homology,
    is_colorable,
    is_even_cyclic,
    is_locally_colorable,
    link_loop_permutation,
    orientability,
    parse_triangulation,
    rp2_6,
    simplex_boundary,
    torus7,
    triangulation_to_text,
    validate,
)
from colorplex.builders import circle, cross_polytope_boundary
from colorplex.homology import _boundary_rows, _signed_rows, smith_invariant_factors
from colorplex.oracles import SUITE_NAMES, random_gem, run_suite, seeded_refinements
from colorplex import triangulation as tri
from dual_forest import signed_union_find, stellar_moves, tree_slots
from face_sets import set_faces
from reference_transport import generator_loop

TETRA_TEXT = """\
# boundary of the 3-simplex
dim 2
1 2 3
1 2 4
1 3 4
2 3 4
"""


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
    return bases + [barycentric_subdivide(b)[0] for b in bases]


def test_parse_tetrahedron_boundary():
    t = parse_triangulation(TETRA_TEXT)
    assert t.dimension == 2
    assert len(t.vertices) == 4
    assert len(t.simplices) == 4


def test_parse_circle_file():
    t = parse_triangulation("dim 1\n1 2\n2 3\n3 1\n")
    assert t.dimension == 1
    assert t.simplices == ((1, 2), (1, 3), (2, 3))


def test_parse_repeated_vertex_reports_line():
    with pytest.raises(FormatError) as err:
        parse_triangulation("dim 2\n1 2 2\n")
    assert err.value.line == 2


def test_parse_arity_mismatch():
    with pytest.raises(FormatError, match="expected 3"):
        parse_triangulation("dim 2\n1 2\n")


def test_parse_duplicate_simplex():
    with pytest.raises(FormatError, match="duplicate"):
        parse_triangulation("dim 1\n1 2\n2 1\n")


@pytest.mark.parametrize(
    "verts, fault",
    [
        ((1, 2), "simplex has 2 vertices, expected 3"),
        ((1, 2, 2), "repeated vertex within a simplex"),
        ((1, -2, 3), "negative vertex id"),
    ],
)
def test_parser_and_from_simplices_share_the_simplex_rule(verts, fault):
    text = "dim 2\n0 1 2\n" + " ".join(map(str, verts)) + "\n"
    with pytest.raises(FormatError) as err:
        parse_triangulation(text)
    assert err.value.line == 3
    assert str(err.value) == f"line 3: {fault}"
    with pytest.raises(ValueError) as err:
        Triangulation.from_simplices(2, [(0, 1, 2), verts])
    assert str(err.value) == f"{fault}: {tuple(sorted(verts))}"


def test_parse_missing_header():
    with pytest.raises(FormatError, match="dim"):
        parse_triangulation("1 2 3\n")


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("dim x\n0 1\n", "bad dimension 'x'", 1),
        ("# a 0-complex\ndim 0\n0\n", "dimension must be >= 1, got 0", 2),
        ("# no content\n\n", "missing 'dim <n>' header", None),
        ("dim 2\n# no simplices\n", "no simplices listed", None),
    ],
)
def test_parse_header_faults(text, message, line):
    with pytest.raises(FormatError) as err:
        parse_triangulation(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_from_simplices_rejects_a_low_dimension_and_a_duplicate():
    with pytest.raises(ValueError) as err:
        Triangulation.from_simplices(0, [(0,)])
    assert str(err.value) == "dimension must be >= 1, got 0"
    with pytest.raises(ValueError) as err:
        Triangulation.from_simplices(1, [(1, 2), (2, 3), (2, 1)])
    assert str(err.value) == "duplicate simplex (1, 2)"


def test_parse_non_integer():
    with pytest.raises(FormatError) as err:
        parse_triangulation("dim 1\n1 x\n")
    assert err.value.line == 2


def test_parse_holds_one_int_object_per_vertex_id():
    # ids from 1000 up are past the small-int cache, so a parse that called
    # int() on every token would hold one object per occurrence
    t = barycentric_subdivide(cross_polytope_boundary(3))[0]
    shifted = tuple(tuple(v + 1000 for v in s) for s in t.simplices)
    parsed = parse_triangulation(triangulation_to_text(Triangulation(3, shifted)))
    assert parsed.simplices == shifted
    assert len({id(v) for s in parsed.simplices for v in s}) == len(parsed.vertices)


def _spelled(draw, value):
    """``value`` as a token with an optional '+' and leading zeros, so that
    tokens which differ as text can have one value."""
    return draw(st.sampled_from(["", "+"])) + "0" * draw(st.integers(0, 2)) + str(value)


@st.composite
def _spelled_simplex_lines(draw):
    """The dimension and the token lists of a triangulation text's simplex
    lines, whose ids, some past the small-int cache, recur across lines
    under different spellings."""
    dimension = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(0, 10**6), min_size=dimension + 1, max_size=10,
                         unique=True))
    simplices = draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=dimension + 1, max_size=dimension + 1,
                 unique=True),
        min_size=2, max_size=16, unique_by=frozenset,
    ))
    return dimension, [[_spelled(draw, v) for v in s] for s in simplices]


def _spelled_text(dimension, lines):
    """The text of ``lines`` after a comment and the header, so that the
    simplex line k is text line k + 3."""
    return f"# spelled ids\ndim {dimension}\n" + "".join(" ".join(l) + "\n" for l in lines)


@settings(max_examples=200, deadline=None)
@given(_spelled_simplex_lines(), st.data())
def test_parse_matches_int_on_every_token(case, data):
    dimension, lines = case
    t = parse_triangulation(_spelled_text(dimension, lines))
    assert t.simplices == tuple(sorted(tuple(sorted(int(tok) for tok in l)) for l in lines))
    assert len({id(v) for s in t.simplices for v in s}) == len(t.vertices)
    # a bad token on two lines is reported, with its line, where it first
    # occurs, as a parse calling int() on each token reports it
    first, second = sorted(data.draw(st.lists(st.sampled_from(range(len(lines))),
                                              min_size=2, max_size=2, unique=True)))
    bad = data.draw(st.sampled_from(["x", "1.5", "0x1f", "--1", "1e3", "+-2"]))
    for k in (first, second):
        lines[k][data.draw(st.integers(0, dimension))] = bad
    with pytest.raises(FormatError) as err:
        parse_triangulation(_spelled_text(dimension, lines))
    line = " ".join(lines[first])
    assert err.value.line == first + 3
    assert str(err.value) == f"line {first + 3}: non-integer vertex id in {line!r}"


def test_serialise_round_trip():
    t = parse_triangulation(TETRA_TEXT)
    assert parse_triangulation(triangulation_to_text(t)) == t


OPEN_DISK = [(1, 2, 3), (1, 2, 4), (1, 3, 4)]  # three facets of degree 1
BRANCHING = [(1, 2, 3), (1, 2, 4), (1, 2, 5)]  # the facet (1, 2) of degree 3
TWO_SPHERES = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
               (5, 6, 7), (5, 6, 8), (5, 7, 8), (6, 7, 8)]
# the suspension of the theta graph: the edges from its branch vertices 0
# and 1 to the apexes 5 and 6 lie in three triangles
THETA_SUSPENSION = [e + (v,) for e in ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4))
                    for v in (5, 6)]
# the barycentric 2-sphere with two far-apart vertices identified (as vertex
# 0): closed and dual-connected, but vertex 0's star is two cones
PINCHED_SPHERE = [
    (0, 1, 7), (0, 1, 8), (0, 2, 7), (0, 2, 9), (0, 3, 8), (0, 3, 9), (0, 4, 10), (0, 4, 11),
    (0, 5, 10), (0, 5, 12), (0, 6, 11), (0, 6, 12), (1, 4, 10), (1, 4, 11), (1, 7, 10),
    (1, 8, 11), (2, 5, 10), (2, 5, 12), (2, 7, 10), (2, 9, 12), (3, 6, 11), (3, 6, 12),
    (3, 8, 11), (3, 9, 12),
]
BOOK = [(1, 2, v) for v in range(3, 8)]  # five pages: the facet (1, 2) of degree 5


def _slot_inputs():
    return _examples_and_subdivisions() + [
        Triangulation.from_simplices(2, simplices)
        for simplices in (OPEN_DISK, BRANCHING, THETA_SUSPENSION, BOOK, TWO_SPHERES)
    ]


def test_facet_index_pairs_each_shared_facet_once():
    for t in _slot_inputs():
        width = t.dimension + 1
        mates = t.facet_index.mates
        assert len(mates) == len(t.simplices) * width
        paired = [x for x, y in enumerate(mates) if y >= 0]
        assert all(y == -1 for y in mates if y < 0)
        # an involution without fixed points on the paired slots
        assert all(mates[mates[x]] == x != mates[x] for x in paired)
        cofaces = {}
        for sid, s in enumerate(t.simplices):
            for i in range(width):
                cofaces.setdefault(s[:i] + s[i + 1 :], []).append(sid * width + i)
        shared = sorted(tuple(slots) for slots in cofaces.values() if len(slots) == 2)
        assert sorted((x, mates[x]) for x in paired if x < mates[x]) == shared


def test_facet_index_bad_faces_match_a_facet_count():
    for t in _slot_inputs():
        degrees = Counter(
            s[:i] + s[i + 1 :] for s in t.simplices for i in range(t.dimension + 1)
        )
        expected = tuple(sorted((f, d) for f, d in degrees.items() if d != 2))
        assert t.facet_index.bad_faces == validate(t).bad_faces == expected


_FOREST_BASES = {
    1: [circle(5), circle(6)],
    2: [simplex_boundary(2), cross_polytope_boundary(2), torus7(), rp2_6()],
    3: [simplex_boundary(3), cross_polytope_boundary(3)],
}
for _bases in _FOREST_BASES.values():
    _bases += [barycentric_subdivide(b)[0] for b in _bases]


@st.composite
def _forest_inputs(draw):
    """Disjoint unions of 1 to 3 builder outputs or their subdivisions, each
    after 0-3 seeded stellar moves, with 0-2 simplices dropped (boundary
    facets) and 0-2 cones added on a facet (branching facets), and its
    vertex ids shuffled, which reorders its simplices."""
    n = draw(st.sampled_from(sorted(_FOREST_BASES)))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    simplices = []
    offset = 0
    for base in draw(st.lists(st.sampled_from(_FOREST_BASES[n]), min_size=1, max_size=3)):
        part = list(stellar_moves(base, rng, draw(st.integers(0, 3))).simplices)
        for _ in range(draw(st.integers(0, 2))):
            if len(part) > 1:
                part.pop(rng.randrange(len(part)))
        for _ in range(draw(st.integers(0, 2))):
            s = rng.choice(part)
            i = rng.randrange(n + 1)
            part.append(s[:i] + s[i + 1 :] + (max(map(max, part)) + 1,))
        ids = sorted(set(itertools.chain.from_iterable(part)))
        relabel = dict(zip(ids, rng.sample(range(offset, offset + len(ids)), len(ids))))
        simplices += [tuple(map(relabel.__getitem__, s)) for s in part]
        offset += len(ids)
    return Triangulation.from_simplices(n, simplices)


@settings(max_examples=200, deadline=None)
@given(_forest_inputs())
def test_facet_index_forest_matches_a_signed_union_find(t):
    """The index's breadth-first forest against a union-find over the same
    paired slots (tests/dual_forest.py): the same components, each with the
    same unbalanced bits, trees rooted at their least simplex, N - c tree
    edges, each named by its smaller slot and joining two trees of a fresh
    union-find, and the bad facets of a facet count."""
    index = t.facet_index
    expected = signed_union_find(t)
    trees = []
    for b in index.order:  # the walk's trees, split at their roots
        if index.into[b] < 0:
            trees.append(set())
        trees[-1].add(b)
    assert sorted(index.odd) == sorted(bits for _nodes, bits in expected.values())
    by_least = {min(nodes): (nodes, bits) for nodes, bits in expected.values()}
    assert [by_least[min(nodes)] for nodes in trees] == list(zip(trees, index.odd))
    assert [min(nodes) for nodes in trees] == sorted(by_least)
    tree = tree_slots(t)
    assert len(tree) == len(t.simplices) - len(expected)
    assert tree == sorted(set(tree)) and all(x < index.mates[x] for x in tree)
    width = t.dimension + 1
    root = list(range(len(t.simplices)))
    for x in tree:
        a, b = x // width, index.mates[x] // width
        while root[a] != a:
            a = root[a]
        while root[b] != b:
            b = root[b]
        assert a != b
        root[b] = a
    degrees = Counter(s[:i] + s[i + 1 :] for s in t.simplices for i in range(width))
    report = validate(t)
    assert index.bad_faces == report.bad_faces
    assert report.bad_faces == tuple(sorted((f, d) for f, d in degrees.items() if d != 2))
    assert report.closed == all(d == 2 for d in degrees.values())
    assert report.components == len(expected)
    assert is_even_cyclic(t) == (not any(bits & 1 for _nodes, bits in expected.values()))
    assert orientability(t) == (not any(bits & 2 for _nodes, bits in expected.values()))


def test_validate_sphere_passes():
    report = validate(parse_triangulation(TETRA_TEXT))
    assert report.passed
    assert report.bad_faces == ()
    assert report.components == 1


def test_validate_open_disk_fails():
    # delete one triangle from the tetrahedron boundary: three edges of
    # degree 1 remain
    t = Triangulation.from_simplices(2, OPEN_DISK)
    report = validate(t)
    assert not report.passed
    assert not report.closed
    degree_one = [f for f, d in report.bad_faces if d == 1]
    assert len(degree_one) == 3


def test_validate_lists_a_branching_facet():
    t = Triangulation.from_simplices(2, BRANCHING)
    report = validate(t)
    assert not report.closed
    assert report.bad_faces == (
        ((1, 2), 3),
        ((1, 3), 1),
        ((1, 4), 1),
        ((1, 5), 1),
        ((2, 3), 1),
        ((2, 4), 1),
        ((2, 5), 1),
    )


def test_validate_disjoint_union_fails():
    report = validate(Triangulation.from_simplices(2, TWO_SPHERES))
    assert report.closed
    assert not report.connected
    assert report.components == 2


def test_census_tetrahedron_vertex_degrees():
    census = face_census(simplex_boundary(2))
    assert census.counts == (4, 6, 4)
    assert all(d == 3 for _f, d in census.codim2_degrees)
    assert len(census.odd_faces) == 4


def test_census_octahedron_vertex_degrees():
    census = face_census(cross_polytope_boundary(2))
    assert census.counts == (6, 12, 8)
    assert all(d == 4 for _f, d in census.codim2_degrees)
    assert census.odd_faces == ()


def test_census_4simplex_edge_degrees():
    # each edge of the 4-simplex boundary lies in C(3,1)... in the 3 tetrahedra
    # choosing 2 of the remaining 3 vertices
    census = face_census(simplex_boundary(3))
    assert census.counts == (5, 10, 10, 5)
    assert all(d == 3 for _f, d in census.codim2_degrees)
    assert len(census.codim2_degrees) == 10


def test_census_circle_has_no_codim2_faces():
    census = face_census(circle(5))
    assert census.counts == (5, 5)
    assert census.codim2_degrees == ()


def test_census_matches_the_face_lattice_and_a_coface_count():
    inputs = _examples_and_subdivisions() + [
        Triangulation.from_simplices(2, simplices)
        for simplices in (OPEN_DISK, BRANCHING, TWO_SPHERES)
    ]
    for t in inputs:
        census = face_census(t)
        assert census.counts == tuple(len(set_faces(t, k)) for k in range(t.dimension + 1))
        codim2 = set_faces(t, t.dimension - 2) if t.dimension >= 2 else ()
        cofaces = tuple(
            (f, sum(set(f) <= set(s) for s in t.simplices)) for f in codim2
        )
        assert census.codim2_degrees == cofaces


def test_census_leaves_the_face_lattice_unbuilt(monkeypatch):
    """The census enumerates the faces below codimension 2 only: it counts
    the codim-2 faces with their degrees and the facets off the facet
    index."""
    asked = []
    enumerate_faces = tri._faces
    monkeypatch.setattr(tri, "_faces", lambda t, k: asked.append(k) or enumerate_faces(t, k))
    t = cross_polytope_boundary(4)
    assert face_census(t).counts == (10, 40, 80, 80, 32)
    assert asked == [0, 1]
    assert set(vars(t)) == {"dimension", "simplices", "facet_index", "census"}


def test_incidence_count_is_twice_facet_count():
    for t in (simplex_boundary(2), simplex_boundary(3), torus7(), rp2_6()):
        census = face_census(t)
        incidences = len(t.simplices) * (t.dimension + 1)
        assert incidences == 2 * census.counts[t.dimension - 1]


def test_dual_graph_of_tetrahedron_is_k4():
    dg = dual_graph(simplex_boundary(2))
    assert dg.node_count == 4
    assert len(dg.edges) == 6
    assert dg.degrees() == (3, 3, 3, 3)


def test_dual_graph_of_4simplex_is_k5():
    dg = dual_graph(simplex_boundary(3))
    assert dg.node_count == 5
    assert len(dg.edges) == 10
    assert set(dg.degrees()) == {4}


def test_dual_graph_of_triangle_circle():
    dg = dual_graph(circle(3))
    assert dg.node_count == 3
    assert len(dg.edges) == 3
    assert dg.degrees() == (2, 2, 2)


def test_dual_graph_regularity_and_distinct_labels():
    for t in (cross_polytope_boundary(3), torus7(), rp2_6()):
        dg = dual_graph(t)
        assert set(dg.degrees()) == {t.dimension + 1}
        labels = [facet for _a, _b, facet in dg.edges]
        assert len(labels) == len(set(labels))


def test_dual_graph_edges_match_a_facet_enumeration():
    for t in _examples_and_subdivisions():
        cofaces = {}
        for sid, s in enumerate(t.simplices):
            for facet in itertools.combinations(s, t.dimension):
                cofaces.setdefault(facet, []).append(sid)
        expected = sorted(
            (sids[0], sids[1], facet) for facet, sids in cofaces.items() if len(sids) == 2
        )
        assert list(dual_graph(t).edges) == expected


def test_orientability_textbook_values():
    assert orientability(torus7())
    assert not orientability(rp2_6())
    for n in (1, 2, 3, 4):
        assert orientability(simplex_boundary(n))
    assert orientability(cross_polytope_boundary(3))


def _disjoint_union(first, second, shift=10):
    simplices = list(first.simplices)
    simplices += [tuple(v + shift for v in s) for s in second.simplices]
    return Triangulation.from_simplices(first.dimension, simplices)


def test_orientability_checks_every_component():
    # whichever component holds simplex 0, the projective plane is found
    assert not orientability(_disjoint_union(torus7(), rp2_6()))
    assert not orientability(_disjoint_union(rp2_6(), torus7()))
    assert orientability(_disjoint_union(torus7(), torus7()))


def _has_odd_closed_walk(dg):
    """Independent bipartiteness oracle: trace of odd adjacency powers."""
    n = dg.node_count
    adj = [[0] * n for _ in range(n)]
    for a, b, _f in dg.edges:
        adj[a][b] = adj[b][a] = 1
    power = [row[:] for row in adj]
    for length in range(1, n + 1):
        if length % 2 == 1 and any(power[i][i] for i in range(n)):
            return True
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return False


def _unions_both_orders():
    pairs = [
        (torus7(), rp2_6()),
        (rp2_6(), rp2_6()),
        (simplex_boundary(2), cross_polytope_boundary(2)),
    ]
    return [_disjoint_union(a, b) for a, b in pairs] + [
        _disjoint_union(b, a) for a, b in pairs
    ]


def test_even_cyclic_matches_odd_walk_oracle():
    inputs = [simplex_boundary(2), cross_polytope_boundary(2), torus7(), circle(4), circle(5)]
    for t in inputs + _unions_both_orders():
        assert is_even_cyclic(t) == (not _has_odd_closed_walk(dual_graph(t)))


def test_orientability_matches_top_homology():
    # per dual component of a closed pseudomanifold, the full top boundary
    # matrix has invariant factors all 1 when the component is orientable
    # and all 1 plus one 2 when it is not; an elimination of every
    # simplex's row shares no code with the signed forest, which decides
    # both orientability and homology's H_n
    for t in _examples_and_subdivisions() + _unions_both_orders():
        facet_ids = {f: i for i, f in enumerate(set_faces(t, t.dimension - 1))}
        factors = smith_invariant_factors(_signed_rows(_boundary_rows(t.simplices, facet_ids)))
        assert set(factors) <= {1, 2}
        assert orientability(t) == (2 not in factors)
        assert homology(t).betti[t.dimension] == len(t.simplices) - len(factors)


def test_generator_loops_decide_orientability_and_even_cycles():
    # sign(Hol(g)) = (-1)^|g| w(g) on a dual loop g of |g| edges with
    # orientation character w(g), and the generator loops span the cycles of
    # a connected dual graph; the transport shares no code with the forest
    inputs = _examples_and_subdivisions() + [t for _name, t in seeded_refinements(7)]
    for t in inputs:
        data = hol_generators(t)
        into = t.facet_index.into
        lengths = [len(generator_loop(t, g, into)) - 1 for g in data.generators]
        signs = [(-1) ** (p.degree - len(p.cycle_type())) for p in data.permutations]
        assert is_even_cyclic(t) == all(length % 2 == 0 for length in lengths)
        assert orientability(t) == all(
            sign == (-1) ** length for sign, length in zip(signs, lengths)
        )


def test_even_cyclic_values():
    assert not is_even_cyclic(simplex_boundary(2))  # dual K4 has triangles
    assert is_even_cyclic(cross_polytope_boundary(2))  # dual is the cube
    assert is_even_cyclic(torus7())


def test_euler_characteristic_values():
    assert euler_characteristic(simplex_boundary(2)) == 2
    assert euler_characteristic(torus7()) == 0  # 7 - 21 + 14
    assert euler_characteristic(rp2_6()) == 1  # 6 - 15 + 10


# ---------------------------------------------------------------------------
# the face lattice


def test_face_lattice_matches_a_set_enumeration():
    inputs = _examples_and_subdivisions() + [
        Triangulation.from_simplices(2, simplices)
        for simplices in (OPEN_DISK, BRANCHING, TWO_SPHERES, THETA_SUSPENSION, PINCHED_SPHERE)
    ]
    for t in inputs:
        for k in range(t.dimension + 1):
            assert tri._faces(t, k) == set_faces(t, k)


def test_vertex_faces_are_sorted_whatever_the_set_order():
    # ids 0, 9, ..., 54 come out of a set of ints in table order, not ascending
    t = Triangulation.from_simplices(2, [[9 * v for v in s] for s in torus7().simplices])
    ids = set(itertools.chain.from_iterable(t.simplices))
    assert list(ids) != sorted(ids)
    assert tri._faces(t, 0) == set_faces(t, 0) == [(v,) for v in sorted(ids)]


def _subdivision_by_sorted_prefixes(t):
    """The maximal chains of faces, each read off one permutation of a
    simplex's vertices by sorting its prefixes; face ids by (dimension,
    face)."""
    sub_faces = {
        f for s in t.simplices for k in range(1, len(s) + 1) for f in itertools.combinations(s, k)
    }
    faces = sorted(sub_faces, key=lambda f: (len(f), f))
    face_id = {f: i for i, f in enumerate(faces)}
    chains = [
        tuple(face_id[tuple(sorted(order[:k]))] for k in range(1, len(order) + 1))
        for s in t.simplices
        for order in itertools.permutations(s)
    ]
    return tuple(sorted(chains)), {i: len(f) for i, f in enumerate(faces)}


def test_subdivision_chains_match_sorted_prefixes():
    inputs = _examples_and_subdivisions() + [simplex_boundary(4), cross_polytope_boundary(4)]
    assert {t.dimension for t in inputs} == {1, 2, 3, 4}
    for t in inputs:
        sub, coloring = barycentric_subdivide(t)
        assert (sub.simplices, coloring) == _subdivision_by_sorted_prefixes(t)


def _count_builds(monkeypatch, module, name):
    """Record the input of every call to ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counting(t, **kwargs):
        calls.append(t)
        return original(t, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_census_readers_share_one_census(monkeypatch):
    censuses = _count_builds(monkeypatch, tri, "_census")
    inputs = [cross_polytope_boundary(3), cross_polytope_boundary(3), simplex_boundary(3)]
    for t in inputs:
        face_census(t)
        euler_characteristic(t)
        is_locally_colorable(t)
        defect_graphs(t)
        face_census(t)
    # one build per object, also for two equal objects
    assert [id(t) for t in censuses] == list(map(id, inputs))


def test_homology_and_subdivision_hold_nothing_but_the_facet_index():
    inputs = _examples_and_subdivisions() + [
        Triangulation.from_simplices(2, simplices) for simplices in (OPEN_DISK, THETA_SUSPENSION)
    ]
    for t in inputs:
        homology(t)
        barycentric_subdivide(t)
        # beside the two fields; a 1-complex's homology is a graph rank,
        # read without the index
        held = {"facet_index"} if t.dimension >= 2 else set()
        assert set(vars(t)) == {"dimension", "simplices"} | held


def test_dual_graph_readers_share_one_facet_index(monkeypatch):
    builds = _count_builds(monkeypatch, tri, "_facet_index")
    stars = _count_builds(monkeypatch, tri, "_stars")
    inputs = [cross_polytope_boundary(3), cross_polytope_boundary(3), torus7()]
    for t in inputs:
        homology(t)
        validate(t)
        is_even_cyclic(t)
        orientability(t)
        dual_graph(t)
        hol_generators(t, reverse_neighbors=True)
        assert "stars" not in vars(t)
        for face, _degree in face_census(t).codim2_degrees[:3]:
            link_loop_permutation(t, face)
        witness = is_colorable(t)
        if t.dimension == 3:
            gem_from_coloring(t, witness)
    # one build per object, also for two equal objects
    assert [id(t) for t in builds] == [id(t) for t in stars] == list(map(id, inputs))


def test_oracle_suites_build_one_facet_index_per_object(monkeypatch):
    builds = _count_builds(monkeypatch, tri, "_facet_index")
    for suite in SUITE_NAMES:
        assert run_suite(suite, seed=7)["passed"]
    # the list keeps every input alive, so distinct objects have distinct ids
    assert len({id(t) for t in builds}) == len(builds) == 34


def test_derived_data_is_freed_with_its_triangulation():
    t = cross_polytope_boundary(3)
    validate(t)
    face_census(t)
    held = [t, t.facet_index, t.census, t.holonomy]
    refs = [weakref.ref(obj) for obj in held]
    # a dict takes no weak reference; the triangulation holds the only other
    # reference to its stars
    stars = t.stars
    count = sys.getrefcount(stars)
    del t, held
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert sys.getrefcount(stars) == count - 1


def test_derived_data_is_not_compared_or_hashed():
    built, fresh = torus7(), torus7()
    face_census(built)
    assert built == fresh and hash(built) == hash(fresh)
    assert "census" in vars(built) and "census" not in vars(fresh)


# ---------------------------------------------------------------------------
# the face budget


def test_face_budget_admits_its_bound_and_refuses_past_it():
    tri._check_face_budget(3, tri.FACE_BUDGET // 15)
    tri._check_face_budget(23, 1)  # 2^24 - 1 faces
    with pytest.raises(BudgetError, match="face budget"):
        tri._check_face_budget(3, tri.FACE_BUDGET // 15 + 1)
    with pytest.raises(BudgetError, match="face budget"):
        tri._check_face_budget(24, 1)
    # a huge dimension is refused without forming 2^(n+1)
    with pytest.raises(BudgetError, match="face budget"):
        tri._check_face_budget(10**12, 1)


def test_face_lattice_over_budget_is_refused_before_it_is_built(monkeypatch):
    builds = []
    # the enumerator and the census's codim-2 count chain their faces; never
    # the real chain: without the budget it would exhaust memory here
    monkeypatch.setattr(tri, "chain", SimpleNamespace(from_iterable=builds.append))
    # one 24-simplex has 2^25 - 1 faces
    t = Triangulation.from_simplices(24, [range(25)])
    for k in range(25):
        with pytest.raises(BudgetError, match="face budget"):
            tri._faces(t, k)
    for read in (face_census, euler_characteristic, homology, barycentric_subdivide):
        with pytest.raises(BudgetError, match="face budget"):
            read(t)
    assert builds == []


# ---------------------------------------------------------------------------
# the bulk builders pause the cyclic garbage collector


@pytest.fixture
def collector():
    """Put the collector back as the test found it, whatever the test did."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _spy_collector(monkeypatch, module, name, states):
    """Record whether the collector is on at every call to ``module.name``."""
    original = getattr(module, name)

    def spying(*args, **kwargs):
        states.append((name, gc.isenabled()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spying)


def test_bulk_builders_run_with_the_collector_paused(monkeypatch, collector):
    """A spy on a function each builder calls sees the collector off."""
    states = []
    for module, name in [
        ("triangulation", "_facet_index"), ("triangulation", "_census"),
        ("triangulation", "_stars"), ("holonomy", "hol_generators"), ("homology", "_faces"),
        ("builders", "_faces"), ("gems", "bicolored_cycles"),
    ]:
        # the package re-exports ``homology`` under its module's name
        _spy_collector(monkeypatch, sys.modules[f"colorplex.{module}"], name, states)
    gc.enable()
    t = cross_polytope_boundary(3)
    face_census(t)
    link_loop_permutation(t, t.census.codim2_degrees[0][0])
    subdivided, coloring = barycentric_subdivide(t)
    homology(subdivided)
    is_colorable(subdivided)
    gem_report(gem_from_coloring(subdivided, coloring))
    assert {name for name, _enabled in states} == {
        "_facet_index", "_census", "_stars", "hol_generators", "_faces", "bicolored_cycles"
    }
    assert not any(enabled for _name, enabled in states)
    assert gc.isenabled()


def test_a_paused_builder_restores_the_collector_after_an_exception(collector):
    gc.enable()
    with pytest.raises(FormatError):
        parse_triangulation("dim 2\n1 2\n")
    assert gc.isenabled()
    states = []

    @tri._gc_paused
    def failing():
        states.append(gc.isenabled())
        tri._gc_paused(lambda: states.append(gc.isenabled()))()  # nested: leaves it off
        states.append(gc.isenabled())
        raise RuntimeError("inside the builder")

    with pytest.raises(RuntimeError, match="inside the builder"):
        failing()
    assert states == [False, False, False]
    assert gc.isenabled()


def test_a_collector_turned_off_by_the_caller_stays_off(collector):
    gc.disable()
    t = parse_triangulation(TETRA_TEXT)
    validate(t)
    face_census(t)
    is_colorable(t)
    homology(t)
    subdivided, coloring = barycentric_subdivide(cross_polytope_boundary(3))
    gem_report(gem_from_coloring(subdivided, coloring))
    with pytest.raises(FormatError):
        parse_triangulation("dim 2\n1 2\n")
    assert not gc.isenabled()


def test_bulk_builders_make_no_cyclic_garbage(collector):
    """Why the pause is sound: with the collector off, a collection after the
    forced-coloring pipeline, homology or the gem report frees nothing, so
    every object they dropped was freed by reference counting."""
    cell = barycentric_subdivide(cross_polytope_boundary(3))[0]
    torus = barycentric_subdivide(torus7())[0]
    obstructed = stellar_moves(cell, random.Random(2), 1)
    texts = [triangulation_to_text(t) for t in (cell, torus, obstructed)]
    gc.collect()
    gc.disable()
    for text in texts:
        t = parse_triangulation(text)
        validate(t)
        census = face_census(t)
        orientability(t)
        is_colorable(t)
        holonomy_invariants(t)
        for face, _degree in census.codim2_degrees[:8]:
            link_loop_permutation(t, face)
        if t.dimension == 3:
            defect_graphs(t)
    triangulation_to_text(barycentric_subdivide(cell)[0])
    assert gc.collect() == 0
    homology(parse_triangulation(texts[0]))
    homology(torus)
    assert gc.collect() == 0
    subdivided, coloring = barycentric_subdivide(cross_polytope_boundary(3))
    gem_report(gem_from_coloring(subdivided, coloring))
    gem_report(random_gem(random.Random(3), 400))
    assert gc.collect() == 0
