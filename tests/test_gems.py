import itertools
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import colorplex
from colorplex import (
    Gem,
    GemError,
    barycentric_subdivide,
    bicolored_cycles,
    export_dot,
    face_census,
    gem_from_coloring,
    gem_report,
    gem_to_text,
    is_planar_multigraph,
    parse_gem,
)
from colorplex import gems, oracles
from colorplex.builders import cross_polytope_boundary, simplex_boundary
from colorplex.errors import FormatError
from colorplex.gems import _BALL, _lr_planar
from colorplex.triangulation import Triangulation
from colorplex.oracles import random_gem
from gem_residues import reference_gem_error, subgraph_components
from oracle_planarity import planar_oracle

MINIMAL = Gem.from_edges([(0, 1, c) for c in (1, 2, 3, 4)])

# the networkx comparisons skip hypothesis's explain phase, which replays a
# shrunk failure with each argument varied and so makes a failure slow to report
NO_EXPLAIN = tuple(phase for phase in Phase if phase is not Phase.explain)


def _cross_gem():
    t = cross_polytope_boundary(3)
    return t, gem_from_coloring(t, {v: v // 2 + 1 for v in t.vertices})


def test_parse_minimal_gem():
    gem = parse_gem("# two vertices, four parallel edges\ngem 3\n0 1 1\n0 1 2\n0 1 3\n0 1 4\n")
    assert gem == MINIMAL


def test_parse_repeated_color_at_vertex():
    with pytest.raises(GemError, match="repeated color"):
        parse_gem("gem 3\n0 1 1\n0 1 1\n0 1 2\n0 1 3\n")


def test_parse_loop_edge():
    with pytest.raises(GemError, match="loop"):
        parse_gem("gem 3\n0 0 1\n0 0 2\n")


def test_parse_wrong_degree():
    with pytest.raises(GemError, match="degree"):
        parse_gem("gem 3\n0 1 1\n0 1 2\n0 1 3\n")


def test_parse_disconnected():
    lines = ["gem 3"]
    for base in (0, 2):
        lines += [f"{base} {base + 1} {c}" for c in (1, 2, 3, 4)]
    with pytest.raises(GemError, match="disconnected"):
        parse_gem("\n".join(lines))


def test_parse_color_out_of_range():
    with pytest.raises(GemError, match="color 5"):
        parse_gem("gem 3\n0 1 1\n0 1 2\n0 1 3\n0 1 5\n")


def test_parse_syntax_errors():
    with pytest.raises(FormatError, match="header"):
        parse_gem("0 1 1\n")
    with pytest.raises(FormatError) as err:
        parse_gem("gem 3\n0 1\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("gem 3\n0 1 x\n", "non-integer token in '0 1 x'", 2),
        ("gem 3\n0 -1 1\n", "negative vertex id", 2),
        ("# nothing but a comment\n", "missing 'gem 3' header", None),
        ("gem 3\n\n# no edges\n", "no edges listed", None),
    ],
)
def test_parse_token_and_empty_faults(text, message, line):
    with pytest.raises(FormatError) as err:
        parse_gem(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_parse_holds_one_int_object_per_vertex_id():
    # ids from 1000 up are past the small-int cache; each recurs on four lines
    gem = random_gem(random.Random(5), 40)
    shifted = Gem.from_edges((u + 1000, v + 1000, c) for u, v, c in gem.edges)
    parsed = parse_gem(gem_to_text(shifted))
    assert parsed == shifted
    assert len({id(x) for u, v, _ in parsed.edges for x in (u, v)}) == len(parsed.vertices)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_parse_matches_int_on_every_token(seed, data):
    # ids spelled with an optional '+' and leading zeros, so that tokens
    # which differ as text can have one value
    def spelled(value):
        sign = data.draw(st.sampled_from(["", "+"]))
        return sign + "0" * data.draw(st.integers(0, 2)) + str(value)

    rng = random.Random(seed)
    offset = rng.choice([0, 250, 1000, 10**6])
    gem = random_gem(rng, 2 * rng.randint(1, 6))
    lines = [[spelled(u + offset), spelled(v + offset), spelled(c)] for u, v, c in gem.edges]

    def text():
        return "# spelled ids\ngem 3\n" + "".join(" ".join(l) + "\n" for l in lines)

    gem = parse_gem(text())
    assert gem == Gem.from_edges([tuple(int(tok) for tok in l) for l in lines])
    assert len({id(x) for u, v, _ in gem.edges for x in (u, v)}) == len(gem.vertices)
    # a bad token on two lines is reported, with its line, where it first
    # occurs, as a parse calling int() on each token reports it
    first, second = sorted(data.draw(st.lists(st.sampled_from(range(len(lines))),
                                              min_size=2, max_size=2, unique=True)))
    bad = data.draw(st.sampled_from(["x", "1.5", "0x1f", "--1", "1e3", "+-2"]))
    for k in (first, second):
        lines[k][data.draw(st.integers(0, 2))] = bad
    with pytest.raises(FormatError) as err:
        parse_gem(text())
    line = " ".join(lines[first])
    assert err.value.line == first + 3
    assert str(err.value) == f"line {first + 3}: non-integer token in {line!r}"


def test_serialise_round_trip():
    for gem in (MINIMAL, _cross_gem()[1]):
        assert parse_gem(gem_to_text(gem)) == gem


def test_minimal_gem_report():
    report = gem_report(MINIMAL)
    assert report.vertex_count == 2
    assert report.edge_count == 4
    assert report.f_count == 6  # six bicolored 2-cycles
    assert report.r_count == 4  # each 3-color subgraph is connected
    assert report.euler == 0  # 2 - 4 + 6 - 4
    assert report.ecpx
    assert report.all_planar


def test_cross_polytope_gem_report():
    _t, gem = _cross_gem()
    report = gem_report(gem)
    assert report.vertex_count == 16
    assert report.edge_count == 32
    assert report.f_count == 24  # six pairs x four 4-cycles
    assert report.r_count == 8  # two components per color triple
    assert report.euler == 0
    assert all(lengths == (4, 4, 4, 4) for _pair, lengths in report.cycle_lengths)
    assert report.all_planar


def test_bicolored_subgraphs_are_2_regular_and_even():
    rng = random.Random(4)
    for _ in range(10):
        gem = random_gem(rng, rng.choice([4, 6, 8, 10]))
        report = gem_report(gem)
        assert report.edge_count == 2 * report.vertex_count
        for (a, b), lengths in report.cycle_lengths:
            assert all(length % 2 == 0 and length >= 2 for length in lengths)
            edges_ab = sum(1 for _u, _v, c in gem.edges if c in (a, b))
            assert sum(lengths) == edges_ab
        assert report.ecpx


@pytest.mark.parametrize("count", [0, -2, 3])
def test_random_gem_refuses_a_count_with_no_gem(count):
    # in a child process with a timeout, so that a retry loop that never
    # ends fails the test instead of hanging the run
    root = os.path.dirname(os.path.dirname(os.path.abspath(colorplex.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    script = (
        "import random; from colorplex.oracles import random_gem; "
        f"random_gem(random.Random(0), {count})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=30,
    )
    assert proc.returncode == 1
    assert f"ValueError: gem vertex count must be even and >= 2, got {count}" in proc.stderr


def test_random_gem_on_two_vertices_is_the_minimal_gem():
    assert random_gem(random.Random(0), 2) == MINIMAL


def test_color_classes_are_perfect_matchings():
    _t, gem = _cross_gem()
    v = len(gem.vertices)
    for color in range(1, 5):
        assert sum(1 for _u, _v, c in gem.edges if c == color) == v // 2


def test_gem_from_coloring_rejects_bad_input():
    t = simplex_boundary(3)
    with pytest.raises(ValueError, match="4-coloring"):
        gem_from_coloring(t, {v: 1 + v % 4 for v in t.vertices})
    with pytest.raises(ValueError, match="n=3"):
        gem_from_coloring(simplex_boundary(2), {})


def test_gem_from_coloring_matches_a_facet_enumeration():
    # shuffled vertex ids, so that a vertex's sorted position no longer
    # follows its color and the two simplices at a facet drop it at
    # different positions
    rng = random.Random(4)
    sub, sub_coloring = barycentric_subdivide(simplex_boundary(3))
    cross = cross_polytope_boundary(3)
    for t, coloring in ((sub, sub_coloring), (cross, {v: v // 2 + 1 for v in cross.vertices})):
        ids = list(t.vertices)
        rng.shuffle(ids)
        relabel = dict(zip(t.vertices, ids))
        moved = Triangulation.from_simplices(3, [[relabel[v] for v in s] for s in t.simplices])
        moved_coloring = {relabel[v]: c for v, c in coloring.items()}
        cofaces = {}
        for sid, s in enumerate(moved.simplices):
            for facet in itertools.combinations(s, 3):
                cofaces.setdefault(facet, []).append(sid)
        expected = sorted(
            (a, b, ({1, 2, 3, 4} - {moved_coloring[v] for v in facet}).pop())
            for facet, (a, b) in cofaces.items()
        )
        assert gem_from_coloring(moved, moved_coloring).edges == tuple(expected)


def test_gem_from_subdivided_4simplex():
    sub, coloring = barycentric_subdivide(simplex_boundary(3))
    gem = gem_report(gem_from_coloring(sub, coloring))
    assert gem.vertex_count == 120
    assert gem.edge_count == 240
    assert gem.euler == 0
    assert gem.ecpx
    # the 3-color subgraphs bound the regions of the missing color: one
    # component per region, 30 regions in all
    assert gem.r_count == 30
    assert gem.all_planar


def test_cycle_lengths_reproduce_codim2_degrees():
    sub, coloring = barycentric_subdivide(simplex_boundary(3))
    cases = [_cross_gem(), (sub, gem_from_coloring(sub, coloring))]
    for t, gem in cases:
        from_gem = sorted(
            length
            for a in range(1, 5)
            for b in range(a + 1, 5)
            for length in bicolored_cycles(gem, a, b)
        )
        from_t = sorted(d for _f, d in face_census(t).codim2_degrees)
        assert from_gem == from_t


def test_export_dot_structure_and_round_trip():
    _t, gem = _cross_gem()
    dot = export_dot(gem)
    assert dot.count("--") == 32
    for color_name in ("red", "green", "blue", "black"):
        assert dot.count(color_name) == 8
    # the leading "# " lines carry the gem file, so the gem reads back from them
    comments = [line[2:] for line in dot.splitlines() if line.startswith("# ")]
    assert parse_gem("\n".join(comments)) == gem
    assert export_dot(gem) == dot  # deterministic


def test_planarity_agrees_with_independent_oracle():
    rng = random.Random(12)
    checked = 0
    for _ in range(12):
        gem = random_gem(rng, rng.choice([4, 6, 8, 10, 12]))
        report = gem_report(gem)
        for (triple, _count, flags) in report.triple_components:
            for (verts, edges), flag in zip(subgraph_components(gem, triple), flags):
                if len(verts) > 12:
                    continue
                checked += 1
                assert planar_oracle(verts, edges) == flag
    assert checked >= 20


def test_planarity_routes_agree_on_classics():
    import itertools

    k5 = [(a, b) for a, b in itertools.combinations(range(5), 2)]
    assert is_planar_multigraph(range(5), k5) == planar_oracle(range(5), k5) == False
    k4 = [(a, b) for a, b in itertools.combinations(range(4), 2)]
    assert is_planar_multigraph(range(4), k4) == planar_oracle(range(4), k4) == True
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    assert is_planar_multigraph(range(6), k33) == planar_oracle(range(6), k33) == False
    # parallel edges and loops never change the verdict
    assert is_planar_multigraph(range(5), k5 + k5) is False
    assert is_planar_multigraph(range(4), k4 + k4) is True
    assert is_planar_multigraph(range(5), k5 + [(2, 2)]) == planar_oracle(range(5), k5) == False
    assert is_planar_multigraph(range(4), k4 + [(2, 2)]) == planar_oracle(range(4), k4) == True


def _networkx_planar(vertices, edges):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from((u, v) for u, v, *_rest in edges if u != v)
    return nx.check_planarity(graph)[0]


@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
        )
    )
)
def test_planarity_matches_networkx_on_random_multigraphs(graph):
    n, edges = graph
    assert is_planar_multigraph(range(n), edges) == _networkx_planar(range(n), edges)


# disjoint parts, each (vertex count, edges (u, v, copies)); loops are skipped
_MULTIGRAPH_PARTS = st.lists(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
                max_size=24,
            ),
        )
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(_MULTIGRAPH_PARTS, st.integers(0, 2**32))
@example(
    [
        (3, [(0, 1, 3), (1, 2, 3), (2, 0, 3)]),  # a tripled triangle: three parallel back edges
        (6, [(a, b, 2) for a in range(3) for b in range(3, 6)]),  # K3,3, every edge doubled
        (4, [(a, b, 2) for a, b in itertools.combinations(range(4), 2)]),  # K4 doubled
        # K5 doubled: any DFS of K5 is a path, with back edges to grandparents
        (5, [(a, b, 2) for a, b in itertools.combinations(range(5), 2)]),
    ],
    0,
)
def test_lr_planar_decides_each_component_of_a_multigraph(parts, seed):
    """Neighbour sequences that repeat a neighbour, once per parallel edge,
    tree or back, get one verdict per component, by least vertex, and each
    is networkx's verdict on that component.  The parts' vertices are
    shuffled together, and so is each neighbour sequence.  The shuffles come
    from a drawn seed, so shrinking a failure shrinks one integer, not every
    draw of a hypothesis-driven ``Random``."""
    import networkx as nx

    rng = random.Random(seed)
    total = sum(n for n, _edges in parts)
    labels = list(range(total))
    rng.shuffle(labels)
    adj: list[list[int]] = [[] for _ in range(total)]
    graph = nx.Graph()
    graph.add_nodes_from(range(total))
    offset = 0
    for n, edges in parts:
        for u, v, copies in edges:
            a, b = labels[offset + u], labels[offset + v]
            if a != b:
                adj[a] += [b] * copies
                adj[b] += [a] * copies
                graph.add_edge(a, b)
        offset += n
    for row in adj:
        rng.shuffle(row)
    comps = sorted(nx.connected_components(graph), key=min)
    assert _lr_planar(adj) == [nx.check_planarity(graph.subgraph(comp))[0] for comp in comps]


@settings(max_examples=60, deadline=None, phases=NO_EXPLAIN)
@given(st.integers(0, 2**32), st.integers(1, 30))
# the benchmark's shape: 2,000 vertices, each residue one non-planar component
# at these seeds, and a DFS far deeper than the drawn gems reach
@example(29, 1000)
@example(41, 1000)
@example(67, 1000)
def test_planarity_matches_networkx_on_gem_residues(seed, half):
    """The report's residue counts and flags, read off the mate table, and
    the edge-list route agree with networkx's components and planarity."""
    import networkx as nx

    gem = random_gem(random.Random(seed), 2 * half)
    report = gem_report(gem)
    triples = list(itertools.combinations(range(1, 5), 3))
    assert [triple for triple, _count, _flags in report.triple_components] == triples
    for triple, count, flags in report.triple_components:
        graph = nx.Graph()
        graph.add_nodes_from(gem.vertices)
        graph.add_edges_from((u, v) for u, v, c in gem.edges if c in triple)
        comps = sorted(nx.connected_components(graph), key=min)
        assert count == len(comps)
        assert flags == tuple(nx.check_planarity(graph.subgraph(comp))[0] for comp in comps)
        residues = subgraph_components(gem, triple)
        assert [set(verts) for verts, _edges in residues] == comps
        assert flags == tuple(is_planar_multigraph(verts, edges) for verts, edges in residues)


def test_gem_suite_catches_a_spherical_residue_flagged_non_planar(monkeypatch):
    """With every verdict of the left-right test turned to False, the report
    and ``is_planar_multigraph`` still agree with each other; the suite must
    fail its random-gem property on the residues whose bicolored cycles make
    them 2-spheres."""
    name = "random gems: F, R, chi and residue planarity match a union-find"
    assert {p["name"]: p["passed"] for p in oracles.run_suite("gem", 0)["properties"]}[name]
    real = gems._lr_planar
    monkeypatch.setattr(gems, "_lr_planar", lambda adj: [False] * len(real(adj)))
    doc = oracles.run_suite("gem", 0)
    assert {p["name"]: p["passed"] for p in doc["properties"]}[name] is False
    assert not doc["passed"]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 30))
def test_relabelling_with_gaps_keeps_the_report(seed, half):
    """Ids 0..V-1 are their own positions in the mate table; order-preserving
    relabellings with gaps (from 0, from 7, and one that keeps the largest
    id at V - 1) must be mapped to positions, and change nothing reported."""
    gem = random_gem(random.Random(seed), 2 * half)
    for g in (gem, _cross_gem()[1]):
        for relabel in (lambda v: 3 * v, lambda v: 3 * v + 7, lambda v: v or -1):
            moved = Gem.from_edges((relabel(u), relabel(v), c) for u, v, c in g.edges)
            assert moved.vertices == tuple(map(relabel, g.vertices))
            assert gem_report(moved) == gem_report(g)
            for a, b in itertools.combinations(range(1, 5), 2):
                assert bicolored_cycles(moved, a, b) == bicolored_cycles(g, a, b)


def test_the_mate_table_is_built_once_per_gem():
    """Validation sets the vertex ids and the mate lists, and the gem holds
    them from then on: reading them builds nothing more and adds no field,
    and equality, hashing and the repr read the edges alone."""
    gem = random_gem(random.Random(5), 40)
    assert set(vars(gem)) == {"edges", "vertices", "mates"}
    mates = gem.mates
    first = gem_report(gem)
    assert gem_report(gem) == first
    assert bicolored_cycles(gem, 1, 2) == first.cycle_lengths[0][1]
    assert gem.vertices == tuple(range(40))
    assert set(vars(gem)) == {"edges", "vertices", "mates"}
    assert gem.mates is mates
    again = Gem(gem.edges)
    assert again == gem and hash(again) == hash(gem) and again.mates is not mates
    assert "mates" not in repr(gem) and "vertices" not in repr(gem)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 20),
    st.sampled_from(["none", "drop", "duplicate", "recolor", "swap", "loop", "union"]),
    st.sampled_from(["ids", "gaps", "negative"]),
    st.booleans(),
)
@example(0, 2, "drop", "ids", False)
def test_gem_validation_matches_the_reference_validator(seed, half, mutation, labels, shuffle):
    """A random gem of 2-40 vertices, after one mutation, is rejected with the
    message of the reference validator's first failed check, or both accept
    it.  The ids may then be relabelled with gaps or one negative id, and the
    edge list shuffled, so that a fault is also met on the id-to-position
    path and in an edge order other than the sorted one.  The reference
    checks on a (vertex, color) dict and shares no code with the mate
    table."""
    rng = random.Random(seed)
    edges = list(random_gem(rng, 2 * half).edges)
    i = rng.randrange(len(edges))
    u, v, c = edges[i]
    if mutation == "drop":
        del edges[i]
    elif mutation == "duplicate":
        edges.insert(rng.randrange(len(edges) + 1), edges[i])
    elif mutation == "recolor":
        edges[i] = (u, v, rng.randrange(6))
    elif mutation == "swap":
        edges[i] = (v, u, c)
    elif mutation == "loop":
        edges[i] = (u, u, c)
    elif mutation == "union":
        second = random_gem(rng, 2 * rng.randint(1, 20)).edges
        edges += [(u + 2 * half, v + 2 * half, c) for u, v, c in second]
    relabel = {"ids": lambda w: w, "gaps": lambda w: 3 * w + 7, "negative": lambda w: w or -1}
    edges = [(relabel[labels](u), relabel[labels](v), c) for u, v, c in edges]
    if shuffle:
        rng.shuffle(edges)
    expected = reference_gem_error(edges)
    try:
        Gem(tuple(edges))
    except GemError as err:
        assert str(err) == expected
    else:
        assert expected is None


@pytest.mark.parametrize(
    "edges, message",
    [
        # each edge is checked in order: loop, order, color, then its two slots
        ([(3, 3, 9)], "loop edge at vertex 3"),
        ([(2, 1, 9)], r"edge \(2, 1, 9\) not normalised \(u < v required\)"),
        ([(0, 1, 9), (2, 2, 1)], r"color 9 outside 1..4 on edge \(0, 1\)"),
        ([(0, 1, 1), (0, 2, 1), (1, 1, 2)], "repeated color 1 at vertex 0"),
        ([(0, 2, 1), (1, 2, 1), (3, 3, 1)], "repeated color 1 at vertex 2"),
        # with gaps, so that a message naming a position instead of an id fails
        ([(10, 20, 1), (10, 30, 1)], "repeated color 1 at vertex 10"),
        ([(0, 20, 1), (10, 20, 1)], "repeated color 1 at vertex 20"),
        # then degrees, in order of first appearance in the edge list
        ([(0, 5, 1), (0, 5, 2), (0, 5, 3), (0, 1, 4)], "vertex 5 has degree 3, expected 4"),
        ([], "empty gem"),
        (
            [(u, u + 1, c) for u in (0, 2) for c in (1, 2, 3, 4)],
            r"gem is disconnected \(2 of 4 vertices reachable\)",
        ),
    ],
    ids=[
        "loop", "order", "color", "slot-u", "slot-v", "slot-u gapped", "slot-v gapped",
        "degree", "empty", "disconnected",
    ],
)
def test_gem_error_messages_and_their_precedence(edges, message):
    with pytest.raises(GemError, match=f"^{message}$"):
        Gem(tuple(edges))


def _maximal_planar(rng, n):
    """Edges of a random triangulation of the sphere on n >= 3 vertices:
    vertices inserted into random faces, then random edge flips.  Each
    oriented face (a, b, c) records ``opposite[(a, b)] = c``."""
    opposite = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (0, 2): 1, (2, 1): 0, (1, 0): 2}

    def add_face(a, b, c):
        opposite[(a, b)], opposite[(b, c)], opposite[(c, a)] = c, a, b

    def remove_face(a, b, c):
        del opposite[(a, b)], opposite[(b, c)], opposite[(c, a)]

    for v in range(3, n):
        a, b = rng.choice(sorted(opposite))
        c = opposite[(a, b)]
        remove_face(a, b, c)
        add_face(a, b, v)
        add_face(b, c, v)
        add_face(c, a, v)
    for _ in range(2 * n):
        a, b = rng.choice(sorted(opposite))
        c, d = opposite[(a, b)], opposite[(b, a)]
        if c == d or (c, d) in opposite:
            continue
        remove_face(a, b, c)
        remove_face(b, a, d)
        add_face(a, d, c)
        add_face(d, b, c)
    return sorted((a, b) for a, b in opposite if a < b)


@settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
@given(st.integers(0, 2**32), st.integers(3, 120), st.integers(0, 12), st.booleans())
@example(0, 10, 0, False)  # called non-planar without the lowpt2 term of the nesting depth
@example(5, 26, 1, False)  # called non-planar with the two lowpt2 branches of the fold swapped
def test_planarity_matches_networkx_on_maximal_planar_graphs(seed, n, drop, extra):
    """A triangulation is planar; with one more edge it breaks the Euler
    bound, and with some edges dropped first the extra edge may or may not
    fit, which only the DFS phases decide."""
    rng = random.Random(seed)
    edges = _maximal_planar(rng, n)
    assert len(edges) == 3 * n - 6
    rng.shuffle(edges)
    del edges[:drop]
    present = set(edges)
    missing = [p for p in itertools.combinations(range(n), 2) if extra and p not in present]
    if missing:
        edges.append(rng.choice(missing))
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[u], labels[v]) for u, v in edges]
    verdict = is_planar_multigraph(range(n), edges)
    assert verdict == _networkx_planar(range(n), edges)
    if not drop:
        assert verdict == (not missing)


def _prism(k):
    cycle = [(i, (i + 1) % k) for i in range(k)]
    return cycle + [(k + u, k + v) for u, v in cycle] + [(i, k + i) for i in range(k)]


def _moebius_ladder(k):
    return [(i, (i + 1) % (2 * k)) for i in range(2 * k)] + [(i, i + k) for i in range(k)]


def test_planarity_of_large_cubic_families():
    """The prism C_k x K2 is planar and the Moebius ladder on 2k vertices is
    not (it contains a subdivided K3,3, and is K3,3 for k = 3); at 20,000
    vertices the DFS runs far deeper than the recursion limit."""
    for k in (3, 4, 10_000):
        assert is_planar_multigraph(range(2 * k), _prism(k))
        assert not is_planar_multigraph(range(2 * k), _moebius_ladder(k))


def test_every_residue_of_the_twice_subdivided_16_cell_is_planar():
    """Each residue of a 3-sphere's gem bounds a 3-ball region around one
    vertex, so it is the gem of a 2-sphere: planar, one per vertex."""
    sub, _coloring = barycentric_subdivide(cross_polytope_boundary(3))
    sub, coloring = barycentric_subdivide(sub)
    report = gem_report(gem_from_coloring(sub, coloring))
    assert report.vertex_count == 9216
    assert report.r_count == len(sub.vertices)
    assert report.euler == 0
    assert report.all_planar


# ---------------------------------------------------------------------------
# components larger than the ball: the left-right test first runs on the
# subgraph induced by the first _BALL vertices of a breadth-first search


def _bfs_order(adj, root):
    """Root's component in the breadth-first order that the ball is read
    in: each vertex's neighbours in sequence order."""
    order, seen = [root], {root}
    for v in order:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _cubic(rng, s):
    """A random connected multigraph on s vertices, cubic but for one
    vertex of degree 2 when s is odd: a Hamiltonian cycle and a matching."""
    order = rng.sample(range(s), s)
    edges = [(order[i - 1], order[i]) for i in range(s)]
    rng.shuffle(order)
    return edges + [(order[i], order[i + 1]) for i in range(0, s - 1, 2)]


def _stacked(rng, s):
    """A random stacked triangulation of the sphere on s >= 3 vertices, a
    maximal planar graph: each new vertex goes into a random face."""
    faces, edges = [(0, 1, 2), (0, 2, 1)], [(0, 1), (1, 2), (0, 2)]
    for v in range(3, s):
        k = rng.randrange(len(faces))
        a, b, c = faces[k]
        faces[k] = (a, b, v)
        faces += [(b, c, v), (c, a, v)]
        edges += [(a, v), (b, v), (c, v)]
    return edges


def _spied_lr_planar(adj):
    """``_lr_planar`` on ``adj``, and the size and verdicts of each ball
    test that it ran on the way."""
    calls = []

    def spy(sub):
        verdicts = _lr_planar(sub)
        calls.append((len(sub), verdicts))
        return verdicts

    with mock.patch.object(gems, "_lr_planar", spy):
        return _lr_planar(adj), calls


_BALL_KINDS = ("cubic", "prism", "triangulation", "triangulation+edge")
_BALL_SIZES = (_BALL - 1, _BALL, _BALL + 1, 2 * _BALL, 3 * _BALL)


@settings(max_examples=20, deadline=None, phases=NO_EXPLAIN)
@given(
    st.lists(
        st.tuples(st.sampled_from(_BALL_KINDS), st.sampled_from(_BALL_SIZES)),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**32),
)
@example([("triangulation+edge", 3 * _BALL), ("cubic", _BALL), ("prism", _BALL + 1)], 0)
@example([("cubic", 2 * _BALL), ("triangulation", _BALL - 1), ("triangulation+edge", _BALL + 1)], 1)
def test_planar_verdicts_at_the_ball_bound(parts, seed):
    """Components of ``_BALL`` - 1, ``_BALL``, ``_BALL`` + 1 and a few
    multiples of ``_BALL`` vertices get one verdict each, by least vertex,
    and each is networkx's verdict on that component.  The parts are random
    cubic multigraphs, whose ball is mostly non-planar, prisms (one edge
    subdivided at odd sizes) and stacked triangulations, which are planar,
    and triangulations with one more edge: non-planar, and when the part
    has room, with both ends outside its ball, which then stays planar.
    Only a component of more than ``_BALL`` vertices runs the ball test,
    once, on exactly ``_BALL`` vertices."""
    import networkx as nx

    rng = random.Random(seed)
    total = sum(s for _kind, s in parts)
    labels = rng.sample(range(total), total)
    adj: list[list[int]] = [[] for _ in range(total)]
    graph = nx.Graph()
    graph.add_nodes_from(range(total))
    offset, extended = 0, []
    for kind, s in parts:
        if kind == "cubic":
            edges = _cubic(rng, s)
        elif kind == "prism":
            edges = _prism(s // 2)
            if s % 2:
                edges[0:1] = [(0, s - 1), (s - 1, 1)]
        else:
            edges = _stacked(rng, s)
        for u, v in edges:
            a, b = labels[offset + u], labels[offset + v]
            adj[a].append(b)
            adj[b].append(a)
            graph.add_edge(a, b)
        if kind == "triangulation+edge":
            extended.append(labels[offset : offset + s])
        offset += s
    for row in adj:
        rng.shuffle(row)
    # the new edge goes last in both sequences; with both ends past the
    # ball, the ball is read as before
    for part in extended:
        outside = _bfs_order(adj, min(part))[_BALL:]
        pool = outside if len(outside) > 2 else part
        a, b = rng.sample(pool, 2)
        while graph.has_edge(a, b):
            a, b = rng.sample(pool, 2)
        adj[a].append(b)
        adj[b].append(a)
        graph.add_edge(a, b)
    verdicts, calls = _spied_lr_planar(adj)
    comps = sorted(nx.connected_components(graph), key=min)
    assert verdicts == [nx.check_planarity(graph.subgraph(comp))[0] for comp in comps]
    assert [size for size, _verdicts in calls] == [_BALL] * sum(len(c) > _BALL for c in comps)


def test_a_ball_settles_a_component_between_small_ones():
    """A non-planar ball settles its component: one False at its least
    vertex, between the verdicts of small components whose ids its other
    vertices are spread among, so that any vertex of it left unmarked would
    root a verdict of its own."""
    rng = random.Random(3)
    big = 3 * _BALL
    parts = [
        (4, list(itertools.combinations(range(4), 2))),  # K4
        (big, _cubic(rng, big)),
        (5, list(itertools.combinations(range(5), 2))),  # K5
        (6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3
        (3, [(0, 1), (1, 2), (2, 0)]),
    ]
    total = sum(n for n, _edges in parts)
    rest = rng.sample(range(len(parts), total), total - len(parts))
    adj: list[list[int]] = [[] for _ in range(total)]
    for k, (n, edges) in enumerate(parts):
        # part k's vertex 0 gets id k, its least
        labels = [k] + [rest.pop() for _ in range(n - 1)]
        for u, v in edges:
            adj[labels[u]].append(labels[v])
            adj[labels[v]].append(labels[u])
    verdicts, calls = _spied_lr_planar(adj)
    assert calls == [(_BALL, [False])]
    assert verdicts == [True, False, False, False, True]


def _suspended_sphere(subdivisions):
    """The suspension of the octahedron subdivided ``subdivisions`` times, a
    3-sphere, colored 1-3 on the sphere from its subdivision and 4 on both
    apexes."""
    t = cross_polytope_boundary(2)
    for _ in range(subdivisions):
        t, coloring = barycentric_subdivide(t)
    north, south = len(t.vertices), len(t.vertices) + 1
    cone = [(*s, apex) for s in t.simplices for apex in (north, south)]
    return Triangulation.from_simplices(3, cone), {**coloring, north: 4, south: 4}


def test_every_residue_of_a_suspension_is_planar_past_the_ball():
    """The residue on colors 1-3 of the suspension's gem is the two apex
    links, spheres of 1,728 triangles each, far past the ball: their balls
    are planar, so both take the full test, and every residue is planar, one
    per vertex of the 3-sphere."""
    t, coloring = _suspended_sphere(3)
    report = gem_report(gem_from_coloring(t, coloring))
    assert report.vertex_count == 2 * 1728 > 2 * _BALL
    assert report.triple_components[0] == ((1, 2, 3), 2, (True, True))
    assert report.all_planar
    assert report.r_count == len(t.vertices)
