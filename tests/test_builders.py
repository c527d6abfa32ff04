import pytest

from colorplex import (
    BudgetError,
    Triangulation,
    barycentric_subdivide,
    euler_characteristic,
    example,
    face_census,
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


def test_simplex_boundary_counts():
    t = simplex_boundary(3)
    assert len(t.vertices) == 5
    assert len(t.simplices) == 5
    assert validate(t).passed


def test_cross_polytope_counts():
    t = cross_polytope_boundary(3)
    assert len(t.vertices) == 8
    assert len(t.simplices) == 16  # one sign choice per antipodal pair
    assert validate(t).passed


def test_torus7_is_the_7_vertex_torus():
    t = torus7()
    assert len(t.vertices) == 7
    assert len(t.simplices) == 14
    assert validate(t).passed
    assert euler_characteristic(t) == 0
    assert all(d == 6 for _f, d in face_census(t).codim2_degrees)


def test_rp2_is_valid():
    t = rp2_6()
    assert len(t.simplices) == 10
    assert validate(t).passed
    assert all(d == 5 for _f, d in face_census(t).codim2_degrees)


def test_circle_builder():
    t = circle(3)
    assert validate(t).passed
    with pytest.raises(ValueError):
        circle(2)


def test_invalid_dimension_parameters():
    with pytest.raises(ValueError):
        simplex_boundary(0)
    with pytest.raises(ValueError):
        cross_polytope_boundary(0)


def test_builders_refuse_a_face_lattice_over_budget():
    # every size here is small enough to build, should the check be lost
    assert len(cross_polytope_boundary(11)) == 4096  # at most 4096 * 4095 faces
    for name, build, n in [
        ("simplex_boundary", simplex_boundary, 24),  # 26 * (2^25 - 1) faces
        ("cross_polytope_boundary", cross_polytope_boundary, 12),  # 2^13 * (2^13 - 1)
    ]:
        with pytest.raises(BudgetError, match="face budget"):
            build(n)
        with pytest.raises(BudgetError, match="face budget"):
            example(name, [n])


def test_example_dispatch():
    assert example("torus7") == torus7()
    assert example("circle", [5]) == circle(5)
    assert example("cross_polytope_boundary", (3,)) == cross_polytope_boundary(3)
    with pytest.raises(ValueError, match="unknown"):
        example("nope")
    with pytest.raises(ValueError, match="parameter"):
        example("torus7", [3])


def test_subdivision_of_tetrahedron_boundary():
    sub, coloring = barycentric_subdivide(simplex_boundary(2))
    assert len(sub.vertices) == 14  # 4 + 6 + 4 faces
    assert len(sub.simplices) == 24  # 6 orderings per triangle
    assert validate(sub).passed
    assert verify_coloring(sub, coloring, 3)


def test_subdivision_numbers_faces_by_dimension_then_face():
    sub, coloring = barycentric_subdivide(simplex_boundary(2))
    # vertices 0..3, then edges 01 02 03 12 13 23, then triangles 012 013 023 123
    assert coloring == {i: 1 if i < 4 else 2 if i < 10 else 3 for i in range(14)}
    assert sub.simplices[0] == (0, 4, 10)  # vertex 0 < edge 01 < triangle 012
    assert (1, 8, 11) in sub.simplices  # vertex 1 < edge 13 < triangle 013
    assert (3, 9, 13) in sub.simplices  # vertex 3 < edge 23 < triangle 123
    assert (0, 9, 13) not in sub.simplices  # vertex 0 is not in edge 23


def test_subdivision_chains_pass_the_simplex_rules_unchanged():
    # the subdivision skips from_simplices: its chains must already be
    # sorted vertex tuples, distinct and listed in order
    bases = [simplex_boundary(n) for n in (1, 2, 3)]
    bases += [cross_polytope_boundary(n) for n in (1, 2, 3)]
    bases += [circle(5), torus7(), rp2_6(), barycentric_subdivide(torus7())[0]]
    for t in bases:
        sub, _coloring = barycentric_subdivide(t)
        assert sub == Triangulation.from_simplices(t.dimension, sub.simplices)


def test_subdivision_of_circle_alternates():
    sub, coloring = barycentric_subdivide(circle(3))
    assert sub.dimension == 1
    assert len(sub.simplices) == 6  # each arc splits in two
    assert validate(sub).passed
    assert verify_coloring(sub, coloring, 2)


def test_dimension_coloring_uses_dimension_plus_one():
    sub, coloring = barycentric_subdivide(simplex_boundary(3))
    assert set(coloring.values()) == {1, 2, 3, 4}
    assert verify_coloring(sub, coloring, 4)
