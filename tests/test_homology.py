import importlib

from hypothesis import given, settings
from hypothesis import strategies as st

from colorplex import (
    barycentric_subdivide,
    euler_characteristic,
    homology,
    orientability,
    rp2_6,
    simplex_boundary,
    smith_invariant_factors,
    torus7,
    validate,
)
from colorplex.builders import circle, cross_polytope_boundary
from colorplex.homology import _dense_diagonal, _normalise_divisibility


def _dense(rows):
    return [
        {j: v for j, v in enumerate(row) if v} for row in rows
    ]


def test_snf_identity():
    assert smith_invariant_factors(_dense([[1, 0], [0, 1]])) == [1, 1]


def test_snf_zero_matrix():
    assert smith_invariant_factors(_dense([[0, 0], [0, 0]])) == []


def test_snf_known_torsion():
    # det = -8, gcd of entries 2, so factors (2, 4)
    assert smith_invariant_factors(_dense([[2, 4], [6, 8]])) == [2, 4]


def test_snf_rectangular():
    assert smith_invariant_factors(_dense([[1, 2, 3]])) == [1]
    assert smith_invariant_factors(_dense([[2, 4, 6]])) == [2]


def test_snf_divisibility_chain():
    factors = smith_invariant_factors(_dense([[6, 0, 0], [0, 10, 0], [0, 0, 15]]))
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # product of factors equals |det| = 900
    prod = 1
    for f in factors:
        prod *= f
    assert prod == 900


@st.composite
def _integer_matrices(draw):
    """Up to 8x8 with entries in -6..6, biased towards 0 and +-1 as in
    boundary matrices, and with some rows and columns zeroed out."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    entry = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-6, 6))
    matrix = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    for i in draw(st.sets(st.integers(0, rows - 1))):
        matrix[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in matrix:
            row[j] = 0
    return matrix


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
def test_snf_matches_dense_and_sympy_oracles(matrix):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    factors = smith_invariant_factors(_dense(matrix))
    assert factors == _normalise_divisibility(_dense_diagonal(matrix))
    snf = smith_normal_form(Matrix(matrix), domain=ZZ)
    diagonal = [abs(snf[k, k]) for k in range(min(snf.shape))]
    assert factors == [int(d) for d in diagonal if d]


def test_snf_dense_remainder_after_unit_elimination(monkeypatch):
    # the package attribute colorplex.homology is the function, not the module
    module = importlib.import_module("colorplex.homology")
    remainders = []

    def recording(matrix):
        remainders.append([row[:] for row in matrix])
        return _dense_diagonal(matrix)

    monkeypatch.setattr(module, "_dense_diagonal", recording)
    # two unit rows whose elimination turns the last two rows into the
    # block [[2, 4], [6, 8]], which has no unit entry left
    matrix = [[1, 1, 0, 0], [0, -1, 0, 0], [2, 0, 2, 4], [0, 3, 6, 8]]
    assert smith_invariant_factors(_dense(matrix)) == [1, 1, 2, 4]
    assert remainders == [[[2, 4], [6, 8]]]


def test_normalise_sets_units_aside():
    assert _normalise_divisibility([1] * 5000 + [6, 10, 15]) == [1] * 5001 + [30, 30]


def _subdivided(t, times):
    for _ in range(times):
        t, _coloring = barycentric_subdivide(t)
    return t


def test_homology_7_sphere_at_scale():
    profile = homology(cross_polytope_boundary(7))
    assert profile.betti == (1, 0, 0, 0, 0, 0, 0, 1)
    assert all(ts == () for ts in profile.torsion)


def test_homology_thrice_subdivided_torus():
    t = _subdivided(torus7(), 3)
    assert len(t.simplices) == 3024
    profile = homology(t)
    assert profile.betti == (1, 2, 1)
    assert profile.torsion == ((), (), ())


def test_homology_twice_subdivided_projective_plane():
    profile = homology(_subdivided(rp2_6(), 2))
    assert profile.betti == (1, 0, 0)
    assert profile.torsion == ((), (2,), ())


def test_homology_sphere():
    profile = homology(simplex_boundary(2))
    assert profile.betti == (1, 0, 1)
    assert profile.torsion == ((), (), ())


def test_homology_torus():
    profile = homology(torus7())
    assert profile.betti == (1, 2, 1)
    assert profile.torsion == ((), (), ())


def test_homology_projective_plane():
    profile = homology(rp2_6())
    assert profile.betti == (1, 0, 0)
    assert profile.torsion == ((), (2,), ())


def test_homology_3sphere():
    profile = homology(cross_polytope_boundary(3))
    assert profile.betti == (1, 0, 0, 1)
    assert all(ts == () for ts in profile.torsion)


def test_homology_circle():
    profile = homology(circle(5))
    assert profile.betti == (1, 1)


def _duality_inputs():
    bases = [
        simplex_boundary(2),
        simplex_boundary(3),
        cross_polytope_boundary(2),
        cross_polytope_boundary(3),
        circle(4),
        torus7(),
        rp2_6(),
    ]
    subdivided = [barycentric_subdivide(t)[0] for t in bases]
    return bases + subdivided + [cross_polytope_boundary(n) for n in (4, 5, 6)]


def test_homology_obeys_poincare_duality():
    """Every input is a closed connected manifold.  Orientable: b_k = b_(n-k)
    and T_k = T_(n-k-1).  Non-orientable: b_n = 0 and T_(n-1) = (2).  The
    alternating sum, which the CLI prints, telescopes to the face counts, so
    it is checked beside them but cannot fail on its own."""
    for t in _duality_inputs():
        profile = homology(t)
        n = t.dimension
        assert profile.betti[0] == 1
        if orientability(t):
            assert profile.betti == profile.betti[::-1]
            assert profile.torsion[:n] == profile.torsion[:n][::-1]
            assert profile.torsion[n] == ()
        else:
            assert profile.betti[n] == 0
            assert profile.torsion[n - 1] == (2,)
        assert profile.betti_alternating_sum() == euler_characteristic(t)


def test_subdivision_preserves_invariants():
    for t in (
        simplex_boundary(2),
        simplex_boundary(3),
        cross_polytope_boundary(2),
        circle(5),
        torus7(),
        rp2_6(),
    ):
        sub, _coloring = barycentric_subdivide(t)
        assert validate(sub).passed
        assert euler_characteristic(sub) == euler_characteristic(t)
        assert orientability(sub) == orientability(t)
        assert homology(sub) == homology(t)
