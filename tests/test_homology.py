import importlib
import itertools
import os
import subprocess
import sys
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import colorplex
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
from colorplex.homology import (
    HomologyProfile,
    _boundary_rows,
    _forest_size,
    _free_pairs,
    _normalise_divisibility,
    _smallest_pivot_diagonal,
    _signed_rows,
    _sparse,
)
from colorplex.triangulation import Triangulation
from dual_forest import tree_slots
from face_sets import set_faces


def _dense(rows):
    return [
        {j: v for j, v in enumerate(row) if v} for row in rows
    ]


def _with_zeros(rows):
    """Every entry, zeros included: the SNF must count only nonzero ones."""
    return [{j: v for j, v in enumerate(row)} for row in rows]


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


# Row and column Euclid steps without control of the pivot size grow the
# coefficients of these two matrices until A, reduced as a whole matrix,
# runs for more than 20 s, and B, after the unit sweep, for seconds.  Each
# has seven unit invariant factors.
BLOW_UP_A = [
    [-1, -1, -6, 0, 6, 0, -3], [0, 5, -1, 4, 5, 5, -1], [-2, 2, -1, 0, 4, 0, -2],
    [1, 0, 3, 3, -1, 3, 0], [0, 4, 1, -3, 1, 0, -1], [6, 1, 5, -1, 4, 0, -2],
    [-1, 0, -4, 2, 0, 1, 2], [0, -5, -2, -1, 0, 0, 3],
]
BLOW_UP_B = [
    [2, 6, 0, 0, -2, 6, -1, -6], [0, 1, 0, 0, 0, 1, 1, 0], [-5, -1, -6, 4, -6, 0, 5, 0],
    [1, 4, -3, -6, 0, -6, -1, -2], [-1, -1, 0, 0, -5, 0, -1, -1],
    [0, -6, -1, 1, -1, -2, -1, 1], [0, -1, -3, 0, -3, 1, -5, -1],
]


def _whole_matrix_factors(matrix):
    """The smallest-pivot reduction on the whole matrix, without the unit
    sweep that ``smith_invariant_factors`` runs first."""
    return _normalise_divisibility(_smallest_pivot_diagonal(*_sparse(_dense(matrix))))


@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
@example(BLOW_UP_A)
@example(BLOW_UP_B)
def test_snf_matches_dense_and_sympy_oracles(matrix):
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    factors = smith_invariant_factors(_dense(matrix))
    assert factors == _whole_matrix_factors(matrix)
    zeros = _with_zeros(matrix)
    assert smith_invariant_factors(zeros) == factors
    assert zeros == _with_zeros(matrix)
    snf = smith_normal_form(Matrix(matrix), domain=ZZ)
    diagonal = [abs(snf[k, k]) for k in range(min(snf.shape))]
    assert factors == [int(d) for d in diagonal if d]


def test_snf_blow_up_matrices_factor_within_a_timeout():
    # in a subprocess, so that a return of the coefficient blow-up fails
    # here at the timeout instead of hanging the run
    script = (
        "from colorplex.homology import _normalise_divisibility, _smallest_pivot_diagonal, "
        "_sparse, smith_invariant_factors\n"
        f"for m in {[BLOW_UP_A, BLOW_UP_B]!r}:\n"
        "    rows = [{j: v for j, v in enumerate(r) if v} for r in m]\n"
        "    print(smith_invariant_factors(rows), "
        "_normalise_divisibility(_smallest_pivot_diagonal(*_sparse(rows))))\n"
    )
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(colorplex.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{[1] * 7} {[1] * 7}"] * 2


def test_snf_dense_remainder_after_unit_elimination(monkeypatch):
    # the package attribute colorplex.homology is the function, not the module
    module = importlib.import_module("colorplex.homology")
    remainders = []

    def recording(row_data, col_index):
        remainders.append({i: dict(row) for i, row in row_data.items()})
        return _smallest_pivot_diagonal(row_data, col_index)

    monkeypatch.setattr(module, "_smallest_pivot_diagonal", recording)
    # two unit rows whose elimination turns the last two rows into the
    # block [[2, 4], [6, 8]], which has no unit entry left
    matrix = [[1, 1, 0, 0], [0, -1, 0, 0], [2, 0, 2, 4], [0, 3, 6, 8]]
    assert smith_invariant_factors(_dense(matrix)) == [1, 1, 2, 4]
    assert remainders == [{2: {2: 2, 3: 4}, 3: {2: 6, 3: 8}}]


# the unit sweep pivots row 0 in column 1, which clears row 1 down to
# column 0, its pivot; the explicit zero in row 0 must change neither the
# factors nor the pivots
@settings(max_examples=200, deadline=None)
@given(_integer_matrices())
@example([[0, 1], [1, 1]])
def test_snf_pivots_output_names_distinct_unit_columns(matrix):
    rows = _dense(matrix)
    before = [dict(row) for row in rows]
    pivots = []
    factors = smith_invariant_factors(rows, pivots)
    assert factors == smith_invariant_factors(rows)
    assert rows == before
    assert len(set(pivots)) == len(pivots)
    assert set(pivots) <= {c for row in rows for c in row}
    assert len(pivots) <= factors.count(1)
    zeros = _with_zeros(matrix)
    zero_pivots = []
    assert smith_invariant_factors(zeros, zero_pivots) == factors
    assert zero_pivots == pivots
    assert zeros == _with_zeros(matrix)


def test_snf_pivots_output_leaves_out_the_remainder():
    # as in test_snf_dense_remainder_after_unit_elimination: the unit sweep
    # pivots in columns 0 and 1, the remainder [[2, 4], [6, 8]] in 2 and 3
    pivots = []
    matrix = [[1, 1, 0, 0], [0, -1, 0, 0], [2, 0, 2, 4], [0, 3, 6, 8]]
    assert smith_invariant_factors(_dense(matrix), pivots) == [1, 1, 2, 4]
    assert sorted(pivots) == [0, 1]


def _sparse_spy(monkeypatch):
    """The rows that each call of ``_sparse`` receives, by call."""
    module = importlib.import_module("colorplex.homology")
    received = []

    def recording(rows):
        received.append([dict(row) for row in rows])
        return _sparse(rows)

    monkeypatch.setattr(module, "_sparse", recording)
    return received


def test_free_pairs_repeat_the_sweep_until_none_is_left(monkeypatch):
    # column 0 holds both rows, so the first sweep pairs row 1 with column
    # 1 only; that leaves row 0 alone in column 0, paired in a second sweep
    received = _sparse_spy(monkeypatch)
    rows = [(0,), (0, 1)]
    assert _signed_rows(rows) == _dense([[1, 0], [-1, 1]])
    pivots = []
    left = _free_pairs(rows, 2, pivots)
    assert [1] * len(pivots) + smith_invariant_factors(_signed_rows(left), pivots) == [1, 1]
    assert pivots == [1, 0]
    assert received == [[]]


def test_free_pairs_leave_nothing_of_the_sphere_boundaries(monkeypatch):
    """Every middle boundary matrix of the 5-dimensional cross-polytope,
    over the rows that clearing keeps, is paired off before ``_sparse``; a
    matrix without a column of one entry pairs nothing and reaches it
    whole."""
    received = _sparse_spy(monkeypatch)
    assert homology(cross_polytope_boundary(5)).betti == (1, 0, 0, 0, 0, 1)
    assert received == [[], [], []]
    received.clear()
    supports = [tuple(row) for row in _dense(BLOW_UP_A)]
    pivots = []
    assert _free_pairs(supports, 7, pivots) == supports
    assert pivots == []
    assert smith_invariant_factors(_dense(BLOW_UP_A)) == [1] * 7
    assert received == [_dense(BLOW_UP_A)]


def test_sphere_boundaries_build_no_signed_row(monkeypatch):
    """The rows of the 5-dimensional cross-polytope's middle matrices are
    built as tuples of column ids and all pair off on them, so no row of
    {column: sign} is built at all."""
    module = importlib.import_module("colorplex.homology")
    built, signed = [], []

    def building(k_faces, lower_index):
        rows = _boundary_rows(k_faces, lower_index)
        built.extend(rows)
        return rows

    def signing(rows):
        out = _signed_rows(rows)
        signed.extend(out)
        return out

    monkeypatch.setattr(module, "_boundary_rows", building)
    monkeypatch.setattr(module, "_signed_rows", signing)
    assert homology(cross_polytope_boundary(5)).betti == (1, 0, 0, 0, 0, 1)
    assert built and all(type(row) is tuple for row in built)
    assert signed == []


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


def _signed_boundary(k_faces, lower_index):
    """The full signed rows of a boundary matrix, as the SNF takes them."""
    return _signed_rows(_boundary_rows(k_faces, lower_index))


def _reference_homology(t):
    """Homology from every full boundary matrix, bottom up, with no row
    cleared: the reference for the top-down reduction in ``homology``."""
    n = t.dimension
    faces = [set_faces(t, k) for k in range(n + 1)]
    factors = [[] for _ in range(n + 2)]
    for k in range(1, n + 1):
        lower_index = {f: i for i, f in enumerate(faces[k - 1])}
        factors[k] = smith_invariant_factors(_signed_boundary(faces[k], lower_index))
    return HomologyProfile(
        betti=tuple(len(faces[k]) - len(factors[k]) - len(factors[k + 1]) for k in range(n + 1)),
        torsion=tuple(tuple(d for d in factors[k + 1] if d > 1) for k in range(n + 1)),
    )


def _suspension(t):
    """The suspension: every simplex coned to each of two new vertices."""
    a = max(t.vertices) + 1
    return Triangulation.from_simplices(
        t.dimension + 1, [s + (v,) for s in t.simplices for v in (a, a + 1)]
    )


def _thickened(t):
    """Each simplex coned to a vertex of its own.  Each new simplex
    collapses onto its base through its free faces, so the homology is
    that of t, one dimension down from the top."""
    a = max(t.vertices) + 1
    return Triangulation.from_simplices(
        t.dimension + 1, [s + (a + i,) for i, s in enumerate(t.simplices)]
    )


@st.composite
def _pure_complexes(draw):
    """Pure complexes of dimension 1-4 on at most 8 vertices: any set of
    top simplices, so boundary facets and facets in three or more simplices
    occur, and, when two pieces fit, half the draws add a second piece on
    vertices of its own."""
    dimension = draw(st.sampled_from([1, 2, 3, 4]))
    vertices = draw(st.integers(dimension + 1, 8))
    cut = vertices
    if vertices >= 2 * (dimension + 1) and draw(st.booleans()):
        cut = draw(st.integers(dimension + 1, vertices - dimension - 1))
    simplices = []
    for piece in (range(cut), range(cut, vertices)):
        if len(piece) > dimension:
            simplices += draw(st.lists(
                st.sampled_from(list(itertools.combinations(piece, dimension + 1))),
                min_size=1, max_size=16, unique=True,
            ))
    return Triangulation.from_simplices(dimension, simplices)


def _facet_ids(t):
    return {f: i for i, f in enumerate(set_faces(t, t.dimension - 1))}


def _factored_rows(t):
    """``homology(t)``, and by dimension k the number of rows of the
    k-boundary that it hands to elimination, which starts with
    ``_free_pairs``: a row of the k-boundary has k+1 entries."""
    module = importlib.import_module("colorplex.homology")
    with mock.patch.object(module, "_free_pairs", wraps=module._free_pairs) as spy:
        profile = homology(t)
    rows = (call.args[0] for call in spy.call_args_list)
    return profile, {len(r[0]) - 1: len(r) for r in rows if r}


def _theta_suspension():
    """The suspension of the theta graph (two vertices joined by three
    paths): each edge from a branch vertex to an apex lies in three
    triangles, and every other edge in two."""
    theta = Triangulation.from_simplices(1, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    return _suspension(theta)


# The random draws never reach torsion.  The suspension and the double
# suspension of RP2 carry Z/2 in H2 and H3, and RP2 and its suspension
# thickened carry it in H1 and H2; in the thickened complexes the factor 2
# sits in a matrix whose rows the one above has cleared.  The closed form
# takes the top matrix exactly when every facet lies in two simplices, and
# otherwise factors it in full: the torus without one triangle has facets of
# degree 1, the suspended theta graph of degree 3, and only some random
# draws are closed.
@settings(max_examples=300, deadline=None)
@given(_pure_complexes())
@example(_suspension(rp2_6()))
@example(_suspension(_suspension(rp2_6())))
@example(_thickened(rp2_6()))
@example(_thickened(_suspension(rp2_6())))
@example(Triangulation.from_simplices(2, torus7().simplices[1:]))
@example(_theta_suspension())
def test_homology_with_clearing_matches_full_boundary_matrices(t):
    profile, rows = _factored_rows(t)
    assert profile == _reference_homology(t)
    if t.dimension >= 2:  # the 1-boundary is a graph rank at any n
        assert (t.dimension not in rows) == validate(t).closed


def test_each_middle_matrix_gets_the_rows_the_one_above_leaves():
    """On a sphere every pivot of the matrix above is a unit pivot, so
    clearing keeps, in each dimension k that goes through the SNF, the
    k-faces less the rank of the (k+1)-boundary.  The ranks come from the
    face counts alone: b_n = 1 and b_k = 0 below, down to k = 1."""
    for n in (4, 5):
        t = cross_polytope_boundary(n)
        profile, rows = _factored_rows(t)
        assert profile.betti == (1,) + (0,) * (n - 1) + (1,)
        rank_above = len(t.simplices) - 1
        for k in range(n - 1, 1, -1):
            faces = len(set_faces(t, k))
            assert rows[k] == faces - rank_above, (n, k)
            rank_above = faces - rank_above
        assert set(rows) == set(range(2, n))


def test_suspended_and_thickened_projective_planes_keep_their_torsion():
    sigma = homology(_suspension(rp2_6()))
    assert (sigma.betti, sigma.torsion) == ((1, 0, 0, 0), ((), (), (2,), ()))
    sigma2 = homology(_suspension(_suspension(rp2_6())))
    assert (sigma2.betti, sigma2.torsion) == ((1, 0, 0, 0, 0), ((), (), (), (2,), ()))
    thick = homology(_thickened(rp2_6()))
    assert (thick.betti, thick.torsion) == ((1, 0, 0, 0), ((), (2,), (), ()))
    thick_sigma = homology(_thickened(_suspension(rp2_6())))
    assert (thick_sigma.betti, thick_sigma.torsion) == ((1, 0, 0, 0, 0), ((), (), (2,), (), ()))


# ---------------------------------------------------------------------------
# the closed-form top matrix, read off the facet index: closed
# pseudomanifolds, glued from pieces


_CLOSED_PIECES = {
    1: (lambda: simplex_boundary(1), lambda: cross_polytope_boundary(1), lambda: circle(5)),
    2: (lambda: simplex_boundary(2), lambda: cross_polytope_boundary(2), torus7, rp2_6),
    3: (
        lambda: simplex_boundary(3),
        lambda: cross_polytope_boundary(3),
        lambda: _suspension(rp2_6()),
    ),
}


def _glued(t, piece, at=None):
    """t and piece on disjoint vertices or, when ``at`` is a vertex of t,
    with piece's smallest vertex identified with it: a one-vertex wedge.
    In dimension 2 and up no facet holds only that vertex, so every facet
    keeps its two simplices."""
    shift = max(t.vertices) + 1
    relabel = {v: v + shift for v in piece.vertices}
    if at is not None:
        relabel[min(piece.vertices)] = at
    moved = [tuple(relabel[v] for v in s) for s in piece.simplices]
    return Triangulation.from_simplices(t.dimension, t.simplices + tuple(moved))


@st.composite
def _closed_pseudomanifolds(draw):
    """Disjoint unions and one-vertex wedges of one to three closed pieces
    of dimension 1-3, each subdivided once in half the draws: spheres, the
    torus, RP2 and the suspension of RP2, whose top matrix carries a 2.
    Circles are only put side by side: a wedge of circles puts a vertex,
    which is their facet, in four edges."""
    dimension = draw(st.sampled_from([1, 2, 3]))

    def piece():
        t = draw(st.sampled_from(_CLOSED_PIECES[dimension]))()
        return _subdivided(t, 1) if draw(st.booleans()) else t

    t = piece()
    for _ in range(draw(st.integers(0, 2))):
        at = None
        if dimension > 1 and draw(st.booleans()):
            at = draw(st.sampled_from(t.vertices))
        t = _glued(t, piece(), at)
    return t


RP2_AND_RP2 = _glued(rp2_6(), rp2_6())
RP2_AND_TORUS = _glued(rp2_6(), torus7())
# two dual components, but one component of the 1-skeleton
RP2_WEDGE_TORUS = _glued(rp2_6(), torus7(), at=0)
# the top matrix carries a 2, and the 2-boundary is factored after clearing
SIGMA_RP2_AND_SPHERE = _glued(_suspension(rp2_6()), cross_polytope_boundary(3))


def test_glued_projective_planes_and_tori():
    assert homology(RP2_AND_RP2) == HomologyProfile((2, 0, 0), ((), (2, 2), ()))
    assert homology(RP2_AND_TORUS) == HomologyProfile((2, 2, 1), ((), (2,), ()))
    assert homology(RP2_WEDGE_TORUS) == HomologyProfile((1, 2, 1), ((), (2,), ()))


@settings(max_examples=150, deadline=None)
@given(_closed_pseudomanifolds())
@example(RP2_AND_RP2)
@example(RP2_AND_TORUS)
@example(RP2_WEDGE_TORUS)
@example(SIGMA_RP2_AND_SPHERE)
def test_homology_of_closed_pseudomanifolds_matches_full_boundary_matrices(t):
    """Also: the tree facets' rows are left out of the (n-1)-boundary.  Left
    in, they would keep every factor, so only the row count shows them."""
    assert validate(t).closed
    profile, rows = _factored_rows(t)
    assert profile == _reference_homology(t)
    n = t.dimension
    if n >= 3:  # below, the (n-1)-boundary is a graph rank
        assert rows[n - 1] == len(set_faces(t, n - 1)) - (len(t.simplices) - validate(t).components)


def _slot_facet(t, x):
    s = t.simplices[x // (t.dimension + 1)]
    i = x % (t.dimension + 1)
    return s[:i] + s[i + 1 :]


@settings(max_examples=150, deadline=None)
@given(_closed_pseudomanifolds())
@example(RP2_AND_RP2)
@example(RP2_WEDGE_TORUS)
@example(SIGMA_RP2_AND_SPHERE)
def test_facet_index_forest_gives_top_factors_and_cleared_rows(t):
    """The factors read off the index's forest, one 1 per tree slot and one
    2 per tree unbalanced in the orientation bit, equal the SNF of the full
    top matrix; the tree slots name distinct facets, one fewer than the
    simplices per dual component, and leaving their rows out of the next
    matrix down keeps its factors."""
    n = t.dimension
    index = t.facet_index
    tree = tree_slots(t)
    factors = [1] * len(tree) + [2] * sum(1 for bits in index.odd if bits & 2)
    assert factors == smith_invariant_factors(_signed_boundary(t.simplices, _facet_ids(t)))
    assert all(x < index.mates[x] for x in tree)
    tree_facets = {_slot_facet(t, x) for x in tree}
    assert len(tree_facets) == len(tree) == len(t.simplices) - validate(t).components
    if n >= 2:
        ridge_ids = {f: i for i, f in enumerate(set_faces(t, n - 2))}
        facets = set_faces(t, n - 1)
        kept = [f for f in facets if f not in tree_facets]
        assert smith_invariant_factors(_signed_boundary(kept, ridge_ids)) == (
            smith_invariant_factors(_signed_boundary(facets, ridge_ids))
        )


def test_theta_suspension_has_facets_of_degree_three():
    t = _theta_suspension()
    assert dict(validate(t).bad_faces) == {(0, 5): 3, (0, 6): 3, (1, 5): 3, (1, 6): 3}
    profile, rows = _factored_rows(t)
    assert profile == HomologyProfile((1, 0, 2), ((), (), ()))
    assert rows[2] == len(t.simplices)  # the top matrix is factored in full


def test_closed_homology_never_enumerates_the_facets(monkeypatch):
    """Each dimension is enumerated once, top down, when its step reaches
    it.  On a closed input the rows kept in the (n-1)-boundary are the
    facets of the facet index's non-tree slots, so the (n-1)-faces are never
    enumerated; with a bad facet the top matrix is factored over them."""
    module = importlib.import_module("colorplex.homology")
    asked = []
    enumerate_faces = module._faces
    monkeypatch.setattr(module, "_faces", lambda t, k: asked.append(k) or enumerate_faces(t, k))
    closed = [t for t in _duality_inputs() if t.dimension >= 2]
    closed += [RP2_AND_RP2, RP2_WEDGE_TORUS, SIGMA_RP2_AND_SPHERE]
    not_closed = [
        _theta_suspension(),
        Triangulation.from_simplices(2, torus7().simplices[1:]),
        _thickened(rp2_6()),
    ]
    for inputs, top in ((closed, 2), (not_closed, 1)):
        for t in inputs:
            asked.clear()
            homology(t)
            assert asked == list(range(t.dimension - top, -1, -1))


# ---------------------------------------------------------------------------
# free pairs on the supports of the rows


def _factors_through_free_pairs(t):
    """By dimension k, the factors of the k-boundary as ``homology`` takes
    them: free pairs on the supports of the rows that clearing keeps, then
    the SNF of the signed rows left.  Every matrix is built in full, top
    down, so the top one is eliminated too; each must keep the factors of
    the full signed matrix, and each paired column must hold one live row
    when it pairs, the rows left being those that never paired."""
    n = t.dimension
    faces = [set_faces(t, k) for k in range(n + 1)]
    factors = {}
    kept = faces[n]
    for k in range(n, 0, -1):
        ids = {f: i for i, f in enumerate(faces[k - 1])}
        rows = _boundary_rows(kept, ids)
        pivots = []
        left = _free_pairs(rows, len(ids), pivots)
        live = list(rows)
        for c in pivots:
            holding = [row for row in live if c in row]
            assert len(holding) == 1, (k, c, holding)
            live.remove(holding[0])
        assert live == left
        factors[k] = [1] * len(pivots) + smith_invariant_factors(_signed_rows(left), pivots)
        full = smith_invariant_factors(_signed_boundary(faces[k], ids))
        assert factors[k] == full, k
        cleared = set(pivots)
        kept = [f for i, f in enumerate(faces[k - 1]) if i not in cleared]
    return factors


@settings(max_examples=200, deadline=None)
@given(st.one_of(_pure_complexes(), _closed_pseudomanifolds()))
def test_free_pairs_on_supports_keep_the_factors_of_the_signed_matrix(t):
    _factors_through_free_pairs(t)


def test_free_pairs_keep_the_torsion_of_a_cleared_middle_matrix():
    """RP2 thickened carries its 2 in the 2-boundary, and its suspension
    thickened in the 3-boundary: middle matrices, factored over the rows
    that the matrix above leaves."""
    for t, k in ((_thickened(rp2_6()), 2), (_thickened(_suspension(rp2_6())), 3)):
        factors = _factors_through_free_pairs(t)
        assert [d for d in factors[k] if d > 1] == [2], (k, factors[k])
        assert k < t.dimension


# ---------------------------------------------------------------------------
# the spanning forest of the 1-boundary


@st.composite
def _multigraphs(draw):
    """Component sizes and edges (a, b) in random order.  Each component is
    a block of consecutive node ids, connected by a random spanning tree,
    with extra edges that may be parallel or loops."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    pairs = []
    start = 0
    for size in sizes:
        nodes = draw(st.permutations(range(start, start + size)))
        pairs += [(nodes[k], nodes[draw(st.integers(0, k - 1))]) for k in range(1, size)]
        pairs += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=10))
        start += size
    return sizes, draw(st.permutations(pairs))


@settings(max_examples=300, deadline=None)
@given(_multigraphs())
def test_forest_size_is_the_nodes_less_the_components(graph):
    sizes, edges = graph
    assert _forest_size(sum(sizes), edges) == sum(sizes) - len(sizes)
