"""Integral simplicial homology via exact Smith normal form, with the two
end boundary matrices in closed form.

Boundary matrices are eliminated over the integers with arbitrary precision;
no modular shortcuts, so torsion coefficients are exact.  Free pairs go
first (coreductions: Mrozek and Batko, "Coreduction homology algorithm",
DCG 2009): a row with a +-1 in a column that holds no other entry is a unit
factor, and column operations clear the rest of its row without touching
any other, so the matrix is 1 (+) the other rows.  Every entry of a
simplicial boundary row is +-1, its sign fixed by the position of the
vertex its facet drops, so the pairs need only the support of each row:
each row is built as the tuple of its column ids (``_boundary_rows``), and
sweeps over those tuples pair rows with the column counts kept in step
(``_free_pairs``).  Only the rows the sweeps leave are built as signed
sparse rows (``_signed_rows``) for :func:`smith_invariant_factors`.  Its
sparse sweeps then eliminate unit pivots: each row is pivoted on its +-1
entry in the column with the fewest rows.  The small remainder without unit
entries is reduced in the same sparse rows, always pivoting on an entry of
least absolute value, which keeps the intermediate coefficients small.

The boundary matrices are reduced top down, from the top dimension n to 1,
and the unit pivots of each one clear rows from the next ("clearing", or the
twist: Chen and Kerber, "Persistent homology computation with a twist",
EuroCG 2011; Bauer, Kerber and Reininghaus, "Clear and compress: computing
persistent homology in chunks", 2014).  The rows of the k-boundary matrix
are the k-faces and its columns the (k-1)-faces.  Each pivot row of the
unit sweep of the (k+1)-boundary is an integer combination of its rows, the
boundary of a (k+1)-chain, so it is a k-cycle z with +-1 at its pivot
k-face and 0 at every earlier pivot face (each pivot clears its column from
all rows still in play).  A free pair's row is such a z as it stands: it
is a row of the matrix, +-1 in its column, and 0 in every earlier pair's
column, since each of those held one row only, now gone; and the rows left
for the unit sweep are 0 in every pair's column.  Replacing the rows of the
pivot faces by the combinations z1, z2, ... of rows is then a
unitriangular, so unimodular, row operation, and each new row is the
boundary of a cycle, which is 0.  So the k-boundary matrix without those
rows has the same invariant factors, not only the same rank.  This holds
over the integers because the pivots are +-1, and only for the free pairs
and the unit sweep: the smallest-pivot remainder also uses column
operations, so its pivots are not cleared.

The two end matrices need no elimination: each is the incidence matrix of a
graph, and a spanning forest of that graph gives its factors.  The
1-boundary is the incidence matrix of the 1-skeleton: every invariant factor
is 1, and its rank is the vertex count minus the number of components, which
is the size of a spanning forest over its rows (``_forest_size``, a
union-find, over the rows left after clearing, which have the same rank).
When every (n-1)-face lies in exactly two simplices, as in a closed
pseudomanifold, the n-boundary is the signed incidence matrix of the dual
graph: its rows are the simplices (the nodes) and its columns the facets
(the edges), each column with two entries +-1.  Per dual component, its
invariant factors are all 1 (one fewer than the simplices) when the
component is orientable, and all 1 plus one 2 when it is not (Zaslavsky,
"Signed graphs", Discrete Appl. Math. 1982).  The facet index of the
triangulation has already grown a spanning forest of the dual graph, once,
in the breadth-first walk that also carries the holonomy's colors, and kept
it (``_FacetIndex.into`` and ``.odd``): across a facet that simplices a and
b drop at positions i and j, a coherent orientation flips sign exactly when
i + j is even, which is the walk's bit 2, and an edge inside one component
that disagrees with the signs it labelled makes that component
non-orientable.  So the top matrix's factors are read off the index and
never built (Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", JSC 2001, take such structured parts
out of elimination).  Any spanning forest would do; the argument below holds
for every one.

The facets of the forest's edges are the rows cleared from the
(n-1)-boundary.  Take a tree facet e and the simplices that its edge cuts
off from the root of their tree, each signed as the tree orients it.  Their
chain's boundary is +-e plus non-tree facets only: across every other tree
facet inside the subtree the two signs cancel, and e is the only tree facet
between the subtree and the rest.  As the (n-1)-boundary of an n-boundary is
zero, the row of e in the (n-1)-boundary is an integer combination of
non-tree rows.  Subtracting it, for every tree facet at once, is a
unimodular row operation that turns the tree rows into zero rows, so the
invariant factors of the (n-1)-boundary are those of its non-tree rows: the
facets of the index's other pairs of slots.  The pairs also count the
(n-1)-faces, which are never enumerated.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd

from .triangulation import Triangulation, _faces, _gc_paused, _slot_facet


def _sparse(
    rows: list[dict[int, int]],
) -> tuple[dict[int, dict[int, int]], dict[int, set[int]]]:
    """Copies of the nonzero rows, keyed by row number, and the index from
    each column to the rows holding a nonzero entry in it."""
    row_data = {i: {c: v for c, v in row.items() if v} for i, row in enumerate(rows)}
    row_data = {i: r for i, r in row_data.items() if r}
    col_index: dict[int, set[int]] = {}
    for i, row in row_data.items():
        for c in row:
            col_index.setdefault(c, set()).add(i)
    return row_data, col_index


def _clear_column(
    row_data: dict[int, dict[int, int]], col_index: dict[int, set[int]], pr: int, pc: int
) -> None:
    """Subtract floor(row[pc] / p) times the pivot row, whose entry in column
    ``pc`` is p, from every other row with an entry there, keeping the column
    index in step.  Each such row is left with ``row[pc] % p``: nothing when
    p is +-1, and otherwise an entry smaller than |p| or nothing."""
    pivot_row = row_data[pr]
    p = pivot_row[pc]
    for i in list(col_index[pc]):
        if i == pr:
            continue
        row = row_data[i]
        q = row[pc] // p
        for c, v in pivot_row.items():
            new = row.get(c, 0) - q * v
            if new:
                if c not in row:
                    col_index.setdefault(c, set()).add(i)
                row[c] = new
            elif c in row:
                del row[c]
                col_index[c].discard(i)
        if not row:
            del row_data[i]


def _smallest_pivot_diagonal(
    row_data: dict[int, dict[int, int]], col_index: dict[int, set[int]]
) -> list[int]:
    """Reduce sparse rows to a diagonal and return its nonzero entries (not
    yet in divisibility order).  ``row_data`` is left empty.

    Each step pivots on an entry p of least absolute value, clears its column
    by floor-division row operations, and then, once the column holds only
    p, clears its row by column operations, which change the pivot row alone
    (``pivot_row[c] %= p``).  Any nonzero remainder is smaller than |p|, so
    the pivot is chosen again and shrinks with every retry until p divides
    its whole row and column.
    """
    out: list[int] = []
    while row_data:
        _, pr, pc = min((abs(v), i, c) for i, row in row_data.items() for c, v in row.items())
        pivot_row = row_data[pr]
        p = pivot_row[pc]
        _clear_column(row_data, col_index, pr, pc)
        if len(col_index[pc]) > 1:
            continue
        for c in list(pivot_row):
            if c != pc:
                pivot_row[c] %= p
                if not pivot_row[c]:
                    del pivot_row[c]
                    col_index[c].discard(pr)
        if len(pivot_row) > 1:
            continue
        out.append(abs(p))
        del row_data[pr], col_index[pc]
    return out


def _normalise_divisibility(diagonal: list[int]) -> list[int]:
    """Rearrange a diagonal into invariant factors d1 | d2 | ... .

    A 1 divides everything, so the 1s are counted and set aside before the
    gcd/lcm pass, which then runs over the non-unit entries only.  Pass i
    replaces d[i], d[j] by their gcd and lcm for every later j, so that
    afterwards d[i] divides every later entry, and later passes keep that.
    """
    ones = diagonal.count(1)
    d = [x for x in diagonal if x not in (0, 1)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return [1] * ones + d


def smith_invariant_factors(
    rows: list[dict[int, int]], pivots: list[int] | None = None
) -> list[int]:
    """Invariant factors of a sparse integer matrix (rows of {col: value}).

    The rows are copied into sparse rows, and unit pivots are eliminated in
    sweeps over them: each row with a +-1 entry is pivoted on the one whose
    column currently has the fewest rows, which clears that column from the
    other rows, and the sweep is repeated while the previous one eliminated
    something.  Choosing the pivot costs O(row length), not a scan of the
    whole matrix, and a free pair (a +-1 alone in its column) is taken as it
    comes, with nothing to clear.  Whatever remains (no unit entries) is
    reduced in the same sparse rows by :func:`_smallest_pivot_diagonal`.
    The input rows are not modified.

    ``pivots`` is an output: when a list is passed, the column of each pivot
    of the unit sweep is appended to it, in pivot order (the remainder's
    pivots are not).  :func:`homology` first appends the columns of the free
    pairs that :func:`_free_pairs` took off the same matrix, then clears all
    those columns' faces from the next boundary matrix down; the factors do
    not depend on it.
    """
    row_data, col_index = _sparse(rows)
    ones = 0
    eliminated = True
    while eliminated:
        eliminated = False
        for pr in list(row_data):
            pivot_row = row_data.get(pr)
            if pivot_row is None:  # emptied earlier in this sweep
                continue
            pc = None
            fewest = 0
            for c, v in pivot_row.items():
                if v == 1 or v == -1:
                    count = len(col_index[c])
                    if pc is None or count < fewest:
                        pc, fewest = c, count
                        if count == 1:
                            break
            if pc is None:
                continue
            _clear_column(row_data, col_index, pr, pc)
            if pivots is not None:
                pivots.append(pc)
            for c in pivot_row:
                col_index[c].discard(pr)
                if not col_index[c]:
                    del col_index[c]
            del row_data[pr]
            ones += 1
            eliminated = True

    remainder = _smallest_pivot_diagonal(row_data, col_index)
    return _normalise_divisibility([1] * ones + remainder)


# ---------------------------------------------------------------------------
# homology of a triangulation


@dataclass(frozen=True)
class HomologyProfile:
    """Integral homology in dimensions 0..n: Betti numbers plus torsion
    coefficients (each dividing the next) per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def betti_alternating_sum(self) -> int:
        return sum(b if k % 2 == 0 else -b for k, b in enumerate(self.betti))

    def to_json(self) -> dict:
        return {
            "betti": list(self.betti),
            "torsion": [list(ts) for ts in self.torsion],
        }


def _boundary_rows(
    k_faces: Iterable[tuple[int, ...]], lower_index: dict[tuple[int, ...], int]
) -> list[tuple[int, ...]]:
    """The supports of the rows of a boundary matrix: per k-face, the ids of
    its facets, dropping the vertex at positions k, k-1, ..., 0 in turn, as
    ``combinations(face, k)`` yields them.  :func:`_signed_rows` adds the
    signs, which the positions fix."""
    return [
        tuple(map(lower_index.__getitem__, combinations(face, len(face) - 1))) for face in k_faces
    ]


def _signed_rows(rows: Iterable[tuple[int, ...]]) -> list[dict[int, int]]:
    """Boundary rows as {id of a facet: sign}: the facet that drops the
    vertex at position i has sign (-1)^i, so a row of k+1 ids is zipped with
    the signs (-1)^k, ..., -1, 1."""
    signed = []
    signs: list[int] = []
    for row in rows:
        if len(signs) != len(row):
            signs = [-1 if i % 2 else 1 for i in range(len(row) - 1, -1, -1)]
        signed.append(dict(zip(row, signs)))
    return signed


def _free_pairs(
    rows: list[tuple[int, ...]], width: int, pivots: list[int]
) -> list[tuple[int, ...]]:
    """Take the free pairs off a boundary matrix, given by the supports of
    its rows over the columns 0..width-1, and return the rows left.

    The rows holding each column are counted, and sweeps over the rows pair
    a row with a column that holds it and no other row.  Every entry of a
    boundary row is +-1, so the pair is a unit factor; its column holds no
    other row, so column operations clear the rest of its row and leave
    1 (+) the other rows, untouched, and the counts of the row's other
    columns drop by one.  The sweeps repeat while the previous one paired
    something.  Each pair's column is appended to ``pivots``, in pairing
    order; ``rows`` is not modified.  A paired row is a row of the matrix
    with 0 in every earlier pair's column, which held one row only, so
    :func:`homology` clears its face as it clears the faces of the unit
    sweep's pivot rows (see the module docstring).
    """
    counts = [0] * width
    for c in chain.from_iterable(rows):
        counts[c] += 1
    left = rows
    while True:
        rest = []
        for row in left:
            for pc in row:
                if counts[pc] == 1:
                    break
            else:
                rest.append(row)
                continue
            for c in row:
                counts[c] -= 1
            pivots.append(pc)
        if len(rest) == len(left):
            return rest
        left = rest


def _forest_size(count: int, edges: Iterable[tuple[int, int]]) -> int:
    """The number of edges in a spanning forest of the graph on the nodes
    0..count-1 with ``edges``: count minus the number of components.  A
    union-find with path halving (Tarjan and van Leeuwen, "Worst-case
    analysis of set union algorithms", JACM 1984) counts the edges that
    join two trees."""
    parent = list(range(count))
    joined = 0
    for a, b in edges:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
            joined += 1
    return joined


@_gc_paused
def homology(t: Triangulation) -> HomologyProfile:
    """Homology groups H_0..H_n from the invariant factors of the boundary
    matrices.

    The boundary maps are factored from C_n -> C_{n-1} down to C_1 -> C_0,
    each over the faces kept from the step above.  The k-faces that were
    unit-pivot columns of the (k+1)-boundary are left out of the
    k-boundary's rows, which keeps its invariant factors (see the module
    docstring); the kept faces go one dimension down, no further.  Each
    step enumerates the faces of its columns, and drops them once it has
    kept its rows and counted them for the Betti numbers.

    The ends are in closed form.  When the facet index lists no facet of
    degree other than 2, the n-boundary's factors are read off its
    breadth-first forest: one 1 per tree edge, and one 2 per tree
    unbalanced in the orientation bit.  The tree facets' rows are left out
    of the (n-1)-boundary: the boundary of the signed simplices below a tree
    facet e in the forest is +-e plus non-tree facets, so e's row is a
    combination of the others.  The rows kept are the facets of the other
    pairs of slots, and the pairs count the (n-1)-faces, which are never
    enumerated.
    Any other top matrix, and every matrix in the middle, is built as
    tuples of column ids, one per kept face, and ``_free_pairs`` takes its
    free pairs on them; the rows it leaves, often none, are signed and go
    through ``smith_invariant_factors``, one call per matrix.  The pairs'
    columns come first among the cleared faces, then the unit sweep's.  The
    1-boundary's factors are all 1, as many as the edges of a spanning
    forest of the 1-skeleton.

    Invariant: b_k = len(faces_k) - rank_k - rank_{k+1}, and the ranks cancel
    in the alternating sum, so that sum is the Euler characteristic whatever
    ranks the eliminations return; comparing the two would test nothing.
    """
    n = t.dimension

    # factors[k] = invariant factors of the boundary map C_k -> C_{k-1}
    factors: list[list[int]] = [[] for _ in range(n + 2)]
    sizes = [0] * n + [len(t.simplices)]  # the number of k-faces
    kept: Iterable[tuple[int, ...]] = t.simplices
    for k in range(n, 0, -1):
        if k == 1:
            vertices = _faces(t, 0)
            sizes[0] = len(vertices)
            vertex_ids = {f: i for i, f in enumerate(vertices)}
            joined = _forest_size(
                len(vertex_ids), ((vertex_ids[(u,)], vertex_ids[(v,)]) for u, v in kept)
            )
            factors[1] = [1] * joined
        elif k == n and not t.facet_index.bad_faces:
            index = t.facet_index
            factors[n] = [1] * (len(t.simplices) - len(index.odd)) + [2] * sum(
                1 for bits in index.odd if bits & 2
            )
            # every slot is paired: one facet per pair, the tree's left out
            sizes[n - 1] = len(index.mates) // 2
            tree = set(index.into)  # one slot of each tree edge, and -1
            kept = [
                _slot_facet(t, x)
                for x, y in enumerate(index.mates)
                if x < y and x not in tree and y not in tree
            ]
        else:
            lower = _faces(t, k - 1)
            sizes[k - 1] = len(lower)
            pivots: list[int] = []
            left = _free_pairs(
                _boundary_rows(kept, {f: i for i, f in enumerate(lower)}), len(lower), pivots
            )
            ones = [1] * len(pivots)
            factors[k] = ones + smith_invariant_factors(_signed_rows(left), pivots)
            cleared = set(pivots)
            kept = [f for i, f in enumerate(lower) if i not in cleared]
            del lower  # dropped before the next dimension is enumerated

    betti = []
    torsion = []
    for k in range(n + 1):
        rank_k = len(factors[k])
        rank_k1 = len(factors[k + 1])
        betti.append(sizes[k] - rank_k - rank_k1)
        torsion.append(tuple(d for d in factors[k + 1] if d > 1))
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion))
