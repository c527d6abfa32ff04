"""Integral simplicial homology via exact Smith normal form.

Boundary matrices are eliminated over the integers with arbitrary precision;
no modular shortcuts, so torsion coefficients are exact.  Boundary matrices
are mostly +-1, so sparse sweeps over the rows first eliminate unit pivots:
each row is pivoted on its +-1 entry in the column with the fewest rows.
The small remainder without unit entries is then diagonalised classically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .triangulation import Triangulation


def _dense_diagonal(matrix: list[list[int]]) -> list[int]:
    """Diagonalise a small integer matrix by row/column reduction and return
    the nonzero diagonal entries (not yet in divisibility order)."""
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    out: list[int] = []
    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        # alternate row and column reduction until both are clear
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        out.append(abs(a[t][t]))
        t += 1
        if t >= rows or t >= cols:
            for i in range(t, rows):
                for j in range(t, cols):
                    if a[i][j]:
                        raise AssertionError("diagonalisation left a nonzero entry")
            break
    return out


def _normalise_divisibility(diagonal: list[int]) -> list[int]:
    """Rearrange a diagonal into invariant factors d1 | d2 | ... .

    A 1 divides everything, so the 1s are counted and set aside before the
    pairwise gcd loop, which then runs over the non-unit entries only.
    """
    ones = diagonal.count(1)
    d = [x for x in diagonal if x not in (0, 1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i] != 0:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    return [1] * ones + sorted(d)


def smith_invariant_factors(rows: list[dict[int, int]]) -> list[int]:
    """Invariant factors of a sparse integer matrix (rows of {col: value}).

    Unit pivots are eliminated sparsely in sweeps over the rows: each row
    with a +-1 entry is pivoted on the one whose column currently has the
    fewest rows, which clears that column from the other rows, and the sweep
    is repeated while the previous one eliminated something.  Choosing the
    pivot costs O(row length), not a scan of the whole matrix.  Whatever
    remains (no unit entries) is diagonalised densely.  The input rows are
    not modified.
    """
    row_data: dict[int, dict[int, int]] = {
        i: {c: v for c, v in row.items() if v} for i, row in enumerate(rows)
    }
    row_data = {i: r for i, r in row_data.items() if r}
    col_index: dict[int, set[int]] = {}
    for i, row in row_data.items():
        for c in row:
            col_index.setdefault(c, set()).add(i)

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
            pv = pivot_row[pc]
            for i in list(col_index[pc]):
                if i == pr:
                    continue
                row = row_data[i]
                factor = row[pc] * pv  # pv is +-1, so this is row[pc] / pv
                for c, v in pivot_row.items():
                    new = row.get(c, 0) - factor * v
                    if new:
                        if c not in row:
                            col_index.setdefault(c, set()).add(i)
                        row[c] = new
                    else:
                        if c in row:
                            del row[c]
                            col_index[c].discard(i)
                if not row:
                    del row_data[i]
            for c in pivot_row:
                col_index[c].discard(pr)
                if not col_index[c]:
                    del col_index[c]
            del row_data[pr]
            ones += 1
            eliminated = True

    factors = [1] * ones
    if row_data:
        cols = sorted({c for row in row_data.values() for c in row})
        col_pos = {c: k for k, c in enumerate(cols)}
        dense = []
        for row in row_data.values():
            line = [0] * len(cols)
            for c, v in row.items():
                line[col_pos[c]] = v
            dense.append(line)
        factors.extend(_dense_diagonal(dense))
    return _normalise_divisibility(factors)


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
    k_faces: tuple[tuple[int, ...], ...], lower_index: dict[tuple[int, ...], int]
) -> list[dict[int, int]]:
    rows = []
    for face in k_faces:
        row: dict[int, int] = {}
        for i in range(len(face)):
            sub = face[:i] + face[i + 1 :]
            row[lower_index[sub]] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def homology(t: Triangulation) -> HomologyProfile:
    """Homology groups H_0..H_n from boundary matrices in Smith normal form.

    Invariant: b_k = len(faces_k) - rank_k - rank_{k+1}, and the ranks cancel
    in the alternating sum, so that sum is the Euler characteristic whatever
    ranks the eliminations return; comparing the two would test nothing.
    """
    n = t.dimension
    faces_by_dim = t.faces

    # factors[k] = invariant factors of the boundary map C_k -> C_{k-1}
    factors: list[list[int]] = [[] for _ in range(n + 2)]
    for k in range(1, n + 1):
        lower_index = {f: i for i, f in enumerate(faces_by_dim[k - 1])}
        rows = _boundary_rows(faces_by_dim[k], lower_index)
        factors[k] = smith_invariant_factors(rows)

    betti = []
    torsion = []
    for k in range(n + 1):
        rank_k = len(factors[k])
        rank_k1 = len(factors[k + 1])
        betti.append(len(faces_by_dim[k]) - rank_k - rank_k1)
        torsion.append(tuple(d for d in factors[k + 1] if d > 1))
    return HomologyProfile(betti=tuple(betti), torsion=tuple(torsion))
