"""Faces of a triangulation read off its simplices as sets, for tests that
check the program's face enumeration, census and homology against code that
shares nothing with them."""

from __future__ import annotations

from itertools import combinations


def set_faces(t, k):
    """The k-faces of ``t``, sorted: every (k+1)-subset of a simplex."""
    return sorted({f for s in t.simplices for f in combinations(s, k + 1)})
