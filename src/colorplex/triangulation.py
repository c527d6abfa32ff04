"""Triangulated closed pseudomanifolds and their combinatorial invariants.

A complex is stored as its simplicial triangulation: an ``n``-dimensional
``Triangulation`` lists the top simplices as (n+1)-element vertex sets.  The
dual cell structure (regions at the vertices, one dual vertex per simplex,
dual edges at the shared facets, dual 2-cells at the codimension-2 faces) is
read off the facet index ``Triangulation.facet_index``, built on first use
and then held by the triangulation as a cached property.  It is the dual
graph as a gluing table: one flat list of slots, slot a*(n+1)+i for the
facet that simplex a gets by dropping its vertex at position i, holding the
slot of the other simplex with that facet, or -1.  It is the package's only
pairing of facets.  Beside the slots the index keeps the facets not shared
by exactly two simplices, and one breadth-first spanning forest of the dual
graph (``_breadth_first``): the slot through which the walk enters each
simplex, the order of the visits, and per tree the bits in which the tree is
unbalanced, from which the component count and the verdicts on
bipartiteness and orientability are read.  Its first tree is the
lexicographic one along which the holonomy carries its colors, so one walk
serves validation, both verdicts, the holonomy and homology's closed-form
top matrix; the dual graph and the gem encoding read the slots, and the
facet table that pairs them is dropped once they are paired.  The vertex
stars ``Triangulation.stars`` are a cached property of their own, built on
first use by ``link_loop_permutation``, their only reader.

No face lattice is held: ``_faces(t, k)`` lists the k-faces, sorted (a
face's position is its face id), for a reader to use and drop.  Faces can be
exponential in n, so it first refuses any triangulation whose faces may
exceed ``FACE_BUDGET``.  The face census counts the faces below codimension
2 through it, the codim-2 faces with their degrees in a count of its own,
and the facets as the index's pairs of slots plus its bad faces; the Euler
characteristic is the alternating sum of its counts.  The census and the
default-tree holonomy data are held like the indexes, so everything derived
from a triangulation is built at most once per object and lives exactly as
long as it.  ``dual_graph`` holds nothing: it lists the paired slots as
edges on each call; nor do ``homology`` and barycentric subdivision, which
no caller runs twice on one triangulation.  Nothing is written after it is
built and every function is pure, so concurrent use on shared inputs is
safe; two threads that read a property first at the same time may both
build it, with equal results.

The builders that allocate in bulk (the parser, these cached properties,
``homology``, barycentric subdivision and the gem report) run with the
cyclic garbage collector paused (``_gc_paused``): they make no reference
cycles, so its passes during them would free nothing.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, wraps
from itertools import chain, combinations, repeat
from typing import TYPE_CHECKING

from .errors import BudgetError, FormatError

if TYPE_CHECKING:
    from .holonomy import HolonomyData

# The most faces, of all dimensions, a triangulation may have for any to be
# enumerated.  N n-simplices have at most N * (2^(n+1) - 1) faces,
# exponential in n; the bound is checked before anything is enumerated.
FACE_BUDGET = 1 << 24


def _gc_paused(build):
    """``build`` run with the cyclic garbage collector paused.

    Sound because the builders it wraps make no reference cycles: none of
    the tuples, lists, dicts and frozen dataclasses they build refers back
    to itself, directly or through others, so reference counting frees
    everything they drop, and a collection during them would scan every
    young container and free nothing.  It is re-entrant: when the collector is already off, turned
    off by a caller or by an outer builder, it does nothing, so the caller
    finds it off again; otherwise it turns the collector off and back on in
    ``finally``, so an exception also leaves it on.  The switch is
    process-wide.  When two threads run builders at once, one may turn the
    collector back on while the other still builds, or find it off and
    leave it alone; that changes only when collections happen, never a
    result.
    """

    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class Triangulation:
    """A pure n-dimensional simplicial complex given by its top simplices.

    ``simplices`` holds sorted vertex tuples in lexicographic order; the
    integer position of a simplex in this tuple is its *simplex id*.  Vertex
    ids are arbitrary non-negative integers and are preserved verbatim.

    The data derived from a triangulation are cached properties, built on
    first read and then held by the object: ``facet_index``, ``stars``,
    ``census`` and ``holonomy``.  Equality and hashing ignore them.
    """

    dimension: int
    simplices: tuple[tuple[int, ...], ...]

    @classmethod
    def from_simplices(cls, dimension, simplices) -> "Triangulation":
        """Normalise a collection of vertex sets under the parser's rules."""
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        normalised = []
        for simplex in simplices:
            verts = tuple(sorted(simplex))
            fault = _simplex_fault(verts, dimension)
            if fault is not None:
                raise ValueError(f"{fault}: {verts}")
            normalised.append(verts)
        ordered = tuple(sorted(normalised))
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate simplex {a}")
        return cls(dimension, ordered)

    @property
    def vertices(self) -> tuple[int, ...]:
        """The distinct vertex ids, ascending, collected from one set over
        every simplex; the only place they are collected."""
        return tuple(sorted(set(chain.from_iterable(self.simplices))))

    def __len__(self) -> int:
        return len(self.simplices)

    @cached_property
    @_gc_paused
    def facet_index(self) -> _FacetIndex:
        """The dual graph and a breadth-first spanning forest of it (see
        ``_FacetIndex``)."""
        return _facet_index(self)

    @cached_property
    @_gc_paused
    def stars(self) -> dict[int, list[int]]:
        """Each vertex's star: the ascending ids of the simplices containing
        it."""
        return _stars(self)

    @cached_property
    @_gc_paused
    def census(self) -> FaceCensus:
        """Face counts by dimension, and the degree of every codim-2 face."""
        return _census(self)

    @cached_property
    @_gc_paused
    def holonomy(self) -> HolonomyData:
        """``hol_generators`` over the default spanning tree."""
        from .holonomy import hol_generators  # at call time: holonomy imports this module

        return hol_generators(self)


def _slot_facet(t: Triangulation, x: int) -> tuple[int, ...]:
    """The facet of slot x = a*(n+1)+i: simplex a without its vertex at
    position i."""
    a, i = divmod(x, t.dimension + 1)
    s = t.simplices[a]
    return s[:i] + s[i + 1 :]


def _stars(t: Triangulation) -> dict[int, list[int]]:
    stars: dict[int, list[int]] = {}
    for sid, s in enumerate(t.simplices):
        for v in s:
            stars.setdefault(v, []).append(sid)
    return stars


def _simplex_fault(verts: tuple[int, ...], dimension: int) -> str | None:
    """Why the sorted vertex tuple ``verts`` is not a simplex of an
    n-dimensional triangulation, or None: not n+1 vertices, a repeated
    vertex, or a negative vertex id."""
    if len(verts) != dimension + 1:
        return f"simplex has {len(verts)} vertices, expected {dimension + 1}"
    if len(set(verts)) != len(verts):
        return "repeated vertex within a simplex"
    if any(v < 0 for v in verts):
        return "negative vertex id"
    return None


def _check_face_budget(dimension: int, simplex_count: int) -> None:
    """Raise BudgetError when ``simplex_count`` n-simplices may have more
    than FACE_BUDGET faces.  One simplex has 2^(n+1) - 1, so a dimension past
    the budget's bit length is refused before any power is formed."""
    if dimension >= FACE_BUDGET.bit_length() - 1:
        raise BudgetError(
            f"one simplex of dimension {dimension} has 2^{dimension + 1} - 1 faces, "
            f"over the face budget of {FACE_BUDGET}"
        )
    bound = simplex_count * ((1 << dimension + 1) - 1)
    if bound > FACE_BUDGET:
        raise BudgetError(
            f"{simplex_count} simplices of dimension {dimension} may have up to "
            f"{bound} faces, over the face budget of {FACE_BUDGET}"
        )


@_gc_paused
def parse_triangulation(text: str) -> Triangulation:
    """Parse the triangulation file format.

    Lines starting with '#' and blank lines are ignored.  The first content
    line must be ``dim <n>``; every later content line lists the n+1 vertex
    ids of one simplex.  Raises :class:`FormatError` with a line number on
    malformed input; duplicate simplices and repeated vertices are rejected.
    """
    dimension = None
    simplices: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dimension is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise FormatError(f"expected 'dim <n>', got {line!r}", lineno)
            try:
                dimension = int(parts[1])
            except ValueError:
                raise FormatError(f"bad dimension {parts[1]!r}", lineno) from None
            if dimension < 1:
                raise FormatError(f"dimension must be >= 1, got {dimension}", lineno)
            width = dimension + 1
            continue
        try:
            verts = tuple(sorted(map(int, line.split())))
        except ValueError:
            raise FormatError(f"non-integer vertex id in {line!r}", lineno) from None
        # sorted, so verts[0] is the least vertex id
        if len(verts) != width or verts[0] < 0 or len(set(verts)) != width:
            raise FormatError(_simplex_fault(verts, dimension), lineno)
        if verts in seen:
            raise FormatError(f"duplicate simplex {verts}", lineno)
        seen.add(verts)
        simplices.append(verts)
    if dimension is None:
        raise FormatError("missing 'dim <n>' header")
    if not simplices:
        raise FormatError("no simplices listed")
    return Triangulation(dimension, tuple(sorted(simplices)))


def triangulation_to_text(t: Triangulation) -> str:
    """Canonical serialisation; ``parse_triangulation`` inverts it."""
    lines = [f"dim {t.dimension}"]
    lines.extend(" ".join(str(v) for v in s) for s in t.simplices)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for purity, closedness and dual connectivity.
    ``pure`` is an invariant, always true: every simplex has n+1 vertices."""

    pure: bool
    closed: bool
    connected: bool
    bad_faces: tuple[tuple[tuple[int, ...], int], ...]  # facets with degree != 2
    components: int

    @property
    def passed(self) -> bool:
        return self.pure and self.closed and self.connected

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "pure": self.pure,
            "closed": self.closed,
            "connected": self.connected,
            "bad_faces": [
                {"face": list(f), "degree": d} for f, d in self.bad_faces
            ],
            "components": self.components,
        }


@dataclass(frozen=True)
class _FacetIndex:
    """The dual graph of a triangulation, from one pass over its facets, and
    a breadth-first spanning forest of it, from one walk.

    ``mates`` is the gluing table, one slot per facet of each simplex: slot
    a*(n+1)+i stands for the facet that simplex a gets by dropping its vertex
    at position i, and holds b*(n+1)+j when simplex b, dropping position j,
    is the one other simplex with that facet, or -1 when that facet is not
    shared by exactly two simplices.  So ``mates`` is an involution on its
    paired slots, and each dual edge is one pair of slots.  ``bad_faces``
    lists the facets of degree other than 2 with their degrees, in facet
    order.

    The forest is the one ``_breadth_first`` grows: each tree from the least
    simplex id not yet reached, a simplex's neighbours taken in ascending id.
    ``into[b]`` is b's own slot on the tree edge through which the walk
    reached b, -1 at a root, and ``order`` lists the simplices in the order
    they were reached, tree after tree, so a simplex's parent always comes
    before it.  On a connected dual graph this is the lexicographic
    breadth-first tree from simplex 0 along which ``hol_generators``
    carries its colors.  A pair of slots is a tree edge exactly when one of
    them is in ``into``.  ``odd`` holds per tree, in order of the roots, the
    bits in which it is unbalanced: bit 1 the side, which every dual edge
    flips, and bit 2 the orientation.  The component count,
    ``is_even_cyclic`` and ``orientability`` read ``odd``; homology reads
    ``into`` and ``odd``, for its top boundary matrix and the rows it clears
    from the next one down.
    """

    mates: list[int]
    bad_faces: tuple[tuple[tuple[int, ...], int], ...]
    into: list[int]
    order: list[int]
    odd: list[int]


def _facet_index(t: Triangulation) -> _FacetIndex:
    n = t.dimension
    width = n + 1
    mates = [-1] * (len(t.simplices) * width)
    first: dict[tuple[int, ...], int] = {}  # each facet's first slot
    branching: dict[tuple[int, ...], int] = {}  # facets of degree 3 or more
    for sid, s in enumerate(t.simplices):
        x = sid * width + n  # combinations drop the last vertex first
        for facet in combinations(s, n):
            y = first.setdefault(facet, x)
            if y != x:
                z = mates[y]
                if z >= 0:  # a third simplex: the facet is not a dual edge
                    mates[y] = mates[z] = -1
                    branching[facet] = 3
                elif branching and facet in branching:
                    branching[facet] += 1
                else:
                    mates[x] = y
                    mates[y] = x
            x -= 1
    del first
    bad = list(branching.items())
    if -1 in mates:  # an unpaired slot whose facet is not branching has degree 1
        for x, y in enumerate(mates):
            if y < 0:
                facet = _slot_facet(t, x)
                if facet not in branching:
                    bad.append((facet, 1))
    bad.sort()
    return _FacetIndex(mates, tuple(bad), *_breadth_first(mates, width))


def _breadth_first(
    mates: list[int], width: int, reverse: bool = False
) -> tuple[list[int], list[int], list[int]]:
    """A breadth-first spanning forest of the dual graph on the slot table
    ``mates`` (``width`` slots per simplex), and the bits in which each of
    its trees is unbalanced.

    Each tree grows from the least simplex id not yet reached.  A simplex's
    neighbours are its paired slots' values, sorted: ascending slots are
    ascending simplex ids, because two simplices share at most one facet
    (descending with ``reverse``); the slots that hold -1 are skipped.  The
    walk labels each simplex it reaches with two bits, relative to its
    root: bit 1, the side, flips across every dual edge, and bit 2, the
    orientation sign, flips across a facet dropped at positions i and j
    exactly when i + j is even.  A dual edge between two labelled simplices
    that disagrees with their labels in some bits makes their tree
    unbalanced in them: no labelling of the component obeys all its edges
    there (Zaslavsky, "Signed graphs", Discrete Appl. Math. 1982).

    Returns ``into``, ``order`` and ``odd`` as ``_FacetIndex`` holds them.
    """
    count = len(mates) // width
    into = [-1] * count
    label = [-1] * count
    order: list[int] = []
    odd: list[int] = []
    for root in range(count):
        if label[root] >= 0:
            continue
        label[root] = 0
        queue = [root]
        bits = 0
        for a in queue:  # the list grows as the walk appends to it
            base = a * width
            here = label[a]
            row = mates[base : base + width]
            row.sort(reverse=reverse)
            for y in row:
                if y < 0:
                    continue
                b = y // width
                # a drops position mates[y] - base, b position y - b * width
                there = here ^ (1 if (mates[y] - base + y - b * width) & 1 else 3)
                seen = label[b]
                if seen < 0:
                    label[b] = there
                    into[b] = y
                    queue.append(b)
                else:
                    bits |= seen ^ there
        order += queue
        odd.append(bits)
    return into, order, odd


def validate(t: Triangulation) -> ValidationReport:
    """Check the closed-pseudomanifold conditions.

    Purity holds by construction.  Closedness demands every (n-1)-face lie in
    exactly two simplices; connectivity is of the facet-adjacency graph on
    simplices.  Faces of degree 1 (boundary) or >2 (branching) are failures,
    not warnings.
    """
    index = t.facet_index
    return ValidationReport(
        pure=True,
        closed=not index.bad_faces,
        connected=len(index.odd) == 1,
        bad_faces=index.bad_faces,
        components=len(index.odd),
    )


# ---------------------------------------------------------------------------
# face census


@dataclass(frozen=True)
class FaceCensus:
    """The number of faces of each dimension 0..n, plus the simplex-degree of
    every codim-2 face, in face order.

    The degree of an (n-2)-face is the number of top simplices containing it;
    it equals the side count of the dual 2-cell sitting at that face.
    """

    counts: tuple[int, ...]
    codim2_degrees: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def odd_faces(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f for f, d in self.codim2_degrees if d % 2 == 1)

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for _f, d in self.codim2_degrees:
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self) -> dict:
        return {
            "face_counts": list(self.counts),
            "odd_faces": [list(f) for f in self.odd_faces],
            "codim2_degree_histogram": {
                str(k): v for k, v in self.degree_histogram().items()
            },
        }


def _faces(t: Triangulation, k: int) -> list[tuple[int, ...]]:
    """The k-faces of ``t``, sorted: a face's position is its face id.
    The vertices (k = 0) are one 1-tuple per id of ``Triangulation.vertices``,
    not one per occurrence.  Raises BudgetError,
    before enumerating, when ``t`` may have more than FACE_BUDGET faces."""
    _check_face_budget(t.dimension, len(t.simplices))
    if k == 0:
        return list(zip(t.vertices))
    return sorted(set(chain.from_iterable(map(combinations, t.simplices, repeat(k + 1)))))


def _census(t: Triangulation) -> FaceCensus:
    n = t.dimension
    _check_face_budget(n, len(t.simplices))
    counts = [len(_faces(t, k)) for k in range(n - 2)]
    codim2 = ()
    if n >= 2:
        degree = Counter(chain.from_iterable(map(combinations, t.simplices, repeat(n - 1))))
        faces = sorted(degree)  # the keys alone, then each face's degree
        codim2 = tuple(zip(faces, map(degree.__getitem__, faces)))
        counts.append(len(degree))
    # every facet is either shared by two simplices (a pair of slots) or bad
    index = t.facet_index
    shared = (len(index.mates) - index.mates.count(-1)) // 2
    counts += [shared + len(index.bad_faces), len(t.simplices)]
    return FaceCensus(counts=tuple(counts), codim2_degrees=codim2)


def face_census(t: Triangulation) -> FaceCensus:
    """Face counts by dimension, and the degree of every codim-2 face."""
    return t.census


def euler_characteristic(t: Triangulation) -> int:
    return sum(c if k % 2 == 0 else -c for k, c in enumerate(t.census.counts))


# ---------------------------------------------------------------------------
# dual graph


@dataclass(frozen=True)
class DualGraph:
    """Facet-adjacency graph on simplex ids; each edge is labelled by the
    shared (n-1)-face.  For a valid closed complex it is (n+1)-regular."""

    node_count: int
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]  # (a, b, facet), a < b

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.node_count
        for a, b, _ in self.edges:
            degs[a] += 1
            degs[b] += 1
        return tuple(degs)


def dual_graph(t: Triangulation) -> DualGraph:
    """The dual graph, its edges read off the facet index's paired slots."""
    width = t.dimension + 1
    ids = list(range(len(t.simplices)))  # one int object per simplex for both ends
    edges = []
    for x, y in enumerate(t.facet_index.mates):
        if x < y:
            edges.append((ids[x // width], ids[y // width], _slot_facet(t, x)))
    edges.sort()  # by (a, b): two simplices share at most one facet
    return DualGraph(node_count=len(t.simplices), edges=tuple(edges))


def is_even_cyclic(t: Triangulation) -> bool:
    """True iff every closed walk on the dual 1-skeleton has even length,
    i.e. the dual graph is bipartite: the breadth-first forest of the facet
    index flips a simplex's side across every dual edge and finds no edge
    within a side."""
    return not any(bits & 1 for bits in t.facet_index.odd)


def orientability(t: Triangulation) -> bool:
    """Decide whether a coherent orientation of the top simplices exists.

    The breadth-first forest of the facet index carries a sign per simplex
    over a dual spanning forest; the complex is orientable iff every non-tree
    dual edge is consistent.  The induced boundary orientation of the facet
    obtained by dropping the vertex at sorted position i carries sign (-1)^i,
    and coherence requires the two induced orientations of a shared facet to
    cancel: across a facet dropped at positions i and j the sign flips
    exactly when i + j is even.  A disconnected complex is orientable iff
    every component is.
    """
    return not any(bits & 2 for bits in t.facet_index.odd)
