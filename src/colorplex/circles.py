"""Layered arc decompositions of the circle and their forced color sweep.

Each layer cuts the circle (circumference C, exact rationals) into arcs at
its boundary points; layers are overlaid, with all boundary points distinct.
Arc k of layer i runs from the layer's point k to its next point and is
named ``l{i}a{k}``.  j layers need j+1 colors: at any point the j arcs
passing through carry j distinct colors and one color is free.  A lap keeps
them as one list, the layers' colors and then the free one.  Crossing a
boundary point of layer i swaps entry i with the last, which forces the
whole coloring along a sweep and yields a permutation in S_{j+1} per lap.

The same sweep decides where the closed arcs meet.  At a boundary point p of
layer i, one arc of layer i ends and the next begins, and every other layer
has exactly one arc through p; these j + 1 arcs are p's stab.  An arc subset
Q meets exactly when it lies in some stab: its meeting set is a union of
pieces, and each piece begins at the boundary point where one of Q's arcs is
entered.  So the pieces of Q correspond one to one with the crossings whose
stab holds Q and whose entered arc is in Q.  A piece is the point p alone
when Q holds both arcs of layer i at p, and an arc otherwise.  ``_crossings``
is the one walk that tracks arcs: the coloring, the meeting pairs and the
intersection record all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import FormatError
from .gamma import LayeredIntersectionData
from .holonomy import _least_proper_coloring
from .perms import Permutation
from .triangulation import _check_face_budget


def _layer_fault(li: int, points, circumference: Fraction) -> str | None:
    """Why layer ``li`` is unusable on its own, or None: fewer than 2
    points, a position outside [0, circumference), or positions that do not
    strictly increase."""
    if len(points) < 2:
        return f"layer {li} has {len(points)} points; need >= 2"
    for p in points:
        if not isinstance(p, Fraction):
            return f"position {p!r} is not a Fraction"
        if not 0 <= p < circumference:
            return f"position {p} outside [0, {circumference})"
    if any(a >= b for a, b in zip(points, points[1:])):
        return f"layer {li} positions must be strictly increasing"
    return None


@dataclass(frozen=True)
class CircleLayers:
    """j layers of boundary points on a common circle.

    Every layer has at least 2 points (so at least 2 arcs) and all positions
    across all layers are distinct, which keeps the crossing order decidable.
    """

    circumference: Fraction
    layers: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        c = self.circumference
        if not isinstance(c, Fraction) or c <= 0:
            raise ValueError(f"circumference must be a positive rational, got {c!r}")
        if not self.layers:
            raise ValueError("at least one layer required")
        seen: dict[Fraction, int] = {}
        for li, points in enumerate(self.layers, start=1):
            fault = _layer_fault(li, points, c)
            if fault is not None:
                raise ValueError(fault)
            for p in points:
                if p in seen:
                    raise ValueError(
                        f"duplicate position {p} (layers {seen[p]} and {li})"
                    )
                seen[p] = li

    @property
    def j(self) -> int:
        return len(self.layers)

    @cached_property
    def layer_arc_ids(self) -> tuple[tuple[str, ...], ...]:
        """Per layer i, the ids ``l{i}a{k}`` of its arcs in index order.  Arc
        k of a layer runs from its point k to the next point, wrapping past
        C.  Named once per object: the sweep walks and ``arc_ids`` read it."""
        return tuple(
            tuple(f"l{li}a{k}" for k in range(len(points)))
            for li, points in enumerate(self.layers, start=1)
        )

    def arc_ids(self) -> tuple[tuple[str, int], ...]:
        """(id, layer) of every arc in (layer, index) order."""
        return tuple(
            (aid, li) for li, row in enumerate(self.layer_arc_ids, start=1) for aid in row
        )

    def arc_count(self) -> int:
        return sum(map(len, self.layer_arc_ids))

    @cached_property
    def sweep_order(self) -> tuple[tuple[Fraction, int, int], ...]:
        """Boundary points in the order a forward sweep from 0+ crosses them:
        (position, layer, point index); position 0 is crossed last, at C.
        Sorted once per object: the holonomy, the coloring and the
        intersections all walk it.

        The sort key is (floor(p * 2^64), p).  The floor is a monotone
        integer image of p, so it never puts two positions out of order,
        and it compares in C; only positions less than 2^-64 apart share
        it, and those fall back to the exact Fraction comparison.  The
        positions are distinct, so no two keys are equal.  A float key
        would not do: it loses order below its precision and overflows for
        circumferences above about 1.8e308."""
        events = []
        for li, points in enumerate(self.layers, start=1):
            for k, p in enumerate(points):
                # positions lie in [0, C), so p is falsy exactly at 0
                events.append((p or self.circumference, li, k))
        events.sort(key=lambda e: ((e[0].numerator << 64) // e[0].denominator, e[0]))
        return tuple(events)


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"malformed rational {token!r}", lineno) from None


def parse_circle_layers(text: str) -> CircleLayers:
    """Parse the circle-layers file format.

    Content lines ('#' comments and blanks skipped): ``circle <j>``, then
    ``C=<positive rational>``, then j lines ``layer: p1 p2 ...`` with the
    positions as integers or ``a/b`` fractions.  Raises FormatError for
    anything one line gets wrong on its own, a layer's own faults included;
    a position shared by two layers stays the ValueError of CircleLayers.
    """
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise FormatError("empty circle-layers file")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "circle":
        raise FormatError(f"expected 'circle <j>', got {header!r}", no)
    try:
        j = int(parts[1])
    except ValueError:
        raise FormatError(f"bad layer count {parts[1]!r}", no) from None
    if j < 1:
        raise FormatError("at least one layer required", no)
    if len(lines) < 2:
        raise FormatError("missing 'C=<rational>' line", no)
    no, cline = lines[1]
    if not cline.startswith("C="):
        raise FormatError(f"expected 'C=<rational>', got {cline!r}", no)
    circumference = _parse_rational(cline[2:].strip(), no)
    if circumference <= 0:
        raise FormatError(f"C must be positive, got {cline[2:].strip()}", no)
    layer_lines = lines[2:]
    if len(layer_lines) != j:
        raise FormatError(f"expected {j} layer lines, found {len(layer_lines)}")
    layers = []
    try:
        for no, ln in layer_lines:
            if not ln.startswith("layer:"):
                raise FormatError(f"expected 'layer: ...', got {ln!r}", no)
            layers.append(
                tuple(_parse_rational(tok, no) for tok in ln[len("layer:"):].split())
            )
        return CircleLayers(circumference=circumference, layers=tuple(layers))
    except ValueError:  # a FormatError too
        # CircleLayers checks each layer once, on success the only check.
        # On failure the layers read so far are checked again, in order, and
        # the first that faults on its own is reported with its line, as a
        # check after each line would have found it first
        for li, ((no, _line), points) in enumerate(zip(layer_lines, layers), start=1):
            fault = _layer_fault(li, points, circumference)
            if fault is not None:
                raise FormatError(fault, no) from None
        raise


# ---------------------------------------------------------------------------
# the sweep


def circle_holonomy(cl: CircleLayers, *, reverse: bool = False) -> Permutation:
    """Permutation in S_{j+1} taking each start color to its end color after
    one lap.  The lap holds the colors of the j layers, then the free one."""
    lap = list(range(1, cl.j + 2))
    for _pos, layer, _k in reversed(cl.sweep_order) if reverse else cl.sweep_order:
        lap[layer - 1], lap[-1] = lap[-1], lap[layer - 1]
    return Permutation(tuple(lap))


def _crossings(cl: CircleLayers):
    """Walk the boundary points in sweep order, keeping the id of the arc
    underfoot in each layer.  At each point p yield (p's layer, the id of the
    arc that ends at p, the id of the arc that starts at p, the ids underfoot
    just past p, one per layer).  p's stab is the ended id and the ids
    underfoot.  The underfoot list is live: the walk updates it in place at
    the next crossing, so a caller that keeps a stab copies it before then."""
    ids = cl.layer_arc_ids
    # at 0+ a layer stands on its arc starting at 0, else on its wrapping arc
    underfoot = [row[0] if points[0] == 0 else row[-1] for row, points in zip(ids, cl.layers)]
    for _pos, layer, k in cl.sweep_order:
        ended, entered = ids[layer - 1][k - 1], ids[layer - 1][k]
        underfoot[layer - 1] = entered
        yield layer, ended, entered, underfoot


def circle_colorable(cl: CircleLayers) -> dict[str, int] | None:
    """The forced coloring of all arcs, or None when the sweep disagrees with
    itself (exactly when the holonomy is not the identity)."""
    coloring: dict[str, int] = {}
    lap = list(range(1, cl.j + 2))  # as in circle_holonomy
    for layer, ended, entered, _underfoot in _crossings(cl):
        # an arc keeps its layer's color until the sweep leaves it, so the
        # first arc a layer leaves (the one underfoot at 0+) gets its start color
        coloring.setdefault(ended, lap[layer - 1])
        lap[layer - 1], lap[-1] = lap[-1], lap[layer - 1]
        color = lap[layer - 1]
        if coloring.setdefault(entered, color) != color:
            return None
    return coloring


def _meeting_pairs(cl: CircleLayers) -> set[tuple[str, str]]:
    """Id pairs of the arcs whose closures meet: the pairs of each stab."""
    return {
        pair
        for _layer, ended, _entered, underfoot in _crossings(cl)
        for pair in itertools.combinations(sorted([ended, *underfoot]), 2)
    }


def verify_circle_coloring(cl: CircleLayers, coloring) -> bool:
    """Proper means: arcs whose closures meet get distinct colors (adjacent
    arcs of one layer, overlapping arcs of different layers).  Raises
    ValueError when the coloring misses an arc."""
    missing = [aid for aid, _layer in cl.arc_ids() if aid not in coloring]
    if missing:
        raise ValueError(f"partial coloring; missing regions {missing[:5]}")
    return all(coloring[a] != coloring[b] for a, b in _meeting_pairs(cl))


def circle_intersections(cl: CircleLayers) -> LayeredIntersectionData:
    """Region-intersection record of the layered arcs (n = 1).

    Every arc subset with nonempty closed intersection is listed, tagged with
    the set dimension of the intersection: 1 when it has interior, 0 for
    point contacts.  These are the subsets of the stabs.  A subset of p's
    stab has dimension 0 when it holds both arcs that meet at p, since two
    arcs of one layer share no interior, and dimension 1 otherwise, since no
    two layers share a position.  Its pieces are the crossings whose stab
    holds it and whose entered arc is in it.

    A stab holds j + 1 arcs, so its subsets are the 2^(j+1) - 1 faces of a
    j-simplex, and the stabs are counted as j-simplices, one per boundary
    point, against the face budget (``_check_face_budget``): BudgetError is
    raised before any subset is listed.
    """
    _check_face_budget(cl.j, cl.arc_count())  # one boundary point starts each arc
    tagged: dict[tuple[str, ...], int] = {}
    for _layer, ended, entered, underfoot in _crossings(cl):
        stab = tuple(sorted([ended, *underfoot]))
        for size in range(1, len(stab) + 1):
            for q in itertools.combinations(stab, size):
                tagged[q] = 0 if ended in q and entered in q else 1
    intersections = tuple(sorted(tagged.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return LayeredIntersectionData(
        n=1, j=cl.j, regions=cl.arc_ids(), intersections=intersections
    )


def brute_force_circle_colorable(cl: CircleLayers) -> dict[str, int] | None:
    """Exhaustive search over arc assignments of the j + 1 colors.

    Arcs are assigned in (layer, index) order with colors tried ascending and
    improper prefixes pruned, so the enumeration covers exactly the proper
    assignments in lexicographic order and the witness is the least one.
    Refuses more than BRUTE_FORCE_VERTEX_LIMIT arcs, as the triangulation
    search does.
    """
    order = [aid for aid, _layer in cl.arc_ids()]
    found = _least_proper_coloring(order, _meeting_pairs(cl), cl.j + 1)
    return None if found is None else dict(zip(order, found))
