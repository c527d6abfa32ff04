"""Layered intersection data and the product cell complex it generates.

A j-layer complex on an n-manifold is summarised by which region subsets Q
have nonempty intersection and the dimension of that intersection.  From
this record alone one builds a cell poset with one cell per Q, of dimension
n + j - |Q|, where a cell indexed by Q is a face of the cell indexed by Q'
exactly when Q contains Q'.  Region cells are the singletons; the cells of
dimension 0 are the Qs of full size n + j, and each touches exactly n + j
edges (drop one region at a time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import FormatError


@dataclass(frozen=True)
class LayeredIntersectionData:
    """Which region subsets intersect, and in what dimension.

    ``regions`` holds (id, layer) pairs with layers in 1..j; ``intersections``
    holds (sorted region-id tuple, dimension) pairs.  Construction validates:
    every singleton present with dimension n; subsets of a present Q present
    with dimension at least that of Q; two regions of one layer never meet in
    dimension n.
    """

    n: int
    j: int
    regions: tuple[tuple[str, int], ...]
    intersections: tuple[tuple[tuple[str, ...], int], ...]

    def __post_init__(self):
        if self.n < 1 or self.j < 1:
            raise ValueError(f"need n >= 1 and j >= 1, got n={self.n}, j={self.j}")
        layer_of = {}
        for rid, layer in self.regions:
            if rid in layer_of:
                raise ValueError(f"duplicate region id {rid!r}")
            if not 1 <= layer <= self.j:
                raise ValueError(f"region {rid!r} has layer {layer}, outside 1..{self.j}")
            layer_of[rid] = layer
        dims: dict[frozenset[str], int] = {}
        for ids, dim in self.intersections:
            q = frozenset(ids)
            if len(q) != len(ids):
                raise ValueError(f"repeated region in intersection {ids}")
            if q in dims:
                raise ValueError(f"duplicate intersection entry {ids}")
            unknown = [r for r in ids if r not in layer_of]
            if unknown:
                raise ValueError(f"intersection {ids} names unknown regions {unknown}")
            if not 0 <= dim <= self.n:
                raise ValueError(f"intersection {ids} has dimension {dim}")
            dims[q] = dim
        for rid in layer_of:
            single = frozenset((rid,))
            if single not in dims:
                raise ValueError(f"singleton {{{rid!r}}} missing from intersections")
            if dims[single] != self.n:
                raise ValueError(
                    f"singleton {{{rid!r}}} must have dimension {self.n}, "
                    f"got {dims[single]}"
                )
        for q, dim in dims.items():
            if len(q) < 2:
                continue
            layers = [layer_of[r] for r in q]
            if len(set(layers)) < len(layers) and dim >= self.n:
                raise ValueError(
                    f"{sorted(q)} holds two regions of one layer but claims "
                    f"dimension {dim}"
                )
            for r in q:
                sub = q - {r}
                if sub not in dims:
                    raise ValueError(
                        f"{sorted(q)} present but its subset {sorted(sub)} is not"
                    )
                if dims[sub] < dim:
                    raise ValueError(
                        f"subset {sorted(sub)} has smaller dimension than {sorted(q)}"
                    )

    def region_ids(self) -> tuple[str, ...]:
        return tuple(r for r, _layer in self.regions)


def _integer(value, key: str) -> int:
    # a JSON integer; int() would also take true, 1.5 and "1"
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(
            f"malformed intersection data: {key} must be an integer, got {value!r}"
        )
    return value


def _array(value, key: str) -> list:
    # a JSON array; iterating the string "ab" would read the regions a and b
    if not isinstance(value, list):
        raise FormatError(
            f"malformed intersection data: {key} must be an array, got {value!r}"
        )
    return value


def intersection_data_from_json(text: str) -> LayeredIntersectionData:
    """Build intersection data from the text of a JSON document.
    Region ids are coerced to strings.  Text that is not JSON, a missing
    key, a value of the wrong type, a ``regions`` value that is not an array
    or a non-integer ``n``/``j``/``layer``/``dim`` raises
    :class:`FormatError`; faults between entries (missing singletons or
    subsets, one-layer meetings) stay the ``ValueError`` of
    :class:`LayeredIntersectionData`."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from None
    try:
        regions = tuple(
            (str(r["id"]), _integer(r["layer"], "layer"))
            for r in _array(obj["regions"], "regions")
        )
        intersections = tuple(
            (
                tuple(sorted(str(x) for x in _array(item["regions"], "regions"))),
                _integer(item["dim"], "dim"),
            )
            for item in obj["intersections"]
        )
        n = _integer(obj["n"], "n")
        j = _integer(obj["j"], "j")
    except KeyError as exc:
        raise FormatError(f"malformed intersection data: missing key {exc}") from None
    except TypeError as exc:
        raise FormatError(f"malformed intersection data: {exc}") from None
    intersections = tuple(
        sorted(intersections, key=lambda kv: (len(kv[0]), kv[0]))
    )
    return LayeredIntersectionData(
        n=n, j=j, regions=tuple(sorted(regions)), intersections=intersections
    )


# ---------------------------------------------------------------------------
# the product complex


@dataclass(frozen=True)
class GammaComplex:
    """Cell poset built from intersection data.

    One cell per recorded Q, of dimension n + j - |Q|; the cell of Q is a
    face of the cell of Q' iff Q is a superset of Q'.
    """

    n: int
    j: int
    cells: tuple[tuple[tuple[str, ...], int], ...]  # (sorted Q, dimension)

    def census(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _ids, dim in self.cells:
            counts[dim] = counts.get(dim, 0) + 1
        return dict(sorted(counts.items()))

    def vertices(self) -> tuple[tuple[str, ...], ...]:
        return tuple(ids for ids, dim in self.cells if dim == 0)

    def to_json(self) -> dict:
        return {
            "cells_by_dimension": {str(d): c for d, c in self.census().items()},
            "cell_count": len(self.cells),
            "vertex_count": len(self.vertices()),
        }


def gamma_complex(data: LayeredIntersectionData) -> GammaComplex:
    """Build the product cell poset, enforcing its dimension law.

    The recorded dimension of each Q must equal n + |layers(Q)| - |Q| (the
    transversality count); a violation raises ValueError naming the Q.

    Invariants, which hold without a check because
    :class:`LayeredIntersectionData` records every subset of a recorded Q and
    only dimensions in 0..n:

    - every Q has |Q| <= n + j, since the law gives |Q| = n + |layers(Q)| -
      dim with |layers(Q)| <= j and dim >= 0;
    - every vertex (a Q of full size n + j) touches exactly n + j edges, its
      n + j subsets of one region fewer, which are all recorded.
    """
    n, j = data.n, data.j
    layer_of = dict(data.regions)
    cells = []
    for ids, dim in data.intersections:
        expected = n + len({layer_of[r] for r in ids}) - len(ids)
        if dim != expected:
            raise ValueError(
                f"dimension law violated at {list(ids)}: recorded {dim}, "
                f"transversality gives {expected}"
            )
        cells.append((ids, n + j - len(ids)))
    return GammaComplex(n=n, j=j, cells=tuple(cells))


def gamma_coloring_transfer(data: LayeredIntersectionData, coloring) -> bool:
    """Decide properness of a region coloring through the product complex,
    where region r becomes the region cell of {r}.

    Two region cells share a face exactly when some recorded Q holds both;
    the data are subset closed, so that is when {r1, r2} is itself a cell,
    and one pass over the 2-region cells decides.  Raises ValueError on a
    partial coloring, and on a dimension-law violation (from
    :func:`gamma_complex`).
    """
    missing = [r for r in data.region_ids() if r not in coloring]
    if missing:
        raise ValueError(f"partial coloring; missing regions {missing[:5]}")
    complex_ = gamma_complex(data)
    return all(
        coloring[ids[0]] != coloring[ids[1]]
        for ids, _dim in complex_.cells
        if len(ids) == 2
    )
