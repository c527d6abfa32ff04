"""The tests' reference transport: colors carried across dual edges by
vertex, not by position as ``hol_generators`` carries them, and generator
loops rebuilt from a spanning tree's ``into`` slots."""

from __future__ import annotations

from colorplex.perms import Permutation
from colorplex.triangulation import Triangulation, _breadth_first


def propagate(
    t: Triangulation, source: int, colors: tuple[int, ...], target: int
) -> tuple[int, ...]:
    """Carry the colors of simplex ``source`` across the dual edge into
    ``target``; ``colors[i]`` colors the i-th smallest vertex, of ``source``
    on the way in and of ``target`` on the way out.

    The shared facet keeps its colors; the vertex of ``target`` opposite the
    facet is forced to the color that the facet does not use.  Raises
    ValueError when the two simplices are not facet-adjacent.
    """
    src = t.simplices[source]
    dst = t.simplices[target]
    shared = set(src) & set(dst)
    if target == source or len(shared) != t.dimension:
        raise ValueError(
            f"simplices {src} and {dst} do not share a facet"
        )
    by_vertex = dict(zip(src, colors))
    (dropped,) = set(src) - shared
    forced = by_vertex[dropped]
    return tuple(by_vertex[v] if v in shared else forced for v in dst)


def path_permutation(t: Triangulation, path) -> Permutation:
    """Color permutation picked up around a closed dual walk.

    ``path`` lists simplex ids, starting and ending at the same simplex;
    repeated consecutive entries are allowed (and skipped) so loops can be
    concatenated.  The walk starts with color i on the i-th smallest vertex,
    so the result p satisfies p(start color of a vertex) = its end color.
    """
    path = list(path)
    if path[0] != path[-1]:
        raise ValueError("path is not a loop")
    cur = path[0]
    colors = tuple(range(1, t.dimension + 2))
    for nxt in path[1:]:
        if nxt != cur:
            colors = propagate(t, cur, colors, nxt)
            cur = nxt
    return Permutation(colors)


def tree_into(t, reverse_neighbors):
    """The ``into`` slots of the tree ``hol_generators`` carries its colors
    along: the facet index's, or those of the reverse walk."""
    if not reverse_neighbors:
        return t.facet_index.into
    return _breadth_first(t.facet_index.mates, t.dimension + 1, reverse=True)[0]


def tree_parents(t, into):
    """Each simplex's parent in the tree ``into``, -1 at the root."""
    mates, width = t.facet_index.mates, t.dimension + 1
    return tuple(-1 if y < 0 else mates[y] // width for y in into)


def generator_loop(t, generator, into):
    """The closed walk of generator (a, b) over the tree ``into``: the tree
    path from the root to a, across to b, and the tree path back."""
    mates, width = t.facet_index.mates, t.dimension + 1

    def to_root(sid):
        chain = [sid]
        while into[chain[-1]] >= 0:
            chain.append(mates[into[chain[-1]]] // width)
        return chain

    a, b = generator
    return tuple(to_root(a)[::-1] + to_root(b))
