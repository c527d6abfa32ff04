"""4-regular multigraphs with proper 4-edge-colorings encoding closed
3-complexes with 4-colored regions.

Vertices stand for the top cells, edges for shared facets, and the edge color
is the one color missing around the facet.  Cycles alternating two colors
trace the dual 2-cells; dropping one color leaves subgraphs (the residues of
Ferri, Gagliardi and Grasselli, 1986) that bound the regions of that color, so
their component count recovers the region count and V - E + F - R recovers
the Euler characteristic.

``parse_gem`` reads its tokens through the triangulation parser's
token-to-int map, one per call, so the edges of one parse share one int
object per distinct id, not one per occurrence: each vertex id recurs on
four edge lines.

The analysis reads the gem's mate lists, ``Gem.mates``, its only adjacency:
validation fills them while it checks the edges, and the gem holds them.
The vertices are numbered by their positions in the sorted id tuple
``Gem.vertices``, and ``mates[c][k]`` is the position of the c-neighbour of
vertex k.  A bicolored cycle is a walk along two of these lists.  Three of
them, zipped, are the neighbour sequences of a 3-color subgraph, a parallel
edge repeating its neighbour.

``_lr_planar`` decides the planarity of every component of such a subgraph in
one call, one verdict per residue in order of least vertex.  It is the
left-right test of Brandes, "The Left-Right Planarity Test" (2009), after de
Fraysseix, Ossona de Mendez and Rosenstiehl, "Trémaux trees and planarity"
(IJFCS 2006), on neighbour sequences numbered 0..n-1, reduced to the verdict.
Its DFS frames hold iterators, lowpoints fold into parent edges inline, and
out lists of one edge stay unsorted.  ``is_planar_multigraph`` is the same
test on any vertex and edge lists: it numbers the vertices, drops loops and
passes the parallel edges on as repeated neighbours.

Planarity is closed under subgraphs (Kuratowski 1930), so a "no" needs only
one non-planar piece.  The orientation counts each component's vertices.  At
the first one past ``_BALL`` it tests the subgraph induced by the first
``_BALL`` vertices that a breadth-first search from the component's least
vertex reaches.  A non-planar ball settles the component, and the rest of it
is never oriented; a planar ball decides nothing, and the full test goes on.
Smaller components never meet the ball and pay no extra pass.  ``_BALL``
comes from the smallest non-planar balls of random gems, measured as its
comment records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import FormatError
from .triangulation import Triangulation, _gc_paused, _IntTokens

COLOR_NAMES = {1: "red", 2: "green", 3: "blue", 4: "black"}

# The size of the ball, in vertices, that the left-right test tries first on
# a component with more vertices.  In the residues of random gems, the
# smallest non-planar ball (first vertices in breadth-first order from the
# least vertex) held 107-339 vertices at 2,000 gem vertices (520 residues,
# seeds 3000-3129), so 384 settles every one of them; it held 40-168 at 500
# (400 residues) and 397-894 at 20,000 (40 residues), where the full test
# runs after a planar ball.
_BALL = 384


class GemError(ValueError):
    """Structural violation of the gem invariants."""


@dataclass(frozen=True)
class Gem:
    """Edge list (u, v, color) with u < v, colors in 1..4.

    Valid gems are 4-regular, properly edge-colored (the four edges at a
    vertex carry four distinct colors, so each color class is a perfect
    matching), loop-free and connected.  Parallel edges are fine; they occur
    in minimal encodings.

    Validation sets the two derived fields once, as it checks: ``vertices``,
    the sorted ids, whose positions number the vertices, and ``mates``, the
    gem's only adjacency, where ``mates[c][k]`` is the position of the
    c-neighbour of vertex k for colors c in 1..4 and ``mates[0]`` is empty.
    Equality, hashing and the repr read ``edges`` alone.
    """

    edges: tuple[tuple[int, int, int], ...]
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    mates: tuple[list[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.edges:
            raise GemError("empty gem")
        us, vs, cs = zip(*self.edges)
        vertices = tuple(sorted(set(us).union(vs)))
        n = len(vertices)
        position = dict(zip(vertices, range(n))).__getitem__
        us, vs = list(map(position, us)), list(map(position, vs))
        # each edge in order: loop, order, color, then its two slots; positions
        # keep the order of the ids, and ``vertices`` maps them back
        mates = ([], *([-1] * n for _ in range(4)))
        for a, b, c in zip(us, vs, cs):
            if a == b:
                raise GemError(f"loop edge at vertex {vertices[a]}")
            if a > b:
                edge = (vertices[a], vertices[b], c)
                raise GemError(f"edge {edge} not normalised (u < v required)")
            if c not in COLOR_NAMES:
                raise GemError(f"color {c} outside 1..4 on edge {(vertices[a], vertices[b])}")
            row = mates[c]
            if row[a] >= 0:
                raise GemError(f"repeated color {c} at vertex {vertices[a]}")
            row[a] = b
            if row[b] >= 0:
                raise GemError(f"repeated color {c} at vertex {vertices[b]}")
            row[b] = a
        rows = mates[1:]
        # a vertex with an unset slot has fewer than four edges (a fifth would
        # repeat a color); the first in order of appearance is reported
        if any(-1 in row for row in rows):
            for k in itertools.chain.from_iterable(zip(us, vs)):
                degree = sum(row[k] >= 0 for row in rows)
                if degree < 4:
                    raise GemError(f"vertex {vertices[k]} has degree {degree}, expected 4")
        seen = bytearray(n)
        stack = [us[0]]
        seen[us[0]] = 1
        while stack:
            k = stack.pop()
            for row in rows:
                m = row[k]
                if not seen[m]:
                    seen[m] = 1
                    stack.append(m)
        reached = seen.count(1)
        if reached != n:
            raise GemError(f"gem is disconnected ({reached} of {n} vertices reachable)")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "mates", mates)

    @classmethod
    def from_edges(cls, edges) -> "Gem":
        return cls(tuple(sorted((min(u, v), max(u, v), c) for u, v, c in edges)))


def parse_gem(text: str) -> Gem:
    """Parse the gem file format: '#' comments, a ``gem 3`` header, then one
    ``u v c`` line per edge.  Syntax faults raise FormatError with a line
    number; structural faults raise GemError.  Tokens are read through a
    fresh ``_IntTokens`` map per call, as ``parse_triangulation`` reads
    them."""
    ids = _IntTokens()
    header_seen = False
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.split() != ["gem", "3"]:
                raise FormatError(f"expected 'gem 3' header, got {line!r}", lineno)
            header_seen = True
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"expected 'u v c', got {line!r}", lineno)
        try:
            u, v, c = map(ids.__getitem__, parts)
        except ValueError:
            raise FormatError(f"non-integer token in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise FormatError("negative vertex id", lineno)
        edges.append((u, v, c))
    if not header_seen:
        raise FormatError("missing 'gem 3' header")
    if not edges:
        raise FormatError("no edges listed")
    return Gem.from_edges(edges)


def gem_to_text(g: Gem) -> str:
    lines = ["gem 3"]
    lines.extend(f"{u} {v} {c}" for u, v, c in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# analysis


def bicolored_cycles(g: Gem, a: int, b: int) -> tuple[int, ...]:
    """Lengths of the cycles of the subgraph on colors {a, b}.

    That subgraph is 2-regular (one edge of each color per vertex), so it is
    a disjoint union of cycles, each alternating a and b and hence of even
    length; a parallel pair gives the minimal length 2.
    """
    mate_a, mate_b = g.mates[a], g.mates[b]
    seen = bytearray(len(mate_a))
    lengths = []
    for start in range(len(mate_a)):
        if seen[start]:
            continue
        cur, length = start, 0
        while True:
            nxt = mate_a[cur]
            seen[cur] = seen[nxt] = 1
            length += 2
            cur = mate_b[nxt]
            if cur == start:
                break
        lengths.append(length)
    return tuple(sorted(lengths))


def is_planar_multigraph(vertices, edges) -> bool:
    """Exact planarity of the graph on ``vertices`` with ``edges`` given as
    (u, v, ...) tuples.  Loops never change the verdict and are dropped;
    parallel edges go to ``_lr_planar`` as repeated neighbours, and it
    decides each component, one of more than ``_BALL`` vertices first on a
    ball of that many."""
    index: dict = {}
    for v in vertices:
        index.setdefault(v, len(index))
    ends = [
        (index.setdefault(u, len(index)), index.setdefault(v, len(index)))
        for u, v, *_rest in edges
    ]
    adj: list[list[int]] = [[] for _ in index]
    for a, b in ends:
        if a != b:
            adj[a].append(b)
            adj[b].append(a)
    return all(_lr_planar(adj))


def _lr_planar(adj) -> list[bool]:
    """Planarity of each component of the loopless graph whose neighbour
    sequences are ``adj`` on vertices 0..n-1, in order of least vertex.  A
    neighbour may repeat: each repeat is one more parallel edge.  Each
    verdict comes from the left-right test, reduced to its verdict:

    1. one DFS loop orients every edge away from the root, tree edges down
       and back edges up, and computes each edge's ``lowpt``, ``lowpt2``
       and nesting depth.  A back edge v -> w is final when it is made
       (lowpt height(w), lowpt2 height(v), depth 2 height(w)) and is folded
       into the parent edge of v at once; a tree edge is finished, and
       folded into its source's parent edge, when its child is popped.  A
       parallel copy of a tree edge, a 2-cycle, never changes planarity and
       is dropped; parallel back edges stay, as return edges with equal
       lowpoints, which never conflict with each other;
    2. each vertex's out-edges are sorted by nesting depth, unless one;
    3. a second DFS, from each root on a fresh stack of conflict pairs of
       return-edge intervals: ``add_constraints`` merges the intervals of
       each out-edge after the first, and fails when a pair conflicts on
       both sides; ``remove_back_edges`` drops the return edges that end at
       the parent, trimming intervals along ``ref``.

    Step 1 counts each component's vertices.  At the first one past
    ``_BALL`` it calls ``_settled_by_ball``: a non-planar ball makes the
    component non-planar, its orientation stops there and it skips step 3;
    a planar ball decides nothing, and the orientation goes on.

    A component is planar iff step 3 never fails on it.  No embedding is
    built: the ``side`` signs and the edge ordering of the full algorithm
    are skipped, because only the verdict is read.  Both passes are
    iterative, each frame a vertex and an iterator over its neighbours or
    out-edges, so DFS depth is not bounded by the recursion limit.
    """
    n = len(adj)

    # orientation: ei runs to dst[ei] from the vertex whose out list holds
    # it.  Unvisited vertices have height -2, below hv - 1 at any visited v.
    # The current frame is v, it, hv; the stack holds the ancestors' v, it
    height = [-2] * n
    parent_edge = [-1] * n
    low2 = [0] * n  # lowpt2 of the tree edge into each vertex
    out: list[list[int]] = [[] for _ in range(n)]
    dst, lowpt, depth, roots = [], [], [], []  # the first three by edge id
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        v, it, hv, stack = root, iter(adj[root]), 0, []
        budget = _BALL  # reaches 0 at the first vertex past the ball's size
        while True:
            for w in it:
                hw = height[w]
                # a visited neighbour at height hv - 1 or more is the parent, or
                # a descendant that has already oriented the edge as its back edge
                if hw >= hv - 1:
                    continue
                ei = len(dst)
                dst.append(w)
                out[v].append(ei)
                if hw < 0:
                    lowpt.append(hv)
                    low2[w] = hv
                    depth.append(0)
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    budget -= 1
                    if not budget and _settled_by_ball(adj, root, height):
                        # non-planar: an empty frame with no ancestors ends
                        # the loop over this component
                        roots[-1] = None
                        it, stack = iter(()), []
                        break
                    stack += v, it
                    v, it, hv = w, iter(adj[w]), hv + 1
                    break
                # a back edge; the parent edge e has lowpt and lowpt2 below hv
                lowpt.append(hw)
                depth.append(2 * hw)
                e = parent_edge[v]
                if hw < lowpt[e]:
                    low2[v] = lowpt[e]
                    lowpt[e] = hw
                elif lowpt[e] < hw < low2[v]:
                    low2[v] = hw
            else:
                # v is done: finish its parent edge e, fold it into the parent's
                if not stack:
                    break
                e = parent_edge[v]
                low, l2 = lowpt[e], low2[v]
                it = stack.pop()
                v = stack.pop()
                hv -= 1
                depth[e] = 2 * low + (l2 < hv)
                f = parent_edge[v]
                if f < 0:
                    continue
                lf = lowpt[f]
                if low < lf:
                    low2[v] = lf if lf < l2 else l2
                    lowpt[f] = low
                elif lf < low < low2[v]:
                    low2[v] = low
                elif low == lf and l2 < low2[v]:
                    low2[v] = l2

    for ol in out:
        if len(ol) > 1:
            ol.sort(key=depth.__getitem__)

    # testing: a conflict pair is [left.low, left.high, right.low,
    # right.high], each a return edge id or None for an empty interval
    stack_pairs: list[list] = []
    ref: list = [None] * len(dst)
    lowpt_edge: list = [None] * len(dst)
    stack_bottom: list = [None] * len(dst)

    def add_constraints(ei, e):
        new = [None, None, None, None]
        # merge the return edges of ei into new.right
        while True:
            q = stack_pairs.pop()
            if q[0] is not None or q[1] is not None:
                if q[2] is not None or q[3] is not None:
                    return False
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if lowpt[q[2]] > lowpt[e]:
                if new[2] is None and new[3] is None:
                    new[3] = q[3]
                else:
                    ref[new[2]] = q[3]
                new[2] = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            top = stack_pairs[-1] if stack_pairs else None
            if top is stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier out-edges into new.left
        low = lowpt[ei]
        while stack_pairs:
            q = stack_pairs[-1]
            left_conflicts = q[1] is not None and lowpt[q[1]] > low
            right_conflicts = q[3] is not None and lowpt[q[3]] > low
            if not (left_conflicts or right_conflicts):
                break
            if left_conflicts and right_conflicts:
                return False
            stack_pairs.pop()
            if right_conflicts:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if new[2] is not None:
                ref[new[2]] = q[3]
            if q[2] is not None:
                new[2] = q[2]
            if new[0] is None and new[1] is None:
                new[1] = q[1]
            else:
                ref[new[0]] = q[1]
            new[0] = q[0]
        if any(end is not None for end in new):
            stack_pairs.append(new)
        return True

    def lowest(p):
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def remove_back_edges(u):
        hu = height[u]
        while stack_pairs and lowest(stack_pairs[-1]) == hu:
            stack_pairs.pop()
        if stack_pairs:
            p = stack_pairs[-1]
            while p[1] is not None and dst[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None:
                p[0] = None
            while p[3] is not None and dst[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None:
                p[2] = None

    def planar_from(root):
        # a failed component leaves pairs behind, which a later one never
        # reads: each of its conflict loops stops at or above the pair of
        # the lowest return edge of its vertex's first out-edge
        stack_pairs.clear()
        v, it, stack = root, iter(out[root]), []
        while True:
            for ei in it:
                stack_bottom[ei] = stack_pairs[-1] if stack_pairs else None
                w = dst[ei]
                if parent_edge[w] == ei:
                    stack += v, it
                    v, it = w, iter(out[w])
                    break
                # a back edge returns below v: integrate it at once
                lowpt_edge[ei] = ei
                stack_pairs.append([None, None, ei, ei])
                if ei == out[v][0]:
                    lowpt_edge[parent_edge[v]] = ei
                elif not add_constraints(ei, parent_edge[v]):
                    return False
            else:
                if not stack:
                    return True
                # back at the parent: integrate the tree edge ei if it returns
                ei = parent_edge[v]
                it = stack.pop()
                v = stack.pop()
                remove_back_edges(v)
                if lowpt[ei] < height[v]:
                    if ei == out[v][0]:
                        lowpt_edge[parent_edge[v]] = lowpt_edge[ei]
                    elif not add_constraints(ei, parent_edge[v]):
                        return False

    return [root is not None and planar_from(root) for root in roots]


def _settled_by_ball(adj, root, height) -> bool:
    """Whether the subgraph induced by the first ``_BALL`` vertices that a
    breadth-first search from ``root`` reaches is non-planar, which makes
    root's component non-planar; that component has more than ``_BALL``
    vertices.  If so, every vertex of the component is marked visited in
    ``height``, so that none roots a verdict of its own."""
    seen = {root}
    order = [root]
    for v in order:
        if len(order) >= _BALL:
            break
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    ball = order[:_BALL]
    index = dict(zip(ball, range(_BALL)))
    if all(_lr_planar([[index[w] for w in adj[v] if w in index] for v in ball])):
        return False
    for v in order:  # the list grows until it holds the whole component
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    for w in order:
        height[w] = 0
    return True


@dataclass(frozen=True)
class GemReport:
    """Census of a gem: bicolored cycle decompositions, 3-color subgraph
    components with planarity verdicts, and the derived counts
    F (total bicolored cycles), R (total 3-color components) and
    chi = V - E + F - R."""

    vertex_count: int
    edge_count: int
    cycle_lengths: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]
    triple_components: tuple[tuple[tuple[int, int, int], int, tuple[bool, ...]], ...]

    @property
    def f_count(self) -> int:
        return sum(len(lengths) for _pair, lengths in self.cycle_lengths)

    @property
    def r_count(self) -> int:
        return sum(count for _triple, count, _flags in self.triple_components)

    @property
    def euler(self) -> int:
        return self.vertex_count - self.edge_count + self.f_count - self.r_count

    @property
    def ecpx(self) -> bool:
        """An invariant, always true: bicolored cycles alternate colors."""
        return all(length % 2 == 0 for _pair, lengths in self.cycle_lengths for length in lengths)

    @property
    def all_planar(self) -> bool:
        return all(all(flags) for _triple, _count, flags in self.triple_components)

    def to_json(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "bicolored_cycles": {
                f"{a},{b}": list(lengths) for (a, b), lengths in self.cycle_lengths
            },
            "three_color_subgraphs": {
                f"{a},{b},{c}": {"components": count, "planar": list(flags)}
                for (a, b, c), count, flags in self.triple_components
            },
            "F": self.f_count,
            "R": self.r_count,
            "euler": self.euler,
            "ecpx": self.ecpx,
            "all_planar": self.all_planar,
        }


@_gc_paused
def gem_report(g: Gem) -> GemReport:
    """All six bicolored decompositions and all four 3-color analyses, read
    off the gem's mate lists."""
    mates = g.mates
    pairs = itertools.combinations(range(1, 5), 2)
    cycle_lengths = tuple(((a, b), bicolored_cycles(g, a, b)) for a, b in pairs)
    triple_components = []
    for a, b, c in itertools.combinations(range(1, 5), 3):
        flags = tuple(_lr_planar(list(zip(mates[a], mates[b], mates[c]))))
        triple_components.append(((a, b, c), len(flags), flags))
    return GemReport(len(g.vertices), len(g.edges), cycle_lengths, tuple(triple_components))


# ---------------------------------------------------------------------------
# construction from a 4-colored triangulation


def gem_from_coloring(t: Triangulation, coloring) -> Gem:
    """Encode a 4-colored 3-dimensional complex as a gem.

    Gem vertices are the simplex ids; each shared facet becomes an edge
    colored by the color of the vertex opposite the facet.  Invariant: both
    sides agree on it, because once ``verify_coloring`` passes both
    simplices are rainbow, so both far vertices carry the one color that
    the shared facet lacks.
    """
    if t.dimension != 3:
        raise ValueError(f"gem encoding needs n=3, got n={t.dimension}")
    from .holonomy import verify_coloring

    if not verify_coloring(t, coloring, 4):
        raise ValueError("not a proper 4-coloring; every simplex must be rainbow")
    # four slots per tetrahedron; each glued facet is read from its smaller slot
    edges = [
        (x // 4, y // 4, coloring[t.simplices[x // 4][x % 4]])
        for x, y in enumerate(t.facet_index.mates)
        if x < y
    ]
    return Gem.from_edges(edges)


def export_dot(g: Gem) -> str:
    """DOT text for the gem, colors 1..4 as red/green/blue/black.

    The canonical gem serialisation is embedded in leading '# ' comment
    lines (ignored by graphviz), so the original gem can be recovered from
    the export alone: ``parse_gem`` reads those lines with the prefix cut.
    """
    lines = ["# " + line for line in gem_to_text(g).splitlines()]
    lines.append("graph gem {")
    lines.append("  node [shape=circle];")
    for u, v, c in g.edges:
        lines.append(f'  {u} -- {v} [color="{COLOR_NAMES[c]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

