"""4-regular multigraphs with proper 4-edge-colorings encoding closed
3-complexes with 4-colored regions.

Vertices stand for the top cells, edges for shared facets, and the edge color
is the one color missing around the facet.  Cycles alternating two colors
trace the dual 2-cells; dropping one color leaves subgraphs that bound the
regions of that color, so their component count recovers the region count and
V - E + F - R recovers the Euler characteristic.

Whether each of those subgraphs (the residues) is planar is decided here by
the left-right planarity test of Brandes, "The Left-Right Planarity Test"
(2009), after de Fraysseix, Ossona de Mendez and Rosenstiehl, "Trémaux trees
and planarity" (IJFCS 2006).  Only the verdict is computed: no embedding is
ever built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError
from .triangulation import Triangulation

COLOR_NAMES = {1: "red", 2: "green", 3: "blue", 4: "black"}


class GemError(ValueError):
    """Structural violation of the gem invariants."""


@dataclass(frozen=True)
class Gem:
    """Edge list (u, v, color) with u < v, colors in 1..4.

    Valid gems are 4-regular, properly edge-colored (the four edges at a
    vertex carry four distinct colors, so each color class is a perfect
    matching), loop-free and connected.  Parallel edges are fine; they occur
    in minimal encodings.
    """

    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        slots: dict[tuple[int, int], tuple[int, int, int]] = {}
        for u, v, c in self.edges:
            if u == v:
                raise GemError(f"loop edge at vertex {u}")
            if u > v:
                raise GemError(f"edge {(u, v, c)} not normalised (u < v required)")
            if c not in COLOR_NAMES:
                raise GemError(f"color {c} outside 1..4 on edge {(u, v)}")
            for w in (u, v):
                if (w, c) in slots:
                    raise GemError(f"repeated color {c} at vertex {w}")
                slots[(w, c)] = (u, v, c)
        degrees: dict[int, int] = {}
        for u, v, _c in self.edges:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        for w, d in degrees.items():
            if d != 4:
                raise GemError(f"vertex {w} has degree {d}, expected 4")
        if not degrees:
            raise GemError("empty gem")
        adj: dict[int, set[int]] = {w: set() for w in degrees}
        for u, v, _c in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = set()
        stack = [next(iter(degrees))]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(adj[cur] - seen)
        if len(seen) != len(degrees):
            raise GemError(
                f"gem is disconnected ({len(seen)} of {len(degrees)} vertices reachable)"
            )

    @classmethod
    def from_edges(cls, edges) -> "Gem":
        normalised = tuple(
            sorted((min(u, v), max(u, v), c) for u, v, c in edges)
        )
        return cls(normalised)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({w for u, v, _c in self.edges for w in (u, v)}))

    def _color_map(self) -> dict[tuple[int, int], int]:
        m = {}
        for u, v, c in self.edges:
            m[(u, c)] = v
            m[(v, c)] = u
        return m


def parse_gem(text: str) -> Gem:
    """Parse the gem file format: '#' comments, a ``gem 3`` header, then one
    ``u v c`` line per edge.  Syntax faults raise FormatError with a line
    number; structural faults raise GemError."""
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
            u, v, c = (int(p) for p in parts)
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
    return _bicolored_cycles(g._color_map(), g.vertices, a, b)


def _bicolored_cycles(step, vertices, a: int, b: int) -> tuple[int, ...]:
    """:func:`bicolored_cycles` on a prebuilt color map and vertex tuple."""
    lengths = []
    visited: set[int] = set()
    for start in vertices:
        if start in visited:
            continue
        cur = start
        color = a
        length = 0
        while True:
            visited.add(cur)
            cur = step[(cur, color)]
            color = b if color == a else a
            length += 1
            if cur == start and color == a:
                break
        lengths.append(length)
    return tuple(sorted(lengths))


def _subgraph_components(g: Gem, colors) -> list[tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]]:
    """Connected components of the spanning subgraph on the given colors,
    as (vertex tuple, edge tuple) pairs sorted by least vertex; each
    component keeps its edges in the gem's edge order."""
    colors = set(colors)
    kept = [(u, v, c) for u, v, c in g.edges if c in colors]
    adj: dict[int, list[int]] = {w: [] for w in g.vertices}
    for u, v, _c in kept:
        adj[u].append(v)
        adj[v].append(u)
    component: dict[int, int] = {}
    members: list[tuple[int, ...]] = []
    for start in adj:
        if start in component:
            continue
        cid = len(members)
        component[start] = cid
        stack = [start]
        comp = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in component:
                    component[nxt] = cid
                    comp.append(nxt)
                    stack.append(nxt)
        members.append(tuple(sorted(comp)))
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in members]
    for edge in kept:
        buckets[component[edge[0]]].append(edge)
    return [(verts, tuple(bucket)) for verts, bucket in zip(members, buckets)]


def is_planar_multigraph(vertices, edges) -> bool:
    """Exact planarity of the graph on ``vertices`` with ``edges`` given as
    (u, v, ...) tuples; loops and parallel edges never change the verdict
    and are dropped.

    The left-right planarity test (Brandes, "The Left-Right Planarity
    Test", 2009; de Fraysseix, Ossona de Mendez and Rosenstiehl, "Trémaux
    trees and planarity", IJFCS 2006), reduced to its verdict:

    1. number the vertices 0..V-1 and keep each simple edge once;
    2. a graph with V > 2 and E > 3V - 6 is not planar (Euler);
    3. a DFS orients every edge away from the root, tree edges down and back
       edges up, and computes each edge's ``lowpt``, ``lowpt2`` and nesting
       depth;
    4. each vertex's out-edges are sorted by nesting depth;
    5. a second DFS keeps a stack of conflict pairs of return-edge
       intervals: ``add_constraints`` merges the intervals of each out-edge
       after the first, and fails when a pair conflicts on both sides;
       ``remove_back_edges`` drops the return edges that end at the parent,
       trimming intervals along ``ref``.

    The graph is planar iff step 5 never fails.  No embedding is built: the
    ``side`` signs and the edge ordering of the full algorithm are skipped,
    because only the verdict is read.  Both passes are iterative, so DFS
    depth is not bounded by the recursion limit; per-edge data lives in flat
    lists indexed by edge id.
    """
    index: dict = {}
    for v in vertices:
        index.setdefault(v, len(index))
    pairs = set()
    for u, v, *_rest in edges:
        a = index.setdefault(u, len(index))
        b = index.setdefault(v, len(index))
        if a != b:
            pairs.add((a, b) if a < b else (b, a))
    n = len(index)
    if n > 2 and len(pairs) > 3 * n - 6:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)

    # orientation: edge ei runs src[ei] -> dst[ei]
    height = [-1] * n
    parent_edge = [-1] * n
    out: list[list[int]] = [[] for _ in range(n)]
    src: list[int] = []
    dst: list[int] = []
    lowpt: list[int] = []
    lowpt2: list[int] = []
    depth: list[int] = []
    roots = []

    def finish(ei, v):
        """Nesting depth of ei = (v, w) once its lowpoints are final, then
        fold them into the parent edge of v."""
        low = lowpt[ei]
        depth[ei] = 2 * low + (lowpt2[ei] < height[v])
        e = parent_edge[v]
        if e >= 0:
            if low < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[ei])
                lowpt[e] = low
            elif low > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    pos = [0] * n
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            hv = height[v]
            nbrs = adj[v]
            i = pos[v]
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                hw = height[w]
                # a visited neighbour is the parent, or a descendant that
                # has already oriented the edge as its back edge
                if hw >= 0 and hw >= hv - 1:
                    continue
                ei = len(src)
                src.append(v)
                dst.append(w)
                out[v].append(ei)
                lowpt2.append(hv)
                depth.append(0)
                if hw < 0:
                    lowpt.append(hv)
                    parent_edge[w] = ei
                    height[w] = hv + 1
                    stack.append(w)
                    break
                lowpt.append(hw)
                finish(ei, v)
            pos[v] = i
            if stack[-1] == v:
                stack.pop()
                e = parent_edge[v]
                if e >= 0:
                    finish(e, src[e])

    for ol in out:
        ol.sort(key=depth.__getitem__)

    # testing: a conflict pair is [left.low, left.high, right.low,
    # right.high], each a return edge id or None for an empty interval
    stack_pairs: list[list] = []
    ref: list = [None] * len(src)
    lowpt_edge: list = [None] * len(src)
    stack_bottom: list = [None] * len(src)
    started = [False] * len(src)

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

    def remove_back_edges(e):
        u = src[e]
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

    pos = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            hv = height[v]
            ol = out[v]
            i = pos[v]
            descended = False
            while i < len(ol):
                ei = ol[i]
                if not started[ei]:
                    started[ei] = True
                    stack_bottom[ei] = stack_pairs[-1] if stack_pairs else None
                    w = dst[ei]
                    if parent_edge[w] == ei:
                        pos[v] = i
                        stack.append(v)
                        stack.append(w)
                        descended = True
                        break
                    lowpt_edge[ei] = ei
                    stack_pairs.append([None, None, ei, ei])
                # integrate the return edges of ei
                if lowpt[ei] < hv:
                    if i == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False
                i += 1
            if not descended and e >= 0:
                remove_back_edges(e)
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
        return all(
            length % 2 == 0
            for _pair, lengths in self.cycle_lengths
            for length in lengths
        )

    @property
    def all_planar(self) -> bool:
        return all(
            all(flags) for _triple, _count, flags in self.triple_components
        )

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


def gem_report(g: Gem) -> GemReport:
    """All six bicolored decompositions and all four 3-color analyses."""
    step, vertices = g._color_map(), g.vertices
    cycle_lengths = []
    for a, b in itertools.combinations(range(1, 5), 2):
        cycle_lengths.append(((a, b), _bicolored_cycles(step, vertices, a, b)))
    del step  # free the map before the planarity passes, where memory peaks
    triple_components = []
    for triple in itertools.combinations(range(1, 5), 3):
        comps = _subgraph_components(g, triple)
        flags = tuple(
            is_planar_multigraph(verts, edges) for verts, edges in comps
        )
        triple_components.append((triple, len(comps), flags))
    return GemReport(
        vertex_count=len(vertices),
        edge_count=len(g.edges),
        cycle_lengths=tuple(cycle_lengths),
        triple_components=tuple(triple_components),
    )


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
    edges = []
    for a, nbs in enumerate(t.facet_index.adjacency):
        for b, i, j in nbs:
            if a < b:
                edges.append((a, b, coloring[t.simplices[a][i]]))
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

