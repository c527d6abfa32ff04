"""4-regular multigraphs with proper 4-edge-colorings encoding closed
3-complexes with 4-colored regions.

Vertices stand for the top cells, edges for shared facets, and the edge color
is the one color missing around the facet.  Cycles alternating two colors
trace the dual 2-cells; dropping one color leaves subgraphs that bound the
regions of that color, so their component count recovers the region count and
V - E + F - R recovers the Euler characteristic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormatError
from .triangulation import Triangulation, dual_graph

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
    step = g._color_map()
    lengths = []
    visited: set[int] = set()
    for start in g.vertices:
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
    as (vertex tuple, edge tuple) pairs sorted by least vertex."""
    colors = set(colors)
    adj: dict[int, set[int]] = {w: set() for w in g.vertices}
    kept = [(u, v, c) for u, v, c in g.edges if c in colors]
    for u, v, _c in kept:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[int] = set()
    components = []
    for start in g.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            cur = stack.pop()
            if cur in comp:
                continue
            comp.add(cur)
            stack.extend(adj[cur] - comp)
        seen |= comp
        comp_edges = tuple(e for e in kept if e[0] in comp)
        components.append((tuple(sorted(comp)), comp_edges))
    return components


def is_planar_multigraph(vertices, edges) -> bool:
    """Exact planarity after reducing parallel edges (they never matter).

    networkx is imported here, not at module level: it is most of the
    package's import time, and only the gem report needs it."""
    import networkx as nx

    simple = nx.Graph()
    simple.add_nodes_from(vertices)
    simple.add_edges_from((u, v) for u, v, *_ in edges)
    ok, _embedding = nx.check_planarity(simple)
    return ok


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
    cycle_lengths = []
    for a, b in itertools.combinations(range(1, 5), 2):
        cycle_lengths.append(((a, b), bicolored_cycles(g, a, b)))
    triple_components = []
    for triple in itertools.combinations(range(1, 5), 3):
        comps = _subgraph_components(g, triple)
        flags = tuple(
            is_planar_multigraph(verts, edges) for verts, edges in comps
        )
        triple_components.append((triple, len(comps), flags))
    return GemReport(
        vertex_count=len(g.vertices),
        edge_count=len(g.edges),
        cycle_lengths=tuple(cycle_lengths),
        triple_components=tuple(triple_components),
    )


# ---------------------------------------------------------------------------
# construction from a 4-colored triangulation


def gem_from_coloring(t: Triangulation, coloring) -> Gem:
    """Encode a 4-colored 3-dimensional complex as a gem.

    Gem vertices are the simplex ids; each shared facet becomes an edge
    colored by the color of the vertex opposite the facet, which both sides
    agree on because every simplex is rainbow.
    """
    if t.dimension != 3:
        raise ValueError(f"gem encoding needs n=3, got n={t.dimension}")
    from .holonomy import verify_coloring

    if not verify_coloring(t, coloring, 4):
        raise ValueError("not a proper 4-coloring; every simplex must be rainbow")
    edges = []
    for a, b, facet in dual_graph(t).edges:
        (opposite_a,) = set(t.simplices[a]) - set(facet)
        (opposite_b,) = set(t.simplices[b]) - set(facet)
        color = coloring[opposite_a]
        if color != coloring[opposite_b]:
            raise AssertionError("rainbow simplices must agree across a facet")
        edges.append((a, b, color))
    return Gem.from_edges(edges)


def export_dot(g: Gem) -> str:
    """DOT text for the gem, colors 1..4 as red/green/blue/black.

    The canonical gem serialisation is embedded in leading '# ' comment
    lines (ignored by graphviz), so the original gem can be recovered from
    the export alone.
    """
    lines = ["# " + line for line in gem_to_text(g).splitlines()]
    lines.append("graph gem {")
    lines.append("  node [shape=circle];")
    for u, v, c in g.edges:
        lines.append(f'  {u} -- {v} [color="{COLOR_NAMES[c]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def gem_from_dot_comments(dot_text: str) -> Gem:
    """Recover a gem from the comment block of :func:`export_dot` output."""
    payload = "\n".join(
        line[2:] for line in dot_text.splitlines() if line.startswith("# ")
    )
    return parse_gem(payload)
