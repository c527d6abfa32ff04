"""Gem validation and residues read from the edge list alone, for tests
that check the gem against code that shares nothing with its mate table."""

from __future__ import annotations

from collections import Counter


def reference_gem_error(edges):
    """The message of the first gem invariant that ``edges`` breaks, or None
    for a valid gem, in the gem's order of checks: per edge its loop, order,
    color and two slots, then degrees in order of first appearance, then
    emptiness and connectivity.  It checks on a (vertex, color) -> other end
    dict, a degree ``Counter`` and a DFS over that dict."""
    slots: dict[tuple[int, int], int] = {}
    for u, v, c in edges:
        if u == v:
            return f"loop edge at vertex {u}"
        if u > v:
            return f"edge {(u, v, c)} not normalised (u < v required)"
        if c not in (1, 2, 3, 4):
            return f"color {c} outside 1..4 on edge {(u, v)}"
        for w, other in ((u, v), (v, u)):
            if (w, c) in slots:
                return f"repeated color {c} at vertex {w}"
            slots[(w, c)] = other
    degrees = Counter(w for u, v, _c in edges for w in (u, v))
    for w, d in degrees.items():
        if d != 4:
            return f"vertex {w} has degree {d}, expected 4"
    if not degrees:
        return "empty gem"
    stack = [next(iter(degrees))]
    seen = set(stack)
    while stack:
        cur = stack.pop()
        for c in (1, 2, 3, 4):
            nxt = slots[(cur, c)]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(degrees):
        return f"gem is disconnected ({len(seen)} of {len(degrees)} vertices reachable)"
    return None


def subgraph_components(g, colors):
    """Connected components of the spanning subgraph of ``g`` on the given
    colors, as (vertex tuple, edge tuple) pairs sorted by least vertex; each
    component keeps its edges in the gem's edge order."""
    colors = set(colors)
    kept = [(u, v, c) for u, v, c in g.edges if c in colors]
    adj: dict[int, list[int]] = {w: [] for w in sorted({w for u, v, _c in g.edges for w in (u, v)})}
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
