"""Residues of a gem read from its edge list alone, for tests that check
the analysis against code that shares nothing with the gem's mate table."""

from __future__ import annotations


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
