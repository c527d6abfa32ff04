"""Test-side references for the facet index's spanning forest: a signed
union-find over its paired slots, its tree edges read off ``into``, and
seeded stellar moves that make obstructed inputs.  None shares code with
the package's walk."""

from colorplex.triangulation import Triangulation


def signed_union_find(t):
    """The dual components of ``t`` and the bits in which each is
    unbalanced, from a union-find over the facet index's paired slots in
    slot order.

    Bit 1 flips across every dual edge, bit 2 across a facet dropped at
    positions i and j with i + j even.  Each node keeps its labels relative
    to its parent; an edge inside one tree that disagrees with them in some
    bits makes the tree unbalanced in those bits.  Returns {root: (set of
    simplex ids, bits)}."""
    mates = t.facet_index.mates
    width = t.dimension + 1
    count = len(t.simplices)
    parent = list(range(count))
    parity = [0] * count

    def find(a):
        """a's root and a's labels relative to it, compressing the path."""
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        bits = 0
        for node in reversed(path):  # nearest the root first
            bits ^= parity[node]
            parity[node] = bits
            parent[node] = a
        return a

    odd = [0] * count
    for x, y in enumerate(mates):
        if x >= y:
            continue
        flip = 1 if (x % width + y % width) % 2 else 3
        a, b = x // width, y // width
        ra, rb = find(a), find(b)
        flip ^= parity[a] ^ parity[b]
        if ra == rb:
            odd[ra] |= flip
        else:
            parent[rb] = ra
            parity[rb] = flip
            odd[ra] |= odd[rb]
    components = {}
    for node in range(count):
        find(node)
    for node in range(count):
        root = parent[node]
        components.setdefault(root, [set(), odd[root]])[0].add(node)
    return {root: (nodes, bits) for root, (nodes, bits) in components.items()}


def tree_slots(t):
    """The facet index's tree edges, each by its smaller slot, ascending:
    ``into`` holds, per simplex but a root, one slot of its tree edge."""
    mates = t.facet_index.mates
    return sorted(min(y, mates[y]) for y in t.facet_index.into if y >= 0)


def stellar_moves(t, rng, moves):
    """``moves`` stellar subdivisions of seeded top simplices: each replaces
    a simplex by the cone from a new vertex over its boundary, which makes
    the faces of that simplex odd-degree."""
    for _ in range(moves):
        s = t.simplices[rng.randrange(len(t.simplices))]
        apex = max(t.vertices) + 1
        cone = [s[:i] + (apex,) + s[i + 1 :] for i in range(len(s))]
        t = Triangulation.from_simplices(
            t.dimension, [x for x in t.simplices if x != s] + cone
        )
    return t
