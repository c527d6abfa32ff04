"""Permutations of colors {1..k} and small subgroup arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetError

CLOSURE_DEGREE_LIMIT = 8


@dataclass(frozen=True, order=True)
class Permutation:
    """A bijection of {1..k}; ``images[i]`` is the image of color i+1."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a bijection on 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def transposition(cls, degree: int, a: int, b: int) -> "Permutation":
        images = list(range(1, degree + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, color: int) -> int:
        return self.images[color - 1]

    @property
    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(c) = self(other(c))."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation(tuple(self.images[c - 1] for c in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, v in enumerate(self.images):
            images[v - 1] = i + 1
        return Permutation(tuple(images))

    def power(self, k: int) -> "Permutation":
        result = Permutation.identity(self.degree)
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            result = base.compose(result)
        return result

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its minimum, ordered by minimum."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            cur = self(start)
            while cur != start:
                cycle.append(cur)
                seen.add(cur)
                cur = self(cur)
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, sorted descending."""
        lengths = [len(c) for c in self.cycles()]
        fixed = self.degree - sum(lengths)
        return tuple(sorted(lengths + [1] * fixed, reverse=True))

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def subgroup_closure(generators, degree: int) -> tuple[int, tuple[Permutation, ...]]:
    """Exhaustive closure under composition of a generating set of
    permutations of ``degree``, which may be empty.

    Returns (order, sorted element tuple).  The identity is always included.
    A generator of another degree raises ValueError; degrees above
    CLOSURE_DEGREE_LIMIT are refused to keep the closure enumerable.
    Invariant: there are at most degree! distinct permutations of that
    degree, so the closure ends within the full symmetric group.
    """
    generators = list(generators)
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {degree}")
    if degree > CLOSURE_DEGREE_LIMIT:
        raise BudgetError(
            f"closure degree {degree} exceeds limit {CLOSURE_DEGREE_LIMIT}"
        )
    elements = {Permutation.identity(degree)}
    frontier = list(elements)
    while frontier:
        fresh = []
        for p in frontier:
            for g in generators:
                q = g.compose(p)
                if q not in elements:
                    elements.add(q)
                    fresh.append(q)
        frontier = fresh
    ordered = tuple(sorted(elements))
    return len(ordered), ordered
