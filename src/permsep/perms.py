"""Permutations of {0, ..., n-1} with canonical cycle decompositions.

A permutation is stored as the tuple ``images`` with ``images[i]`` the image
of ``i``.  Composition is right-to-left: ``(p * q)(x) = p(q(x))``, so the
right factor acts first.  The distinguished full cycle ``omega`` maps
``0 -> 1 -> ... -> n-1 -> 0``; "the product of pi with a full cycle" always
means ``pi * omega`` in this package (the right-to-left product applying
omega first).  The other order gives the same counts, since
omega * pi = omega (pi * omega) omega^-1 has the same cycle type; a test
checks the class tallies both ways.

Cycle decompositions are canonical: cycles are listed by increasing minimum
element and each cycle starts at its minimum, which makes enumeration output
reproducible.  A conjugacy class has one enumeration path,
`oracles.class_images`, which yields bare image tuples and lives beside its
hot loops, so the oracle path never loads this module;
`permutations_of_type` wraps its whole stream in `Permutation` objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .oracles import class_images
from .partitions import Partition, sorted_partition


class Permutation:
    """An element of the symmetric group on {0, ..., n-1}."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a bijection of range({n}): {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def full_cycle(cls, n: int) -> "Permutation":
        """The canonical n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
        if n < 1:
            raise ValueError("full cycle needs n >= 1")
        return cls(tuple(range(1, n)) + (0,))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles; unmentioned points are fixed."""
        images = list(range(n))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for x in cycle:
                if x in seen or not 0 <= x < n:
                    raise ValueError(f"cycles must be disjoint subsets of range({n})")
                seen.add(x)
            for i, x in enumerate(cycle):
                images[x] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with ``other`` acting first: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} vs {other.degree}"
            )
        return Permutation(self.images[y] for y in other.images)

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, y in enumerate(self.images):
            images[y] = i
        return Permutation(images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition (by increasing minimum, min first)."""
        seen = [False] * self.degree
        result = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cycle.append(x)
                seen[x] = True
                x = self.images[x]
            result.append(tuple(cycle))
        return tuple(result)

    def cycle_type(self) -> Partition:
        return sorted_partition(len(c) for c in self.cycles())

    def cycle_count(self) -> int:
        return len(self.cycles())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        body = "".join(
            "(" + " ".join(str(x) for x in cycle) + ")" for cycle in self.cycles()
        )
        return f"Permutation[{body or '()'}]"


def compose(left: Permutation, right: Permutation) -> Permutation:
    """Product with the right factor applied first: compose(p, q)(x) = p(q(x))."""
    return left * right


def permutations_of_type(partition: Iterable[int]) -> Iterator[Permutation]:
    """All permutations with the given cycle type, in the order of `class_images`."""
    return (Permutation(images) for images in class_images(partition))


def fixed_point_free_involutions(pairs: int) -> Iterator[Permutation]:
    """All products of ``pairs`` disjoint transpositions covering {0, ..., 2*pairs-1}.

    This is the class of type (2, ..., 2), so the order of `class_images`
    reads: the smallest unpaired point is matched with each larger point in
    increasing order, then recurse.  Yields (2*pairs - 1)!! permutations.
    """
    return permutations_of_type((2,) * pairs)
