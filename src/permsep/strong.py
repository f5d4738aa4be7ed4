"""Strong separation probabilities and connection coefficients.

Weak separation lets a block spread over several cycles as long as no cycle
is shared between blocks; strong separation confines each block to a single
cycle.  For fixed blocks, "weakly separated" is the disjoint union, over the
set partitions refining the blocks, of "that refinement strongly separated",
so Moebius inversion on the set-partition lattice gives each strong
probability in closed form from at most m weak pair counts.  The same
relation grouped by refinement type, a unit upper-triangular matrix over the
partitions of m, is kept only as the reference for the round trip of
criterion 11 and the tests.

When the blocks cover the whole ground set, a strongly separated product has
the blocks as its exact cycle sets, which ties the strong probability to the
number of ways of factoring a fixed permutation of type ``alpha`` into a
class element times a full cycle; that factorization count is recovered here
as an always-integer rescaling of the strong probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import InvariantError
from .formulas import _length_profile, separated_pair_count
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    conjugacy_class_size,
    multiplicities,
    partitions,
    sorted_partition,
)

Segmentation = tuple[Partition, ...]


def set_partition_count(block_size: int, piece_sizes: Iterable[int]) -> int:
    """Number of set partitions of a block_size-set with the given piece sizes."""
    pieces = as_partition(sorted(piece_sizes, reverse=True))
    if sum(pieces) != block_size:
        raise ValueError(
            f"pieces {pieces} do not partition a block of size {block_size}"
        )
    ways = math.factorial(block_size)
    for piece in pieces:
        ways //= math.factorial(piece)
    for mult in multiplicities(pieces).values():
        ways //= math.factorial(mult)
    return ways


def refinement_coefficient(alpha: Iterable[int], segments: Segmentation) -> int:
    """Ways of slicing each block of ``alpha`` into set pieces matching the
    corresponding segment (a partition of that block's size)."""
    alpha = as_composition(alpha, allow_empty=False)
    if len(segments) != len(alpha):
        raise ValueError("one segment per part of alpha is required")
    ways = 1
    for part, segment in zip(alpha, segments):
        ways *= set_partition_count(part, segment)
    return ways


def segmented_refinements(alpha: Iterable[int]) -> Iterator[Segmentation]:
    """All segmentations of ``alpha``: one partition per part, in stream order
    of `partitions` within each part."""
    alpha = as_composition(alpha, allow_empty=False)

    def build(i: int, acc: list[Partition]) -> Iterator[Segmentation]:
        if i == len(alpha):
            yield tuple(acc)
            return
        for piece in partitions(alpha[i]):
            acc.append(piece)
            yield from build(i + 1, acc)
            acc.pop()

    return build(0, [])


def flatten_segments(segments: Segmentation) -> Partition:
    parts: list[int] = []
    for segment in segments:
        parts.extend(segment)
    return sorted_partition(parts)


@dataclass(frozen=True)
class RefinementMatrix:
    """The weak-to-strong system over the partitions of one total size.

    Rows and columns are indexed by `partitions(size)` (reverse-lexicographic,
    dominance-compatible); entry (A, mu) sums the slicing counts over all
    segmentations of A whose pieces sort to mu.  The matrix is upper
    triangular with unit diagonal, hence exactly invertible.
    """

    size: int
    index: tuple[Partition, ...]
    rows: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    def entry(self, coarse: Iterable[int], fine: Iterable[int]) -> int:
        i = self.index.index(as_partition(coarse))
        j = self.index.index(as_partition(fine))
        return self.rows[i][j]


@lru_cache(maxsize=None)
def refinement_matrix(size: int) -> RefinementMatrix:
    index = tuple(partitions(size))
    position = {lam: i for i, lam in enumerate(index)}
    rows = []
    for coarse in index:
        row = [0] * len(index)
        for segments in segmented_refinements(coarse):
            row[position[flatten_segments(segments)]] += refinement_coefficient(
                coarse, segments
            )
        rows.append(tuple(row))
    matrix = RefinementMatrix(size=size, index=index, rows=tuple(rows))
    for i in range(len(index)):
        if matrix.rows[i][i] != 1 or any(matrix.rows[i][:i]):
            raise InvariantError(
                f"refinement matrix at size {size} is not unit upper triangular"
            )
    return matrix


def strong_separation_probability(
    lam: Iterable[int], beta: Iterable[int]
) -> Fraction:
    """Strong separation probability for one block profile ``beta``.

    A refinement of the blocks into j pieces of sizes s is weakly separated
    with probability N(m, j) (n-m)! prod s! / (n! |C_lam|), N(m, j) being the
    weak pair count of every j-part profile of size m.  With the Moebius
    weights prod (-1)^(k-1) (k-1)!, the refinements of a b-block into k
    pieces sum to (b-1)! [x^k] (1 - (1-x)^b); values outside [0, 1] raise.
    """
    lam = as_partition(lam)
    beta = as_composition(beta, allow_empty=False)
    if sum(beta) > sum(lam):
        raise ValueError("need 1 <= total block size <= n")
    return _StrongSystem(lam, sum(beta)).probability(beta)


def strong_probability_table(
    lam: Iterable[int], total_block_size: int
) -> dict[Partition, Fraction]:
    """Strong separation probability for every partition of the block total."""
    lam = as_partition(lam)
    if not 1 <= total_block_size <= sum(lam):
        raise ValueError("need 1 <= total block size <= n")
    system = _StrongSystem(lam, total_block_size)
    return {beta: system.probability(beta) for beta in partitions(total_block_size)}


class _StrongSystem:
    """What every block profile of total m shares for one validated lam: the
    m weak counts N(lam; m, j) and the scale (n-m)! / (n! |C_lam|)."""

    def __init__(self, lam: Partition, m: int):
        n = sum(lam)
        self.weak = [0] + [
            separated_pair_count(lam, (m - j + 1,) + (1,) * (j - 1))
            for j in range(1, m + 1)
        ]
        self.scale = Fraction(
            math.factorial(n - m), math.factorial(n) * conjugacy_class_size(lam)
        )

    def probability(self, beta: Composition) -> Fraction:
        signed = sum(
            coeff * self.weak[j]
            for j, coeff in enumerate(_length_profile(sorted_partition(beta)))
            if coeff
        )
        value = (
            self.scale * math.prod(math.factorial(b - 1) for b in beta) * signed
        )
        if not 0 <= value <= 1:
            raise InvariantError(
                f"strong probability for {sorted_partition(beta)} out of range: {value}"
            )
        return value


def connection_coefficient(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Number of factorizations of a fixed permutation of cycle type ``alpha``
    as (element of the class of lam) * (full cycle).

    Requires the blocks to cover the ground set (size of alpha equals n).
    Recovered from the strong probability; integrality is asserted.
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(lam)
    if sum(alpha) != n:
        raise ValueError("alpha must have size n for connection coefficients")
    value = strong_separation_probability(lam, alpha) * Fraction(
        math.factorial(n - 1) * conjugacy_class_size(lam),
        math.prod(math.factorial(a - 1) for a in alpha),
    )
    if value.denominator != 1 or value < 0:
        raise InvariantError(f"connection coefficient not integral: {value}")
    return int(value)
