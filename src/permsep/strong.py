"""Strong separation probabilities and connection coefficients.

Weak separation lets a block spread over several cycles as long as no cycle
is shared between blocks; strong separation confines each block to a single
cycle.  For fixed blocks, "weakly separated" is the disjoint union, over the
set partitions refining the blocks, of "that refinement strongly separated",
so Moebius inversion on the set-partition lattice gives each strong
probability in closed form from at most m weak pair counts.  The same
relation grouped by refinement type, a unit upper-triangular matrix over the
partitions of m, is `permsep.crosscheck.refinement_matrix`: the reference
for the round trip of criterion 11 and the tests, which no query builds.

When the blocks cover the whole ground set, a strongly separated product has
the blocks as its exact cycle sets, so the strong probability at m = n
counts the ways of factoring a fixed permutation of type ``alpha`` into a
class element times a full cycle.  That connection coefficient is counted
directly: the Frobenius formula, in which only hooks survive at the full
cycle, makes it the weak count's hook sum with weights h_r(alpha), the
partial sums of q_alpha, in place of n g_r.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .errors import InvariantError
from .formulas import _hook_sum, cycle_polynomial, separated_pair_count
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    conjugacy_class_size,
    partitions,
    sorted_partition,
)


def strong_separation_probability(
    lam: Iterable[int], beta: Iterable[int]
) -> Fraction:
    """Strong separation probability for one block profile ``beta``.

    A refinement of the blocks into j pieces of sizes s is weakly separated
    with probability N(m, j) (n-m)! prod s! / (n! |C_lam|), N(m, j) being the
    weak pair count of every j-part profile of size m.  With the Moebius
    weights prod (-1)^(k-1) (k-1)!, the refinements of a b-block into k
    pieces sum to (b-1)! [x^k] (1 - (1-x)^b).  In s = 1 - x the sum over j
    becomes sum_d [s^d] prod_i (1 - s^beta_i) * N'(d), with
    N'(d) = sum_j (-1)^j C(d, j) N(m, j); values outside [0, 1] raise.
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
    m weak counts N(lam; m, j), turned into N'(d) = sum_j (-1)^j C(d, j) N(j)
    for d = 0 .. m, and the scale (n-m)! / (n! |C_lam|)."""

    def __init__(self, lam: Partition, m: int):
        n = sum(lam)
        weak = [0] + [
            separated_pair_count(lam, (m - j + 1,) + (1,) * (j - 1))
            for j in range(1, m + 1)
        ]
        self.weak_s = [
            sum((-1) ** j * math.comb(d, j) * weak[j] for j in range(d + 1))
            for d in range(m + 1)
        ]
        self.scale = Fraction(
            math.factorial(n - m), math.factorial(n) * conjugacy_class_size(lam)
        )

    def probability(self, beta: Composition) -> Fraction:
        signed = sum(map(operator.mul, cycle_polynomial(beta), self.weak_s))
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
    The hook sum of the weak count with weights h_r(alpha), the partial sums
    of q_alpha; integrality is asserted.
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    if sum(alpha) != sum(lam):
        raise ValueError("alpha must have size n for connection coefficients")
    return _hook_sum(lam, accumulate(cycle_polynomial(alpha)), "connection coefficient")
