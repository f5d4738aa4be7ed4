"""The formula variants: the p-cycle closed form, the fixed-point lift and the
fixed-point-free involution.

The lift and the involution read the count of one class from
`permsep.formulas`: that of lam + 1^r and that of (2^N).  The p-cycle count
sums a union of classes, which no single hook sum gives, so it keeps the
paper's closed form, cached per (n, p, m, k).  Only ``pcycles``, ``lift``,
``involution`` and ``verify`` load this module, so ``sep-prob`` and
``ncycle`` compile none of it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import InvariantError
from .formulas import SepResult, pair_space, separation_probability
from .partitions import as_composition, as_partition, binomial, stirling_first_unsigned

# ---------------------------------------------------------------------------
# Permutations with exactly p cycles


def separated_count_p_cycles(n: int, p: int, alpha: Iterable[int]) -> int:
    """Separated pairs summed over all permutations with exactly p cycles."""
    alpha = as_composition(alpha, allow_empty=False)
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if sum(alpha) > n:
        raise ValueError("total block size exceeds n")
    return _p_cycle_count(n, p, sum(alpha), len(alpha))


@lru_cache(maxsize=None)
def _p_cycle_count(n: int, p: int, m: int, k: int) -> int:
    """n! * sum_r C(1-k, r) C(n+k-1, n-m-r) c(n-k-r+1, p) / (n-k-r+1)!, the
    sum taken in integers over the common denominator (n-k+1)!, since
    (n-k+1)! / (n-k-r+1)! = perm(n-k+1, r)."""
    top = n - k + 1
    total = Fraction(math.factorial(n), math.factorial(top)) * sum(
        binomial(1 - k, r)
        * binomial(n + k - 1, n - m - r)
        * stirling_first_unsigned(top - r, p)
        * math.perm(top, r)
        for r in range(n - m + 1)
    )
    if total.denominator != 1 or total < 0:
        raise InvariantError(f"p-cycle separated count not integral: {total}")
    return int(total)


def separation_probability_p_cycles(n: int, p: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability when the left factor is uniform over permutations
    of {0, ..., n-1} with exactly p cycles."""
    alpha = as_composition(alpha, allow_empty=False)
    count = separated_count_p_cycles(n, p, alpha)  # validates p and sum(alpha)
    prob = Fraction(count, pair_space(n, alpha, stirling_first_unsigned(n, p)))
    return SepResult(count=count, probability=prob, method="p-cycles-closed-form")


# ---------------------------------------------------------------------------
# Adding fixed points, and fixed-point-free involutions


def add_fixed_points_probability(lam: Iterable[int], r: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability of ``lam`` (all parts >= 2) with ``r`` fixed
    points added: the count of lam + 1^r, labelled as the lift."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    if not lam:
        raise ValueError("base cycle type must be nonempty")
    if any(part < 2 for part in lam):
        raise ValueError("base cycle type must have all parts >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    if sum(alpha) > sum(lam) + r:
        raise ValueError("total block size exceeds n + r")
    return separation_probability(lam + (1,) * r, alpha)._replace(method="fixed-point-lift")


def separation_probability_involution(pairs: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability for the product of a uniform fixed-point-free
    involution of 2 * pairs points with a uniform full cycle: the count of
    the class (2^N), labelled as the involution series."""
    alpha = as_composition(alpha, allow_empty=False)
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    if sum(alpha) > 2 * pairs:
        raise ValueError("total block size exceeds 2 * pairs")
    return separation_probability((2,) * pairs, alpha)._replace(method="involution-series")
