"""The separated-pair series and the closed forms the queries evaluate.

The central object is the generating series of separated pairs (pi, A): pi a
permutation of fixed cycle type, A an ordered tuple of disjoint blocks, such
that the product of pi with the canonical full cycle leaves every block in
its own set of cycles.  Over monomial symmetric functions and the binomial
basis C(t, r) its integer coefficients depend on the blocks only through
their sum m and count k, and on the monomial index only through its number
of parts.  The count for one cycle type lam is the p_lam coefficient of
the series at t = 1 - k, which the length generating function
sum_mu u^len(mu) m_mu = exp(sum_j p_j (1 - (1-u)^j) / j) turns into a
polynomial product over the parts of lam: no p(n) x p(n) matrix is built.
Dividing by `pair_space` turns counts into probabilities.  Besides that
count the module holds only what ``sep-prob``, ``table``, ``lift``,
``ncycle``, ``pcycles``, ``strong`` and ``connection`` evaluate: the
p-cycle and two-full-cycle closed forms and the fixed-point lift.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import InvariantError
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    binomial,
    centralizer_order,
    conjugacy_class_size,
    multinomial,
    stirling_first_unsigned,
)

# ---------------------------------------------------------------------------
# The separated-pair series


def gen_series_entry(n: int, m: int, k: int, length: int, r: int) -> int:
    """Coefficient of m_lam * C(t, r) in the shifted series, for any lam of n
    with ``length`` parts:
    C(n+k-1, n-m-r) * n (n - length)! (n-k-r)! / (n-k-r-length+1)!,
    and 0 when that factorial argument is negative."""
    slack = n - k - r - length + 1
    if slack < 0:
        return 0
    return (
        binomial(n + k - 1, n - m - r)
        * n
        * math.factorial(n - length)
        * math.factorial(n - k - r)
        // math.factorial(slack)
    )


@lru_cache(maxsize=None)
def _length_weights(n: int, m: int, k: int) -> tuple[int, ...]:
    """F(l) = sum_r C(1-k, r) * gen_series_entry(n, m, k, l, r) for l = 0 .. n:
    the monomial coefficient at t = 1 - k of any partition with l parts."""
    return tuple(
        sum(
            binomial(1 - k, r) * gen_series_entry(n, m, k, length, r)
            for r in range(n - m + 1)
        )
        for length in range(n + 1)
    )


def _length_profile(lam: Partition) -> tuple[int, ...]:
    """Coefficients in t of prod_i (1 - (1-t)^lam_i), lowest degree first.

    Divided by the centralizer order z_lam, the t^l coefficient is the
    power-sum coefficient of p_lam in the sum of all m_mu with l parts: the
    series sum_mu t^len(mu) m_mu equals exp(sum_j p_j (1 - (1-t)^j) / j)
    (Macdonald, Symmetric Functions, I.2).
    """
    profile = [1]
    for part in lam:
        factor = _length_factor(part)
        product = [0] * (len(profile) + part)
        for i, a in enumerate(profile):
            for j, b in enumerate(factor, start=i + 1):
                product[j] += a * b
        profile = product
    return tuple(profile)


@lru_cache(maxsize=None)
def _length_factor(part: int) -> tuple[int, ...]:
    """Coefficients of t^1 .. t^part in 1 - (1-t)^part."""
    return tuple((-1) ** (j + 1) * binomial(part, j) for j in range(1, part + 1))


@lru_cache(maxsize=None)
def _separated_count(lam: Partition, m: int, k: int) -> int:
    """Separated pairs for one cycle type: the p_lam coefficient of the series
    at t = 1 - k, whose monomial coefficients depend on lam only through its
    number of parts, so count = z_lam^-1 * sum_l F(l) [t^l] prod_i (1 - (1-t)^lam_i)."""
    weights = _length_weights(sum(lam), m, k)
    value = Fraction(
        sum(w * c for w, c in zip(weights, _length_profile(lam))),
        centralizer_order(lam),
    )
    if value.denominator != 1 or value < 0:
        raise InvariantError(
            f"separated pair count for {lam} not a nonnegative integer: {value}"
        )
    return int(value)


def separated_pair_count(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Number of pairs (pi of cycle type lam, block tuple of sizes alpha) whose
    product with the full cycle is separated.

    Returns 0 when the blocks cannot fit (sum alpha > n).
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n, m, k = sum(lam), sum(alpha), len(alpha)
    if m > n:
        return 0
    return _separated_count(lam, m, k)


# ---------------------------------------------------------------------------
# Probabilities


class SepResult(NamedTuple):
    """A separation count/probability with its provenance."""

    count: int | None
    probability: Fraction
    method: str
    warnings: tuple[str, ...] = ()


def pair_space(n: int, alpha: Composition, class_count: int) -> int:
    """Pairs (pi, block tuple of sizes alpha) over ``class_count`` choices of pi."""
    m = sum(alpha)
    return multinomial(list(alpha) + [n - m]) * class_count


def separation_probability(lam: Iterable[int], alpha: Iterable[int]) -> SepResult:
    """Probability that the product of a uniform permutation of cycle type
    ``lam`` with a uniform full cycle separates blocks of sizes ``alpha``."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(lam)
    if sum(alpha) > n:
        raise ValueError("total block size exceeds n")
    count = separated_pair_count(lam, alpha)
    prob = Fraction(count, pair_space(n, alpha, conjugacy_class_size(lam)))
    return SepResult(count=count, probability=prob, method="generating-series")


def separated_count_p_cycles(n: int, p: int, alpha: Iterable[int]) -> int:
    """Separated pairs summed over all permutations with exactly p cycles.

    n! * sum_r C(1-k, r) C(n+k-1, n-m-r) c(n-k-r+1, p) / (n-k-r+1)!.
    """
    alpha = as_composition(alpha, allow_empty=False)
    m, k = sum(alpha), len(alpha)
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if m > n:
        raise ValueError("total block size exceeds n")
    total = Fraction(0)
    for r in range(n - m + 1):
        q = n - k - r + 1
        total += (
            binomial(1 - k, r)
            * binomial(n + k - 1, n - m - r)
            * Fraction(stirling_first_unsigned(q, p), math.factorial(q))
        )
    total *= math.factorial(n)
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


def separation_probability_two_cycles(n: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability for the product of two uniform full cycles,
    via the short alternating-sum closed form."""
    alpha = as_composition(alpha, allow_empty=False)
    m, k = sum(alpha), len(alpha)
    if m > n:
        raise ValueError("total block size exceeds n")
    if k == 1:
        count = binomial(n, m) * math.factorial(n - 1)
        return SepResult(count=count, probability=Fraction(1), method="two-cycles-closed-form")
    prod_fact = math.prod(math.factorial(a) for a in alpha)
    bracket = Fraction(
        (-1) ** (n - m) * binomial(n - 1, k - 2), binomial(n + m, m - k)
    )
    for r in range(m - k + 1):
        bracket += Fraction(
            (-1) ** r * binomial(m - k, r) * binomial(n + r + 1, m),
            binomial(n + k + r, r),
        )
    prob = (
        Fraction(math.factorial(n - m) * prod_fact, (n + k) * math.factorial(n - 1))
        * bracket
    )
    count = prob * pair_space(n, alpha, math.factorial(n - 1))
    if count.denominator != 1 or count < 0:
        raise InvariantError(f"two-cycle separated count not integral: {count}")
    return SepResult(
        count=int(count), probability=prob, method="two-cycles-closed-form"
    )


# ---------------------------------------------------------------------------
# Adding fixed points


def add_fixed_points_count(lam: Iterable[int], r: int, alpha: Iterable[int]) -> int:
    """Separated pair count after adding ``r`` fixed points to the cycle type.

    ``lam`` must have all parts >= 2; the count for lam extended by r parts of
    size 1 is a positive combination of base counts with block profiles
    (m - k - p + 1, 1, ..., 1) for p = 0 .. m - k.
    """
    lam = as_partition(lam)
    if not lam:
        raise ValueError("base cycle type must be nonempty")
    if any(part < 2 for part in lam):
        raise ValueError("base cycle type must have all parts >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    alpha = as_composition(alpha, allow_empty=False)
    n, m, k = sum(lam), sum(alpha), len(alpha)
    if m > n + r:
        raise ValueError("total block size exceeds n + r")
    total = 0  # n times the count: every weight has denominator n
    for p in range(m - k + 1):
        if m - p > n:
            continue  # base blocks cannot fit: the base count is zero
        base = separated_pair_count(lam, (m - k - p + 1,) + (1,) * (k - 1))
        if base == 0:
            continue
        weight = (n + p) * binomial(n + m + r - p, n + m) + (m - p) * binomial(
            n + m + r - p - 1, n + m
        )
        total += weight * binomial(m - k, p) * base
    if total % n or total < 0:
        raise InvariantError(
            f"lifted separated count not integral: {Fraction(total, n)}"
        )
    return total // n


def add_fixed_points_probability(
    lam: Iterable[int], r: int, alpha: Iterable[int]
) -> SepResult:
    """Probability form of the fixed-point lift, normalized on the extended type."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    count = add_fixed_points_count(lam, r, alpha)
    extended = as_partition(sorted(lam + (1,) * r, reverse=True))
    n = sum(extended)
    prob = Fraction(count, pair_space(n, alpha, conjugacy_class_size(extended)))
    return SepResult(count=count, probability=prob, method="fixed-point-lift")
