"""The separated-pair counts and the closed forms the queries evaluate.

A separated pair (pi, A) is a permutation pi of cycle type lam, a partition
of n, and an ordered tuple A of k disjoint blocks of total size m, such that
the product of pi with the canonical full cycle omega leaves every block in
its own set of cycles.  Central characters (only the hooks
chi_r = chi^(n-r, 1^r) are nonzero at omega), the exterior powers of the
permutation representation and the exponential formula give, with z_lam
the centralizer order (README.md, "Method", derives it in four steps),
count(lam; m, k) = (n / z_lam) sum_{r<n} (-1)^r h_r g_r r! (n-1-r)!, where
h_r = sum_{d <= r} [s^d] q_lam(s), q_lam(s) = prod_i (1 - s^lam_i), and
sum_r g_r s^r = (1 - s)^(k-1) sum_{j=0}^{n-m} C(k-2+j, j) C(n-j, m) s^j.
It depends on alpha only through (m, k): the paper's theorem.  One count
is one small-integer product (`cycle_polynomial`) and one weight vector per
(n, m, k), summed by binary splitting.  The weights h_r(alpha) in place of
n g_r give the connection coefficient of `permsep.strong` (Stanley 2011).
Dividing by `pair_space` turns counts into probabilities; ``ncycle`` reads
the count of (n), ``lift`` that of lam + 1^r and ``involution`` that of
(2^N).  Four method labels name the paper's derivation, not the code that
computes the value, and stay so that output keeps its bytes (README.md,
"Command line").  The lift, the involution and the p-cycle closed form,
whose count sums a union of classes, live in `permsep.variants`, so that
``sep-prob`` and ``ncycle`` compile only this module's code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
)

# ---------------------------------------------------------------------------
# Separated pairs by cycle type


def cycle_polynomial(parts: tuple[int, ...]) -> list[int]:
    """Coefficients of q(s) = prod_i (1 - s^part_i), lowest degree first.

    Each factor subtracts a shifted copy in place, over the degrees reached
    so far: n * len(parts) small-integer steps at most.
    """
    poly = [1] + [0] * sum(parts)
    top = 0
    for part in parts:
        for degree in range(top, -1, -1):
            poly[degree + part] -= poly[degree]
        top += part
    return poly


@lru_cache(maxsize=None)
def _hook_weights(n: int, m: int, k: int) -> tuple[int, ...]:
    """g_0, g_1, ...: the coefficients of
    (1 - s)^(k-1) sum_{j=0}^{n-m} C(k-2+j, j) C(n-j, m) s^j."""
    weights = [binomial(k - 2 + j, j) * math.comb(n - j, m) for j in range(n - m + 1)]
    weights += [0] * (k - 1)
    for _ in range(k - 1):  # multiply by 1 - s
        for i in range(len(weights) - 1, 0, -1):
            weights[i] -= weights[i - 1]
    return tuple(weights)


def _hook_sum(lam: Partition, weights: Iterable[int], what: str) -> int:
    """(1 / z_lam) sum_{r<n} (-1)^r h_r w_r r! (n-1-r)!, h_r the partial sums
    of q_lam; raises unless the result is a nonnegative integer.

    Summed by binary splitting (Haible and Papanikolaou 1998): with
    c_r = (-1)^r h_r w_r, r! (n-1-r)! = n! P(0, r+1) / Q(0, r+1), where over
    [low, high) P = prod max(j, 1) and Q = prod (n - j).  The halves of
    T(low, high) = sum_r c_r P(low, r+1) Q(r+1, high) merge as
    T(low, mid) Q(mid, high) + P(low, mid) T(mid, high); N terms sum to
    T(0, N) (n-N)!.
    """
    n = sum(lam)
    terms = [
        -h * w if r % 2 else h * w
        for r, (h, w) in enumerate(zip(accumulate(cycle_polynomial(lam)[:n]), weights))
    ]

    def split(low: int, high: int) -> tuple[int, int, int]:
        if high - low == 1:
            return low or 1, n - low, terms[low] * (low or 1)
        mid = (low + high) // 2
        p_low, q_low, t_low = split(low, mid)
        p_high, q_high, t_high = split(mid, high)
        return p_low * p_high, q_low * q_high, t_low * q_high + p_low * t_high

    total = split(0, len(terms))[2] * math.factorial(n - len(terms))
    count, remainder = divmod(total, centralizer_order(lam))
    if remainder or count < 0:
        value = Fraction(total, centralizer_order(lam))
        raise InvariantError(f"{what} for {lam} not a nonnegative integer: {value}")
    return count


@lru_cache(maxsize=None)
def _separated_count(lam: Partition, m: int, k: int) -> int:
    """Separated pairs for one cycle type: the hook sum with weights n g_r."""
    n = sum(lam)
    weights = (n * g for g in _hook_weights(n, m, k))
    return _hook_sum(lam, weights, "separated pair count")


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

    count: int
    probability: Fraction
    method: str


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
