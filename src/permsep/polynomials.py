"""The binomial-coefficient basis, and the series written in it.

A ``BinomialPolynomial`` stores a finite combination sum_r c_r * C(t, r).
Its monomial form is a dense ``Poly``, a tuple of Fractions, lowest degree
first.  Conversion to monomials, shifted by any integer, nests the basis
Horner-style in integers and divides exactly once at the end (O(R^2) for top
index R); evaluation at an integer keeps C(t, r) as a running binomial.
The one-face-map polynomial has nonnegative integer coefficients in this
basis: it is the involution series of `permsep.crosscheck` with no blocks.
The module also holds the separated-pair series itself: its coefficient for
a given number of parts (`gen_series_entry`) and its whole table at one
degree (``gtable``), a read-only mapping keyed by (partition, r).  It
imports nothing from `permsep.formulas`, and only ``hz``, ``gtable`` and
``verify`` load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .partitions import Partition, binomial, partitions, perfect_matching_count

Poly = tuple[Fraction, ...]


class BinomialPolynomial(NamedTuple):
    """A polynomial written as sum_r coeffs[r] * C(t, r); ``coeffs`` holds
    only nonzero Fraction coefficients at r >= 0."""

    coeffs: dict[int, Fraction]

    def coefficient(self, r: int) -> Fraction:
        return self.coeffs.get(r, Fraction(0))

    def evaluate(self, t: Fraction | int) -> Fraction:
        """Exact value at ``t``, with C(t, r) = C(t, r-1) (t - r + 1) / r kept
        running (in integers when t is one)."""
        t = Fraction(t)
        if t.denominator == 1:
            t = t.numerator
        total = Fraction(0)
        binom = 1
        for r in range(max(self.coeffs, default=-1) + 1):
            if r:
                binom *= t - r + 1
                binom = binom // r if type(t) is int else binom / r
            if r in self.coeffs:
                total += self.coeffs[r] * binom
        return total

    def to_monomial(self) -> Poly:
        """Dense monomial coefficients, lowest degree first."""
        return self.to_monomial_shifted(0)

    def to_monomial_shifted(self, delta: int) -> Poly:
        """Monomial coefficients of P(t + delta), for an integer ``delta``.

        With R the top index and D the common denominator, the nested integer
        scheme A_r = D c_r R!/r! + (t + delta - r) A_{r+1} gives A_0 =
        D R! * P(t + delta), so the only division is the exact one by D R! at
        the end.
        """
        if not self.coeffs:
            return ()
        top = max(self.coeffs)
        scale = math.lcm(*(c.denominator for c in self.coeffs.values()))
        acc: list[int] = []
        weight = 1  # R!/r!
        for r in range(top, -1, -1):
            c = self.coeffs.get(r)
            # (t + delta - r) * A_{r+1}: the t^j coefficient is
            # A[j-1] + (delta - r) * A[j]
            acc = [a + (delta - r) * b for a, b in zip([0] + acc, acc + [0])]
            if c is not None:
                acc[0] += c.numerator * (scale // c.denominator) * weight
            weight *= r or 1
        # the t^R coefficient is D c_R, so nothing needs trimming
        return tuple(Fraction(a, scale * weight) for a in acc)


# ---------------------------------------------------------------------------
# One-face maps


def one_face_map_series(pairs: int) -> BinomialPolynomial:
    """Vertex generating polynomial of one-face maps with ``pairs`` edges:
    (2N-1)!! * sum_r 2^r C(N, r) C(t, r+1).

    Equals the empty-blocks involution series; the monomial coefficient of
    t^v counts gluings of a 2N-gon with v vertices.
    """
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    matchings = perfect_matching_count(pairs)
    coeffs = {
        r + 1: Fraction(matchings * 2**r * binomial(pairs, r))
        for r in range(pairs + 1)
    }
    return BinomialPolynomial(coeffs)


# ---------------------------------------------------------------------------
# The separated-pair series
#
# Its p_lam coefficient at t = 1 - k is the separated-pair count of lam,
# which `permsep.formulas` computes from hook characters instead.  ``gtable``
# prints the whole coefficient table, and verification extracts its
# power-sum coefficients through `permsep.symfunc`, a plain
# {partition: coefficient} mapping per r, as an independent check of that
# count.


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
def gen_series_table(n: int, m: int, k: int) -> Mapping[tuple[Partition, int], int]:
    """Coefficient table of the separated-pair series at degree n.

    Entry ``(lam, r)`` is the integer coefficient of m_lam * C(t, r) in the
    series written in the shifted variable (argument t + k); zero entries are
    left out.  They vanish when r > n - m or when lam has more than
    n - k - r + 1 parts, and depend on the block sizes only through (m, k).
    The cached mapping is read-only, so callers can share it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    if k == 0 and m != 0:
        raise ValueError("k = 0 only makes sense with m = 0")
    entries: dict[tuple[Partition, int], int] = {}
    for r in range(n - m + 1):
        by_length = [gen_series_entry(n, m, k, length, r) for length in range(n + 1)]
        for lam in partitions(n):
            if by_length[len(lam)]:
                entries[(lam, r)] = by_length[len(lam)]
    return MappingProxyType(entries)
