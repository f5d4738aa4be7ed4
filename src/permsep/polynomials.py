"""Exact univariate polynomial helpers and the binomial-coefficient basis.

Dense polynomials are lists of Fractions, lowest degree first.  A
``BinomialPolynomial`` stores a finite combination sum_r c_r * C(t, r); the
generating series in this package have nonnegative integer coefficients in
this basis because each coefficient counts colored objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

Poly = tuple[Fraction, ...]


def poly_trim(coeffs: Iterable[Fraction]) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(a: Iterable[Fraction], b: Iterable[Fraction]) -> Poly:
    a, b = list(a), list(b)
    size = max(len(a), len(b))
    a += [Fraction(0)] * (size - len(a))
    b += [Fraction(0)] * (size - len(b))
    return poly_trim(x + y for x, y in zip(a, b))


def poly_scale(a: Iterable[Fraction], s: Fraction) -> Poly:
    return poly_trim(Fraction(s) * x for x in a)


def poly_mul(a: Iterable[Fraction], b: Iterable[Fraction]) -> Poly:
    a, b = list(a), list(b)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_eval(coeffs: Iterable[Fraction], x: Fraction | int) -> Fraction:
    result = Fraction(0)
    for c in reversed(list(coeffs)):
        result = result * x + c
    return Fraction(result)


def poly_shift(coeffs: Iterable[Fraction], delta: Fraction | int) -> Poly:
    """Coefficients of P(t + delta) given those of P(t)."""
    result: Poly = ()
    shifted_t = (Fraction(delta), Fraction(1))
    power: Poly = (Fraction(1),)
    for c in coeffs:
        if c:
            result = poly_add(result, poly_scale(power, c))
        power = poly_mul(power, shifted_t)
    return result


@lru_cache(maxsize=None)
def binomial_basis_poly(r: int) -> Poly:
    """Monomial coefficients of C(t, r) = t(t-1)...(t-r+1)/r!.

    The falling factorial is expanded in integers and divided by r! once.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    falling = [1]
    for i in range(r):
        # (t - i) * P: the t^j coefficient is P[j-1] - i * P[j]
        falling = [a - i * b for a, b in zip([0] + falling, falling + [0])]
    scale = math.factorial(r)
    return tuple(Fraction(c, scale) for c in falling)


@dataclass(frozen=True)
class BinomialPolynomial:
    """A polynomial written as sum_r coeffs[r] * C(t, r)."""

    coeffs: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for r, c in self.coeffs.items():
            if r < 0:
                raise ValueError("binomial-basis support must be nonnegative")
            c = Fraction(c)
            if c:
                cleaned[int(r)] = c
        object.__setattr__(self, "coeffs", cleaned)

    def coefficient(self, r: int) -> Fraction:
        return self.coeffs.get(r, Fraction(0))

    def evaluate(self, t: Fraction | int) -> Fraction:
        """Exact value at ``t`` via the product formula for C(t, r)."""
        t = Fraction(t)
        total = Fraction(0)
        for r, c in self.coeffs.items():
            term = Fraction(1)
            for i in range(r):
                term *= t - i
            total += c * term / math.factorial(r)
        return total

    def to_monomial(self) -> Poly:
        """Dense monomial coefficients, lowest degree first."""
        out: Poly = ()
        for r, c in self.coeffs.items():
            out = poly_add(out, poly_scale(binomial_basis_poly(r), c))
        return out

    def to_monomial_shifted(self, delta: Fraction | int) -> Poly:
        """Monomial coefficients of P(t + delta)."""
        return poly_shift(self.to_monomial(), delta)
