"""The binomial-coefficient basis, and the base of the normalising records.

A ``BinomialPolynomial`` stores a finite combination sum_r c_r * C(t, r); the
generating series in this package have nonnegative integer coefficients in
this basis because each coefficient counts colored objects.  Its monomial
form is a dense ``Poly``, a tuple of Fractions, lowest degree first.  No
Fraction polynomial arithmetic is left: conversion to monomials, shifted by
any integer, and evaluation at an integer run in integers.  The conversion
nests the basis Horner-style and divides exactly once at the end, in O(R^2)
integer operations for top index R, and evaluation keeps C(t, r) as a
running integer binomial.

`FrozenRecord` is the base of the package's immutable records whose
constructor normalises its input; the plain records are ``NamedTuple``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

Poly = tuple[Fraction, ...]


class FrozenRecord:
    """Base of the immutable records whose constructor normalises its input.

    A subclass lists its fields in ``__slots__`` and sets them once with
    `_init`; instances compare equal field by field, are unhashable (their
    fields hold dicts), reject assignment and print as ``Name(field=value,
    ...)``.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class BinomialPolynomial(FrozenRecord):
    """A polynomial written as sum_r coeffs[r] * C(t, r); ``coeffs`` keeps
    only the nonzero coefficients, as Fractions."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Fraction] | None = None):
        cleaned = {}
        for r, c in (coeffs or {}).items():
            if r < 0:
                raise ValueError("binomial-basis support must be nonnegative")
            c = Fraction(c)
            if c:
                cleaned[int(r)] = c
        self._init(cleaned)

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
