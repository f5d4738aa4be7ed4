"""Exact univariate polynomial helpers and the binomial-coefficient basis.

Dense polynomials are tuples of Fractions, lowest degree first.  A
``BinomialPolynomial`` stores a finite combination sum_r c_r * C(t, r); the
generating series in this package have nonnegative integer coefficients in
this basis because each coefficient counts colored objects.  Conversion to
monomials and evaluation at an integer run in integers: the conversion nests
the basis Horner-style and divides exactly once at the end, in O(R^2)
integer operations for top index R, and evaluation keeps C(t, r) as a
running integer binomial.

`FrozenRecord` is the base of the package's immutable records whose
constructor normalises its input; the plain records are ``NamedTuple``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
        """Dense monomial coefficients, lowest degree first.

        With R the top index and D the common denominator, the nested integer
        scheme A_r = D c_r R!/r! + (t - r) A_{r+1} gives A_0 = D R! * P(t), so
        the only division is the exact one by D R! at the end.
        """
        if not self.coeffs:
            return ()
        top = max(self.coeffs)
        scale = math.lcm(*(c.denominator for c in self.coeffs.values()))
        acc: list[int] = []
        weight = 1  # R!/r!
        for r in range(top, -1, -1):
            c = self.coeffs.get(r)
            # (t - r) * A_{r+1}: the t^j coefficient is A[j-1] - r * A[j]
            acc = [a - r * b for a, b in zip([0] + acc, acc + [0])]
            if c is not None:
                acc[0] += c.numerator * (scale // c.denominator) * weight
            weight *= r or 1
        return poly_trim(Fraction(a, scale * weight) for a in acc)

    def to_monomial_shifted(self, delta: Fraction | int) -> Poly:
        """Monomial coefficients of P(t + delta)."""
        return poly_shift(self.to_monomial(), delta)
