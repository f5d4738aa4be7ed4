from fractions import Fraction

import pytest

from permsep.polynomials import (
    BinomialPolynomial,
    poly_add,
    poly_eval,
    poly_mul,
    poly_shift,
)


def test_binomial_basis_poly():
    def basis(r):
        return BinomialPolynomial({r: 1}).to_monomial()

    assert basis(0) == (Fraction(1),)
    assert basis(1) == (Fraction(0), Fraction(1))
    # C(t, 2) = (t^2 - t)/2
    assert basis(2) == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))


def test_poly_helpers():
    a = (Fraction(1), Fraction(2))
    b = (Fraction(0), Fraction(-2), Fraction(3))
    assert poly_add(a, b) == (Fraction(1), Fraction(0), Fraction(3))
    assert poly_mul(a, b) == (Fraction(0), Fraction(-2), Fraction(-1), Fraction(6))
    assert poly_eval(poly_mul(a, b), 2) == poly_eval(a, 2) * poly_eval(b, 2)


def test_poly_shift():
    # P(t) = t^2 -> P(t+1) = t^2 + 2t + 1
    assert poly_shift((Fraction(0), Fraction(0), Fraction(1)), 1) == (
        Fraction(1),
        Fraction(2),
        Fraction(1),
    )
    coeffs = (Fraction(3), Fraction(-1), Fraction(2), Fraction(5))
    assert poly_shift(poly_shift(coeffs, 4), -4) == coeffs


def test_binomial_polynomial_evaluate_matches_monomial():
    poly = BinomialPolynomial({0: Fraction(3), 2: Fraction(5), 4: Fraction(-2)})
    mono = poly.to_monomial()
    for t in range(-4, 5):
        assert poly.evaluate(t) == poly_eval(mono, t)


def test_binomial_polynomial_shifted_monomial():
    poly = BinomialPolynomial({1: Fraction(2), 3: Fraction(1)})
    shifted = poly.to_monomial_shifted(-2)
    for t in range(-3, 4):
        assert poly_eval(shifted, t) == poly.evaluate(t - 2)


def test_binomial_polynomial_validation():
    with pytest.raises(ValueError):
        BinomialPolynomial({-1: Fraction(1)})
    assert BinomialPolynomial({2: Fraction(0)}).coeffs == {}
