from fractions import Fraction

from permsep.polynomials import BinomialPolynomial


def horner(coeffs, t):
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + c
    return value


def test_binomial_basis_poly():
    def basis(r):
        return BinomialPolynomial({r: 1}).to_monomial()

    assert basis(0) == (Fraction(1),)
    assert basis(1) == (Fraction(0), Fraction(1))
    # C(t, 2) = (t^2 - t)/2
    assert basis(2) == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))


def test_binomial_polynomial_evaluate_matches_monomial():
    poly = BinomialPolynomial({0: Fraction(3), 2: Fraction(5), 4: Fraction(-2)})
    mono = poly.to_monomial()
    for t in range(-4, 5):
        assert poly.evaluate(t) == horner(mono, t)


def test_binomial_polynomial_shifted_monomial():
    poly = BinomialPolynomial({1: Fraction(2), 3: Fraction(1)})
    shifted = poly.to_monomial_shifted(-2)
    for t in range(-3, 4):
        assert horner(shifted, t) == poly.evaluate(t - 2)


def test_shifted_monomial_for_either_sign_of_shift():
    poly = BinomialPolynomial({0: Fraction(3), 2: Fraction(-1, 2), 5: Fraction(7, 3)})
    for delta in (-4, 0, 3):
        shifted = poly.to_monomial_shifted(delta)
        assert len(shifted) == 6 and shifted[-1] != 0
        for t in (-5, 0, 2, Fraction(1, 3)):
            assert horner(shifted, t) == poly.evaluate(t + delta)

