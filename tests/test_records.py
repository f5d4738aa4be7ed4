"""The package's record types: keyword construction, defaults, immutability,
equality, hashing and repr text, one test per type."""

from fractions import Fraction

import pytest

from permsep.formulas import SepResult
from permsep.polynomials import BinomialPolynomial
from permsep.verification import CheckResult


def assert_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def assert_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_sep_result():
    res = SepResult(count=3, probability=Fraction(1, 2), method="m")
    assert (res.count, res.probability, res.method) == (3, Fraction(1, 2), "m")
    assert res == SepResult(3, Fraction(1, 2), "m")
    assert res != SepResult(3, Fraction(1, 2), "oracle")
    assert hash(res) == hash(SepResult(3, Fraction(1, 2), "m"))
    assert_immutable(res, "count")
    assert repr(res) == "SepResult(count=3, probability=Fraction(1, 2), method='m')"


def test_binomial_polynomial():
    coeffs = {0: Fraction(1, 2), 2: Fraction(3)}
    poly = BinomialPolynomial(coeffs=coeffs)
    assert poly.coeffs is coeffs
    assert poly == BinomialPolynomial(dict(coeffs))
    assert poly != BinomialPolynomial({2: Fraction(3)})
    assert (poly.coefficient(2), poly.coefficient(1)) == (3, 0)
    assert_unhashable(poly)  # its field is a dict
    assert_immutable(poly, "coeffs")
    assert repr(BinomialPolynomial({1: Fraction(2)})) == (
        "BinomialPolynomial(coeffs={1: Fraction(2, 1)})"
    )


def test_check_result():
    result = CheckResult(criterion="4", name="symmetry", passed=True, checks=7)
    assert result.failures == ()
    assert result == CheckResult("4", "symmetry", True, 7, ())
    assert result != CheckResult("4", "symmetry", False, 7, ("x",))
    assert hash(result) == hash(CheckResult("4", "symmetry", True, 7))
    assert result.render() == "PASS criterion-4 symmetry [7 checks]"
    assert_immutable(result, "passed")
    assert repr(result) == (
        "CheckResult(criterion='4', name='symmetry', passed=True, checks=7, failures=())"
    )
