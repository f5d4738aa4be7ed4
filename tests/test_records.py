"""The package's record types: keyword construction, defaults, immutability,
equality, hashing and repr text, one test per type."""

from fractions import Fraction

import pytest

from permsep.formulas import SepResult
from permsep.polynomials import BinomialPolynomial
from permsep.verification import CheckResult, _Recorder


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


def test_check_result_fail_line_names_the_failing_check():
    class Unprintable:
        def __format__(self, spec):
            raise AssertionError("a passing check formatted its label")

    rec = _Recorder()
    for n in range(4):
        rec.equal(n * n, 2 * n, "square n={} alpha={}", n, (2, 1))
    rec.equal(Fraction(1, 2), Fraction(1, 3), "half lam={} r={}", (3, 1), 0)
    rec.equal(7, 7, "never shown {}", Unprintable())
    rec.expect(True, "never shown either {}", Unprintable())
    rec.expect(False, "identity a={} b={}", 3, 4)
    result = rec.result("2", "symmetry")
    assert (result.passed, result.checks) == (False, 8)
    assert result.render() == (
        "FAIL criterion-2 symmetry [8 checks]: square n=1 alpha=(2, 1): got 1, want 2; "
        "square n=3 alpha=(2, 1): got 9, want 6; half lam=(3, 1) r=0: got 1/2, want 1/3; "
        "identity a=3 b=4"
    )
    for j in range(3):
        rec.equal(j, -1, "extra j={}", j)
    assert rec.result("2", "symmetry").render() == (
        "FAIL criterion-2 symmetry [11 checks]: square n=1 alpha=(2, 1): got 1, want 2; "
        "square n=3 alpha=(2, 1): got 9, want 6; half lam=(3, 1) r=0: got 1/2, want 1/3; "
        "identity a=3 b=4; extra j=0: got 0, want -1 (+2 more)"
    )


def test_a_failing_check_renders_its_loop_values(monkeypatch):
    # one formula value made wrong: the FAIL line names that check's loop
    # values, and the other checks of the criterion still pass
    from permsep import crosscheck

    real = crosscheck.separated_colored_count
    monkeypatch.setattr(
        crosscheck,
        "separated_colored_count",
        lambda n, left, m, k, r: real(n, left, m, k, r) + ((left, k) == (2, 1)),
    )
    from permsep.verification import check_colored_triples

    assert check_colored_triples(max_n=2).render() == (
        "FAIL criterion-4 colored factorization formula [5 checks]: "
        "n=2 gamma=(1, 1) delta=(2,): got 2, want 3"
    )
