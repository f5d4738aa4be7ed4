import itertools
import math
from fractions import Fraction

import pytest

from permsep.partitions import partitions, stirling_first_unsigned
from permsep.symfunc import (
    expand_power_sum_in_monomials,
    power_sum_coefficient,
    transition_matrices,
)


def test_expand_examples():
    assert expand_power_sum_in_monomials((2,)) == {(2,): 1}
    assert expand_power_sum_in_monomials((1, 1)) == {(2,): 1, (1, 1): 2}
    assert expand_power_sum_in_monomials((2, 1)) == {(3,): 1, (2, 1): 1}
    assert expand_power_sum_in_monomials((1, 1, 1)) == {
        (3,): 1,
        (2, 1): 3,
        (1, 1, 1): 6,
    }


def test_transition_matrices_degree_two():
    assert partitions(2) == ((2,), (1, 1))
    assert transition_matrices(2) == (
        ((1, 0), (1, 2)),
        ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1, 2))),
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_matrices_are_inverse_pairs(n):
    power_to_monomial, monomial_to_power = transition_matrices(n)
    size = len(partitions(n))
    assert len(power_to_monomial) == len(monomial_to_power) == size
    for i in range(size):
        for j in range(size):
            acc = sum(
                power_to_monomial[i][k] * monomial_to_power[k][j] for k in range(size)
            )
            assert acc == (1 if i == j else 0)


def _dominates(lam, mu):
    """Dominance order on partitions of one integer, by prefix sums."""
    lam_sums = itertools.accumulate(lam + (0,) * len(mu))
    mu_sums = itertools.accumulate(mu + (0,) * len(lam))
    return all(a >= b for a, b in zip(lam_sums, mu_sums))


@pytest.mark.parametrize("n", range(1, 9))
def test_dominance_triangularity(n):
    # the power-sum coefficient of a monomial function vanishes whenever the
    # monomial index is strictly above the power index in dominance order
    power_to_monomial, monomial_to_power = transition_matrices(n)
    index = partitions(n)
    for i, mu in enumerate(index):
        for j, lam in enumerate(index):
            if _dominates(mu, lam) and mu != lam:
                assert monomial_to_power[i][j] == 0
            if power_to_monomial[i][j]:
                assert _dominates(lam, mu)


def test_power_sum_coefficient_examples():
    assert power_sum_coefficient({(2,): Fraction(1)}, (2,)) == 1
    assert power_sum_coefficient({(1, 1): Fraction(1)}, (2,)) == Fraction(-1, 2)
    assert power_sum_coefficient({(2,): Fraction(4), (1, 1): Fraction(4)}, (2,)) == 2
    assert power_sum_coefficient({}, (2, 1)) == 0


def test_power_sum_coefficient_degree_mismatch():
    with pytest.raises(ValueError, match=r"\(2,\)"):
        power_sum_coefficient({(2,): Fraction(1)}, (3,))
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        power_sum_coefficient({(2,): Fraction(1), (2, 1): Fraction(1)}, (1, 1))
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a partition of 3"):
        power_sum_coefficient({(1, 2): Fraction(1)}, (3,))


def test_transition_matrices_cached_per_degree():
    assert transition_matrices(5) is transition_matrices(5)
    for n in (0, -1):
        with pytest.raises(ValueError):
            transition_matrices(n)


def _length_sum(n, length):
    """The sum of the monomial functions of degree n with ``length`` parts."""
    return {mu: 1 for mu in partitions(n) if len(mu) == length}


def test_involution_length_coefficient_examples():
    assert power_sum_coefficient(_length_sum(2, 1), (2,)) == 1
    assert power_sum_coefficient(_length_sum(2, 2), (2,)) == Fraction(-1, 2)
    assert power_sum_coefficient(_length_sum(4, 3), (2, 2)) == Fraction(-1, 2)


@pytest.mark.parametrize("pairs", range(1, 6))
def test_involution_length_coefficient_sweep(pairs):
    for surplus in range(pairs + 1):
        expected = Fraction(
            (-1) ** surplus,
            2**surplus * math.factorial(surplus) * math.factorial(pairs - surplus),
        )
        coeffs = _length_sum(2 * pairs, pairs + surplus)
        assert power_sum_coefficient(coeffs, (2,) * pairs) == expected


def _cycle_count_coefficient(n, cycle_count, length):
    """The power-sum coefficients with ``cycle_count`` parts, summed, of the
    sum of the monomial functions with ``length`` parts, read off the inverse
    matrix."""
    index = partitions(n)
    return sum(
        row[j]
        for lam, row in zip(index, transition_matrices(n)[1])
        if len(lam) == length
        for j, mu in enumerate(index)
        if len(mu) == cycle_count
    )


def test_cycle_count_coefficient_examples():
    assert _cycle_count_coefficient(2, 1, 1) == 1
    assert _cycle_count_coefficient(2, 1, 2) == Fraction(-1, 2)
    assert _cycle_count_coefficient(3, 3, 3) == Fraction(1, 6)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_count_coefficient_sweep(n):
    for p in range(1, n + 1):
        for length in range(1, n + 1):
            expected = (
                (-1) ** (length - p)
                * math.comb(n - 1, length - 1)
                * Fraction(stirling_first_unsigned(length, p), math.factorial(length))
            )
            assert _cycle_count_coefficient(n, p, length) == expected
