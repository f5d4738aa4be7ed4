import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep.partitions import dominates, partitions
from permsep.symfunc import (
    SymFuncVector,
    cycle_count_power_coefficient,
    expand_power_sum_in_monomials,
    involution_length_power_coefficient,
    power_sum_coefficient,
    to_monomial_basis,
    to_power_sum_basis,
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
    tm = transition_matrices(2)
    assert tm.index == ((2,), (1, 1))
    assert tm.power_to_monomial == ((1, 0), (1, 2))
    assert tm.monomial_to_power == (
        (Fraction(1), Fraction(0)),
        (Fraction(-1, 2), Fraction(1, 2)),
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_matrices_are_inverse_pairs(n):
    tm = transition_matrices(n)
    size = len(tm.index)
    for i in range(size):
        for j in range(size):
            acc = sum(
                tm.power_to_monomial[i][k] * tm.monomial_to_power[k][j]
                for k in range(size)
            )
            assert acc == (1 if i == j else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_dominance_triangularity(n):
    # the power-sum coefficient of a monomial function vanishes whenever the
    # monomial index is strictly above the power index in dominance order
    tm = transition_matrices(n)
    for i, mu in enumerate(tm.index):
        for j, lam in enumerate(tm.index):
            if dominates(mu, lam) and mu != lam:
                assert tm.monomial_to_power[i][j] == 0
            if tm.power_to_monomial[i][j]:
                assert dominates(tm.index[j], tm.index[i])


def test_power_sum_coefficient_examples():
    m2 = SymFuncVector(2, "m", {(2,): Fraction(1)})
    assert power_sum_coefficient(m2, (2,)) == 1
    m11 = SymFuncVector(2, "m", {(1, 1): Fraction(1)})
    assert power_sum_coefficient(m11, (2,)) == Fraction(-1, 2)
    mixed = SymFuncVector(2, "m", {(2,): Fraction(4), (1, 1): Fraction(4)})
    assert power_sum_coefficient(mixed, (2,)) == 2


def test_power_sum_coefficient_degree_mismatch():
    vec = SymFuncVector(2, "m", {(2,): Fraction(1)})
    with pytest.raises(ValueError):
        power_sum_coefficient(vec, (3,))
    with pytest.raises(ValueError):
        power_sum_coefficient(SymFuncVector(2, "p", {(2,): Fraction(1)}), (2,))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.data())
def test_round_trip_monomial_power_monomial(n, data):
    index = list(partitions(n))
    coeffs = {
        lam: Fraction(data.draw(st.integers(-9, 9)))
        for lam in index
        if data.draw(st.booleans())
    }
    vec = SymFuncVector(n, "m", coeffs)
    back = to_monomial_basis(to_power_sum_basis(vec))
    assert back.coeffs == vec.coeffs


def test_involution_length_coefficient_examples():
    assert involution_length_power_coefficient(1, 0) == 1
    assert involution_length_power_coefficient(1, 1) == Fraction(-1, 2)
    assert involution_length_power_coefficient(2, 1) == Fraction(-1, 2)


@pytest.mark.parametrize("pairs", range(1, 6))
def test_involution_length_coefficient_sweep(pairs):
    for surplus in range(pairs + 1):
        expected = Fraction(
            (-1) ** surplus,
            2**surplus * math.factorial(surplus) * math.factorial(pairs - surplus),
        )
        assert involution_length_power_coefficient(pairs, surplus) == expected


def test_cycle_count_coefficient_examples():
    assert cycle_count_power_coefficient(2, 1, 1) == 1
    assert cycle_count_power_coefficient(2, 1, 2) == Fraction(-1, 2)
    assert cycle_count_power_coefficient(3, 3, 3) == Fraction(1, 6)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycle_count_coefficient_sweep(n):
    for p in range(1, n + 1):
        for length in range(1, n + 1):
            cycle_count_power_coefficient(n, p, length)  # raises on mismatch


def test_vector_validation():
    with pytest.raises(ValueError):
        SymFuncVector(3, "m", {(2,): Fraction(1)})
    with pytest.raises(ValueError):
        SymFuncVector(2, "q", {(2,): Fraction(1)})
    # explicit zeros are dropped
    vec = SymFuncVector(2, "m", {(2,): Fraction(0), (1, 1): Fraction(3)})
    assert vec.coeffs == {(1, 1): Fraction(3)}
