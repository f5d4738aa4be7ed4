import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsep.partitions import (
    as_composition,
    as_partition,
    binomial,
    centralizer_order,
    compositions,
    conjugacy_class_size,
    multinomial,
    partitions,
    perfect_matching_count,
    sorted_partition,
    stirling_first_unsigned,
)
from permsep.verification import all_compositions

PARTITION_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}


def test_partition_stream_counts():
    for n, expected in PARTITION_COUNTS.items():
        assert len(list(partitions(n))) == expected


def test_partition_stream_order_revlex():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # deterministic: two runs agree element by element
    assert list(partitions(7)) == list(partitions(7))
    # one tuple per n, built once and shared by every later call
    assert isinstance(partitions(7), tuple) and partitions(7) is partitions(7)
    assert partitions(0) == ((),)
    with pytest.raises(ValueError):
        partitions(-1)


def test_partition_stream_exhaustive_and_valid():
    for n in range(9):
        seen = set()
        for lam in partitions(n):
            assert lam == as_partition(lam)
            assert sum(lam) == n
            assert lam not in seen
            seen.add(lam)


def test_as_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))
    assert sorted_partition([1, 3, 1]) == (3, 1, 1)


def test_composition_streams():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    for m in range(1, 9):
        assert len(list(all_compositions(m))) == 2 ** (m - 1)
    for comp in all_compositions(5):
        assert comp == as_composition(comp)
        assert sum(comp) == 5


def test_centralizer_and_class_size_examples():
    # two 3-cycles in the symmetric group on 3 points
    assert (centralizer_order((3,)), conjugacy_class_size((3,))) == (3, 2)
    # three fixed-point-free involutions on 4 points
    assert (centralizer_order((2, 2)), conjugacy_class_size((2, 2))) == (8, 3)
    for n in range(1, 8):
        assert centralizer_order((1,) * n) == math.factorial(n)
        assert conjugacy_class_size((1,) * n) == 1


def test_class_sizes_partition_the_group():
    for n in range(1, 8):
        assert sum(conjugacy_class_size(lam) for lam in partitions(n)) == math.factorial(n)


def test_centralizer_times_class_size_is_group_order():
    for n in range(1, 9):
        for lam in partitions(n):
            assert centralizer_order(lam) * conjugacy_class_size(lam) == math.factorial(n)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(-1, 3) == -1
    assert binomial(-2, 3) == -4  # (-2)(-3)(-4)/6
    assert binomial(3, 5) == 0
    assert binomial(7, -1) == 0


@given(st.integers(-30, 30), st.integers(0, 12))
def test_binomial_matches_product_formula(x, r):
    product = Fraction(1)
    for i in range(r):
        product *= Fraction(x - i, i + 1)
    assert product.denominator == 1
    assert binomial(x, r) == product


@given(st.integers(-20, 20), st.integers(1, 10))
def test_binomial_pascal_rule(x, r):
    assert binomial(x, r) == binomial(x - 1, r) + binomial(x - 1, r - 1)


def test_stirling_examples():
    assert stirling_first_unsigned(3, 2) == 3  # x(x+1)(x+2) = x^3 + 3x^2 + 2x
    assert stirling_first_unsigned(4, 0) == 0
    assert stirling_first_unsigned(0, 0) == 1
    for n in range(1, 10):
        assert stirling_first_unsigned(n, n) == 1


def test_stirling_rows_sum_to_factorial():
    for n in range(13):
        assert sum(stirling_first_unsigned(n, p) for p in range(n + 1)) == math.factorial(n)


def test_stirling_counts_cycle_classes():
    for n in range(1, 8):
        for p in range(1, n + 1):
            by_classes = sum(
                conjugacy_class_size(lam) for lam in partitions(n) if len(lam) == p
            )
            assert stirling_first_unsigned(n, p) == by_classes


def test_multinomial():
    assert multinomial([1, 1, 2]) == 12
    assert multinomial([4]) == 1
    assert multinomial([]) == 1


def test_perfect_matching_count():
    assert [perfect_matching_count(n) for n in range(6)] == [1, 1, 3, 15, 105, 945]


def _dominates(lam, mu):
    """Dominance order on partitions of one integer, by prefix sums."""
    lam_sums = itertools.accumulate(lam + (0,) * len(mu))
    mu_sums = itertools.accumulate(mu + (0,) * len(lam))
    return all(a >= b for a, b in zip(lam_sums, mu_sums))


def test_revlex_extends_dominance():
    for n in range(1, 9):
        index = list(partitions(n))
        for i, lam in enumerate(index):
            for j, mu in enumerate(index):
                if _dominates(lam, mu) and lam != mu:
                    assert i < j
