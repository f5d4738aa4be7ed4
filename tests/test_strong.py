import io
import math
from collections import Counter
from fractions import Fraction

import pytest

from permsep import crosscheck as xc
from permsep import strong as st
from permsep.cli import main
from permsep.formulas import pair_space, separation_probability
from permsep.partitions import conjugacy_class_size, partitions, sorted_partition


def _set_partitions(elements):
    """Every set partition of ``elements``, as lists of pieces."""
    if not elements:
        yield []
        return
    first, rest = elements[0], elements[1:]
    for smaller in _set_partitions(rest):
        yield [[first]] + smaller
        for i, piece in enumerate(smaller):
            yield smaller[:i] + [[first] + piece] + smaller[i + 1:]


@pytest.mark.parametrize("m", range(1, 8))
def test_refinement_matrix_is_unit_upper_triangular(m):
    rows = xc.refinement_matrix(m)
    assert len(rows) == len(partitions(m))
    for i in range(len(rows)):
        assert rows[i][i] == 1
        for j in range(i):
            assert rows[i][j] == 0


@pytest.mark.parametrize("m", range(1, 8))
def test_refinement_matrix_counts_refining_set_partitions(m):
    # row A tallies, by sorted piece sizes, the set partitions of {0..m-1}
    # that refine its consecutive blocks of sizes A (Bell(7) = 877 in all)
    every = list(_set_partitions(list(range(m))))
    index = partitions(m)
    for coarse, row in zip(index, xc.refinement_matrix(m)):
        block_of = [b for b, size in enumerate(coarse) for _ in range(size)]
        tally = Counter(
            sorted_partition(map(len, pieces))
            for pieces in every
            if all(len({block_of[x] for x in piece}) == 1 for piece in pieces)
        )
        assert {mu: ways for mu, ways in zip(index, row) if ways} == tally


def test_refinement_matrix_entries():
    # rows and columns follow partitions(3): (3,), (2, 1), (1, 1, 1)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    rows = xc.refinement_matrix(3)
    assert rows[0][1] == 3  # three ways to split a 3-set into 2+1
    assert rows[0][2] == 1
    assert rows[1][2] == 1
    index = partitions(4)
    row = xc.refinement_matrix(4)[index.index((4,))]
    assert row[index.index((2, 2))] == 3
    assert row[index.index((2, 1, 1))] == 6


def test_strong_probability_tables_frozen():
    assert st.strong_probability_table((3,), 3) == {
        (3,): Fraction(1, 2),
        (2, 1): Fraction(0),
        (1, 1, 1): Fraction(1, 2),
    }
    assert st.strong_probability_table((2, 1), 2) == {
        (2,): Fraction(1, 3),
        (1, 1): Fraction(2, 3),
    }


def test_singleton_profiles_strong_equals_weak():
    for lam in [(3,), (2, 2), (3, 1), (4, 2)]:
        n = sum(lam)
        for k in range(1, min(n, 4) + 1):
            assert st.strong_separation_probability(lam, (1,) * k) == (
                separation_probability(lam, (1,) * k).probability
            )


def _assert_round_trip(lam, m):
    table = st.strong_probability_table(lam, m)
    index = partitions(m)
    for coarse, row in zip(index, xc.refinement_matrix(m)):
        recombined = sum(coeff * table[fine] for coeff, fine in zip(row, index))
        assert recombined == separation_probability(lam, coarse).probability


def test_round_trip_reproduces_weak_table():
    for n in range(1, 8):
        for lam in partitions(n):
            for m in range(1, n + 1):
                _assert_round_trip(lam, m)
    # beyond brute-force reach: the closed form against the refinement system
    for lam in [(12,), (6, 6), (3, 3, 3, 2, 1), (4, 2, 2, 1, 1, 1, 1)]:
        for m in range(1, 11):
            _assert_round_trip(lam, m)


def test_strong_probabilities_match_oracle():
    for n in range(2, 6):
        for lam in partitions(n):
            space_base = conjugacy_class_size(lam)
            for m in range(1, n + 1):
                table = st.strong_probability_table(lam, m)
                for beta, prob in table.items():
                    count = xc.oracle_strong_pair_count(lam, beta)
                    assert prob == Fraction(count, pair_space(n, beta, space_base))


def test_connection_coefficients_examples():
    assert st.connection_coefficient((3,), (1, 1, 1)) == 2
    assert st.connection_coefficient((3,), (2, 1)) == 0
    assert st.connection_coefficient((2, 1), (3,)) == 0  # parity obstruction
    assert st.connection_coefficient((2, 1), (2, 1)) == 2
    assert st.connection_coefficient((3,), (3,)) == 1


def test_connection_matches_oracle():
    for n in range(1, 6):
        for lam in partitions(n):
            for alpha in partitions(n):
                assert st.connection_coefficient(
                    lam, alpha
                ) == xc.oracle_connection_coefficient(lam, alpha)


def _connection_by_strong_probability(lam, alpha):
    """The route `connection_coefficient` took before the hook-character sum:
    the strong probability at m = n, times (n-1)! |C_lam| / prod (alpha_i - 1)!."""
    n = sum(lam)
    value = st.strong_separation_probability(lam, alpha) * Fraction(
        math.factorial(n - 1) * conjugacy_class_size(lam),
        math.prod(math.factorial(a - 1) for a in alpha),
    )
    assert value.denominator == 1
    return value.numerator


def test_connection_matches_the_strong_probability_route():
    # every lam, alpha of n <= 10 (3,582 pairs), then three cases up to n = 120
    for n in range(1, 11):
        for lam in partitions(n):
            for alpha in partitions(n):
                assert st.connection_coefficient(lam, alpha) == (
                    _connection_by_strong_probability(lam, alpha)
                ), (lam, alpha)
    for lam, alpha in [
        ((20, 20), (15, 15, 10)),
        ((60, 60), (30, 30, 30, 30)),
        ((3,) * 40, (60, 60)),
    ]:
        assert st.connection_coefficient(lam, alpha) == (
            _connection_by_strong_probability(lam, alpha)
        ), (lam, alpha)


def test_connection_reorder_invariant():
    assert st.connection_coefficient((3, 2), (2, 1, 2)) == st.connection_coefficient(
        (3, 2), (2, 2, 1)
    )
    with pytest.raises(ValueError):
        st.connection_coefficient((3,), (2,))  # alpha must have size n


def test_total_factorizations_by_connection():
    # summing K over all product types, weighted by class sizes, counts all
    # pairs (class element, full cycle)
    for n in range(1, 11):
        for lam in partitions(n):
            total = sum(
                st.connection_coefficient(lam, alpha) * conjugacy_class_size(alpha)
                for alpha in partitions(n)
            )
            assert total == conjugacy_class_size(lam) * math.factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 42))
def test_full_cycle_times_full_cycle_is_full_cycle(n):
    # factorizations of an n-cycle into two n-cycles: 2 (n-1)! / (n+1) for odd
    # n, none for even n (Zagier 1995; Stanley 2011)
    want = Fraction(2 * math.factorial(n - 1), n + 1) if n % 2 else 0
    assert st.connection_coefficient((n,), (n,)) == want


def test_query_path_never_builds_the_refinement_matrix():
    xc.refinement_matrix.cache_clear()
    sink = io.StringIO()
    assert main(["strong", "--lambda", "4,3,2,1", "--m", "8"], stdout=sink) == 0
    assert main(
        ["connection", "--lambda", "3,3,3,2,1", "--alpha", "4,4,2,1,1"], stdout=sink
    ) == 0
    assert xc.refinement_matrix.cache_info().currsize == 0
