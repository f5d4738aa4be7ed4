import io
import math
from fractions import Fraction

import pytest

from permsep import crosscheck as xc
from permsep import strong as st
from permsep.cli import main
from permsep.formulas import separation_probability
from permsep.partitions import conjugacy_class_size, partitions
from permsep.separation import block_tuple_count


def test_set_partition_count():
    assert st.set_partition_count(4, (2, 2)) == 3
    assert st.set_partition_count(2, (1, 1)) == 1
    assert st.set_partition_count(3, (3,)) == 1
    assert st.set_partition_count(4, (2, 1, 1)) == 6
    with pytest.raises(ValueError):
        st.set_partition_count(3, (2, 2))


def test_refinement_coefficient_examples():
    assert st.refinement_coefficient((2, 1), ((2,), (1,))) == 1
    assert st.refinement_coefficient((2, 1), ((1, 1), (1,))) == 1
    assert st.refinement_coefficient((4,), ((2, 2),)) == 3
    with pytest.raises(ValueError):
        st.refinement_coefficient((2, 1), ((2,),))  # wrong number of segments
    with pytest.raises(ValueError):
        st.refinement_coefficient((2, 1), ((3,), (1,)))  # segment size mismatch


def test_segmented_refinements():
    segs = list(st.segmented_refinements((2, 1)))
    assert segs == [((2,), (1,)), ((1, 1), (1,))]
    # number of segmentations is the product of partition counts of the parts
    assert len(list(st.segmented_refinements((3, 2)))) == 3 * 2


@pytest.mark.parametrize("m", range(1, 8))
def test_refinement_matrix_is_unit_upper_triangular(m):
    matrix = st.refinement_matrix(m)
    size = len(matrix.index)
    for i in range(size):
        assert matrix.rows[i][i] == 1
        for j in range(i):
            assert matrix.rows[i][j] == 0


def test_refinement_matrix_entries():
    matrix = st.refinement_matrix(3)
    assert matrix.index == ((3,), (2, 1), (1, 1, 1))
    # rows and columns follow the index: (3,), (2, 1), (1, 1, 1)
    assert matrix.rows[0][1] == 3  # three ways to split a 3-set into 2+1
    assert matrix.rows[0][2] == 1
    assert matrix.rows[1][2] == 1


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
    matrix = st.refinement_matrix(m)
    for i, coarse in enumerate(matrix.index):
        recombined = sum(
            coeff * table[fine] for coeff, fine in zip(matrix.rows[i], matrix.index)
        )
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
                    assert prob == Fraction(
                        count, block_tuple_count(n, beta) * space_base
                    )


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
    st.refinement_matrix.cache_clear()
    sink = io.StringIO()
    assert main(["strong", "--lambda", "4,3,2,1", "--m", "8"], stdout=sink) == 0
    assert main(
        ["connection", "--lambda", "3,3,3,2,1", "--alpha", "4,4,2,1,1"], stdout=sink
    ) == 0
    assert st.refinement_matrix.cache_info().currsize == 0
