import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep import crosscheck as xc
from permsep import formulas as fm
from permsep import polynomials as pl
from permsep import variants as va
from permsep.errors import InvariantError
from permsep.partitions import (
    binomial,
    centralizer_order,
    conjugacy_class_size,
    multinomial,
    partitions,
    sorted_partition,
    stirling_first_unsigned,
)
from permsep.symfunc import power_sum_coefficient


def test_colored_factorization_count_examples():
    assert xc.colored_factorization_count(3, 1, 1) == 6
    assert xc.colored_factorization_count(3, 2, 2) == 3
    assert xc.colored_factorization_count(3, 3, 2) == 0  # l + l' > n + 1
    with pytest.raises(ValueError):
        xc.colored_factorization_count(3, 0, 1)


def test_separated_colored_count_examples():
    assert xc.separated_colored_count(2, 1, 1, 1, 0) == 4
    assert xc.separated_colored_count(2, 2, 1, 1, 0) == 4
    assert xc.separated_colored_count(3, 3, 3, 3, 0) == 0  # slack negative
    assert xc.separated_colored_count(4, 1, 2, 1, 5) == 0  # r > n - m


def test_marked_composition_count():
    assert xc.marked_composition_count(12, 5, 3, 2) == binomial(14, 5) == 2002
    assert xc.marked_composition_count_direct(2, (1,), 0) == 2
    for n in range(2, 7):
        for k in range(1, n + 1):
            assert xc.marked_composition_count(n, n, k, 0) == 1


def test_gen_series_table_frozen_example():
    table = pl.gen_series_table(2, 1, 1)
    assert dict(table) == {
        ((2,), 0): 4,
        ((1, 1), 0): 4,
        ((2,), 1): 2,
    }
    assert pl.gen_series_table(2, 0, 0)[(2,), 1] == 2
    with pytest.raises(TypeError):  # the cached table is shared, so read-only
        table[(2,), 0] = 5


def test_gen_series_table_support_constraints():
    for (n, m, k) in [(5, 3, 2), (6, 4, 1), (6, 0, 0), (7, 7, 3)]:
        table = pl.gen_series_table(n, m, k)
        for (lam, r), value in table.items():
            assert value > 0
            assert r <= n - m
            assert len(lam) <= n - k - r + 1


def test_gen_series_table_validation():
    with pytest.raises(ValueError):
        pl.gen_series_table(3, 4, 1)
    with pytest.raises(ValueError):
        pl.gen_series_table(3, 2, 0)


def test_separated_pair_count_examples():
    assert fm.separated_pair_count((2,), (1,)) == 2
    assert fm.separated_pair_count((3,), (1, 1)) == 6
    assert fm.separated_pair_count((2, 1), (1, 1)) == 12
    assert fm.separated_pair_count((2, 2), (1, 1)) == 20
    assert fm.separated_pair_count((3,), (2, 1)) == 3
    # blocks too large to fit
    assert fm.separated_pair_count((2,), (2, 1)) == 0


def test_separated_pair_count_depends_only_on_m_and_k():
    for lam in [(4,), (2, 2), (3, 1)]:
        assert fm.separated_pair_count(lam, (3, 1)) == fm.separated_pair_count(
            lam, (2, 2)
        )
        assert fm.separated_pair_count(lam, (2, 1)) == fm.separated_pair_count(
            lam, (1, 2)
        )


def _profile(m, k):
    """A block-size tuple with total m and k blocks."""
    return (m - k + 1,) + (1,) * (k - 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_separated_pair_count_matches_matrix_route(n):
    # power-sum extraction through the full transition matrix, an independent
    # route to the same counts
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            # collapse the C(t, r) direction at t = 1 - k
            coeffs = {}
            for (mu, r), c in pl.gen_series_table(n, m, k).items():
                coeffs[mu] = coeffs.get(mu, 0) + c * binomial(1 - k, r)
            for lam in partitions(n):
                assert fm.separated_pair_count(lam, _profile(m, k)) == power_sum_coefficient(
                    coeffs, lam
                ), (lam, m, k)


@pytest.mark.parametrize("n", [20, 40])
def test_full_cycle_count_matches_two_cycle_closed_form(n):
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            alpha = _profile(m, k)
            expected = xc.separation_probability_two_cycles(n, alpha)
            result = fm.separation_probability((n,), alpha)
            assert result.count == expected.count, (m, k)
            assert result.probability == expected.probability


@pytest.mark.parametrize("n", [400, 1000])
def test_full_cycle_count_matches_two_cycle_closed_form_at_large_n(n):
    # far beyond any oracle: the hook sum against the alternating closed form
    for m, k in ((1, 1), (2, 2), (6, 3), (40, 7), (n // 2, 2), (n // 2, n // 4),
                 (n - 1, n - 1), (n, n // 2), (n, n)):
        alpha = _profile(m, k)
        expected = xc.separation_probability_two_cycles(n, alpha)
        result = fm.separation_probability((n,), alpha)
        assert result.count == expected.count, (m, k)
        assert result.probability == expected.probability


def test_full_cycle_count_matches_two_cycle_closed_form_at_n_4000():
    # the binary-split sum at a size where its halves hold thousands of terms;
    # blocks stay small, as the closed form costs m - k big-fraction terms
    n = 4000
    for m, k in ((1, 1), (2, 2), (3, 2), (6, 3), (40, 7), (200, 100)):
        alpha = _profile(m, k)
        expected = xc.separation_probability_two_cycles(n, alpha)
        assert fm.separation_probability((n,), alpha)[:2] == expected[:2], (m, k)


@pytest.mark.parametrize("pairs", [50, 120, 200])
def test_involution_series_count_matches_hook_sum(pairs):
    # two independent derivations of the pair count of the class 2^N
    alphas = ((1,), (3, 2, 1), (2, 2, 2, 2), (pairs,), (pairs, pairs), (1,) * pairs)
    for alpha in alphas:
        assert xc.involution_pair_count(pairs, alpha) == fm.separated_pair_count(
            (2,) * pairs, alpha
        ), (pairs, alpha)


def test_cycle_polynomial_examples():
    assert fm.cycle_polynomial(()) == [1]
    assert fm.cycle_polynomial((2, 1)) == [1, -1, -1, 1]
    assert fm.cycle_polynomial((1, 1, 1)) == [1, -3, 3, -1]
    assert fm.cycle_polynomial((3,)) == [1, 0, 0, -1]


def _loop_hook_sum(lam, weights):
    """The hook sum as one loop over r, carrying r! (n-1-r)! from r - 1: the
    reference for the binary splitting of `formulas._hook_sum`."""
    n = sum(lam)
    total = 0
    factorials = math.factorial(n - 1)
    for r, (h, w) in enumerate(zip(accumulate(fm.cycle_polynomial(lam)[:n]), weights)):
        if r:
            factorials = factorials * r // (n - r)
        total += (-1) ** r * h * w * factorials
    return Fraction(total, centralizer_order(lam))


@pytest.mark.parametrize("n", range(1, 13))
def test_hook_sum_matches_the_loop(n):
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            weights = [n * g for g in fm._hook_weights(n, m, k)]
            for lam in partitions(n):
                assert fm._hook_sum(lam, iter(weights), "count") == _loop_hook_sum(
                    lam, weights
                ), (lam, m, k)
    for alpha in partitions(n):
        weights = list(accumulate(fm.cycle_polynomial(alpha)))
        for lam in partitions(n):
            assert fm._hook_sum(lam, iter(weights), "connection") == _loop_hook_sum(
                lam, weights
            ), (lam, alpha)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hook_sum_matches_the_loop_on_draws(data):
    n = data.draw(st.integers(1, 300))
    lam = sorted_partition(_draw_parts(data, n))
    m = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, m))
    weights = [n * g for g in fm._hook_weights(n, m, k)]
    assert fm._hook_sum(lam, iter(weights), "count") == _loop_hook_sum(lam, weights)
    weights = list(accumulate(fm.cycle_polynomial(_draw_parts(data, n))))
    assert fm._hook_sum(lam, iter(weights), "connection") == _loop_hook_sum(lam, weights)


def test_hook_sum_raises_on_a_non_integral_sum():
    # h(3) = (1, 1, 1) and z = 3: weights (0, 1) leave -1 * 1! 1! / 3
    with pytest.raises(InvariantError, match="-1/3"):
        fm._hook_sum((3,), [0, 1], "test sum")
    # weights (0, 3) give the integer -1, still refused for its sign
    with pytest.raises(InvariantError, match="test sum for \\(3,\\)"):
        fm._hook_sum((3,), [0, 3], "test sum")
    assert fm._hook_sum((3,), [3], "test sum") == 2


def test_p_cycle_sums_over_types_at_degree_twenty():
    n = 20
    by_length: dict[int, list] = {}
    for lam in partitions(n):
        by_length.setdefault(len(lam), []).append(lam)
    for alpha in [(1, 1), (3, 2), (5, 1, 1, 1), (4, 4, 4, 4, 4), (2,) * 6, (20,)]:
        for p in range(1, n + 1):
            direct = sum(fm.separated_pair_count(lam, alpha) for lam in by_length[p])
            assert va.separated_count_p_cycles(n, p, alpha) == direct, (alpha, p)


def _fraction_p_cycle_count(n, p, m, k):
    """The p-cycle closed form summed term by term in exact Fractions: a
    test-only reference for the integer sum over the common denominator."""
    total = Fraction(0)
    for r in range(n - m + 1):
        q = n - k - r + 1
        total += (
            binomial(1 - k, r)
            * binomial(n + k - 1, n - m - r)
            * Fraction(stirling_first_unsigned(q, p), math.factorial(q))
        )
    return total * math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 7, 19, 64, 150])
def test_p_cycle_count_matches_the_term_by_term_sum(n):
    for p in sorted({1, 2, n // 3 + 1, n // 2 + 1, n}):
        for m in sorted({1, 2, n // 2 + 1, n}):
            for k in sorted({1, m // 2 + 1, m}):
                assert va._p_cycle_count(n, p, m, k) == _fraction_p_cycle_count(n, p, m, k)


def test_separation_probability_examples():
    assert fm.separation_probability((3,), (1, 1)).probability == Fraction(1, 2)
    assert fm.separation_probability((2, 2), (1, 1)).probability == Fraction(5, 9)
    # one block is always separated
    for lam in [(4,), (2, 2), (2, 1, 1)]:
        assert fm.separation_probability(lam, (3,)).probability == 1


def test_p_cycles_examples():
    assert va.separation_probability_p_cycles(3, 2, (1, 1)).probability == Fraction(2, 3)
    assert va.separation_probability_p_cycles(3, 1, (1, 1)).probability == Fraction(1, 2)
    res = va.separation_probability_p_cycles(5, 3, (2,))
    assert res.probability == 1  # single block
    assert res.count == binomial(5, 2) * stirling_first_unsigned(5, 3)


@pytest.mark.parametrize(
    "n, p, alpha", [(3, 0, (5,)), (3, 4, (1,)), (3, 1, (4,)), (3, 0, (1, 1)), (3, 2, (2, 2))]
)
def test_p_cycles_rejects_invalid_input(n, p, alpha):
    # a single block must not bypass the checks on p and the total block size
    with pytest.raises(ValueError):
        va.separation_probability_p_cycles(n, p, alpha)


@pytest.mark.parametrize("n", range(1, 9))
def test_p_cycles_aggregates_class_counts(n):
    for m in range(1, n + 1):
        for alpha in partitions(m):
            for p in range(1, n + 1):
                direct = sum(
                    fm.separated_pair_count(lam, alpha)
                    for lam in partitions(n)
                    if len(lam) == p
                )
                assert va.separated_count_p_cycles(n, p, alpha) == direct


def test_two_cycles_examples():
    assert xc.separation_probability_two_cycles(3, (1, 1)).probability == Fraction(1, 2)
    assert xc.separation_probability_two_cycles(4, (1, 1)).probability == Fraction(11, 18)
    assert xc.separation_probability_two_cycles(6, (1, 1, 1)).probability == Fraction(1, 6)
    assert xc.separation_probability_two_cycles(5, (4,)).probability == 1


def test_singleton_blocks_piecewise():
    assert xc.singleton_blocks_probability(3, 2) == Fraction(1, 2)
    assert xc.singleton_blocks_probability(4, 2) == Fraction(11, 18)
    assert xc.singleton_blocks_probability(6, 3) == Fraction(1, 6)
    for n in range(2, 10):
        for k in range(2, min(n, 6) + 1):
            closed = xc.separation_probability_two_cycles(n, (1,) * k).probability
            assert closed == xc.singleton_blocks_probability(n, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_consistency_of_all_two_cycle_paths(n):
    for m in range(1, n + 1):
        for alpha in partitions(m):
            series = fm.separation_probability((n,), alpha).probability
            closed = xc.separation_probability_two_cycles(n, alpha).probability
            via_p = va.separation_probability_p_cycles(n, 1, alpha).probability
            assert series == closed == via_p


def test_degree_ten_instance():
    # exercises the transition matrices at degree 10
    value = fm.separation_probability((10,), (1, 1)).probability
    assert value == xc.singleton_blocks_probability(10, 2) == Fraction(14, 27)


def test_degree_ten_profile_symmetry():
    # counts at n = 10 agree across block profiles of equal size and length
    for lam in [(10,), (5, 3, 2), (4, 4, 1, 1)]:
        for profiles in [((4, 2), (3, 3), (5, 1)), ((3, 2, 2), (4, 2, 1), (5, 1, 1))]:
            values = {fm.separated_pair_count(lam, alpha) for alpha in profiles}
            assert len(values) == 1


def test_involution_series_examples():
    # single pair, no blocks: the product is the identity on 2 points
    assert xc.involution_series_monomial(1, ()) == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )
    assert xc.involution_pair_count(2, (1, 1)) == 20
    for pairs in range(1, 5):
        n = 2 * pairs
        for m in range(n + 1):
            alpha = (m,) if m else ()
            series = xc.involution_series(pairs, alpha)
            k = len(alpha)
            assert all(
                r <= min(n - m, pairs - k + 1) for r in series.coeffs
            )


def test_involution_series_monomial_at_120_pairs():
    # the monomial form in t is the binomial-basis series at t - k
    series = xc.involution_series(120, (2, 1))
    monomial = xc.involution_series_monomial(120, (2, 1))
    for t in (-3, 0, 1, 2, 5, 40):
        value = Fraction(0)
        for c in reversed(monomial):
            value = value * t + c
        assert value == series.evaluate(t - 2), t


def test_involution_probability_and_printed_form():
    res = va.separation_probability_involution(2, (1, 1))
    assert res.probability == Fraction(5, 9)
    assert res.count == 20
    assert xc.involution_probability_printed_form(2, (1, 1)) == Fraction(5, 18)
    # with full coverage (m = 2N) the printed form is the true probability
    for pairs in (1, 2, 3):
        for alpha in partitions(2 * pairs):
            res = va.separation_probability_involution(pairs, alpha)
            assert xc.involution_probability_printed_form(pairs, alpha) == res.probability


def test_printed_form_off_by_remainder_factorial():
    # ``involution`` prints the count-based probability over (2N - m)!, so the
    # literal sum must equal that quotient: every alpha up to N = 3, and at
    # larger N block profiles with m = 1, m = 2N - 1 and in between
    cases = [
        (pairs, alpha)
        for pairs in (1, 2, 3)
        for m in range(1, 2 * pairs + 1)
        for alpha in partitions(m)
    ]
    cases += [(17, alpha) for alpha in [(1,), (2, 1), (5, 3, 1), (33,), (17, 16), (3,) * 11]]
    cases += [(80, alpha) for alpha in [(1,), (4, 2, 1), (1,) * 9, (100, 20, 3), (159,), (80, 79)]]
    cases += [
        (200, alpha)
        for alpha in [(1,), (3, 2, 1), (120, 1, 1), (399,), (200, 199), (2,) * 199 + (1,)]
    ]
    for pairs, alpha in cases:
        res = va.separation_probability_involution(pairs, alpha)
        printed = xc.involution_probability_printed_form(pairs, alpha)
        assert printed * math.factorial(2 * pairs - sum(alpha)) == res.probability, (pairs, alpha)


def test_colored_matching_count():
    assert xc.colored_matching_count(1, 1) == 1
    assert xc.colored_matching_count(1, 2) == 2
    # length N + 1 is still feasible: brute force gives 4 at two pairs
    assert xc.colored_matching_count(2, 3) == 4
    assert xc.colored_matching_count(2, 4) == 0  # length > N + 1
    assert xc.colored_matching_count(3, 1) == 15  # all matchings, forced coloring


def test_one_face_map_series():
    assert pl.one_face_map_series(1).to_monomial() == (
        Fraction(0),
        Fraction(0),
        Fraction(1),
    )
    # two edges: two planar gluings (three vertices) and one toroidal (one vertex)
    assert pl.one_face_map_series(2).to_monomial() == (
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(2),
    )
    for pairs in range(1, 6):
        series = pl.one_face_map_series(pairs)
        assert dict(series.coeffs) == dict(xc.involution_series(pairs, ()).coeffs)
        assert all(c.denominator == 1 and c > 0 for c in series.coeffs.values())
        # total number of gluings is (2N-1)!!
        assert series.evaluate(1) == math.prod(range(1, 2 * pairs, 2))


def face_map_counts(pairs):
    """eps_g(N), the one-face maps with N edges and genus g, for g = 0, 1, ...:
    the hz coefficient at t^(N + 1 - 2g)."""
    monomial = pl.one_face_map_series(pairs).to_monomial()
    return [int(monomial[pairs + 1 - 2 * g]) for g in range(pairs // 2 + 1)]


def test_one_face_maps_beyond_brute_force():
    counts = {pairs: face_map_counts(pairs) for pairs in range(1, 121)}
    counts[0] = [1]
    for pairs in range(1, 121):
        eps = counts[pairs]
        assert eps[0] == math.comb(2 * pairs, pairs) // (pairs + 1)  # Catalan
        assert sum(eps) == math.prod(range(1, 2 * pairs, 2))  # (2N-1)!!
        if pairs < 2:
            continue
        # Harer-Zagier: (N+1) eps_g(N) = 2(2N-1) eps_g(N-1)
        #                                + (N-1)(2N-1)(2N-3) eps_{g-1}(N-2)
        previous, before = counts[pairs - 1], counts[pairs - 2]
        for g, value in enumerate(eps):
            right = 2 * (2 * pairs - 1) * (previous[g] if g < len(previous) else 0)
            if g:
                right += (pairs - 1) * (2 * pairs - 1) * (2 * pairs - 3) * before[g - 1]
            assert (pairs + 1) * value == right, (pairs, g)


def test_gen_series_table_needs_positive_degree():
    for n in (0, -1):
        with pytest.raises(ValueError):
            pl.gen_series_table(n, 0, 0)


def test_add_fixed_points_examples():
    assert xc.add_fixed_points_count((2,), 1, (1, 1)) == 12
    assert xc.add_fixed_points_count((2, 2), 0, (1, 1)) == 20
    assert xc.add_fixed_points_count((3,), 2, (1, 1)) == fm.separated_pair_count(
        (3, 1, 1), (1, 1)
    )
    with pytest.raises(ValueError):
        xc.add_fixed_points_count((2, 1), 1, (1, 1))  # base type has a fixed point


@pytest.mark.parametrize("lift", [xc.add_fixed_points_count, va.add_fixed_points_probability])
def test_add_fixed_points_rejects_an_empty_base_type(lift):
    # n = 0 used to reach the final division by n and raise ZeroDivisionError
    for r in (0, 2):
        with pytest.raises(ValueError, match="nonempty"):
            lift((), r, (1,))


def test_add_fixed_points_probability_normalization():
    res = va.add_fixed_points_probability((2,), 1, (1, 1))
    assert res.count == 12
    assert res.probability == Fraction(
        12, multinomial([1, 1, 1]) * conjugacy_class_size((2, 1))
    )


def test_add_fixed_points_blocks_larger_than_base():
    # blocks may use the added fixed points: total size up to n + r
    value = xc.add_fixed_points_count((2,), 2, (3, 1))
    assert value == fm.separated_pair_count((2, 1, 1), (3, 1))


def test_add_fixed_points_beyond_brute_force():
    # the lift against the direct count at n up to 296
    for lam in ((30,), (20, 20), (12, 8, 6), (150, 100, 40)):
        for r in range(7):
            lifted = lam + (1,) * r
            for alpha in ((1,), (2, 1), (1, 1, 1), (3, 2, 1), (4, 4), (5, 1, 1, 1)):
                assert xc.add_fixed_points_count(lam, r, alpha) == (
                    fm.separated_pair_count(lifted, alpha)
                ), (lam, r, alpha)


@pytest.mark.parametrize(
    "query, mapped, alpha",
    [
        (lambda: va.add_fixed_points_probability((4, 3), 2, (2, 1)), (4, 3, 1, 1), (2, 1)),
        (lambda: va.separation_probability_involution(5, (3, 1)), (2,) * 5, (3, 1)),
    ],
    ids=["lift", "involution"],
)
def test_lift_and_involution_read_one_hook_sum_count(query, mapped, alpha, monkeypatch):
    calls = []
    kernel = fm._separated_count.__wrapped__  # uncached, so every call reaches it
    monkeypatch.setattr(fm, "_separated_count", lambda *key: calls.append(key) or kernel(*key))
    res = query()
    assert calls == [(mapped, sum(alpha), len(alpha))]
    assert res[:2] == fm.separation_probability(mapped, alpha)[:2]


def test_binomial_sum_identity():
    assert xc.binomial_sum_identity_holds(1, 0)
    assert xc.binomial_sum_identity_holds(0, 0)
    for a in range(7):
        for b in range(7):
            assert xc.binomial_sum_identity_holds(a, b)


def test_binomial_sum_identity_sides_at_sample_points():
    # both unexpanded sides evaluated as Fractions, independently of the
    # integer coefficient comparison
    def lhs(a, b, x):
        return sum(Fraction(x**i * binomial(a, i), i + b + 1) for i in range(a + 1))

    def rhs(a, b, x):
        total = 1 / (binomial(a + b + 1, b) * (-x) ** (b + 1))
        for i in range(b + 1):
            total -= (
                binomial(b, i)
                * (x + 1) ** (a + i + 1)
                / (binomial(a + i + 1, i) * (-x) ** (i + 1))
            )
        return total / (a + 1)

    points = (Fraction(2), Fraction(3), Fraction(-1, 2), Fraction(5, 3))
    for a in range(13):
        for b in range(13):
            sides_agree = all(lhs(a, b, x) == rhs(a, b, x) for x in points)
            assert sides_agree and xc.binomial_sum_identity_holds(a, b), (a, b)


def test_stirling_sum_identity():
    assert xc.stirling_sum_identity_holds(2, 1)  # 1 - 1 + 1/3 = c(3,1)/3!
    assert xc.stirling_sum_identity_holds(0, 1)
    for a in range(9):
        for p in range(a + 2):
            assert xc.stirling_sum_identity_holds(a, p)


def test_probabilities_stay_in_unit_interval():
    for n in range(1, 7):
        for lam in partitions(n):
            for m in range(1, n + 1):
                for alpha in partitions(m):
                    res = fm.separation_probability(lam, alpha)
                    assert 0 <= res.probability <= 1
                    assert res.count >= 0


def _draw_parts(data, total, smallest=1):
    """Positive parts, each at least ``smallest``, summing to ``total``."""
    parts = []
    while total:
        part = data.draw(st.integers(smallest, total))
        if total - part < smallest and part != total:
            part = total
        parts.append(part)
        total -= part
    return tuple(parts)


def _draw_alpha(data, n):
    return _draw_parts(data, data.draw(st.integers(1, n)))


def _draw_separation(data):
    lam = sorted_partition(_draw_parts(data, data.draw(st.integers(1, 20))))
    alpha = _draw_alpha(data, sum(lam))
    space = fm.pair_space(sum(lam), alpha, conjugacy_class_size(lam))
    return fm.separation_probability(lam, alpha), space


def _draw_two_cycles(data):
    n = data.draw(st.integers(1, 20))
    alpha = _draw_alpha(data, n)
    space = fm.pair_space(n, alpha, conjugacy_class_size((n,)))
    return xc.separation_probability_two_cycles(n, alpha), space


def _draw_p_cycles(data):
    n = data.draw(st.integers(1, 20))
    p = data.draw(st.integers(1, n))
    alpha = _draw_alpha(data, n)
    space = fm.pair_space(n, alpha, stirling_first_unsigned(n, p))
    return va.separation_probability_p_cycles(n, p, alpha), space


def _draw_involution(data):
    pairs = data.draw(st.integers(1, 10))
    alpha = _draw_alpha(data, 2 * pairs)
    space = fm.pair_space(2 * pairs, alpha, conjugacy_class_size((2,) * pairs))
    return va.separation_probability_involution(pairs, alpha), space


def _draw_fixed_point_lift(data):
    lam = sorted_partition(_draw_parts(data, data.draw(st.integers(2, 18)), smallest=2))
    r = data.draw(st.integers(0, 20 - sum(lam)))
    alpha = _draw_alpha(data, sum(lam) + r)
    extended = sorted_partition(lam + (1,) * r)
    space = fm.pair_space(sum(extended), alpha, conjugacy_class_size(extended))
    return va.add_fixed_points_probability(lam, r, alpha), space


@pytest.mark.parametrize(
    "draw",
    [
        _draw_separation,
        _draw_two_cycles,
        _draw_p_cycles,
        _draw_involution,
        _draw_fixed_point_lift,
    ],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_sep_result_is_a_probability_of_its_pair_space(draw, data):
    result, space = draw(data)
    assert 0 <= result.probability <= 1
    assert result.count == result.probability * space


def _series_route_count(lam, m, k):
    """The count by the series route: at t = 1 - k the monomial coefficient
    F(l) depends on the number of parts l alone, and the length generating
    function sum_mu u^len(mu) m_mu = exp(sum_j p_j (1 - (1-u)^j) / j) gives
    count = z_lam^-1 sum_l F(l) [u^l] prod_i (1 - (1-u)^lam_i)."""
    n = sum(lam)
    weights = [
        sum(
            binomial(1 - k, r) * pl.gen_series_entry(n, m, k, length, r)
            for r in range(n - m + 1)
        )
        for length in range(n + 1)
    ]
    profile = [1]
    for part in lam:
        factor = [0] + [(-1) ** (j + 1) * binomial(part, j) for j in range(1, part + 1)]
        product = [0] * (len(profile) + part)
        for i, a in enumerate(profile):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        profile = product
    return Fraction(sum(w * c for w, c in zip(weights, profile)), centralizer_order(lam))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hook_sum_matches_the_series_route(data):
    lam = sorted_partition(_draw_parts(data, data.draw(st.integers(1, 20))))
    m = data.draw(st.integers(1, sum(lam)))
    k = data.draw(st.integers(1, m))
    assert fm.separated_pair_count(lam, _profile(m, k)) == _series_route_count(lam, m, k)
