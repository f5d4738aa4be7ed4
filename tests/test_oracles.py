import functools
import itertools
import math
import types
from collections import Counter

import pytest

from permsep import crosscheck as xc
from permsep import formulas as fm
from permsep import oracles as orc
from permsep.errors import BudgetExceededError, InvariantError
from permsep.partitions import (
    binomial,
    conjugacy_class_size,
    partitions,
    sorted_partition,
)
from permsep.verification import all_compositions


# A permutation is its image tuple: ``images[i]`` is the image of i.  The
# reference tallies read cycle types off the canonical cycles the literal
# oracles use, not off `oracles._cycle_type`.
def cycle_type(images):
    return sorted_partition(map(len, xc._cycles(images)))


def times_full_cycle(images):
    """pi * omega, omega applied first: pi's images rotated one place."""
    return images[1:] + images[:1]


def test_oracle_separated_pairs_examples():
    assert orc.oracle_separated_pair_count((3,), (1, 1)) == 6
    assert orc.oracle_separated_pair_count((2, 2), (1, 1)) == 20
    # single block: every pair is separated
    for n in range(2, 6):
        for m in range(1, n + 1):
            assert orc.oracle_separated_pair_count(
                (n,), (m,)
            ) == conjugacy_class_size((n,)) * binomial(n, m)


def test_fast_oracle_matches_literal():
    for n in range(1, 6):
        for lam in partitions(n):
            for m in range(1, n + 1):
                for alpha in all_compositions(m):
                    if not alpha or len(alpha) > m:
                        continue
                    assert orc.oracle_separated_pair_count(lam, alpha) == sum(
                        xc.oracle_pair_histogram_literal(lam, alpha).values()
                    )


def test_oracle_composition_order_irrelevant_literal():
    # genuinely re-enumerates with reordered blocks
    for alpha, beta in [((2, 1), (1, 2)), ((3, 1), (1, 3)), ((2, 1, 1), (1, 2, 1))]:
        for lam in partitions(sum(alpha) + 1):
            assert xc.oracle_pair_histogram_literal(
                lam, alpha
            ) == xc.oracle_pair_histogram_literal(lam, beta)


def test_product_type_histogram_matches_the_other_product_order():
    # omega * pi is conjugate to pi * omega, so the class tallies agree
    for n in range(1, 7):
        for lam in partitions(n):
            want = Counter(
                cycle_type(tuple((y + 1) % n for y in images))  # omega * pi
                for images in orc.class_images(lam)
            )
            assert orc.product_type_histogram(lam) == tuple(sorted(want.items()))


def test_product_type_histogram_scales_the_slice_to_the_full_tally():
    # the rotation slice, scaled up, against the whole class in the same order
    for lam in partitions(8):
        want = Counter(
            orc._cycle_type(im[1:] + im[:1]) for im in orc.class_images(lam)
        )
        assert orc.product_type_histogram(lam) == tuple(sorted(want.items()))


def test_product_type_histogram_checks_the_slice_size(monkeypatch):
    stream = orc.class_images
    monkeypatch.setattr(
        orc, "class_images",
        lambda lam, first=None, least=None: list(stream(lam, first, least))[:-1],
    )
    orc.product_type_histogram.cache_clear()  # a failed call caches nothing
    with pytest.raises(InvariantError, match="members"):
        orc.product_type_histogram((3, 2, 1))


@pytest.mark.parametrize("lam", [(8,), (3, 3)])
def test_product_type_histogram_checks_the_least_displacement_walk(monkeypatch, lam):
    # a fixed-point-free class walked by least displacement: one member
    # dropped from each slice
    stream = orc.class_images
    monkeypatch.setattr(
        orc, "class_images",
        lambda lam, first=None, least=None: list(stream(lam, first, least))[:-1],
    )
    orc.product_type_histogram.cache_clear()
    with pytest.raises(InvariantError, match="members"):
        orc.product_type_histogram(lam)


def test_product_type_histogram_matches_the_whole_class_without_fixed_points():
    # every fixed-point-free class of 9 walked whole: 133,496 members
    orc.product_type_histogram.cache_clear()
    walked = 0
    for lam in partitions(9):
        if lam[-1] > 1:
            want = Counter(
                orc._cycle_type(im[1:] + im[:1]) for im in orc.class_images(lam)
            )
            walked += sum(want.values())
            assert orc.product_type_histogram(lam) == tuple(sorted(want.items())), lam
    assert walked == 133_496


# N(lam, tau) = #{pi in C_lam : pi omega in C_tau}, the class tallies checked
# against each other with no formula: each class is walked by its own rule
# (least displacement for one distinct part, its L-cycles otherwise), so the
# relations tie the walks together.
TALLY_DEGREES = range(1, 10)


@functools.lru_cache(maxsize=None)
def tally_matrix(n):
    return {lam: dict(orc.product_type_histogram(lam)) for lam in partitions(n)}


def test_class_tallies_are_symmetric():
    # pi -> rho = (pi omega)^-1 maps each pi of type lam with pi omega of type
    # tau to a rho of type tau with rho omega = omega^-1 pi^-1 omega of type lam
    for n in TALLY_DEGREES:
        tallies = tally_matrix(n)
        for lam in tallies:
            for tau in tallies:
                assert tallies[lam].get(tau, 0) == tallies[tau].get(lam, 0), (lam, tau)


def test_class_tallies_sum_to_each_product_class():
    # each sigma is pi omega for exactly one pi, sigma omega^-1
    for n in TALLY_DEGREES:
        tallies = tally_matrix(n)
        for tau in tallies:
            column = sum(row.get(tau, 0) for row in tallies.values())
            assert column == conjugacy_class_size(tau), tau


def test_class_tallies_keep_the_sign():
    # sign(pi omega) = sign(pi) sign(omega), sign of a type lam of n being (-1)^(n - len(lam))
    for n in TALLY_DEGREES:
        for lam, row in tally_matrix(n).items():
            for tau, count in row.items():
                assert count > 0
                assert (n - len(tau)) % 2 == ((n - len(lam)) + (n - 1)) % 2, (lam, tau)


def test_full_cycle_tally_builds_few_product_types(monkeypatch):
    # (8) has 5,040 members; the least-displacement walk visits 1,098
    calls = []
    cycle_type = orc._cycle_type
    monkeypatch.setattr(orc, "_cycle_type", lambda images: calls.append(1) or cycle_type(images))
    orc.product_type_histogram.cache_clear()
    orc.product_type_histogram((8,))
    assert 0 < len(calls) <= 1200


def test_oracle_colored_factorizations():
    # a right coloring is a separated block tuple that covers every point
    assert xc.oracle_separated_colored_count((3,), (3,), 0) == 6
    assert xc.oracle_separated_colored_count((2, 1), (2, 1), 0) == 3
    assert xc.oracle_separated_colored_count((1, 1, 1), (2, 1), 0) == 0
    # order within the profiles never matters
    assert xc.oracle_separated_colored_count(
        (2, 1, 1), (1, 3), 0
    ) == xc.oracle_separated_colored_count((1, 1, 2), (3, 1), 0)


def test_oracle_colored_quadruples():
    assert xc.oracle_separated_colored_count((2,), (1,), 0) == 4
    assert xc.oracle_separated_colored_count((1, 1), (1,), 0) == 4
    assert (
        xc.oracle_separated_colored_count((1, 1, 1), (1, 1, 1), 0) == 0
    )  # slack negative
    # profile order irrelevant
    for gamma, gamma2 in [((2, 1), (1, 2)), ((2, 1, 1), (1, 1, 2))]:
        assert xc.oracle_separated_colored_count(
            gamma, (1,), 1
        ) == xc.oracle_separated_colored_count(gamma2, (1,), 1)
    # distinct profiles of equal length also agree (only the length matters)
    for gamma, gamma2 in [((2, 2), (3, 1)), ((3, 1, 1), (2, 2, 1))]:
        for alpha in [(1,), (2, 1)]:
            for r in range(3):
                assert xc.oracle_separated_colored_count(
                    gamma, alpha, r
                ) == xc.oracle_separated_colored_count(gamma2, alpha, r)


def test_oracle_colored_quadruples_literal():
    for gamma in [(2,), (1, 1), (3,), (2, 1)]:
        n = sum(gamma)
        for alpha in [(1,), (2,), (1, 1)]:
            if sum(alpha) > n:
                continue
            for r in range(3):
                assert xc.oracle_separated_colored_count(
                    gamma, alpha, r
                ) == xc.oracle_separated_colored_count_literal(gamma, alpha, r)


def test_oracle_involution_series():
    assert xc.oracle_involution_series(1, ()) == {2: 1}
    assert xc.oracle_involution_series(2, ()) == {3: 2, 1: 1}
    histogram = xc.oracle_involution_series(2, (1, 1))
    assert sum(histogram.values()) == 20
    for pairs in (1, 2):
        for alpha in [(), (1,), (1, 1), (2,)]:
            assert xc.oracle_involution_series(
                pairs, alpha
            ) == xc.oracle_pair_histogram_literal((2,) * pairs, alpha)


def test_oracle_colored_matchings():
    assert xc.oracle_colored_matching_count(1, (2,)) == 1
    assert xc.oracle_colored_matching_count(1, (1, 1)) == 2
    assert xc.oracle_colored_matching_count(2, (2, 1, 1)) == 4
    assert xc.oracle_colored_matching_count(2, (1, 1, 1, 1)) == 0
    # order irrelevant
    assert xc.oracle_colored_matching_count(
        2, (1, 2, 1)
    ) == xc.oracle_colored_matching_count(2, (2, 1, 1))


def test_oracle_strong_pairs():
    # singleton blocks: strong coincides with weak
    assert xc.oracle_strong_pair_count((3,), (1, 1)) == 6
    assert xc.oracle_strong_pair_count((2, 1), (2,)) == 3
    assert xc.oracle_strong_pair_count((3,), (3,)) == 1
    for lam in [(3,), (2, 1), (2, 2), (3, 1)]:
        for alpha in [(2,), (2, 1), (1, 1)]:
            if sum(alpha) > sum(lam):
                continue
            assert xc.oracle_strong_pair_count(lam, alpha) == sum(
                xc.oracle_pair_histogram_literal(lam, alpha, strong=True).values()
            )


def test_oracle_connection_coefficients():
    assert xc.oracle_connection_coefficient((3,), (1, 1, 1)) == 2
    assert xc.oracle_connection_coefficient((3,), (2, 1)) == 0  # parity obstruction
    # also a parity obstruction: transposition times 3-cycle is odd
    assert xc.oracle_connection_coefficient((2, 1), (3,)) == 0
    assert xc.oracle_connection_coefficient((2, 1), (2, 1)) == 2
    assert xc.oracle_connection_coefficient((3,), (3,)) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_connection_histogram_covers_every_full_cycle(n):
    for alpha in partitions(n):
        phi = xc.canonical_type_representative(alpha)
        hist = xc._connection_histogram(tuple(sorted(range(n), key=phi.__getitem__)))
        assert sum(count for _, count in hist) == math.factorial(n - 1)
        assert all(sum(lam) == n for lam, _ in hist)


@pytest.mark.parametrize("n", range(1, 7))
def test_separated_tuple_histogram_matches_literal_tally(n):
    for tau in partitions(n):
        cycles = xc._cycles(xc.canonical_type_representative(tau))
        for m in range(n + 1):
            for alpha in partitions(m):
                tally = {}
                for blocks in xc.disjoint_block_tuples(n, alpha):
                    met = xc._blocks_met(cycles, blocks)
                    if xc._separates(met, blocks):
                        j = met.count(0)
                        tally[j] = tally.get(j, 0) + 1
                assert orc._separated_tuple_histogram(tau, alpha) == tuple(
                    sorted(tally.items())
                ), (tau, alpha)


# The cycle-coloring DP the coloring oracles read before they read the
# separated-pair histogram, kept as a reference for the counts that replace it.
@functools.lru_cache(maxsize=None)
def _color_size_distribution(cycle_sizes, colors):
    """{per-color element totals: colorings} over all colorings of the cycles."""
    states = {(0,) * colors: 1}
    for size in cycle_sizes:
        nxt = {}
        for vec, ways in states.items():
            for i in range(colors):
                bumped = vec[:i] + (vec[i] + size,) + vec[i + 1 :]
                nxt[bumped] = nxt.get(bumped, 0) + ways
        states = nxt
    return states


def _marked_surjective_coloring_count(cycle_sizes, alpha, extra_colors):
    """Surjective colorings in k + extra colors, weighted by the choices of a
    block tuple whose i-th block sits inside color class i (i <= k)."""
    total = 0
    for vec, ways in _color_size_distribution(cycle_sizes, len(alpha) + extra_colors).items():
        if all(vec):
            total += ways * math.prod(binomial(v, a) for a, v in zip(alpha, vec))
    return total


@pytest.mark.parametrize("n", range(1, 8))
def test_covering_tuples_count_the_colorings_of_each_profile(n):
    # a coloring with profile gamma is a separated block tuple with sizes
    # gamma, which leaves no cycle untouched
    for tau in partitions(n):
        for gamma in all_compositions(n):
            got = dict(orc._separated_tuple_histogram(tau, sorted_partition(gamma)))
            assert got.get(0, 0) == _color_size_distribution(tau, len(gamma)).get(
                gamma, 0
            ), (tau, gamma)


@pytest.mark.parametrize("n", range(1, 8))
def test_untouched_cycle_weights_count_the_quadruple_right_colorings(n):
    # a right coloring is a separated tuple whose untouched cycles take
    # colors that cover the extra ones
    for tau in partitions(n):
        for m in range(1, n + 1):
            for alpha in partitions(m):
                histogram = orc._separated_tuple_histogram(tau, alpha)
                for r in range(n - m + 3):
                    got = sum(
                        ways * xc._extra_color_weight(j, len(alpha), r)
                        for j, ways in histogram
                    )
                    assert got == _marked_surjective_coloring_count(tau, alpha, r), (
                        tau, alpha, r,
                    )


@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_pair_histogram_matches_the_literal_histogram(strong):
    # the full split by untouched cycles, the empty block tuple included
    for n in range(1, 6):
        for lam in partitions(n):
            for m in range(n + 1):
                for alpha in partitions(m):
                    assert dict(xc._pair_histogram(lam, alpha, strong)) == (
                        xc.oracle_pair_histogram_literal(lam, alpha, strong)
                    ), (lam, alpha)


def test_oracle_connection_alternative_representative():
    other = (1, 0, 3, 4, 2)  # (0 1)(2 3 4): a (3, 2) element other than the canonical one
    assert xc._cycles(other) == ((0, 1), (2, 3, 4))
    for lam in partitions(5):
        assert xc.oracle_connection_coefficient(
            lam, (3, 2), representative=other
        ) == xc.oracle_connection_coefficient(lam, (3, 2))


def test_representative_of_another_type_rejected():
    xc._connection_histogram.cache_clear()
    with pytest.raises(ValueError, match="does not have cycle type alpha"):
        xc.oracle_connection_coefficient((5,), (3, 2), representative=(1, 2, 3, 4, 0))
    assert xc._connection_histogram.cache_info().misses == 0


def test_pair_oracle_matches_the_formula_at_n_9():
    for lam in partitions(9):
        for alpha in [(2, 1), (4, 3, 2)]:
            assert orc.oracle_separated_pair_count(lam, alpha) == fm.separated_pair_count(
                lam, alpha
            ), (lam, alpha)


def test_budget_max_n():
    with pytest.raises(BudgetExceededError):
        orc.oracle_separated_pair_count((10,), (1, 1))
    with pytest.raises(BudgetExceededError):
        xc.oracle_separated_colored_count((7,), (7,), 0)
    with pytest.raises(BudgetExceededError):
        xc.oracle_involution_series(6, ())


# Each oracle, the module constant that limits its ground-set size, and its
# arguments at size n, keyed by the quantity the oracle counts with those
# arguments.  The involution oracles take n / 2 pairs, rounded up.
HISTOGRAM_ORACLES = {
    "oracle_separated_pair_count": (
        orc.oracle_separated_pair_count, orc, "PAIR_MAX_N", lambda n: ((1,) * n, (1, 1))
    ),
    "oracle_strong_pair_count": (
        xc.oracle_strong_pair_count, xc, "STRONG_MAX_N", lambda n: ((1,) * n, (2, 1))
    ),
    "oracle_connection_coefficient": (
        xc.oracle_connection_coefficient, xc, "CONNECTION_MAX_N", lambda n: ((n,), (n,))
    ),
    # a colored factorization: blocks that cover every point, no extra color
    "oracle_colored_factorization_count": (
        xc.oracle_separated_colored_count, xc, "COLORING_MAX_N", lambda n: ((n,), (n,), 0)
    ),
    "oracle_separated_colored_count": (
        xc.oracle_separated_colored_count, xc, "COLORING_MAX_N", lambda n: ((n,), (1, 1), 1)
    ),
    "oracle_involution_series": (
        xc.oracle_involution_series, xc, "INVOLUTION_MAX_N", lambda n: ((n + 1) // 2, (1, 1))
    ),
    "oracle_colored_matching_count": (
        xc.oracle_colored_matching_count,
        xc,
        "INVOLUTION_MAX_N",
        lambda n: ((n + 1) // 2, (n + n % 2,)),
    ),
}
LITERAL_ORACLES = {
    "oracle_separated_pair_count_literal": (
        xc.oracle_pair_histogram_literal, xc, "LITERAL_MAX_N", lambda n: ((1,) * n, (1, 1))
    ),
    "oracle_strong_pair_count_literal": (
        xc.oracle_pair_histogram_literal, xc, "LITERAL_MAX_N", lambda n: ((1,) * n, (2, 1), True)
    ),
    "oracle_involution_series_literal": (
        xc.oracle_pair_histogram_literal,
        xc,
        "LITERAL_MAX_N",
        lambda n: ((2,) * ((n + 1) // 2), ()),
    ),
    "oracle_separated_colored_count_literal": (
        xc.oracle_separated_colored_count_literal,
        xc,
        "COLORED_LITERAL_MAX_N",
        lambda n: ((n,), (1,), 1),
    ),
}


def _by_name(cases):
    return pytest.mark.parametrize(
        "oracle, module, limit, args", list(cases.values()), ids=list(cases)
    )


@_by_name({**HISTOGRAM_ORACLES, **LITERAL_ORACLES})
def test_oracle_answers_at_its_limit_and_refuses_above(oracle, module, limit, args):
    max_n = getattr(module, limit)
    oracle(*args(max_n))
    with pytest.raises(BudgetExceededError, match=f"exceeds oracle budget max_n={max_n}$"):
        oracle(*args(max_n + 1))


@_by_name(HISTOGRAM_ORACLES)
def test_histogram_oracles_raise_before_building_a_histogram(oracle, module, limit, args):
    histograms = (orc.product_type_histogram, xc._pair_histogram, xc._connection_histogram)
    for histogram in histograms:
        histogram.cache_clear()
    with pytest.raises(BudgetExceededError):
        oracle(*args(getattr(module, limit) + 1))
    assert [histogram.cache_info().misses for histogram in histograms] == [0, 0, 0]


@_by_name(LITERAL_ORACLES)
def test_literal_oracles_raise_before_enumerating(monkeypatch, oracle, module, limit, args):
    def fail(*_args, **_kwargs):
        raise AssertionError("enumerated despite an exceeded budget")

    for name in ("class_images", "disjoint_block_tuples"):
        monkeypatch.setattr(xc, name, fail)
    stubs = types.SimpleNamespace(combinations=fail, permutations=fail, product=fail)
    monkeypatch.setattr(xc, "itertools", stubs)
    with pytest.raises(BudgetExceededError):
        oracle(*args(getattr(module, limit) + 1))


def test_budgets_hold_when_histograms_are_cached(monkeypatch):
    # every histogram oracle checks its limit, with its tally cached or not
    for oracle, module, limit, args in HISTOGRAM_ORACLES.values():
        oracle(*args(4))
        with monkeypatch.context() as patch, pytest.raises(BudgetExceededError):
            patch.setattr(module, limit, 3)
            oracle(*args(4))


@pytest.mark.parametrize("n", range(1, 7))
def test_joint_histogram_matches_a_tally_over_s_n(n):
    # the per-class tallies the coloring oracles read, grouped by the type
    # of pi; flattened and checked against every permutation
    want = Counter(
        (cycle_type(images), cycle_type(times_full_cycle(images)))
        for images in itertools.permutations(range(n))
    )
    got = {
        (lam, tau): count
        for lam in partitions(n)
        for tau, count in orc.product_type_histogram(lam)
    }
    assert got == want


@pytest.mark.parametrize("pairs", range(1, 5))
def test_all_twos_histogram_matches_a_tally_over_involutions(pairs):
    want = Counter(
        cycle_type(times_full_cycle(images)) for images in orc.class_images((2,) * pairs)
    )
    assert orc.product_type_histogram((2,) * pairs) == tuple(sorted(want.items()))


@_by_name(HISTOGRAM_ORACLES)
def test_a_cached_answer_still_checks_the_limit(oracle, module, limit, args, monkeypatch):
    # the memo of an answer sits behind the size check, so lowering the
    # limit refuses a call that was answered (and cached) a moment before
    oracle(*args(4))
    monkeypatch.setattr(module, limit, 3)
    with pytest.raises(BudgetExceededError, match="exceeds oracle budget max_n=3$"):
        oracle(*args(4))


def test_block_states_extend_the_states_of_the_profile_prefix():
    orc._separated_tuple_histogram.cache_clear()
    orc._block_states.cache_clear()
    orc._separated_tuple_histogram((4, 3, 1), (3, 2, 1))
    assert orc._block_states.cache_info().misses == 4  # (), (3,), (3, 2), (3, 2, 1)
    orc._separated_tuple_histogram((4, 3, 1), (3, 2, 2))
    assert orc._block_states.cache_info().misses == 5


def test_coloring_totals_are_cached_on_the_sorted_profiles():
    xc._colored_total.cache_clear()
    profiles = list(all_compositions(5))
    totals = {
        (gamma, delta): xc.oracle_separated_colored_count(gamma, delta, 0)
        for gamma in profiles
        for delta in profiles
    }
    assert xc._colored_total.cache_info().misses == len(partitions(5)) ** 2
    for (gamma, delta), total in totals.items():
        assert total == totals[sorted_partition(gamma), sorted_partition(delta)]
