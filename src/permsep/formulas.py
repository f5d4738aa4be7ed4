"""Closed-form counts and separation probabilities, evaluated exactly.

The central object is the generating series of separated pairs (pi, A): pi a
permutation of fixed cycle type, A an ordered tuple of disjoint blocks, such
that the product of pi with the canonical full cycle leaves every block in
its own set of cycles.  Expanded over monomial symmetric functions and the
binomial basis C(t, r), the series has explicit integer coefficients that
depend on the block sizes only through their sum m and count k, and on the
monomial index only through its number of parts.  The count of separated
pairs for one cycle type lam is the power-sum coefficient of p_lam in the
series at t = 1 - k.  Because the monomial coefficients depend only on
lengths, that coefficient follows from the length generating function
sum_mu u^len(mu) m_mu = exp(sum_j p_j (1 - (1-u)^j) / j) without any
change of basis: it costs a polynomial product over the parts of lam, and
no p(n) x p(n) matrix is built.  Dividing by (number of block tuples) *
(class size) turns counts into probabilities.

The transition matrices of `permsep.symfunc` are verification-only: the
test suite and the verification suites extract the same coefficients
through them at small n as an independent check.

Everything downstream - the p-cycle and two-full-cycle closed forms, the
fixed-point-free involution series, the fixed-point lifting relation and the
one-face-map polynomial - is computed from these exact expressions and
cross-checked against brute-force enumeration in the test suite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import InvariantError
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    binomial,
    centralizer_order,
    compositions,
    conjugacy_class_size,
    multinomial,
    partitions,
    perfect_matching_count,
    stirling_first_unsigned,
)
from .polynomials import BinomialPolynomial, FrozenRecord, Poly

# ---------------------------------------------------------------------------
# Colored factorization counts


def colored_factorization_count(n: int, left_colors: int, right_colors: int) -> int:
    """Triples (pi, c1, c2): c1 colors pi's cycles with a fixed size profile of
    ``left_colors`` colors, c2 colors the cycles of pi times the full cycle
    with a profile of ``right_colors`` colors.

    The count depends on the profiles only through their lengths:
    n (n - l)! (n - l')! / (n - l - l' + 1)!, and 0 when that is negative.
    """
    if not (1 <= left_colors <= n and 1 <= right_colors <= n):
        raise ValueError("color counts must lie in [1, n]")
    slack = n - left_colors - right_colors + 1
    if slack < 0:
        return 0
    return (
        n
        * math.factorial(n - left_colors)
        * math.factorial(n - right_colors)
        // math.factorial(slack)
    )


def separated_colored_count(n: int, left_colors: int, m: int, k: int, r: int) -> int:
    """Quadruples (pi, A, c1, c2) where additionally A is a tuple of k disjoint
    blocks of total size m whose i-th block is colored i by the surjective
    right coloring in k + r colors.

    Equals n (n-l)! (n-k-r)! / (n-k-l-r+1)! * C(n+k-1, n-m-r), 0 when the
    factorial argument goes negative (and the binomial kills r > n - m).
    """
    if not 1 <= left_colors <= n:
        raise ValueError("left color count must lie in [1, n]")
    if k < 1 or r < 0 or m < k or m > n:
        raise ValueError("need k >= 1, r >= 0, k <= m <= n")
    slack = n - k - left_colors - r + 1
    if slack < 0:
        return 0
    return (
        n
        * math.factorial(n - left_colors)
        * math.factorial(n - k - r)
        // math.factorial(slack)
        * binomial(n + k - 1, n - m - r)
    )


def marked_composition_count(n: int, m: int, k: int, r: int) -> int:
    """Number of length-(k + r) compositions of n with block-i marks of a size-m,
    length-k mark profile: C(n + k - 1, n - m - r)."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    return binomial(n + k - 1, n - m - r)


def marked_composition_count_direct(n: int, alpha: Iterable[int], r: int) -> int:
    """The same count by direct summation over compositions.

    Enumerates all compositions delta of n with length k + r and sums the
    products C(delta_i, alpha_i) over the first k rows.
    """
    alpha = as_composition(alpha, allow_empty=False)
    k = len(alpha)
    total = 0
    for delta in compositions(n, k + r):
        term = 1
        for a, d in zip(alpha, delta):
            term *= binomial(d, a)
            if term == 0:
                break
        total += term
    return total


# ---------------------------------------------------------------------------
# The generating series table


class GenSeriesTable(FrozenRecord):
    """Coefficient table of the separated-pair series at degree n.

    ``entries[(lam, r)]`` is the integer coefficient of m_lam * C(t, r) in
    the series written in the shifted variable (argument t + k).  Entries are
    zero when r > n - m or when lam has more than n - k - r + 1 parts, and
    depend on the block sizes only through (m, k).
    """

    __slots__ = ("n", "m", "k", "entries")

    def __init__(
        self,
        n: int,
        m: int,
        k: int,
        entries: Mapping[tuple[Partition, int], int] | None = None,
    ):
        self._init(n, m, k, {} if entries is None else entries)

    def coefficient(self, lam: Iterable[int], r: int) -> int:
        return self.entries.get((as_partition(lam), r), 0)

    def monomial_vector_at(self, t: int) -> SymFuncVector:
        """Collapse the C(t, r) direction at an integer t, leaving an m-basis vector.

        Verification-only, like the rest of `permsep.symfunc`, which is
        imported here so that the query path never loads it.
        """
        from .symfunc import SymFuncVector

        coeffs: dict[Partition, Fraction] = {}
        for (lam, r), c in self.entries.items():
            w = binomial(t, r)
            if w:
                coeffs[lam] = coeffs.get(lam, Fraction(0)) + c * w
        return SymFuncVector(self.n, "m", coeffs)


def gen_series_entry(n: int, m: int, k: int, length: int, r: int) -> int:
    """Coefficient of m_lam * C(t, r) in the shifted series, for any lam of n
    with ``length`` parts:
    C(n+k-1, n-m-r) * n (n - length)! (n-k-r)! / (n-k-r-length+1)!,
    and 0 when that factorial argument is negative."""
    slack = n - k - r - length + 1
    if slack < 0:
        return 0
    return (
        binomial(n + k - 1, n - m - r)
        * n
        * math.factorial(n - length)
        * math.factorial(n - k - r)
        // math.factorial(slack)
    )


@lru_cache(maxsize=None)
def gen_series_table(n: int, m: int, k: int) -> GenSeriesTable:
    """The explicit coefficient table for given degree and block profile (m, k)."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    if k == 0 and m != 0:
        raise ValueError("k = 0 only makes sense with m = 0")
    entries: dict[tuple[Partition, int], int] = {}
    for r in range(n - m + 1):
        by_length = [gen_series_entry(n, m, k, length, r) for length in range(n + 1)]
        for lam in partitions(n):
            if by_length[len(lam)]:
                entries[(lam, r)] = by_length[len(lam)]
    return GenSeriesTable(n=n, m=m, k=k, entries=entries)


@lru_cache(maxsize=None)
def _length_weights(n: int, m: int, k: int) -> tuple[int, ...]:
    """F(l) = sum_r C(1-k, r) * gen_series_entry(n, m, k, l, r) for l = 0 .. n:
    the monomial coefficient at t = 1 - k of any partition with l parts."""
    return tuple(
        sum(
            binomial(1 - k, r) * gen_series_entry(n, m, k, length, r)
            for r in range(n - m + 1)
        )
        for length in range(n + 1)
    )


def _length_profile(lam: Partition) -> tuple[int, ...]:
    """Coefficients in t of prod_i (1 - (1-t)^lam_i), lowest degree first.

    Divided by the centralizer order z_lam, the t^l coefficient is the
    power-sum coefficient of p_lam in the sum of all m_mu with l parts: the
    series sum_mu t^len(mu) m_mu equals exp(sum_j p_j (1 - (1-t)^j) / j)
    (Macdonald, Symmetric Functions, I.2).
    """
    profile = [1]
    for part in lam:
        factor = _length_factor(part)
        product = [0] * (len(profile) + part)
        for i, a in enumerate(profile):
            for j, b in enumerate(factor, start=i + 1):
                product[j] += a * b
        profile = product
    return tuple(profile)


@lru_cache(maxsize=None)
def _length_factor(part: int) -> tuple[int, ...]:
    """Coefficients of t^1 .. t^part in 1 - (1-t)^part."""
    return tuple((-1) ** (j + 1) * binomial(part, j) for j in range(1, part + 1))


@lru_cache(maxsize=None)
def _separated_count(lam: Partition, m: int, k: int) -> int:
    """Separated pairs for one cycle type: the p_lam coefficient of the series
    at t = 1 - k, whose monomial coefficients depend on lam only through its
    number of parts, so count = z_lam^-1 * sum_l F(l) [t^l] prod_i (1 - (1-t)^lam_i)."""
    weights = _length_weights(sum(lam), m, k)
    value = Fraction(
        sum(w * c for w, c in zip(weights, _length_profile(lam))),
        centralizer_order(lam),
    )
    if value.denominator != 1 or value < 0:
        raise InvariantError(
            f"separated pair count for {lam} not a nonnegative integer: {value}"
        )
    return int(value)


def separated_pair_count(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Number of pairs (pi of cycle type lam, block tuple of sizes alpha) whose
    product with the full cycle is separated.

    Returns 0 when the blocks cannot fit (sum alpha > n).
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n, m, k = sum(lam), sum(alpha), len(alpha)
    if m > n:
        return 0
    return _separated_count(lam, m, k)


# ---------------------------------------------------------------------------
# Probabilities


class SepResult(NamedTuple):
    """A separation count/probability with its provenance."""

    count: int | None
    probability: Fraction
    method: str
    warnings: tuple[str, ...] = ()


def _pair_space(n: int, alpha: Composition, class_count: int) -> int:
    m = sum(alpha)
    return multinomial(list(alpha) + [n - m]) * class_count


def separation_probability(lam: Iterable[int], alpha: Iterable[int]) -> SepResult:
    """Probability that the product of a uniform permutation of cycle type
    ``lam`` with a uniform full cycle separates blocks of sizes ``alpha``."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(lam)
    if sum(alpha) > n:
        raise ValueError("total block size exceeds n")
    count = separated_pair_count(lam, alpha)
    prob = Fraction(count, _pair_space(n, alpha, conjugacy_class_size(lam)))
    return SepResult(count=count, probability=prob, method="generating-series")


def separated_count_p_cycles(n: int, p: int, alpha: Iterable[int]) -> int:
    """Separated pairs summed over all permutations with exactly p cycles.

    n! * sum_r C(1-k, r) C(n+k-1, n-m-r) c(n-k-r+1, p) / (n-k-r+1)!.
    """
    alpha = as_composition(alpha, allow_empty=False)
    m, k = sum(alpha), len(alpha)
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if m > n:
        raise ValueError("total block size exceeds n")
    total = Fraction(0)
    for r in range(n - m + 1):
        q = n - k - r + 1
        total += (
            binomial(1 - k, r)
            * binomial(n + k - 1, n - m - r)
            * Fraction(stirling_first_unsigned(q, p), math.factorial(q))
        )
    total *= math.factorial(n)
    if total.denominator != 1 or total < 0:
        raise InvariantError(f"p-cycle separated count not integral: {total}")
    return int(total)


def separation_probability_p_cycles(n: int, p: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability when the left factor is uniform over permutations
    of {0, ..., n-1} with exactly p cycles."""
    alpha = as_composition(alpha, allow_empty=False)
    count = separated_count_p_cycles(n, p, alpha)  # validates p and sum(alpha)
    prob = Fraction(count, _pair_space(n, alpha, stirling_first_unsigned(n, p)))
    return SepResult(count=count, probability=prob, method="p-cycles-closed-form")


def singleton_blocks_probability(n: int, k: int) -> Fraction:
    """Piecewise closed form for k singleton blocks and two uniform full cycles:
    1/k! when n - k is odd, plus 2/((k-2)!(n-k+1)(n+k)) when n - k is even."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    base = Fraction(1, math.factorial(k))
    if (n - k) % 2 == 0:
        base += Fraction(2, math.factorial(k - 2) * (n - k + 1) * (n + k))
    return base


def separation_probability_two_cycles(n: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability for the product of two uniform full cycles,
    via the short alternating-sum closed form."""
    alpha = as_composition(alpha, allow_empty=False)
    m, k = sum(alpha), len(alpha)
    if m > n:
        raise ValueError("total block size exceeds n")
    if k == 1:
        count = binomial(n, m) * math.factorial(n - 1)
        return SepResult(count=count, probability=Fraction(1), method="two-cycles-closed-form")
    prod_fact = math.prod(math.factorial(a) for a in alpha)
    bracket = Fraction(
        (-1) ** (n - m) * binomial(n - 1, k - 2), binomial(n + m, m - k)
    )
    for r in range(m - k + 1):
        bracket += Fraction(
            (-1) ** r * binomial(m - k, r) * binomial(n + r + 1, m),
            binomial(n + k + r, r),
        )
    prob = (
        Fraction(math.factorial(n - m) * prod_fact, (n + k) * math.factorial(n - 1))
        * bracket
    )
    count = prob * _pair_space(n, alpha, math.factorial(n - 1))
    if count.denominator != 1 or count < 0:
        raise InvariantError(f"two-cycle separated count not integral: {count}")
    return SepResult(
        count=int(count), probability=prob, method="two-cycles-closed-form"
    )


# ---------------------------------------------------------------------------
# Fixed-point-free involutions and one-face maps


def involution_series(pairs: int, alpha: Iterable[int]) -> BinomialPolynomial:
    """Generating series, over separated pairs (pi, A) with pi a fixed-point-free
    involution of 2 * pairs points, of t to the number of block-free cycles of
    the product; expressed in the binomial basis of the shifted argument
    (t + k).  Coefficients are nonnegative integers.
    """
    alpha = as_composition(alpha)
    n = 2 * pairs
    m, k = sum(alpha), len(alpha)
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    if m > n:
        raise ValueError("total block size exceeds 2 * pairs")
    coeffs: dict[int, Fraction] = {}
    for r in range(min(n - m, pairs - k + 1) + 1):
        value = (
            pairs
            * binomial(n + k - 1, n - m - r)
            * Fraction(2 ** (k + r), 2**pairs)
            * Fraction(
                math.factorial(n - k - r), math.factorial(pairs - k - r + 1)
            )
        )
        if value.denominator != 1 or value < 0:
            raise InvariantError(f"involution series coefficient not integral: {value}")
        if value:
            coeffs[r] = value
    return BinomialPolynomial(coeffs)


def involution_series_monomial(pairs: int, alpha: Iterable[int]) -> Poly:
    """Monomial coefficients of the involution series in its own variable t
    (undoing the t + k shift)."""
    alpha = as_composition(alpha)
    return involution_series(pairs, alpha).to_monomial_shifted(-len(alpha))


def involution_pair_count(pairs: int, alpha: Iterable[int]) -> int:
    """Number of separated pairs (fixed-point-free involution, block tuple)."""
    alpha = as_composition(alpha)
    value = involution_series(pairs, alpha).evaluate(1 - len(alpha))
    if value.denominator != 1 or value < 0:
        raise InvariantError(f"involution pair count not integral: {value}")
    return int(value)


PRINTED_INVOLUTION_NOTE = (
    "printed involution probability differs from the count-based value by "
    "exactly (2N - m)!; the count-based value matches brute force"
)


def involution_probability_printed_form(pairs: int, alpha: Iterable[int]) -> Fraction:
    """Literal evaluation of the involution probability as usually quoted.

    Kept verbatim for comparison: for m < 2N it is smaller than the
    count-based probability by exactly (2N - m)! (see
    ``separation_probability_involution``, which flags the discrepancy).
    """
    alpha = as_composition(alpha, allow_empty=False)
    n = 2 * pairs
    m, k = sum(alpha), len(alpha)
    if m > n:
        raise ValueError("total block size exceeds 2 * pairs")
    total = Fraction(0)
    for r in range(min(n - m, pairs - k + 1) + 1):
        total += (
            binomial(1 - k, r)
            * binomial(n + k - 1, n - m - r)
            * Fraction(2 ** (k + r), 2 ** (pairs + 1))
            * Fraction(math.factorial(n - k - r), math.factorial(pairs - k - r + 1))
        )
    prod_fact = math.prod(math.factorial(a) for a in alpha)
    return (
        Fraction(prod_fact, math.factorial(n - 1) * perfect_matching_count(pairs))
        * total
    )


def separation_probability_involution(pairs: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability for the product of a uniform fixed-point-free
    involution of 2 * pairs points with a uniform full cycle.

    The authoritative value is pair count / (block tuples * involution count);
    the printed closed form is also evaluated and a warning records the
    (2N - m)! discrepancy whenever the two differ.
    """
    alpha = as_composition(alpha, allow_empty=False)
    n = 2 * pairs
    m = sum(alpha)
    count = involution_pair_count(pairs, alpha)
    prob = Fraction(count, _pair_space(n, alpha, perfect_matching_count(pairs)))
    warnings = ()
    if involution_probability_printed_form(pairs, alpha) != prob:
        warnings = (PRINTED_INVOLUTION_NOTE,)
    return SepResult(
        count=count, probability=prob, method="involution-series", warnings=warnings
    )


def colored_matching_count(pairs: int, colors: int) -> int:
    """Pairs (fixed-point-free involution pi, coloring of the cycles of the
    product of pi with the full cycle) with a fixed color profile of the given
    length: N (2N - l)! / (N - l + 1)! * 2^(l - N), 0 when l > N + 1."""
    if not 1 <= colors <= 2 * pairs:
        raise ValueError("color count must lie in [1, 2 * pairs]")
    if colors > pairs + 1:
        return 0
    value = Fraction(
        pairs * math.factorial(2 * pairs - colors) * 2**colors,
        math.factorial(pairs - colors + 1) * 2**pairs,
    )
    if value.denominator != 1:
        raise InvariantError(f"colored matching count not integral: {value}")
    return int(value)


def one_face_map_series(pairs: int) -> BinomialPolynomial:
    """Vertex generating polynomial of one-face maps with ``pairs`` edges:
    (2N-1)!! * sum_r 2^r C(N, r) C(t, r+1).

    Equals the empty-blocks involution series; the monomial coefficient of
    t^v counts gluings of a 2N-gon with v vertices.
    """
    if pairs < 1:
        raise ValueError("need pairs >= 1")
    matchings = perfect_matching_count(pairs)
    coeffs = {
        r + 1: Fraction(matchings * 2**r * binomial(pairs, r))
        for r in range(pairs + 1)
    }
    return BinomialPolynomial(coeffs)


# ---------------------------------------------------------------------------
# Adding fixed points


def add_fixed_points_count(lam: Iterable[int], r: int, alpha: Iterable[int]) -> int:
    """Separated pair count after adding ``r`` fixed points to the cycle type.

    ``lam`` must have all parts >= 2; the count for lam extended by r parts of
    size 1 is a positive combination of base counts with block profiles
    (m - k - p + 1, 1, ..., 1) for p = 0 .. m - k.
    """
    lam = as_partition(lam)
    if any(part < 2 for part in lam):
        raise ValueError("base cycle type must have all parts >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    alpha = as_composition(alpha, allow_empty=False)
    n, m, k = sum(lam), sum(alpha), len(alpha)
    if m > n + r:
        raise ValueError("total block size exceeds n + r")
    total = 0  # n times the count: every weight has denominator n
    for p in range(m - k + 1):
        if m - p > n:
            continue  # base blocks cannot fit: the base count is zero
        base = separated_pair_count(lam, (m - k - p + 1,) + (1,) * (k - 1))
        if base == 0:
            continue
        weight = (n + p) * binomial(n + m + r - p, n + m) + (m - p) * binomial(
            n + m + r - p - 1, n + m
        )
        total += weight * binomial(m - k, p) * base
    if total % n or total < 0:
        raise InvariantError(
            f"lifted separated count not integral: {Fraction(total, n)}"
        )
    return total // n


def add_fixed_points_probability(
    lam: Iterable[int], r: int, alpha: Iterable[int]
) -> SepResult:
    """Probability form of the fixed-point lift, normalized on the extended type."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    count = add_fixed_points_count(lam, r, alpha)
    extended = as_partition(sorted(lam + (1,) * r, reverse=True))
    n = sum(extended)
    prob = Fraction(count, _pair_space(n, alpha, conjugacy_class_size(extended)))
    return SepResult(count=count, probability=prob, method="fixed-point-lift")


# ---------------------------------------------------------------------------
# Pure polynomial identities used by the derivations


def binomial_sum_identity_holds(a: int, b: int) -> bool:
    """Check the integration-by-parts identity behind the two-cycle closed form.

    Both sides of
        sum_i x^i / (i+b+1) * C(a, i)
          = ((a+1))^-1 * ( 1 / (C(a+b+1, b) (-x)^(b+1))
                           - sum_i C(b, i) (x+1)^(a+i+1) / (C(a+i+1, i) (-x)^(i+1)) )
    are multiplied by (a+1)(-x)^(b+1) and by one common denominator, and
    compared as integer coefficient lists.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    denoms = [binomial(a + i + 1, i) for i in range(b + 1)] + list(range(b + 1, a + b + 2))
    scale = math.lcm(binomial(a + b + 1, b), *denoms)
    # left: (a+1) * (-1)^(b+1) * x^(b+1) * sum_i x^i C(a, i)/(i+b+1)
    left = [0] * (b + 1) + [
        (-1) ** (b + 1) * (a + 1) * binomial(a, i) * (scale // (i + b + 1))
        for i in range(a + 1)
    ]
    # right: 1/C(a+b+1, b) - sum_i C(b,i) (x+1)^(a+i+1) (-x)^(b-i) / C(a+i+1, i)
    right = [scale // binomial(a + b + 1, b)] + [0] * (a + b + 1)
    for i in range(b + 1):
        power = a + i + 1
        factor = (-1) ** (b - i) * binomial(b, i) * (scale // binomial(power, i))
        for j in range(power + 1):
            right[b - i + j] -= factor * binomial(power, j)
    return left == right


def stirling_sum_identity_holds(a: int, p: int) -> bool:
    """Check sum_q C(a, q) (-1)^(q+1-p) c(q+1, p)/(q+1)! = c(a+1, p)/(a+1)!."""
    if a < 0 or p < 0:
        raise ValueError("a and p must be nonnegative")
    total = Fraction(0)
    for q in range(a + 1):
        sign = -1 if (q + 1 - p) % 2 else 1
        total += (
            sign
            * binomial(a, q)
            * Fraction(stirling_first_unsigned(q + 1, p), math.factorial(q + 1))
        )
    return total == Fraction(stirling_first_unsigned(a + 1, p), math.factorial(a + 1))
