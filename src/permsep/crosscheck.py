"""Second derivations that only the verification suites and the tests run.

The queries compute each quantity one way and check it against one oracle
(`permsep.oracles`).  This module holds the rest: the closed forms of the
auxiliary objects behind the derivations (colored factorizations, separated
colored quadruples, marked compositions, colored matchings), the piecewise
two-cycle form, the paper's two-full-cycle closed form, involution series,
printed involution sum and lifting relation (the queries read those counts
from the hook sum, and ``involution`` derives the printed value from its
count), the weak-to-strong refinement matrix, two polynomial identities, and
the oracles.  The coloring, involution, colored-matching and strong oracles
read one separated-pair histogram of a class: its product-type tally
(`oracles.product_type_histogram`) times the block DP of `permsep.oracles`.
A coloring of cycles is the separated block tuple of its color classes,
which covers every point.  The ``*_literal`` oracles enumerate every
structure one by one, to validate the counting oracles at tiny sizes: each
permutation is an image tuple (``images[i]`` is the image of i) from
`oracles.class_images`, its product with the full cycle is that tuple
rotated one place, and a block tuple of disjoint frozensets is tested on the
product's canonical cycles.  Connection coefficients tally the full cycles
once per representative.  Each oracle has one fixed ground-set limit, a
module constant, and checks it once, before it enumerates anything.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import InvariantError
from .formulas import SepResult, pair_space, separated_pair_count
from .oracles import (
    _check_size,
    _cycle_type,
    _separated_tuple_histogram,
    class_images,
    product_type_histogram,
)
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    binomial,
    compositions,
    partitions,
    perfect_matching_count,
    sorted_partition,
    stirling_first_unsigned,
)
from .polynomials import BinomialPolynomial, Poly, gen_series_entry

# ---------------------------------------------------------------------------
# Closed forms of the auxiliary counts


def colored_factorization_count(n: int, left_colors: int, right_colors: int) -> int:
    """Triples (pi, c1, c2): c1 colors pi's cycles with a fixed size profile of
    ``left_colors`` colors, c2 colors the cycles of pi times the full cycle
    with a profile of ``right_colors`` colors.

    The count depends on the profiles only through their lengths:
    n (n - l)! (n - l')! / (n - l - l' + 1)!, and 0 when that is negative.
    This is the series entry `polynomials.gen_series_entry` at m = n, r = 0,
    with the right coloring in the role of the k blocks.
    """
    if not (1 <= left_colors <= n and 1 <= right_colors <= n):
        raise ValueError("color counts must lie in [1, n]")
    return gen_series_entry(n, n, right_colors, left_colors, 0)


def separated_colored_count(n: int, left_colors: int, m: int, k: int, r: int) -> int:
    """Quadruples (pi, A, c1, c2) where additionally A is a tuple of k disjoint
    blocks of total size m whose i-th block is colored i by the surjective
    right coloring in k + r colors.

    This is the series entry `polynomials.gen_series_entry` with l = left_colors:
    n (n-l)! (n-k-r)! / (n-k-l-r+1)! * C(n+k-1, n-m-r), 0 when the factorial
    argument goes negative (and the binomial kills r > n - m).
    """
    if not 1 <= left_colors <= n:
        raise ValueError("left color count must lie in [1, n]")
    if k < 1 or r < 0 or m < k or m > n:
        raise ValueError("need k >= 1, r >= 0, k <= m <= n")
    return gen_series_entry(n, m, k, left_colors, r)


def marked_composition_count(n: int, m: int, k: int, r: int) -> int:
    """Number of length-(k + r) compositions of n with block-i marks of a size-m,
    length-k mark profile: C(n + k - 1, n - m - r)."""
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    return binomial(n + k - 1, n - m - r)


@lru_cache(maxsize=None)
def _compositions(n: int, length: int) -> tuple[Composition, ...]:
    """`partitions.compositions`, kept for the block profiles that share a length."""
    return tuple(compositions(n, length))


def marked_composition_count_direct(n: int, alpha: Iterable[int], r: int) -> int:
    """The same count by direct summation over compositions.

    Enumerates all compositions delta of n with length k + r and sums the
    products C(delta_i, alpha_i) over the first k rows.
    """
    alpha = as_composition(alpha, allow_empty=False)
    k = len(alpha)
    total = 0
    for delta in _compositions(n, k + r):
        term = 1
        for a, d in zip(alpha, delta):
            term *= binomial(d, a)
            if term == 0:
                break
        total += term
    return total


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


def singleton_blocks_probability(n: int, k: int) -> Fraction:
    """Piecewise closed form for k singleton blocks and two uniform full cycles:
    1/k! when n - k is odd, plus 2/((k-2)!(n-k+1)(n+k)) when n - k is even."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    base = Fraction(1, math.factorial(k))
    if (n - k) % 2 == 0:
        base += Fraction(2, math.factorial(k - 2) * (n - k + 1) * (n + k))
    return base


@lru_cache(maxsize=None)
def refinement_matrix(size: int) -> tuple[tuple[int, ...], ...]:
    """The weak-to-strong system over the partitions of ``size``.

    Entry (A, mu) counts the set partitions with piece sizes mu that refine a
    fixed set partition with block sizes A; rows and columns follow
    `partitions(size)` (reverse-lexicographic, dominance-compatible).  Each
    row is built one part a of A at a time, over the states {piece type so
    far: ways}: the part splits into pieces nu of a in
    a! / (prod nu_i! prod mult_j(nu)!) ways.  The matrix is upper triangular
    with unit diagonal, hence exactly invertible.
    """
    index = partitions(size)
    position = {lam: i for i, lam in enumerate(index)}
    splits = {
        a: [
            (
                nu,
                math.factorial(a)
                // math.prod(math.factorial(k) for k in (*nu, *Counter(nu).values())),
            )
            for nu in partitions(a)
        ]
        for a in range(1, size + 1)
    }
    rows = []
    for i, coarse in enumerate(index):
        states: dict[Partition, int] = {(): 1}
        for part in coarse:
            grown: dict[Partition, int] = {}
            for pieces, ways in states.items():
                for nu, split in splits[part]:
                    key = sorted_partition(pieces + nu)
                    grown[key] = grown.get(key, 0) + ways * split
            states = grown
        row = [0] * len(index)
        for mu, ways in states.items():
            row[position[mu]] = ways
        if row[i] != 1 or any(row[:i]):
            raise InvariantError(
                f"refinement matrix at size {size} is not unit upper triangular"
            )
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# The paper's other routes to the separated-pair count


def separation_probability_two_cycles(n: int, alpha: Iterable[int]) -> SepResult:
    """Separation probability for the product of two uniform full cycles,
    via the paper's short alternating-sum closed form; ``ncycle`` reads the
    hook-sum count of the class (n) under its method label."""
    alpha = as_composition(alpha, allow_empty=False)
    m, k = sum(alpha), len(alpha)
    if m > n:
        raise ValueError("total block size exceeds n")
    bracket = Fraction((-1) ** (n - m) * binomial(n - 1, k - 2), binomial(n + m, m - k))
    for r in range(m - k + 1):
        bracket += Fraction(
            (-1) ** r * binomial(m - k, r) * binomial(n + r + 1, m), binomial(n + k + r, r)
        )
    prod_fact = math.prod(math.factorial(a) for a in alpha)
    prob = Fraction(math.factorial(n - m) * prod_fact, (n + k) * math.factorial(n - 1)) * bracket
    count = prob * pair_space(n, alpha, math.factorial(n - 1))
    if count.denominator != 1 or count < 0:
        raise InvariantError(f"two-cycle separated count not integral: {count}")
    return SepResult(count=int(count), probability=prob, method="two-cycles-closed-form")


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


def involution_pair_count(pairs: int, alpha: Iterable[int]) -> int:
    """Number of separated pairs (fixed-point-free involution, block tuple)."""
    alpha = as_composition(alpha)
    value = involution_series(pairs, alpha).evaluate(1 - len(alpha))
    if value.denominator != 1 or value < 0:
        raise InvariantError(f"involution pair count not integral: {value}")
    return int(value)


def involution_series_monomial(pairs: int, alpha: Iterable[int]) -> Poly:
    """Monomial coefficients of the involution series in its own variable t
    (undoing the t + k shift)."""
    alpha = as_composition(alpha)
    return involution_series(pairs, alpha).to_monomial_shifted(-len(alpha))


def involution_probability_printed_form(pairs: int, alpha: Iterable[int]) -> Fraction:
    """Literal evaluation of the involution probability as usually quoted.

    For m < 2N it is smaller than the count-based probability
    (`variants.separation_probability_involution`) by exactly (2N - m)!;
    ``involution`` prints that quotient, not this sum.
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


def add_fixed_points_count(lam: Iterable[int], r: int, alpha: Iterable[int]) -> int:
    """Separated pair count after adding ``r`` fixed points to the cycle type,
    by the paper's lifting relation.

    ``lam`` must have all parts >= 2; the count for lam extended by r parts of
    size 1 is a positive combination of base counts with block profiles
    (m - k - p + 1, 1, ..., 1) for p = 0 .. m - k.  The arguments are checked
    on every call, and the count is cached on (lam, r, m, k).
    """
    lam = as_partition(lam)
    if not lam:
        raise ValueError("base cycle type must be nonempty")
    if any(part < 2 for part in lam):
        raise ValueError("base cycle type must have all parts >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    alpha = as_composition(alpha, allow_empty=False)
    n, m, k = sum(lam), sum(alpha), len(alpha)
    if m > n + r:
        raise ValueError("total block size exceeds n + r")
    return _lifted_count(lam, r, m, k)


@lru_cache(maxsize=None)
def _lifted_count(lam: Partition, r: int, m: int, k: int) -> int:
    """The lifting relation's sum for checked arguments."""
    n = sum(lam)
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


# ---------------------------------------------------------------------------
# Oracles that only verification runs

COLORING_MAX_N = 6
INVOLUTION_MAX_N = 10
STRONG_MAX_N = 7
CONNECTION_MAX_N = 7
LITERAL_MAX_N = 6
COLORED_LITERAL_MAX_N = 4


BlockTuple = tuple[frozenset[int], ...]


def disjoint_block_tuples(n: int, sizes: Iterable[int]) -> Iterator[BlockTuple]:
    """All ordered tuples of disjoint blocks of {0, ..., n-1} with the given sizes.

    Blocks are chosen left to right; each block runs through the size-many
    combinations of the still-unused elements in lexicographic order.
    The stream has multinomial(n; sizes..., n - sum) entries.
    """
    sizes = as_composition(sizes)
    if sum(sizes) > n:
        return

    def build(available: tuple[int, ...], remaining: Composition, acc: list[frozenset[int]]):
        if not remaining:
            yield tuple(acc)
            return
        size, rest = remaining[0], remaining[1:]
        for chosen in itertools.combinations(available, size):
            chosen_set = set(chosen)
            acc.append(frozenset(chosen))
            yield from build(
                tuple(x for x in available if x not in chosen_set), rest, acc
            )
            acc.pop()

    yield from build(tuple(range(n)), sizes, [])


def _cycles(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Canonical cycles of the permutation with the given image tuple: listed
    by increasing minimum, each starting at its minimum."""
    seen = [False] * len(images)
    result = []
    for start in range(len(images)):
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = images[x]
        if cycle:
            result.append(tuple(cycle))
    return tuple(result)


def _blocks_met(cycles: Sequence[Sequence[int]], blocks: BlockTuple) -> list[int]:
    """The number of blocks each cycle meets.  The blocks must be nonempty,
    pairwise disjoint subsets of the points the cycles cover."""
    n = sum(map(len, cycles))
    owner: dict[int, int] = {}
    for i, block in enumerate(blocks):
        if not block:
            raise ValueError("blocks must be nonempty")
        for x in block:
            if not 0 <= x < n:
                raise ValueError(f"block element {x} outside range({n})")
            if x in owner:
                raise ValueError("blocks must be pairwise disjoint")
            owner[x] = i
    return [len({owner[x] for x in cycle if x in owner}) for cycle in cycles]


def _separates(met: Sequence[int], blocks: BlockTuple, strong: bool = False) -> bool:
    """Whether cycles that meet met[i] of the blocks each separate them (the
    literal predicate): no cycle meets two blocks, and for ``strong``
    separation no block meets two cycles either."""
    return all(count < 2 for count in met) and (not strong or sum(met) == len(blocks))


def _literal_histogram(
    lam: Partition, alpha: Composition, strong: bool = False
) -> dict[int, int]:
    """{untouched cycles: pairs} with the class of lam and the block tuples
    with sizes alpha enumerated one by one, each pair tested with the
    (``strong``: strong) separation predicate.  One `_blocks_met` list per
    pair serves both that test and the count of untouched cycles."""
    out: dict[int, int] = {}
    for images in class_images(lam):
        cycles = _cycles(images[1:] + images[:1])
        for blocks in disjoint_block_tuples(sum(lam), alpha):
            met = _blocks_met(cycles, blocks)
            if _separates(met, blocks, strong):
                j = met.count(0)
                out[j] = out.get(j, 0) + 1
    return out


@lru_cache(maxsize=None)
def _pair_histogram(
    lam: Partition, blocks: Composition, strong: bool = False
) -> tuple[tuple[int, int], ...]:
    """{untouched cycles: pairs}, as sorted items, over the pairs (pi in the
    class of lam, block tuple with the given sizes) that pi times the full
    cycle separates (``strong``: strongly separates): the product-type tally
    of the class times the block DP of `permsep.oracles`.  Reordering the
    block sizes permutes the tuples, so the DP reads them sorted."""
    sizes = sorted_partition(blocks)
    out: dict[int, int] = {}
    for tau, count in product_type_histogram(lam):
        for j, ways in _separated_tuple_histogram(tau, sizes, strong):
            out[j] = out.get(j, 0) + count * ways
    return tuple(sorted(out.items()))


def _extra_color_weight(untouched: int, k: int, extra: int) -> int:
    """Colorings of ``untouched`` cycles in k + extra colors that use every
    one of the ``extra`` colors, by inclusion-exclusion over those left out."""
    return sum(
        (-1) ** i * binomial(extra, i) * (k + extra - i) ** untouched
        for i in range(extra + 1)
    )


def oracle_separated_pair_count_literal(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Same count with both the class and the block tuples enumerated one by
    one and tested with the separation predicate."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    _check_size(sum(lam), LITERAL_MAX_N)
    return sum(_literal_histogram(lam, alpha).values())


def _left_colored_total(gamma: Composition, blocks: Composition, extra: int) -> int:
    """Sum over pi in S_n, n = |gamma|, of the colorings of pi with profile
    gamma times the colorings of the untouched cycles in k + ``extra``
    colors that use every extra one, k = len(blocks), summed over the block
    tuples with the given sizes that the product separates.

    A coloring with profile gamma is a block tuple with sizes gamma that the
    cycles separate: it covers every point, so each block is a union of
    cycles and no cycle is left untouched.  Reordering either profile
    permutes the tuples, so the total is cached on both sorted, once the
    size limit is checked."""
    _check_size(sum(gamma), COLORING_MAX_N)
    return _colored_total(sorted_partition(gamma), sorted_partition(blocks), extra)


@lru_cache(maxsize=None)
def _colored_total(sizes: Partition, blocks: Partition, extra: int) -> int:
    """`_left_colored_total` on sorted profiles.  A class with no coloring
    of profile ``sizes`` costs one step."""
    total, k = 0, len(blocks)
    for lam in partitions(sum(sizes)):
        left = dict(_separated_tuple_histogram(lam, sizes)).get(0, 0)
        if left:
            hist = _pair_histogram(lam, blocks)
            total += left * sum(pairs * _extra_color_weight(j, k, extra) for j, pairs in hist)
    return total


def oracle_colored_factorization_count(gamma: Iterable[int], delta: Iterable[int]) -> int:
    """Triples (pi, left coloring with profile gamma, right coloring with
    profile delta) over all of S_n: a right coloring is a separated block
    tuple with sizes delta, which leaves no cycle untouched, so its weight
    with no extra colors is 1."""
    gamma = as_composition(gamma, allow_empty=False)
    delta = as_composition(delta, allow_empty=False)
    if sum(gamma) != sum(delta):
        raise ValueError("gamma and delta must have equal size")
    return _left_colored_total(gamma, delta, 0)


def oracle_separated_colored_count(
    gamma: Iterable[int], alpha: Iterable[int], extra_colors: int
) -> int:
    """Quadruples (pi, A, c1, c2): left coloring profile gamma, right coloring
    surjective in k + extra colors with block i inside color class i.  Such a
    right coloring is a separated A whose untouched cycles take colors that
    cover the extra ones."""
    gamma = as_composition(gamma, allow_empty=False)
    alpha = as_composition(alpha, allow_empty=False)
    if extra_colors < 0:
        raise ValueError("extra color count must be nonnegative")
    n = sum(gamma)
    if sum(alpha) > n:
        raise ValueError("total block size exceeds n")
    return _left_colored_total(gamma, alpha, extra_colors)


def oracle_separated_colored_count_literal(
    gamma: Iterable[int], alpha: Iterable[int], extra_colors: int
) -> int:
    """Quadruple count with every component enumerated literally (tiny n only)."""
    gamma = as_composition(gamma, allow_empty=False)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(gamma)
    q = len(alpha) + extra_colors
    _check_size(n, COLORED_LITERAL_MAX_N)
    total = 0
    for images in itertools.permutations(range(n)):
        left_cycles = _cycles(images)
        left_count = 0
        for assignment in itertools.product(
            range(len(gamma)), repeat=len(left_cycles)
        ):
            totals = [0] * len(gamma)
            for cycle, color in zip(left_cycles, assignment):
                totals[color] += len(cycle)
            if tuple(totals) == gamma:
                left_count += 1
        if left_count == 0:
            continue
        right_cycles = _cycles(images[1:] + images[:1])
        for blocks in disjoint_block_tuples(n, alpha):
            for assignment in itertools.product(range(q), repeat=len(right_cycles)):
                if len(set(assignment)) != q:
                    continue
                color_of = {}
                for cycle, color in zip(right_cycles, assignment):
                    for x in cycle:
                        color_of[x] = color
                if all(
                    color_of[x] == i for i, block in enumerate(blocks) for x in block
                ):
                    total += left_count
    return total


def oracle_involution_series(pairs: int, alpha: Iterable[int]) -> dict[int, int]:
    """Histogram {untouched cycle count: separated pairs} over all
    (fixed-point-free involution, block tuple) pairs."""
    alpha = as_composition(alpha)
    _check_size(2 * pairs, INVOLUTION_MAX_N)
    if sum(alpha) > 2 * pairs:
        raise ValueError("total block size exceeds 2 * pairs")
    return dict(_pair_histogram((2,) * pairs, alpha))


def oracle_involution_series_literal(pairs: int, alpha: Iterable[int]) -> dict[int, int]:
    alpha = as_composition(alpha)
    _check_size(2 * pairs, LITERAL_MAX_N)
    return _literal_histogram((2,) * pairs, alpha)


def oracle_colored_matching_count(pairs: int, gamma: Iterable[int]) -> int:
    """Pairs (fixed-point-free involution, right coloring with profile gamma):
    separated block tuples with sizes gamma, which leave no cycle untouched."""
    gamma = as_composition(gamma, allow_empty=False)
    if sum(gamma) != 2 * pairs:
        raise ValueError("gamma must have size 2 * pairs")
    _check_size(2 * pairs, INVOLUTION_MAX_N)
    return dict(_pair_histogram((2,) * pairs, gamma)).get(0, 0)


def oracle_strong_pair_count(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Pairs (pi in the class of lam, block tuple) with the product strongly
    separated: each block inside its own cycle."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    _check_size(sum(lam), STRONG_MAX_N)
    if sum(alpha) > sum(lam):
        return 0
    return sum(pairs for _, pairs in _pair_histogram(lam, alpha, strong=True))


def oracle_strong_pair_count_literal(lam: Iterable[int], alpha: Iterable[int]) -> int:
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    _check_size(sum(lam), LITERAL_MAX_N)
    return sum(_literal_histogram(lam, alpha, strong=True).values())


def canonical_type_representative(alpha: Iterable[int]) -> tuple[int, ...]:
    """The image tuple with cycles on consecutive blocks: (0 .. a1-1)(a1 ..) ..."""
    alpha = as_composition(alpha, allow_empty=False)
    images: list[int] = []
    for a in alpha:
        start = len(images)
        images += range(start + 1, start + a)
        images.append(start)
    return tuple(images)


def oracle_connection_coefficient(
    lam: Iterable[int],
    alpha: Iterable[int],
    representative: Sequence[int] | None = None,
) -> int:
    """Factorizations of a fixed permutation of cycle type ``alpha``, given by
    its image tuple, as (class-of-lam element) * (full cycle), counted by
    enumerating full cycles.
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(alpha)
    if sum(lam) != n:
        raise ValueError("lam and alpha must have equal size")
    _check_size(n, CONNECTION_MAX_N)
    phi = canonical_type_representative(alpha) if representative is None else tuple(representative)
    if sorted(phi) != list(range(n)):
        raise ValueError(f"representative is not a bijection of range({n}): {phi}")
    if _cycle_type(phi) != sorted_partition(alpha):
        raise ValueError("representative does not have cycle type alpha")
    inverse = tuple(sorted(range(n), key=phi.__getitem__))
    return dict(_connection_histogram(inverse)).get(lam, 0)


@lru_cache(maxsize=None)
def _connection_histogram(
    phi_inverse: tuple[int, ...]
) -> tuple[tuple[Partition, int], ...]:
    """Cycle-type tally of phi * rho^-1 over the full cycles rho, read off
    its inverse rho * phi^-1, which has the same cycle type."""
    tally = Counter(
        _cycle_type([rho[y] for y in phi_inverse])
        for rho in class_images((len(phi_inverse),))
    )
    return tuple(sorted(tally.items()))
