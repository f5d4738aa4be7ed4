"""Brute-force ground truth for every counted object, at desk scale.

Each oracle enumerates permutations exhaustively and counts auxiliary
structures (block tuples, cycle colorings) by direct combinatorics on the
actual cycles of each product - no generating functions, no transition
matrices, nothing shared with the closed-form code paths.  Classes are
enumerated as raw image tuples (`perms.class_images`) and the cycle type of
each product with the full cycle is read straight off the tuple; connection
coefficients tally the full cycles once per representative.  Separated block
tuples are counted per cycle type by a block-first dynamic program over the
untouched cycles; its transitions (the placements of one block, given the
untouched count of each distinct cycle length) are cached and shared by every
cycle type and block profile that reaches the same state, and the marked
coloring weights are cached per (product type, blocks, extra colors).  Every
histogram is a serial tally straight off the class stream: the joint (pi,
product) tally over S_n is assembled from the cached per-class tallies, and
the involution tally is the class (2, ..., 2).  The ``*_literal`` variants go
further and enumerate even the auxiliary structures one by one, as
`Permutation` objects; they exist to validate the counting layer at tiny
sizes.

Budgets are explicit: an oracle either finishes exactly or raises
BudgetExceededError.  Oracles that read a cached histogram tick the objects
it enumerates up front, so a cache hit never bypasses a budget.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BudgetExceededError
from .partitions import (
    Composition,
    Partition,
    as_composition,
    as_partition,
    binomial,
    conjugacy_class_size,
    partitions,
    perfect_matching_count,
    sorted_partition,
)
from .perms import (
    Permutation,
    class_images,
    fixed_point_free_involutions,
    permutations_of_type,
)
from .separation import (
    disjoint_block_tuples,
    is_separated,
    is_strongly_separated,
    unmarked_cycle_count,
)

OMEGA_FIRST = "omega-first"  # sigma = pi * omega (the full cycle acts first)
PI_FIRST = "pi-first"  # sigma = omega * pi


class OracleBudget(NamedTuple):
    """Hard limits for exhaustive enumeration.

    ``max_n`` caps the ground-set size, ``max_objects`` the number of
    enumerated items, ``max_seconds`` the wall-clock time.  Exceeding any
    limit raises BudgetExceededError before a partial count can escape.
    """

    max_n: int
    max_objects: int | None = None
    max_seconds: float | None = None

    def check_n(self, n: int) -> None:
        if n > self.max_n:
            raise BudgetExceededError(
                f"ground set of size {n} exceeds oracle budget max_n={self.max_n}"
            )

    def tracker(self) -> "_BudgetTracker":
        return _BudgetTracker(self)


class _BudgetTracker:
    def __init__(self, budget: OracleBudget):
        self.budget = budget
        self.count = 0
        self.start = time.monotonic()

    def tick(self, items: int = 1) -> None:
        self.count += items
        elapsed = time.monotonic() - self.start
        used = f"enumerated {self.count} objects in {elapsed:.3f} s"
        if (
            self.budget.max_objects is not None
            and self.count > self.budget.max_objects
        ):
            raise BudgetExceededError(
                f"{used}, budget max_objects={self.budget.max_objects}"
            )
        if self.budget.max_seconds is not None and elapsed > self.budget.max_seconds:
            raise BudgetExceededError(
                f"{used}, budget max_seconds={self.budget.max_seconds}"
            )


PAIR_BUDGET = OracleBudget(max_n=8)
COLORING_BUDGET = OracleBudget(max_n=6)
INVOLUTION_BUDGET = OracleBudget(max_n=10)
STRONG_BUDGET = OracleBudget(max_n=7)
CONNECTION_BUDGET = OracleBudget(max_n=7)


def _product(perm: Permutation, convention: str) -> Permutation:
    omega = Permutation.full_cycle(perm.degree)
    if convention == OMEGA_FIRST:
        return perm * omega
    if convention == PI_FIRST:
        return omega * perm
    raise ValueError(f"unknown convention {convention!r}")


def _cycle_type(images: Sequence[int]) -> Partition:
    """Cycle type of the permutation with the given image sequence."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _product_type(images: tuple[int, ...], convention: str) -> Partition:
    """Cycle type of pi * omega (omega-first) or omega * pi (pi-first), from
    the image tuple of pi: omega shifts every point up by one, modulo n."""
    if convention == OMEGA_FIRST:
        return _cycle_type(images[1:] + images[:1])
    n = len(images)
    return _cycle_type([(y + 1) % n for y in images])


@lru_cache(maxsize=None)
def product_type_histogram(
    lam: Partition, convention: str = OMEGA_FIRST
) -> tuple[tuple[Partition, int], ...]:
    """Cycle-type tally of pi * full-cycle over the conjugacy class of ``lam``."""
    if convention not in (OMEGA_FIRST, PI_FIRST):
        raise ValueError(f"unknown convention {convention!r}")
    if sum(lam) < 1:
        raise ValueError("full cycle needs n >= 1")
    tally = Counter(_product_type(images, convention) for images in class_images(lam))
    return tuple(sorted(tally.items()))


@lru_cache(maxsize=None)
def joint_type_histogram(n: int) -> tuple[tuple[tuple[Partition, Partition], int], ...]:
    """Tally of (cycle type of pi, cycle type of pi * full cycle) over all of
    S_n, one conjugacy class at a time."""
    if n < 1:
        raise ValueError("full cycle needs n >= 1")
    return tuple(
        sorted(
            ((lam, tau), count)
            for lam in partitions(n)
            for tau, count in product_type_histogram(lam, OMEGA_FIRST)
        )
    )


# ---------------------------------------------------------------------------
# Exact per-cycle-type counting of auxiliary structures


@lru_cache(maxsize=None)
def _covering_subset_count(size: int, lengths: Partition) -> int:
    """Subsets of ``size`` elements of the union of disjoint cycles with the
    given lengths that meet every one of those cycles: the coefficient of
    x**size in the product of ((1 + x)**length - 1)."""
    poly = [1]
    for length in lengths:
        grown = [0] * (len(poly) + length)
        for i, ways in enumerate(poly):
            for take in range(1, length + 1):
                grown[i + take] += ways * binomial(length, take)
        poly = grown
    return poly[size] if size < len(poly) else 0


@lru_cache(maxsize=None)
def _block_placements(
    lengths: tuple[int, ...], free: tuple[int, ...], size: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Ways to place one block of ``size`` elements when free[i] cycles of
    length lengths[i] are untouched, keyed by the untouched counts left.

    The block picks u_i untouched cycles of each length (0 < sum u <= size),
    in prod C(free_i, u_i) ways, and a ``size``-subset of their union meeting
    every picked cycle.
    """
    out: dict[tuple[int, ...], int] = {}
    for picked in itertools.product(*(range(min(f, size) + 1) for f in free)):
        if not 0 < sum(picked) <= size:
            continue
        weight = _covering_subset_count(
            size, tuple(s for s, u in zip(lengths, picked) for _ in range(u))
        )
        for f, u in zip(free, picked):
            weight *= binomial(f, u)
        if weight:
            left = tuple(f - u for f, u in zip(free, picked))
            out[left] = out.get(left, 0) + weight
    return tuple(out.items())


@lru_cache(maxsize=None)
def _separated_tuple_histogram(
    cycle_sizes: Partition, block_sizes: Partition
) -> tuple[tuple[int, int], ...]:
    """Block tuples with the given sizes separated by a permutation whose
    cycles have the given sizes, split by the number of untouched cycles.

    Blocks are placed one at a time.  The state is the number of untouched
    cycles of each distinct length, and each step reads its transitions from
    `_block_placements`, which every cycle type with the same distinct
    lengths shares.  Separation is exactly the rule that a touched cycle is
    never picked again.
    """
    lengths = tuple(sorted(set(cycle_sizes)))
    states = {tuple(cycle_sizes.count(s) for s in lengths): 1}
    for a in block_sizes:
        nxt: dict[tuple[int, ...], int] = {}
        for free, ways in states.items():
            for left, weight in _block_placements(lengths, free, a):
                nxt[left] = nxt.get(left, 0) + ways * weight
        states = nxt
    out: dict[int, int] = {}
    for free, ways in states.items():
        out[sum(free)] = out.get(sum(free), 0) + ways
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _strong_tuple_count(cycle_sizes: Partition, block_sizes: Partition) -> int:
    """Block tuples strongly separated: blocks injectively inside distinct cycles."""

    def place(i: int, used: int) -> int:
        if i == len(block_sizes):
            return 1
        total = 0
        for c, size in enumerate(cycle_sizes):
            if used >> c & 1:
                continue
            ways = binomial(size, block_sizes[i])
            if ways:
                total += ways * place(i + 1, used | 1 << c)
        return total

    return place(0, 0)


@lru_cache(maxsize=None)
def _color_size_distribution(
    cycle_sizes: Partition, colors: int
) -> Mapping[tuple[int, ...], int]:
    """Distribution of per-color element totals over all cycle colorings.

    Keys are vectors (elements colored 1, ..., elements colored ``colors``);
    values count the colorings of the given cycles producing that vector.
    The cached mapping is read-only, so callers can share it.
    """
    states: dict[tuple[int, ...], int] = {(0,) * colors: 1}
    for size in cycle_sizes:
        nxt: dict[tuple[int, ...], int] = {}
        for vec, ways in states.items():
            for i in range(colors):
                bumped = vec[:i] + (vec[i] + size,) + vec[i + 1 :]
                nxt[bumped] = nxt.get(bumped, 0) + ways
        states = nxt
    return MappingProxyType(states)


def _profile_coloring_count(cycle_sizes: Partition, profile: Composition) -> int:
    """Cycle colorings whose color-i class has exactly profile[i] elements."""
    return _color_size_distribution(cycle_sizes, len(profile)).get(profile, 0)


@lru_cache(maxsize=None)
def _marked_surjective_coloring_count(
    cycle_sizes: Partition, alpha: Composition, extra_colors: int
) -> int:
    """Surjective colorings in k + extra colors, weighted by the choices of a
    block tuple whose i-th block sits inside color class i (i <= k)."""
    k = len(alpha)
    total = 0
    for vec, ways in _color_size_distribution(cycle_sizes, k + extra_colors).items():
        if any(v == 0 for v in vec):
            continue
        weight = 1
        for a, v in zip(alpha, vec):
            weight *= binomial(v, a)
            if weight == 0:
                break
        total += ways * weight
    return total


# ---------------------------------------------------------------------------
# Public oracles


def oracle_separated_pair_count(
    lam: Iterable[int],
    alpha: Iterable[int],
    convention: str = OMEGA_FIRST,
    budget: OracleBudget | None = None,
) -> int:
    """Separated pairs (pi in the class of lam, block tuple of sizes alpha),
    by exhaustive enumeration of the class."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    budget = budget or PAIR_BUDGET
    budget.check_n(sum(lam))
    if sum(alpha) > sum(lam):
        return 0
    budget.tracker().tick(conjugacy_class_size(lam))
    hist = product_type_histogram(lam, convention)
    blocks = sorted_partition(alpha)
    return sum(
        count * ways
        for tau, count in hist
        for _, ways in _separated_tuple_histogram(tau, blocks)
    )


def oracle_separated_pair_count_literal(
    lam: Iterable[int],
    alpha: Iterable[int],
    convention: str = OMEGA_FIRST,
    budget: OracleBudget | None = None,
) -> int:
    """Same count with both the class and the block tuples enumerated one by
    one and tested with the separation predicate."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    budget = budget or OracleBudget(max_n=6)
    budget.check_n(sum(lam))
    n = sum(lam)
    tracker = budget.tracker()
    total = 0
    for pi in permutations_of_type(lam):
        sigma = _product(pi, convention)
        for blocks in disjoint_block_tuples(n, alpha):
            tracker.tick()
            if is_separated(sigma, blocks):
                total += 1
    return total


def oracle_colored_factorization_count(
    gamma: Iterable[int],
    delta: Iterable[int],
    budget: OracleBudget | None = None,
) -> int:
    """Triples (pi, left coloring with profile gamma, right coloring with
    profile delta) over all of S_n."""
    gamma = as_composition(gamma, allow_empty=False)
    delta = as_composition(delta, allow_empty=False)
    if sum(gamma) != sum(delta):
        raise ValueError("gamma and delta must have equal size")
    n = sum(gamma)
    budget = budget or COLORING_BUDGET
    budget.check_n(n)
    budget.tracker().tick(math.factorial(n))
    total = 0
    for (tau_left, tau_right), count in joint_type_histogram(n):
        left = _profile_coloring_count(tau_left, gamma)
        if left:
            total += count * left * _profile_coloring_count(tau_right, delta)
    return total


def oracle_separated_colored_count(
    gamma: Iterable[int],
    alpha: Iterable[int],
    extra_colors: int,
    budget: OracleBudget | None = None,
) -> int:
    """Quadruples (pi, A, c1, c2): left coloring profile gamma, right coloring
    surjective in k + extra colors with block i inside color class i."""
    gamma = as_composition(gamma, allow_empty=False)
    alpha = as_composition(alpha, allow_empty=False)
    if extra_colors < 0:
        raise ValueError("extra color count must be nonnegative")
    n = sum(gamma)
    if sum(alpha) > n:
        raise ValueError("total block size exceeds n")
    budget = budget or COLORING_BUDGET
    budget.check_n(n)
    budget.tracker().tick(math.factorial(n))
    total = 0
    for (tau_left, tau_right), count in joint_type_histogram(n):
        left = _profile_coloring_count(tau_left, gamma)
        if left:
            total += (
                count
                * left
                * _marked_surjective_coloring_count(tau_right, alpha, extra_colors)
            )
    return total


def oracle_separated_colored_count_literal(
    gamma: Iterable[int],
    alpha: Iterable[int],
    extra_colors: int,
    budget: OracleBudget | None = None,
) -> int:
    """Quadruple count with every component enumerated literally (tiny n only)."""
    gamma = as_composition(gamma, allow_empty=False)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(gamma)
    budget = budget or OracleBudget(max_n=4)
    budget.check_n(n)
    k = len(alpha)
    q = k + extra_colors
    tracker = budget.tracker()
    total = 0
    for images in itertools.permutations(range(n)):
        pi = Permutation(images)
        sigma = _product(pi, OMEGA_FIRST)
        left_cycles = pi.cycles()
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
        right_cycles = sigma.cycles()
        for blocks in disjoint_block_tuples(n, alpha):
            for assignment in itertools.product(range(q), repeat=len(right_cycles)):
                tracker.tick()
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


def oracle_involution_series(
    pairs: int,
    alpha: Iterable[int],
    budget: OracleBudget | None = None,
) -> dict[int, int]:
    """Histogram {untouched cycle count: separated pairs} over all
    (fixed-point-free involution, block tuple) pairs."""
    alpha = as_composition(alpha)
    budget = budget or INVOLUTION_BUDGET
    budget.check_n(2 * pairs)
    if sum(alpha) > 2 * pairs:
        raise ValueError("total block size exceeds 2 * pairs")
    budget.tracker().tick(perfect_matching_count(pairs))
    blocks = sorted_partition(alpha)
    out: dict[int, int] = {}
    for tau, count in product_type_histogram((2,) * pairs, OMEGA_FIRST):
        for j, ways in _separated_tuple_histogram(tau, blocks):
            out[j] = out.get(j, 0) + count * ways
    return out


def oracle_involution_series_literal(
    pairs: int, alpha: Iterable[int], budget: OracleBudget | None = None
) -> dict[int, int]:
    alpha = as_composition(alpha)
    budget = budget or OracleBudget(max_n=6)
    budget.check_n(2 * pairs)
    n = 2 * pairs
    tracker = budget.tracker()
    out: dict[int, int] = {}
    for pi in fixed_point_free_involutions(pairs):
        sigma = _product(pi, OMEGA_FIRST)
        if not alpha:
            j = sigma.cycle_count()
            out[j] = out.get(j, 0) + 1
            continue
        for blocks in disjoint_block_tuples(n, alpha):
            tracker.tick()
            if is_separated(sigma, blocks):
                j = unmarked_cycle_count(sigma, blocks)
                out[j] = out.get(j, 0) + 1
    return out


def oracle_colored_matching_count(
    pairs: int,
    gamma: Iterable[int],
    budget: OracleBudget | None = None,
) -> int:
    """Pairs (fixed-point-free involution, right coloring with profile gamma)."""
    gamma = as_composition(gamma, allow_empty=False)
    if sum(gamma) != 2 * pairs:
        raise ValueError("gamma must have size 2 * pairs")
    budget = budget or INVOLUTION_BUDGET
    budget.check_n(2 * pairs)
    budget.tracker().tick(perfect_matching_count(pairs))
    return sum(
        count * _profile_coloring_count(tau, gamma)
        for tau, count in product_type_histogram((2,) * pairs, OMEGA_FIRST)
    )


def oracle_strong_pair_count(
    lam: Iterable[int],
    alpha: Iterable[int],
    budget: OracleBudget | None = None,
) -> int:
    """Pairs (pi in the class of lam, block tuple) with the product strongly
    separated: each block inside its own cycle."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    budget = budget or STRONG_BUDGET
    budget.check_n(sum(lam))
    if sum(alpha) > sum(lam):
        return 0
    budget.tracker().tick(conjugacy_class_size(lam))
    hist = product_type_histogram(lam, OMEGA_FIRST)
    blocks = sorted_partition(alpha)
    return sum(count * _strong_tuple_count(tau, blocks) for tau, count in hist)


def oracle_strong_pair_count_literal(
    lam: Iterable[int], alpha: Iterable[int], budget: OracleBudget | None = None
) -> int:
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    budget = budget or OracleBudget(max_n=6)
    budget.check_n(sum(lam))
    n = sum(lam)
    tracker = budget.tracker()
    total = 0
    for pi in permutations_of_type(lam):
        sigma = _product(pi, OMEGA_FIRST)
        for blocks in disjoint_block_tuples(n, alpha):
            tracker.tick()
            if is_strongly_separated(sigma, blocks):
                total += 1
    return total


def canonical_type_representative(alpha: Iterable[int]) -> Permutation:
    """The permutation with cycles on consecutive blocks: (0 .. a1-1)(a1 ..) ..."""
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(alpha)
    cycles = []
    start = 0
    for a in alpha:
        cycles.append(tuple(range(start, start + a)))
        start += a
    return Permutation.from_cycles(n, cycles)


def oracle_connection_coefficient(
    lam: Iterable[int],
    alpha: Iterable[int],
    representative: Permutation | None = None,
    budget: OracleBudget | None = None,
) -> int:
    """Factorizations of a fixed permutation of cycle type ``alpha`` as
    (class-of-lam element) * (full cycle), counted by enumerating full cycles.
    """
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    n = sum(alpha)
    if sum(lam) != n:
        raise ValueError("lam and alpha must have equal size")
    budget = budget or CONNECTION_BUDGET
    budget.check_n(n)
    phi = representative if representative is not None else canonical_type_representative(alpha)
    if phi.cycle_type() != sorted_partition(alpha):
        raise ValueError("representative does not have cycle type alpha")
    budget.tracker().tick(math.factorial(n - 1))
    return dict(_connection_histogram(phi.inverse().images)).get(lam, 0)


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
