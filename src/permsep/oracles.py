"""Brute-force ground truth for the query path, at desk scale.

Each oracle enumerates permutations exhaustively and counts block tuples by
direct combinatorics on the actual cycles of each product - nothing shared
with the closed-form code paths.  Classes are enumerated as raw image tuples
(`perms.class_images`), the cycle type of each product with the full cycle
is read straight off the tuple, and each class tally is cached.  Separated
block tuples are counted per cycle type by a block-first dynamic program
over the untouched cycles, whose one-block transitions are cached and shared
by every cycle type and block profile that reaches the same state.
Connection coefficients tally the full cycles once per representative.  The
oracles that only verification runs live in `permsep.crosscheck`.

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
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceededError
from .partitions import (
    Partition,
    as_composition,
    as_partition,
    binomial,
    conjugacy_class_size,
    sorted_partition,
)
from .perms import Permutation, class_images

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


# ---------------------------------------------------------------------------
# Separated block tuples per cycle type


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


# ---------------------------------------------------------------------------
# The query-path oracles


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
