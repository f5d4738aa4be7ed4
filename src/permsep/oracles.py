"""Brute-force ground truth for the query path, at desk scale.

Each oracle enumerates permutations and counts block tuples by direct
combinatorics on the actual cycles of each product - nothing shared with
the closed-form code paths.  Classes are enumerated as raw image tuples
(`class_images`), the cycle type of each product with the full cycle is
read straight off the tuple, and each class tally is cached.  A tally walks
only the members on which a weight that the rotations move round is nonzero
at 0, and scales up (`product_type_histogram`; the walk by least
displacement lives in `permsep.displacement`).  Separated block tuples are
counted per cycle type by a block-first dynamic program that extends the
cached states of a profile's prefix.  The oracles that only verification
runs live in `permsep.crosscheck`.

Each oracle has one fixed limit on the ground-set size, a module constant,
and either finishes exactly or raises BudgetExceededError.  It checks the
limit once, before any work, so a cache hit never bypasses it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, InvariantError
from .partitions import (
    Partition,
    as_composition,
    as_partition,
    binomial,
    conjugacy_class_size,
    sorted_partition,
)


PAIR_MAX_N = 9


def _check_size(n: int, max_n: int) -> None:
    """Refuse a ground set larger than an oracle's limit, before any work."""
    if n > max_n:
        raise BudgetExceededError(
            f"ground set of size {n} exceeds oracle budget max_n={max_n}"
        )


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


def class_images(
    partition: Iterable[int], first: int | None = None, least: int | None = None
) -> Iterator[tuple[int, ...]]:
    """The image tuples of all permutations with the given cycle type.

    Deterministic construction order: the smallest unplaced element starts a
    cycle; distinct cycle lengths are tried in increasing order, and the rest
    of each cycle runs through arrangements of the remaining elements in
    lexicographic order.  The stream length equals the conjugacy class size.
    One image list is rewritten in place and a tuple copy of it is yielded
    per member.

    With ``first`` set to a part length L, only the members whose cycle
    through 0 has length L are yielded, in the same order: the slice of
    |class| * L * m_L / n members, m_L being the number of parts equal to L.
    With ``least`` = c as well, only those with pi(0) = c whose L-cycles move
    every point at least c places up mod n; a step below c cuts its branch
    (`permsep.displacement.cycle_tails`).
    """
    lam = as_partition(partition)
    if (first is not None or least is not None) and first not in lam:
        raise ValueError(f"first={first} is not a part of {lam}")
    images = list(range(sum(lam)))
    if least is not None:
        from .displacement import cycle_tails

        tails = cycle_tails(len(images), first, least)

    def build(elements: tuple[int, ...], parts: tuple[int, ...], sizes=None):
        head, rest = elements[0], elements[1:]
        for size in sizes or sorted(set(parts)):
            idx = parts.index(size)
            remaining_parts = parts[:idx] + parts[idx + 1 :]
            for tail in permutations(rest, size - 1) if least is None else tails(head, rest, size):
                prev = head
                for y in tail:
                    images[prev] = prev = y  # assigns images[prev] first
                images[prev] = head
                if remaining_parts and remaining_parts[0] > 1:
                    tail_set = set(tail)
                    yield from build(
                        tuple(e for e in rest if e not in tail_set), remaining_parts
                    )
                    continue
                if remaining_parts:
                    for e in set(rest).difference(tail):  # the remaining fixed points
                        images[e] = e
                yield tuple(images)

    return build(tuple(images), lam, first and (first,)) if lam else iter([()])


@lru_cache(maxsize=None)
def product_type_histogram(lam: Partition) -> tuple[tuple[Partition, int], ...]:
    """Cycle-type tally of pi * full-cycle over the conjugacy class of ``lam``.

    omega shifts every point up by one, so the product's images are pi's
    image tuple rotated by one place.  Conjugating pi by omega keeps the
    class and the product's cycle type, and moves pi's cycles and its
    displacements d(x) = pi(x) - x mod n one place round.  So a weight
    w(pi, x) that moves the same way and sums to 1 over x gives
    tally[tau] = n * (sum of w(pi, 0) over the members of product type tau),
    and the walk visits only the members with w(pi, 0) > 0.  L is the part
    whose m_L cycles cover the fewest points.  Where they cover every point
    (one distinct part, L > 1), w is 1/N on the N points whose d is the
    least (`permsep.displacement.least_displacement_weights`).  Elsewhere w
    is 1/(L * m_L) on the points of the L-cycles: the walk visits the members
    whose 0 lies in one.  ``weights[tau] / scale`` is the sum of w(pi, 0).
    """
    n = sum(lam)
    if n < 1:
        raise ValueError("full cycle needs n >= 1")
    covered, first = min((size * lam.count(size), size) for size in set(lam))
    if covered < n or first == 1:
        scale, weights = covered, Counter(
            _cycle_type(images[1:] + images[:1])
            for images in class_images(lam, first=first)
        )
    else:
        from .displacement import least_displacement_weights

        scale, weights = least_displacement_weights(lam, first)
    members = n * sum(weights.values())
    if members != conjugacy_class_size(lam) * scale:
        raise InvariantError(f"the walk of {lam} weighs {members}/{scale} members")
    if any(n * weight % scale for weight in weights.values()):
        raise InvariantError(f"n times the walk's weights for {lam} are not integral")
    return tuple(sorted((tau, n * weight // scale) for tau, weight in weights.items()))


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
    lengths: tuple[int, ...], free: tuple[int, ...], size: int, most: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Ways to place one block of ``size`` elements when free[i] cycles of
    length lengths[i] are untouched, keyed by the untouched counts left.

    The block picks u_i untouched cycles of each length (0 < sum u <= most),
    in prod C(free_i, u_i) ways, and a ``size``-subset of their union meeting
    every picked cycle.  ``most`` is ``size`` for separation and 1 for strong
    separation, which confines each block to one cycle.
    """
    out: dict[tuple[int, ...], int] = {}
    for picked in product(*(range(min(f, most) + 1) for f in free)):
        if not 0 < sum(picked) <= most:
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
def _block_states(cycle_sizes: Partition, block_sizes: Partition, strong: bool) -> tuple:
    """The block DP's states, {untouched cycles of each distinct length: ways}
    as items, once blocks of the given sizes are placed (``strong``: each in
    one cycle): the cached states of all blocks but the last, extended by
    the transitions of `_block_placements`.  Separation is exactly the rule
    that a touched cycle is never picked again."""
    lengths = tuple(sorted(set(cycle_sizes)))
    if not block_sizes:
        return ((tuple(map(cycle_sizes.count, lengths)), 1),)
    a, states = block_sizes[-1], {}
    for free, ways in _block_states(cycle_sizes, block_sizes[:-1], strong):
        for left, weight in _block_placements(lengths, free, a, 1 if strong else a):
            states[left] = states.get(left, 0) + ways * weight
    return tuple(states.items())


@lru_cache(maxsize=None)
def _separated_tuple_histogram(
    cycle_sizes: Partition, block_sizes: Partition, strong: bool = False
) -> tuple[tuple[int, int], ...]:
    """Block tuples with the given sizes separated (``strong``: strongly
    separated) by a permutation whose cycles have the given sizes, split by
    the number of untouched cycles (`_block_states`)."""
    out: dict[int, int] = {}
    for free, ways in _block_states(cycle_sizes, block_sizes, strong):
        out[sum(free)] = out.get(sum(free), 0) + ways
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# The query-path oracles


def oracle_separated_pair_count(lam: Iterable[int], alpha: Iterable[int]) -> int:
    """Separated pairs (pi in the class of lam, block tuple of sizes alpha),
    from the product-type tally of the class (`product_type_histogram`),
    cached on lam and the sorted sizes once the size limit is checked."""
    lam = as_partition(lam)
    alpha = as_composition(alpha, allow_empty=False)
    _check_size(sum(lam), PAIR_MAX_N)
    return _pair_count(lam, sorted_partition(alpha)) if sum(alpha) <= sum(lam) else 0


@lru_cache(maxsize=None)
def _pair_count(lam: Partition, blocks: Partition) -> int:
    hist = product_type_histogram(lam)
    return sum(c * w for tau, c in hist for _, w in _block_states(tau, blocks, False))


def __getattr__(name: str):
    # The connection oracle lives in `permsep.crosscheck`; the old import path
    # keeps working without loading that module with this one.
    if name == "oracle_connection_coefficient":
        from .crosscheck import oracle_connection_coefficient

        return oracle_connection_coefficient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
