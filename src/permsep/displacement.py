"""The walk of a class with one distinct part by least displacement.

The displacement of a point x under pi is pi(x) - x mod n.  In a class whose
L-cycles cover every point, `oracles.product_type_histogram` gives each
member the weight 1/N at each of the N points whose displacement is the
least, c.  This module walks, for each c, only the members with pi(0) = c
and no step below c, building each L-cycle a step at a time, and tallies
them.  `permsep.oracles` imports it only for those classes, so no other
query compiles it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import permutations
from operator import eq
from typing import Callable, Iterable

from . import oracles
from .partitions import Partition


def cycle_tails(n: int, first: int, least: int) -> Callable[..., Iterable[tuple[int, ...]]]:
    """tails(head, rest, size): the tails of the cycles through ``head`` of
    length ``size`` over the points ``rest``, for `oracles.class_images` with
    ``first`` and ``least``.  A cycle of length ``first`` moves every point
    at least ``least`` places up and, through 0, moves 0 exactly that many;
    the tails of other cycles are all arrangements."""
    def spin(band):  # the bitmask of moves band, rotated to start at each x
        return [(band << x | band >> n - x) & (1 << n) - 1 for x in range(n)]

    # the points each x may step to (moves least..n-1), and step from
    fits, lands = spin((1 << n) - (1 << least)), spin((2 << n - least) - 2)
    fits[0] = 1 << least  # the step from 0 moves exactly `least`

    def steps(prev, avail, k, closes, path=()):
        # k-point tails from bitmask avail: each step fits, the last one closes
        options = avail & fits[prev] & (closes if k == 1 else -1)
        while options:
            bit = options & -options
            options ^= bit
            y = bit.bit_length() - 1
            if k > 1:
                yield from steps(y, avail ^ bit, k - 1, closes, path + (y,))
            else:
                yield path + (y,)

    def tails(head, rest, size):
        if size != first or least <= 1 and head:  # no step can fall short
            return permutations(rest, size - 1)
        if least == 1 < size:  # only pi(0) = 1 is fixed: stream the rest
            return map((1,).__add__, permutations(rest[1:], size - 2))
        if size == 1:  # the cycle (0) moves 0 by 0
            return [()][least:]
        return steps(head, sum(map((1).__lshift__, rest)), size - 1, lands[head])

    return tails


def least_displacement_weights(lam: Partition, first: int) -> tuple[int, Counter]:
    """(scale, weights) for a class whose ``first``-cycles cover every point:
    weights[tau] / scale is the sum of 1/N over the members of product type
    tau with pi(0) = c, c the least displacement and N the points it moves
    by c.  An L-cycle's displacements add up to at most (L - 1) * n, so
    L * c <= (L - 1) * n."""
    n = sum(lam)
    cycle_type, class_images = oracles._cycle_type, oracles.class_images
    tally: Counter = Counter()
    for least in range(1, (first - 1) * n // first + 1):
        moved = [(x + least) % n for x in range(n)]  # the images moving x by c
        tally.update([
            (cycle_type(images[1:] + images[:1]), sum(map(eq, images, moved)))
            for images in class_images(lam, first, least)
        ])
    scale, weights = math.lcm(*(ties for _, ties in tally)), Counter()
    for (tau, ties), count in tally.items():
        weights[tau] += count * scale // ties
    return scale, weights
