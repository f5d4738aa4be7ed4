"""A seeded Monte Carlo check of separation probabilities beyond exact reach.

Each sample draws pi uniform of cycle type lam and omega a uniform full cycle
from one seeded `random.Random`, and tests the fixed blocks {0..alpha_1-1},
{alpha_1..alpha_1+alpha_2-1}, ... on the cycles of pi omega.  By conjugation
invariance every fixed block tuple has the probability the formulas give, so
the estimate shares nothing with them but the definition of separation.

The seed is fixed, so the test is deterministic.  The bound is five standard
errors, which is 16% to 34% of p in the cases below (0.088 at p = 1/2 with
800 samples, 0.034 at p = 1/10 with 2,000).  So the test catches a value
that is wrong by a large fraction: a wrong normalization, such as the
printed involution form, or the value of another block profile.  It does
not catch an error of a few percent or a slip in a small term; the exact
checks of the other test modules cover those.
"""

import math
import random

import pytest

from permsep import (
    add_fixed_points_probability,
    separation_probability,
    separation_probability_involution,
)


def _successors(lam):
    """The position of the image of each position when a list of points is cut
    into consecutive cycles of lengths lam."""
    positions, start = [], 0
    for part in lam:
        positions += range(start + 1, start + part)
        positions.append(start)
        start += part
    return positions


def sampled_probability(lam, alpha, samples, seed):
    """The share of ``samples`` draws of (pi of type lam, full cycle omega)
    whose product pi omega separates the fixed blocks of sizes alpha."""
    rng = random.Random(seed)
    n = sum(lam)
    block, start = {}, 0
    for i, size in enumerate(alpha):
        block.update(dict.fromkeys(range(start, start + size), i))
        start += size
    pi_next, omega_next = _successors(lam), _successors((n,))
    points = list(range(n))
    separated = 0
    for _ in range(samples):
        rng.shuffle(points)
        pi = dict(zip(points, map(points.__getitem__, pi_next)))
        rng.shuffle(points)
        # omega sends points[j] to points[omega_next[j]], so pi omega sends
        # points[j] to pi(points[omega_next[j]])
        product = dict(zip(points, map(pi.__getitem__, map(points.__getitem__, omega_next))))
        seen = set()
        for x, own in block.items():
            if x in seen:
                continue  # its cycle was walked from an earlier point of its block
            y = product[x]
            while y != x and block.get(y, own) == own:
                seen.add(y)
                y = product[y]
            if y != x:
                break  # the cycle through x meets another block
        else:
            separated += 1
    return separated / samples


@pytest.mark.parametrize(
    "query, args, lam, samples",
    [
        (separation_probability, ((400, 300, 200, 100), (1, 1)), (400, 300, 200, 100), 800),
        (separation_probability, ((90, 60, 30, 20), (3, 2)), (90, 60, 30, 20), 2000),
        (add_fixed_points_probability, ((60, 40), 50, (2, 1)), (60, 40) + (1,) * 50, 2000),
        (separation_probability_involution, (100, (1, 1, 1)), (2,) * 100, 2000),
    ],
    ids=["n=1000", "n=200", "lift n=150", "involution n=200"],
)
def test_sampled_probability_within_five_sigma(query, args, lam, samples):
    alpha = args[-1]
    p = float(query(*args).probability)
    assert p >= 0.05
    estimate = sampled_probability(lam, alpha, samples, seed=sum(lam) + len(alpha))
    sigma = math.sqrt(p * (1 - p) / samples)
    assert abs(estimate - p) <= 5 * sigma, (estimate, p, sigma)
