"""Exact symmetric-function coefficients: power sums vs monomial basis.

Only the two bases needed here are implemented.  A degree-n symmetric
function in the monomial basis is a plain mapping from partitions of n to
rationals, and `power_sum_coefficient` reads one power-sum coefficient off
it.  `transition_matrices(n)` returns the exact pair of transition matrices
between the bases as row tuples in `partitions(n)` order: expanding each
power sum into monomials gives an integer matrix that is lower triangular in
that reverse-lexicographic order (a linear extension of dominance), and its
inverse is obtained by exact forward substitution over Fractions.

The pair is cached in memory per degree.  Its cost grows with p(n)^2, so no
query path builds it: `permsep.formulas` counts separated pairs from a
closed form in the number of parts.  It is kept for verification only, as
the independent route behind criteria 6 and 10 and the small-n checks in the
tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InvariantError
from .partitions import Partition, as_partition, partitions, sorted_partition


def multiply_by_power_sum(coeffs: Mapping[Partition, int], k: int) -> dict[Partition, int]:
    """Multiply a monomial-basis expansion by the degree-k power sum.

    Uses the part-merging rule: for each index partition, either append a new
    part k (weight: multiplicity of k in the result) or grow one existing
    part value b to b + k (weight: multiplicity of b + k in the result).
    """
    result: dict[Partition, int] = {}
    for mu, c in coeffs.items():
        nu = sorted_partition(mu + (k,))
        result[nu] = result.get(nu, 0) + c * nu.count(k)
        for b in sorted(set(mu)):
            grown = list(mu)
            grown.remove(b)
            nu = sorted_partition(grown + [b + k])
            result[nu] = result.get(nu, 0) + c * nu.count(b + k)
    return {nu: c for nu, c in result.items() if c}


def expand_power_sum_in_monomials(lam: Iterable[int]) -> dict[Partition, int]:
    """Monomial-basis expansion of the power sum indexed by ``lam``.

    >>> expand_power_sum_in_monomials((1, 1))
    {(2,): 1, (1, 1): 2}
    """
    coeffs: dict[Partition, int] = {(): 1}
    for k in as_partition(lam):
        coeffs = multiply_by_power_sum(coeffs, k)
    return coeffs


def _invert_lower_triangular(rows: tuple[tuple[int, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    size = len(rows)
    inverse = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        inverse[i][i] = Fraction(1, rows[i][i])
        for j in range(i - 1, -1, -1):
            acc = Fraction(0)
            for k in range(j, i):
                acc += rows[i][k] * inverse[k][j]
            inverse[i][j] = -acc / rows[i][i]
    return tuple(tuple(row) for row in inverse)


@lru_cache(maxsize=None)
def transition_matrices(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[Fraction, ...], ...]]:
    """The exact pair (power_to_monomial, monomial_to_power) at degree ``n``
    (cached in memory).

    Rows and columns follow `partitions(n)`.  Row i of ``power_to_monomial``
    expands the power sum of the i-th partition over monomials (integer
    entries, lower triangular); row i of ``monomial_to_power`` expands the
    i-th monomial function over power sums (Fraction entries).  The two
    matrices are exact inverses.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    index = partitions(n)
    position = {lam: i for i, lam in enumerate(index)}
    rows = []
    for i, lam in enumerate(index):
        row = [0] * len(index)
        for mu, c in expand_power_sum_in_monomials(lam).items():
            row[position[mu]] = c
        if any(row[i + 1:]):
            raise InvariantError(f"power/monomial matrix not triangular at degree {n}")
        rows.append(tuple(row))
    power_to_monomial = tuple(rows)
    return power_to_monomial, _invert_lower_triangular(power_to_monomial)


def power_sum_coefficient(
    coeffs: Mapping[Partition, Fraction], lam: Iterable[int]
) -> Fraction:
    """Power-sum coefficient of ``lam`` in the symmetric function with
    monomial expansion ``coeffs`` ({partition: coefficient}), whose keys must
    all be partitions of the size of ``lam``."""
    lam = as_partition(lam)
    n = sum(lam)
    position = {mu: i for i, mu in enumerate(partitions(n))}
    inverse = transition_matrices(n)[1]
    col = position[lam]
    total = Fraction(0)
    for mu, c in coeffs.items():
        if mu not in position:
            raise ValueError(f"index {tuple(mu)} is not a partition of {n}")
        total += c * inverse[position[mu]][col]
    return total
