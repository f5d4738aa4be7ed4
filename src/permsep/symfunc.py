"""Exact symmetric-function coefficients: power sums vs monomial basis.

Only the two bases needed here are implemented.  A degree-n symmetric
function in the monomial basis is a plain mapping from partitions of n to
rationals, and `power_sum_coefficient` reads one power-sum coefficient off
it.  The transition matrices between the bases are computed exactly:
expanding each power sum into monomials gives an integer matrix that is
lower triangular in the reverse-lexicographic partition order (a linear
extension of dominance), and its inverse is obtained by exact forward
substitution over Fractions.

Matrices are cached in memory per degree.  Their cost grows with p(n)^2,
so no query path builds them: `permsep.formulas` counts separated pairs
from a closed form in the number of parts.  They are kept for verification
only, as the independent route behind criteria 6 and 10 and the small-n
checks in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

from .errors import InvariantError
from .partitions import (
    Partition,
    as_partition,
    partitions,
    sorted_partition,
)


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


class TransitionMatrices(NamedTuple):
    """Exact transition matrices between power sums and monomials at one degree.

    Partitions are indexed in reverse-lexicographic order (`partitions`).
    Row i of ``power_to_monomial`` expands the power sum of the i-th partition
    over monomials (integer entries, lower triangular); row i of
    ``monomial_to_power`` expands the i-th monomial function over power sums
    (Fraction entries).  The two matrices are exact inverses.
    """

    degree: int
    index: tuple[Partition, ...]
    power_to_monomial: tuple[tuple[int, ...], ...]
    monomial_to_power: tuple[tuple[Fraction, ...], ...]

    def position(self, lam: Iterable[int]) -> int:
        return self.index.index(as_partition(lam))


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
def transition_matrices(n: int) -> TransitionMatrices:
    """The exact transition-matrix pair for degree ``n`` (cached in memory)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    index = partitions(n)
    position = {lam: i for i, lam in enumerate(index)}
    raw = []
    for lam in index:
        expansion = expand_power_sum_in_monomials(lam)
        row = [0] * len(index)
        for mu, c in expansion.items():
            row[position[mu]] = c
        raw.append(tuple(row))
    rows = tuple(raw)
    for i, row in enumerate(rows):
        if any(row[j] for j in range(i + 1, len(index))):
            raise InvariantError(f"power/monomial matrix not triangular at degree {n}")
    return TransitionMatrices(
        degree=n,
        index=index,
        power_to_monomial=rows,
        monomial_to_power=_invert_lower_triangular(rows),
    )


def power_sum_coefficient(
    coeffs: Mapping[Partition, Fraction], lam: Iterable[int]
) -> Fraction:
    """Power-sum coefficient of ``lam`` in the symmetric function with
    monomial expansion ``coeffs`` ({partition: coefficient}), whose keys must
    all have the size of ``lam``."""
    lam = as_partition(lam)
    n = sum(lam)
    tm = transition_matrices(n)
    col = tm.position(lam)
    total = Fraction(0)
    for mu, c in coeffs.items():
        if sum(mu) != n:
            raise ValueError(f"index {tuple(mu)} does not have size {n}")
        total += c * tm.monomial_to_power[tm.position(mu)][col]
    return total


def involution_length_power_coefficient(pairs: int, surplus: int) -> Fraction:
    """Coefficient of the all-twos power sum in the length-filtered monomial sum.

    The sum of the monomial functions over the partitions of 2*pairs with
    exactly pairs + surplus parts, read off the transition matrix.  Criterion
    10 checks it against the closed form
    (-1)^surplus / (2^surplus * surplus! * (pairs - surplus)!).
    """
    if not 0 <= surplus <= pairs:
        raise ValueError("need 0 <= surplus <= pairs")
    n = 2 * pairs
    tm = transition_matrices(n)
    col = tm.position((2,) * pairs)
    computed = Fraction(0)
    for i, mu in enumerate(tm.index):
        if len(mu) == pairs + surplus:
            computed += tm.monomial_to_power[i][col]
    return computed


def cycle_count_power_coefficient(n: int, cycle_count: int, length: int) -> Fraction:
    """Sum of power-sum coefficients over fixed cycle count, of a length-filtered monomial sum.

    Computes sum over partitions mu of n with ``cycle_count`` parts of the
    coefficient of p_mu in (sum of m_lam over partitions lam of n with
    ``length`` parts).  Criterion 10 checks it against the closed form
    binomial(n-1, length-1) * (-1)^(length - cycle_count) * c(length, cycle_count) / length!.
    """
    if not (1 <= cycle_count <= n and 1 <= length <= n):
        raise ValueError("need 1 <= cycle_count, length <= n")
    tm = transition_matrices(n)
    computed = Fraction(0)
    for i, lam in enumerate(tm.index):
        if len(lam) != length:
            continue
        row = tm.monomial_to_power[i]
        for j, mu in enumerate(tm.index):
            if len(mu) == cycle_count:
                computed += row[j]
    return computed
