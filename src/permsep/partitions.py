"""Integer partitions, compositions, and exact elementary counts.

Conventions used throughout the package:

- A *partition* is a tuple of weakly decreasing positive ints, e.g. ``(3, 1, 1)``.
- A *composition* is a tuple of positive ints where the order matters.
- The empty tuple ``()`` is the unique partition (and composition) of 0.
- Counts are exact Python ints; ratios of counts are ``fractions.Fraction``.
  No floats appear in any computation path.

Every enumeration here has a fixed, documented order, so the tables and
matrices indexed by partitions list their rows the same way on every run.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate and return ``parts`` as a partition tuple.

    Raises ValueError unless the parts are positive and weakly decreasing.
    """
    result = tuple(parts)
    for i, p in enumerate(result):
        if p < 1:
            raise ValueError(f"partition parts must be positive, got {result}")
        if i > 0 and result[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {result}")
    return result


def sorted_partition(parts: Iterable[int]) -> Partition:
    """Sort arbitrary positive parts into canonical (weakly decreasing) form."""
    return as_partition(sorted(parts, reverse=True))


def as_composition(parts: Iterable[int], allow_empty: bool = True) -> Composition:
    """Validate and return ``parts`` as a composition tuple (order preserved)."""
    result = tuple(parts)
    if any(p < 1 for p in result):
        raise ValueError(f"composition parts must be positive, got {result}")
    if not result and not allow_empty:
        raise ValueError("empty composition not allowed here")
    return result


_partition_lists: dict[int, tuple[Partition, ...]] = {}


def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in reverse-lexicographic order, as one tuple
    built on the first call and returned again on every later call with n.

    The order starts at ``(n,)`` and ends at ``(1, ..., 1)``; it is a linear
    extension of dominance order (larger in dominance comes earlier).

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n in _partition_lists:
        return _partition_lists[n]
    found = []
    part = [n] if n else []
    while True:
        found.append(tuple(part))
        i = len(part) - 1
        while i >= 0 and part[i] == 1:
            i -= 1
        if i < 0:
            break
        part[i] -= 1
        rem = n - sum(part[: i + 1])
        del part[i + 1 :]
        while rem > 0:
            nxt = min(part[-1], rem)
            part.append(nxt)
            rem -= nxt
    _partition_lists[n] = found = tuple(found)
    return found


def compositions(total: int, length: int) -> Iterator[Composition]:
    """All compositions of ``total`` into exactly ``length`` positive parts.

    Lexicographic order: ``(1, 1, 2)`` before ``(1, 2, 1)`` before ``(2, 1, 1)``.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - length + 2):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


def centralizer_order(partition: Iterable[int]) -> int:
    """Order of the centralizer of a permutation with the given cycle type.

    For a cycle type with n_i parts equal to i this is prod_i i^(n_i) * n_i!,
    so the conjugacy class size is n! divided by this value.
    """
    lam = sorted_partition(partition)
    result = 1
    for size, mult in Counter(lam).items():
        result *= size**mult * math.factorial(mult)
    return result


def conjugacy_class_size(partition: Iterable[int]) -> int:
    """Number of permutations of the given cycle type."""
    lam = sorted_partition(partition)
    return math.factorial(sum(lam)) // centralizer_order(lam)


def binomial(x: int, r: int) -> int:
    """Binomial coefficient with arbitrary integer upper argument.

    Equals x(x-1)...(x-r+1) / r!, so negative ``x`` is fine:

    >>> binomial(5, 2), binomial(-1, 3), binomial(-2, 3)
    (10, -1, -4)

    Returns 0 for r < 0. The value is always an exact int.
    """
    if r < 0:
        return 0
    if x >= 0:
        return math.comb(x, r)
    return (-1) ** r * math.comb(r - x - 1, r)


def multinomial(counts: Iterable[int]) -> int:
    """Multinomial coefficient (sum counts)! / prod(counts!)."""
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"multinomial needs nonnegative counts, got {counts}")
    result = math.factorial(sum(counts))
    for c in counts:
        result //= math.factorial(c)
    return result


_stirling_rows: list[tuple[int, ...]] = [(1,)]


def stirling_first_unsigned(n: int, p: int) -> int:
    """Signless Stirling number of the first kind.

    Counts permutations of an n-set with exactly p cycles; equivalently the
    coefficient of x^p in x(x+1)...(x+n-1).  Zero outside 0 <= p <= n (except
    the empty case, which gives 1 at n = p = 0).  Row m is built from row
    m - 1 as c(m, j) = c(m-1, j-1) + (m-1) c(m-1, j), once per process.
    """
    if n < 0 or p < 0:
        return 0
    for m in range(len(_stirling_rows), n + 1):
        prev = _stirling_rows[-1]
        _stirling_rows.append(tuple(a + (m - 1) * b for a, b in zip((0,) + prev, prev + (0,))))
    row = _stirling_rows[n]
    return row[p] if p < len(row) else 0


def perfect_matching_count(pairs: int) -> int:
    """(2N - 1)!! — the number of ways to pair up 2N points."""
    return math.prod(range(1, 2 * pairs, 2))

