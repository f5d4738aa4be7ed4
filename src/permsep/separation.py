"""Block tuples on {0, ..., n-1} and the separation predicates.

A *block tuple* is an ordered tuple of pairwise disjoint nonempty subsets
(frozensets) of the ground set.  A permutation is *separated* with respect to
a block tuple when no cycle touches more than one block; it is *strongly
separated* when additionally each block sits inside a single cycle.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from .partitions import Composition, as_composition
from .perms import Permutation

BlockTuple = tuple[frozenset[int], ...]


def validate_blocks(n: int, blocks: Sequence[frozenset[int]]) -> None:
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise ValueError("blocks must be nonempty")
        for x in block:
            if not 0 <= x < n:
                raise ValueError(f"block element {x} outside range({n})")
            if x in seen:
                raise ValueError("blocks must be pairwise disjoint")
            seen.add(x)


def disjoint_block_tuples(n: int, sizes: Iterable[int]) -> Iterator[BlockTuple]:
    """All ordered tuples of disjoint blocks with the given sizes.

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


def is_separated(perm: Permutation, blocks: Sequence[frozenset[int]]) -> bool:
    """True if no cycle of ``perm`` meets more than one block."""
    validate_blocks(perm.degree, blocks)
    owner = {x: i for i, block in enumerate(blocks) for x in block}
    for cycle in perm.cycles():
        touched = {owner[x] for x in cycle if x in owner}
        if len(touched) > 1:
            return False
    return True


def is_strongly_separated(perm: Permutation, blocks: Sequence[frozenset[int]]) -> bool:
    """True if each block lies inside a single cycle, distinct cycles per block."""
    validate_blocks(perm.degree, blocks)
    cycle_of = {}
    for i, cycle in enumerate(perm.cycles()):
        for x in cycle:
            cycle_of[x] = i
    used: set[int] = set()
    for block in blocks:
        homes = {cycle_of[x] for x in block}
        if len(homes) != 1:
            return False
        home = homes.pop()
        if home in used:
            return False
        used.add(home)
    return True


def unmarked_cycle_count(perm: Permutation, blocks: Sequence[frozenset[int]]) -> int:
    """Number of cycles of ``perm`` containing no element of any block."""
    validate_blocks(perm.degree, blocks)
    marked = set().union(*blocks) if blocks else set()
    return sum(1 for cycle in perm.cycles() if not marked.intersection(cycle))
