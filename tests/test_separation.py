"""Block tuples and the separation predicate the literal oracles of
`permsep.crosscheck` apply to the canonical cycles of a product: the blocks
each cycle meets (`_blocks_met`), and whether those counts separate
(`_separates`)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep import crosscheck as xc
from permsep.formulas import pair_space
from permsep.verification import all_compositions

IDENTITY_3 = ((0,), (1,), (2,))


def blocks(*sets):
    return tuple(frozenset(s) for s in sets)


def is_separated(cycles, tup, strong=False):
    return xc._separates(xc._blocks_met(cycles, tup), tup, strong)


def unmarked_cycle_count(cycles, tup):
    return xc._blocks_met(cycles, tup).count(0)


def test_is_separated_examples():
    assert is_separated(((0,), (1, 2)), blocks({0}, {1}))
    assert not is_separated(((0, 1, 2),), blocks({0}, {1}))
    # a single block never mixes
    for images in itertools.permutations(range(4)):
        assert is_separated(xc._cycles(images), blocks({0, 2}))


def test_separation_invariant_under_block_order():
    cycles = ((0, 1), (2,), (3, 4))
    tuple_a = blocks({0}, {2}, {3, 4})
    for order in itertools.permutations(tuple_a):
        assert is_separated(cycles, order) == is_separated(cycles, tuple_a)


@settings(max_examples=30)
@given(st.permutations(range(6)), st.data())
def test_separation_block_order_property(images, data):
    cycles = xc._cycles(images)
    pool = list(range(6))
    a = frozenset(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=2)))
    rest = [x for x in pool if x not in a]
    b = frozenset(data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2)))
    assert is_separated(cycles, (a, b)) == is_separated(cycles, (b, a))


def test_unmarked_cycle_count_examples():
    cycles = ((0,), (1, 3), (2,))
    assert unmarked_cycle_count(cycles, blocks({0}, {1})) == 1  # only the cycle {2}
    assert unmarked_cycle_count(IDENTITY_3, blocks({0})) == 2
    assert unmarked_cycle_count(IDENTITY_3, blocks({0}, {1}, {2})) == 0


def test_unmarked_plus_marked_is_total():
    for images in itertools.permutations(range(5)):
        cycles = xc._cycles(images)
        for tup in [blocks({0}, {1}), blocks({0, 1}, {4}), blocks({2, 3, 4})]:
            marked = set().union(*tup)
            meeting = sum(1 for cycle in cycles if marked.intersection(cycle))
            assert unmarked_cycle_count(cycles, tup) + meeting == len(cycles)


def test_block_validation():
    with pytest.raises(ValueError):
        is_separated(IDENTITY_3, blocks({0}, {0}))  # not disjoint
    with pytest.raises(ValueError):
        is_separated(IDENTITY_3, blocks(set()))  # empty block
    with pytest.raises(ValueError):
        is_separated(IDENTITY_3, blocks({5}))  # out of range


def test_block_tuple_stream_counts():
    assert len(list(xc.disjoint_block_tuples(3, (1, 1)))) == 6
    for n in range(6):
        for alpha in all_compositions(n):
            if not alpha:
                continue
            stream = list(xc.disjoint_block_tuples(n, alpha))
            assert len(stream) == pair_space(n, alpha, 1)
            assert len(set(stream)) == len(stream)
            for tup in stream:
                assert tuple(len(b) for b in tup) == alpha


def test_block_tuple_stream_deterministic():
    assert list(xc.disjoint_block_tuples(4, (2, 1))) == list(xc.disjoint_block_tuples(4, (2, 1)))


def test_strong_separation_examples():
    cycles = ((0,), (1, 2))
    assert is_separated(cycles, blocks({1, 2}), strong=True)
    assert is_separated(cycles, blocks({0}, {1, 2}), strong=True)
    assert not is_separated(cycles, blocks({0, 1}), strong=True)
    # strongly separated implies separated; blocks split over cycles are only weak
    assert is_separated(IDENTITY_3, blocks({0, 1}))
    assert not is_separated(IDENTITY_3, blocks({0, 1}), strong=True)
