import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep.formulas import pair_space
from permsep.perms import Permutation
from permsep.separation import (
    disjoint_block_tuples,
    is_separated,
    is_strongly_separated,
    unmarked_cycle_count,
)
from permsep.verification import all_compositions


def blocks(*sets):
    return tuple(frozenset(s) for s in sets)


def test_is_separated_examples():
    sigma = Permutation.from_cycles(3, [(0,), (1, 2)])
    assert is_separated(sigma, blocks({0}, {1}))
    assert not is_separated(Permutation.from_cycles(3, [(0, 1, 2)]), blocks({0}, {1}))
    # a single block never mixes
    for images in itertools.permutations(range(4)):
        assert is_separated(Permutation(images), blocks({0, 2}))


def test_separation_invariant_under_block_order():
    sigma = Permutation.from_cycles(5, [(0, 1), (2,), (3, 4)])
    tuple_a = blocks({0}, {2}, {3, 4})
    for order in itertools.permutations(tuple_a):
        assert is_separated(sigma, order) == is_separated(sigma, tuple_a)


@settings(max_examples=30)
@given(st.permutations(range(6)), st.data())
def test_separation_block_order_property(images, data):
    sigma = Permutation(images)
    pool = list(range(6))
    a = frozenset(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=2)))
    rest = [x for x in pool if x not in a]
    b = frozenset(data.draw(st.sets(st.sampled_from(rest), min_size=1, max_size=2)))
    assert is_separated(sigma, (a, b)) == is_separated(sigma, (b, a))


def test_unmarked_cycle_count_examples():
    sigma = Permutation.from_cycles(4, [(0,), (2,), (1, 3)])
    assert unmarked_cycle_count(sigma, blocks({0}, {1})) == 1  # only the cycle {2}
    ident = Permutation.identity(3)
    assert unmarked_cycle_count(ident, blocks({0})) == 2
    assert unmarked_cycle_count(ident, blocks({0}, {1}, {2})) == 0


def test_unmarked_plus_marked_is_total():
    for images in itertools.permutations(range(5)):
        sigma = Permutation(images)
        for tup in [blocks({0}, {1}), blocks({0, 1}, {4}), blocks({2, 3, 4})]:
            marked = set().union(*tup)
            meeting = sum(
                1 for cycle in sigma.cycles() if marked.intersection(cycle)
            )
            assert unmarked_cycle_count(sigma, tup) + meeting == sigma.cycle_count()


def test_block_validation():
    sigma = Permutation.identity(3)
    with pytest.raises(ValueError):
        is_separated(sigma, blocks({0}, {0}))  # not disjoint
    with pytest.raises(ValueError):
        is_separated(sigma, blocks(set()))  # empty block
    with pytest.raises(ValueError):
        is_separated(sigma, blocks({5}))  # out of range


def test_block_tuple_stream_counts():
    assert len(list(disjoint_block_tuples(3, (1, 1)))) == 6
    for n in range(6):
        for alpha in all_compositions(n):
            if not alpha:
                continue
            stream = list(disjoint_block_tuples(n, alpha))
            assert len(stream) == pair_space(n, alpha, 1)
            assert len(set(stream)) == len(stream)
            for tup in stream:
                assert tuple(len(b) for b in tup) == alpha


def test_block_tuple_stream_deterministic():
    assert list(disjoint_block_tuples(4, (2, 1))) == list(disjoint_block_tuples(4, (2, 1)))


def test_strong_separation_examples():
    sigma = Permutation.from_cycles(3, [(0,), (1, 2)])
    assert is_strongly_separated(sigma, blocks({1, 2}))
    assert is_strongly_separated(sigma, blocks({0}, {1, 2}))
    assert not is_strongly_separated(sigma, blocks({0, 1}))
    # strongly separated implies separated; blocks split over cycles are only weak
    ident = Permutation.identity(3)
    assert is_separated(ident, blocks({0, 1}))
    assert not is_strongly_separated(ident, blocks({0, 1}))
