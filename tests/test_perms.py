"""Conjugacy classes as streams of image tuples (`oracles.class_images`) and
the canonical cycles the literal oracles read off a tuple.  A permutation is
its image tuple: ``images[i]`` is the image of i."""

import itertools

import pytest

from permsep import crosscheck as xc
from permsep.oracles import class_images
from permsep.partitions import (
    conjugacy_class_size,
    partitions,
    perfect_matching_count,
    sorted_partition,
)


def cycle_type(images):
    return sorted_partition(map(len, xc._cycles(images)))


def test_canonical_cycle_form():
    images = (0, 3, 2, 1, 5, 4)
    assert xc._cycles(images) == ((0,), (1, 3), (2,), (4, 5))
    assert cycle_type(images) == (2, 2, 1, 1)


def test_not_a_bijection_rejected():
    # a representative must be a permutation of range(n), checked before the
    # full cycles are enumerated
    for representative in [(0, 0, 2), (1, 0), (1, 0, 2, 3)]:
        xc._connection_histogram.cache_clear()
        with pytest.raises(ValueError, match=r"not a bijection of range\(3\)"):
            xc.oracle_connection_coefficient((3,), (2, 1), representative=representative)
        assert xc._connection_histogram.cache_info().misses == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_class_streams_have_class_size(n):
    for lam in partitions(n):
        members = list(class_images(lam))
        assert len(members) == conjugacy_class_size(lam)
        assert len(set(members)) == len(members)
        assert all(sorted(images) == list(range(n)) for images in members)
        assert all(cycle_type(images) == lam for images in members)


def test_class_stream_matches_filtered_scan():
    for n in range(1, 6):
        for lam in partitions(n):
            from_stream = set(class_images(lam))
            from_scan = {
                images
                for images in itertools.permutations(range(n))
                if cycle_type(images) == lam
            }
            assert from_stream == from_scan


def images_from_cycles(n, cycles):
    """The image tuple of the permutation with the given disjoint cycles."""
    images = list(range(n))
    for cycle in cycles:
        for i, x in enumerate(cycle):
            images[x] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def reference_class_stream(lam):
    """The documented class order, built cycle by cycle."""
    n = sum(lam)

    def build(elements, parts, acc):
        if not elements:
            yield images_from_cycles(n, acc)
            return
        head, rest = elements[0], elements[1:]
        for size in sorted(set(parts)):
            idx = parts.index(size)
            for tail in itertools.permutations(rest, size - 1):
                left = tuple(x for x in rest if x not in tail)
                yield from build(left, parts[:idx] + parts[idx + 1 :], acc + [(head,) + tail])

    return list(build(tuple(range(n)), lam, []))


@pytest.mark.parametrize("n", range(0, 8))
def test_class_images_follow_the_class_stream(n):
    for lam in partitions(n):
        images = list(class_images(lam))
        assert images == reference_class_stream(lam)
        assert len(images) == conjugacy_class_size(lam)


def _zero_cycle_length(images):
    length, x = 1, images[0]
    while x != 0:
        length, x = length + 1, images[x]
    return length


@pytest.mark.parametrize("n", range(1, 8))
def test_class_image_slices_filter_the_class_stream(n):
    for lam in partitions(n):
        stream = reference_class_stream(lam)
        for part in set(lam):
            want = [im for im in stream if _zero_cycle_length(im) == part]
            got = list(class_images(lam, first=part))
            assert got == want
            assert len(got) * n == conjugacy_class_size(lam) * part * lam.count(part)


def test_class_image_slice_needs_a_part():
    with pytest.raises(ValueError, match=r"first=2 is not a part of \(3, 1\)"):
        class_images((3, 1), first=2)


def _moves_every_point_at_least(images, part, least):
    """Whether every point of the part-length cycles moves >= least places up."""
    n = len(images)
    points = [x for cycle in xc._cycles(images) if len(cycle) == part for x in cycle]
    return all((images[x] - x) % n >= least for x in points)


@pytest.mark.parametrize("n", range(1, 8))
def test_class_image_least_slices_filter_the_class_stream(n):
    # least=c keeps the first=part members with pi(0) = c whose part-length
    # cycles move every point at least c places up, in stream order
    for lam in partitions(n):
        stream = reference_class_stream(lam)
        for part in set(lam):
            sliced = [im for im in stream if _zero_cycle_length(im) == part]
            for least in range(n):
                want = [
                    im for im in sliced
                    if im[0] == least and _moves_every_point_at_least(im, part, least)
                ]
                assert list(class_images(lam, first=part, least=least)) == want, (lam, part, least)


def test_class_image_least_slices_cover_each_member_once_per_least_point():
    # each member of (4, 2, 2) lies in the slice of its least 2-cycle step c,
    # once for every point of its 2-cycles that c moves
    lam, n = (4, 2, 2), 8
    got = sum(len(list(class_images(lam, first=2, least=c))) for c in range(n))
    ties = 0
    for im in class_images(lam):
        points = [x for cycle in xc._cycles(im) if len(cycle) == 2 for x in cycle]
        least = min((im[x] - x) % n for x in points)
        ties += sum((im[x] - x) % n == least for x in points)
    assert got * n == ties


def test_class_image_least_needs_a_part():
    with pytest.raises(ValueError, match=r"first=None is not a part of \(3, 1\)"):
        class_images((3, 1), least=1)


def test_class_images_construction_order():
    # smallest unplaced point starts a cycle, shorter cycles first, tails in
    # lexicographic order
    assert list(class_images((2, 1))) == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert list(class_images((3,))) == [(1, 2, 0), (2, 0, 1)]
    assert list(class_images(())) == [()]


@pytest.mark.parametrize("pairs", range(1, 6))
def test_fixed_point_free_involutions(pairs):
    members = list(class_images((2,) * pairs))
    assert len(members) == perfect_matching_count(pairs)
    assert len(set(members)) == len(members)
    assert all(cycle_type(images) == (2,) * pairs for images in members)
    # the smallest unpaired point is matched with each larger point in turn
    cycles = [xc._cycles(images) for images in members]
    assert cycles == sorted(cycles)


def test_streams_are_recreatable():
    assert list(class_images((3, 2))) == list(class_images((3, 2)))
