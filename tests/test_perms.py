import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsep.oracles import class_images
from permsep.partitions import conjugacy_class_size, partitions, perfect_matching_count
from permsep.perms import (
    Permutation,
    compose,
    fixed_point_free_involutions,
    permutations_of_type,
)


def perm_from_one_based_cycles(n, cycles):
    return Permutation.from_cycles(n, [[x - 1 for x in c] for c in cycles])


def test_compose_right_factor_first():
    # (1 2) after the 3-cycle 1->2->3->1, one-based
    pi = perm_from_one_based_cycles(3, [(1, 2)])
    rho = perm_from_one_based_cycles(3, [(1, 2, 3)])
    sigma = compose(pi, rho)
    assert sigma.cycles() == ((0,), (1, 2))  # fixes 1, swaps 2 and 3 (one-based)

    inv = perm_from_one_based_cycles(3, [(1, 3, 2)])
    assert compose(inv, rho) == Permutation.identity(3)


def test_compose_identity_neutral():
    rho = perm_from_one_based_cycles(4, [(1, 3), (2, 4)])
    ident = Permutation.identity(4)
    assert compose(ident, rho) == rho
    assert compose(rho, ident) == rho


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(3), Permutation.identity(4))


@settings(max_examples=40)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 3)))
def test_compose_associative(triple):
    p, q, r = (Permutation(t) for t in triple)
    assert (p * q) * r == p * (q * r)


def test_full_cycle():
    omega = Permutation.full_cycle(4)
    assert omega.images == (1, 2, 3, 0)
    assert omega.cycle_type() == (4,)


def test_canonical_cycle_form():
    perm = Permutation((0, 3, 2, 1, 5, 4))
    assert perm.cycles() == ((0,), (1, 3), (2,), (4, 5))
    assert perm.cycle_type() == (2, 2, 1, 1)


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_class_streams_have_class_size(n):
    for lam in partitions(n):
        members = list(permutations_of_type(lam))
        assert len(members) == conjugacy_class_size(lam)
        assert len(set(members)) == len(members)
        assert all(p.cycle_type() == lam for p in members)


def test_class_stream_matches_filtered_scan():
    for n in range(1, 6):
        for lam in partitions(n):
            from_stream = {p.images for p in permutations_of_type(lam)}
            from_scan = {
                images
                for images in itertools.permutations(range(n))
                if Permutation(images).cycle_type() == lam
            }
            assert from_stream == from_scan


def reference_class_stream(lam):
    """The documented class order, built cycle by cycle with from_cycles."""
    n = sum(lam)

    def build(elements, parts, acc):
        if not elements:
            yield Permutation.from_cycles(n, acc).images
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
        assert images == [p.images for p in permutations_of_type(lam)]
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


def test_class_images_construction_order():
    # smallest unplaced point starts a cycle, shorter cycles first, tails in
    # lexicographic order
    assert list(class_images((2, 1))) == [(0, 2, 1), (1, 0, 2), (2, 1, 0)]
    assert list(class_images((3,))) == [(1, 2, 0), (2, 0, 1)]
    assert list(class_images(())) == [()]


@pytest.mark.parametrize("pairs", range(1, 6))
def test_fixed_point_free_involutions(pairs):
    members = list(fixed_point_free_involutions(pairs))
    assert len(members) == perfect_matching_count(pairs)
    assert len(set(members)) == len(members)
    assert all(p.cycle_type() == (2,) * pairs for p in members)
    # the smallest unpaired point is matched with each larger point in turn
    assert [p.cycles() for p in members] == sorted(p.cycles() for p in members)


def test_inverse():
    for images in itertools.permutations(range(4)):
        p = Permutation(images)
        assert p * p.inverse() == Permutation.identity(4)


def test_streams_are_recreatable():
    first = [p.images for p in permutations_of_type((3, 2))]
    second = [p.images for p in permutations_of_type((3, 2))]
    assert first == second
