import random

import pytest

from thinlab.groups import GroupDescriptor, mask_of, mask_translate
from thinlab.ideals import FiniteSets, SizeAtMost, check_axioms
from thinlab.symbolic import ap, empty_set, finite_set, geo, random_set

Z5 = GroupDescriptor.cyclic(5)


def test_finite_sets_contains():
    fam = FiniteSets()
    assert fam.contains(finite_set([1, 2, 3]))
    assert not fam.contains(geo(2, 1, 0, 0))
    assert not fam.contains(ap(2, 0))
    assert fam.contains(empty_set())


def test_finite_sets_agrees_with_is_finite(rng):
    fam = FiniteSets()
    for _ in range(300):
        s = random_set(rng)
        assert fam.contains(s) == s.is_finite()


def test_finite_sets_rejects_masks():
    with pytest.raises(TypeError):
        FiniteSets().contains(0b101)


def test_size_at_most_contains():
    fam = SizeAtMost(Z5, 1)
    assert fam.contains(0)
    assert fam.contains(mask_of(Z5, [2]))
    assert not fam.contains(mask_of(Z5, [0, 3]))


def test_size_at_most_validation():
    with pytest.raises(ValueError):
        SizeAtMost(Z5, -1)
    fam = SizeAtMost(Z5, 1)
    with pytest.raises(TypeError):
        fam.contains(finite_set([1]))
    with pytest.raises(TypeError):
        fam.contains("0b101")
    with pytest.raises(ValueError):
        fam.contains(1 << 5)


def test_empty_always_member():
    assert FiniteSets().contains(empty_set())
    for t in range(0, 3):
        assert SizeAtMost(Z5, t).contains(0)


def test_left_invariance_exhaustive_z5():
    fam = SizeAtMost(Z5, 2)
    from thinlab.groups import mask_translate

    for mask in range(1 << 5):
        for g in range(5):
            assert fam.contains(mask) == fam.contains(mask_translate(Z5, mask, g))


def test_axioms_finite_sets():
    report = check_axioms(FiniteSets(), samples=200, rng=random.Random(1))
    assert report.left_invariant
    assert report.lower
    assert report.additive
    assert report.is_base_family
    assert report.witnesses == {}


def test_axioms_size_one_not_additive():
    report = check_axioms(SizeAtMost(Z5, 1), samples=200, rng=random.Random(2))
    assert report.left_invariant
    assert report.lower
    assert report.is_base_family
    assert not report.additive
    a, b = report.witnesses["additive"]
    # a pair of disjoint members whose union leaves the family
    fam = SizeAtMost(Z5, 1)
    assert fam.contains(a) and fam.contains(b)
    assert a & b == 0
    assert not fam.contains(a | b)


def test_axioms_size_zero_additive():
    report = check_axioms(SizeAtMost(Z5, 0), samples=200, rng=random.Random(3))
    assert report.left_invariant
    assert report.lower
    assert report.additive


def test_axioms_full_bound_additive():
    group = GroupDescriptor.boolean_power(2)
    report = check_axioms(
        SizeAtMost(group, group.order), samples=100, rng=random.Random(4)
    )
    assert report.additive


class _SubsetsOfZeroOne(SizeAtMost):
    """Lower but not left-invariant: the subsets of {0, 1} of Z/5."""

    def contains(self, a: int) -> bool:
        return a & ~0b11 == 0

    def _random_member(self, rng: random.Random) -> int:
        return rng.randrange(4)


class _NotOneElement(SizeAtMost):
    """Left-invariant but not lower: the subsets of Z/5 without exactly one
    element."""

    def contains(self, a: int) -> bool:
        return a.bit_count() != 1

    def _random_member(self, rng: random.Random) -> int:
        return mask_of(Z5, rng.sample(range(5), rng.choice([0, 2, 3, 4, 5])))


def test_axioms_report_a_family_that_is_not_left_invariant():
    fam = _SubsetsOfZeroOne(Z5, 2)
    report = check_axioms(fam, samples=200, rng=random.Random(5))
    assert not report.left_invariant and report.lower
    assert not report.is_base_family
    x, g = report.witnesses["left_invariant"]
    assert fam.contains(x) != fam.contains(mask_translate(Z5, x, g))


def test_axioms_report_a_family_that_is_not_lower():
    fam = _NotOneElement(Z5, 5)
    report = check_axioms(fam, samples=200, rng=random.Random(6))
    assert report.left_invariant and not report.lower
    assert not report.is_base_family
    a, b = report.witnesses["lower"]
    assert fam.contains(a) and not fam.contains(b)
    assert b & ~a == 0
