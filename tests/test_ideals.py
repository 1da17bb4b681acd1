import types
from collections import Counter
from pathlib import Path

import pytest

from thinlab import ideals
from thinlab.groups import GroupDescriptor, mask_of, mask_translate
from thinlab.ideals import FiniteSets, SizeAtMost
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


@pytest.mark.parametrize(
    "group",
    [Z5, GroupDescriptor.boolean_power(3), GroupDescriptor((2, 4))],
    ids=["z5", "b3", "z2xz4"],
)
def test_size_at_most_axioms_exhaustive(group):
    """At every bound t, on every mask: membership is unchanged by every
    shift and holds on every submask of a member, and some two members
    have a union outside the family exactly when 1 <= t < |G|."""
    n = group.order
    masks = range(1 << n)
    translates = [[mask_translate(group, a, g) for g in range(n)] for a in masks]
    for t in range(n + 1):
        fam = SizeAtMost(group, t)
        for a in masks:
            assert all(fam.contains(b) == fam.contains(a) for b in translates[a])
        members = [a for a in masks if fam.contains(a)]
        for a in members:
            sub = a
            while sub:  # each proper submask of a, down to 0
                sub = (sub - 1) & a
                assert fam.contains(sub)
        escapes = any(not fam.contains(a | b) for a in members for b in members)
        assert escapes == (1 <= t < n)


def test_axioms_finite_sets(rng):
    """Over seeded pairs a, b, with a finite about half the time:
    membership is unchanged by translation, holds on a & b when it holds
    on a, and on a | b when it holds on both."""
    fam = FiniteSets()
    seen = Counter()
    for _ in range(300):
        k = rng.choice([0, 2])
        a = random_set(rng, max_geo=k, max_ap=k)
        b = random_set(rng)
        g = rng.randrange(-50, 51)
        assert fam.contains(a.translate(g)) == fam.contains(a)
        if fam.contains(a):
            seen["lower"] += 1
            assert fam.contains(a & b)
            if fam.contains(b):
                seen["additive"] += 1
                assert fam.contains(a | b)
    assert seen["lower"] > 100 and seen["additive"] > 10


def _names(code) -> set[str]:
    out = set(code.co_names) | set(code.co_varnames) | set(code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _names(const)
    return out


def test_families_use_no_sampling():
    """The families are exact predicates: no code in thinlab.ideals, nested
    code included, names `random` or `random_set`."""
    code = compile(Path(ideals.__file__).read_text(), ideals.__file__, "exec")
    names = _names(code)
    assert {"FiniteSets", "SizeAtMost", "bit_count"} <= names
    assert names.isdisjoint({"random", "random_set"})
