import random

import pytest

from thinlab.engine import CycleWitness, Engine, FiniteGroupUniverse
from thinlab.groups import (
    GroupDescriptor,
    check_mask,
    mask_elements,
    mask_of,
    mask_orbit,
    mask_translate,
)
from thinlab.ideals import SizeAtMost

Z5 = GroupDescriptor.cyclic(5)
B3 = GroupDescriptor.boolean_power(3)
# Products whose elements have mixed orders
PRODUCTS = [
    GroupDescriptor(m) for m in ((2, 4), (4, 2), (3, 3), (2, 6), (2, 2, 3), (3, 2, 2), (2, 3, 2))
]
SMALL_GROUPS = (
    [GroupDescriptor.cyclic(n) for n in range(2, 11)]
    # (Z/2)^1 is the group Z/2 again; its own id keeps the Z/2 case's id unique
    + [pytest.param(GroupDescriptor.boolean_power(1), id="(Z/2)^1")]
    + [GroupDescriptor.boolean_power(d) for d in range(2, 4)]
    + PRODUCTS
)


def test_descriptor_orders():
    assert GroupDescriptor.cyclic(7).order == 7
    assert GroupDescriptor.boolean_power(4).order == 16
    assert GroupDescriptor((2, 2, 3)).order == 12


def test_descriptor_names_and_equality():
    """Z/n for one factor, (Z/2)^d for d >= 2 factors of 2, otherwise the
    factors joined by x; (Z/2)^1 is Z/2."""
    assert GroupDescriptor.cyclic(12).describe() == "Z/12"
    assert GroupDescriptor.boolean_power(3).describe() == "(Z/2)^3"
    assert GroupDescriptor((2, 4)).describe() == "Z/2 x Z/4"
    assert GroupDescriptor((2, 2, 3)).describe() == "Z/2 x Z/2 x Z/3"
    assert GroupDescriptor.boolean_power(1) == GroupDescriptor.cyclic(2)
    assert GroupDescriptor.boolean_power(1).describe() == "Z/2"
    assert GroupDescriptor((2, 2)) == GroupDescriptor.boolean_power(2)


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor.cyclic(1)
    with pytest.raises(ValueError):
        GroupDescriptor.boolean_power(0)
    with pytest.raises(ValueError):
        GroupDescriptor("weird")
    with pytest.raises(ValueError, match=r"^cyclic group needs modulus >= 2, got -<20001-bit int>$"):
        GroupDescriptor.cyclic(-(1 << 20000))
    with pytest.raises(ValueError, match=r"^boolean power needs exponent <= 24, got <20001-bit int>$"):
        GroupDescriptor.boolean_power(1 << 20000)


@pytest.mark.parametrize("moduli, text", [
    ("weird", "'weird'"),
    ((-(1 << 20000),), "(-<20001-bit int>,)"),
    ((-(10**4000),), "(-10000000000000000...0000000000000000000,)"),
    (("x" * 10**6,), "('xxxxxxxxxxxx...xxxxxxxxxxxxx',)"),
    (tuple(range(10**5)), "(0, 1, 2, 3, 4, 5, ...)"),
], ids=["string", "huge_int", "long_int", "long_string", "long_tuple"])
def test_unknown_kind_names_the_moduli_in_a_short_message(moduli, text):
    """An int str() refuses is named by its bit length, and every other
    value is cut short, so the message stays under 200 characters."""
    with pytest.raises(ValueError) as info:
        GroupDescriptor(moduli)
    assert str(info.value) == f"unknown group kind {text}"


def test_describe_names_a_huge_modulus_by_bit_length():
    assert GroupDescriptor((1 << 20000,)).describe() == "Z/<20001-bit int>"
    assert GroupDescriptor((3, 1 << 20000)).describe() == "Z/3 x Z/<20001-bit int>"


def test_op_examples():
    assert Z5.op(3, 4) == 2
    # (Z/2)^3: 101 xor 011 = 110
    assert B3.op(0b101, 0b011) == 0b110
    # Z/2 x Z/4, digit 0 first: (1,0) + (1,2) = (0,2) and (1,1) + (1,3) = (0,0)
    z2z4 = GroupDescriptor((2, 4))
    assert z2z4.op(1, 5) == 4
    assert z2z4.op(3, 7) == 0


def test_element_range_enforced():
    with pytest.raises(ValueError):
        Z5.op(5, 0)
    with pytest.raises(ValueError):
        B3.op(0, 8)
    with pytest.raises(ValueError):
        Z5.op(-1, 2)
    # an int too long for str() is named by its bit length
    with pytest.raises(ValueError, match=r"^element <20001-bit int> not in Z/5$"):
        Z5.op(1 << 20000, 0)
    with pytest.raises(ValueError, match=r"^mask -<20001-bit int> out of range for \(Z/2\)\^3$"):
        check_mask(B3, -(1 << 20000))


def test_enumeration_deterministic():
    assert list(range(GroupDescriptor.cyclic(3).order)) == [0, 1, 2]
    assert list(range(GroupDescriptor.boolean_power(2).order)) == [0, 1, 2, 3]
    assert list(range(GroupDescriptor.cyclic(2).order)) == [0, 1]
    assert list(Z5.nonidentity()) == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "group",
    [Z5, GroupDescriptor.cyclic(9), B3, GroupDescriptor.boolean_power(5)]
    + [GroupDescriptor(m) for m in ((2, 4), (3, 2, 2), (4, 6))],
    ids=lambda g: g.describe(),
)
def test_group_axioms_random_triples(group, rng):
    def pick():
        return rng.randrange(group.order)

    e = group.identity
    for _ in range(1000):
        a, b, c = pick(), pick(), pick()
        assert group.op(group.op(a, b), c) == group.op(a, group.op(b, c))
        assert group.op(a, e) == a
        assert group.op(e, a) == a
        assert any(group.op(a, b) == e for b in range(group.order))


def test_boolean_self_inverse_exhaustive():
    for d in range(1, 11):
        group = GroupDescriptor.boolean_power(d)
        for x in range(group.order):
            assert group.op(x, x) == group.identity


def test_mask_round_trip():
    assert mask_of(Z5, [0, 3]) == 0b01001
    assert mask_elements(Z5, 0b01001) == [0, 3]
    assert mask_of(Z5, []) == 0
    with pytest.raises(ValueError):
        mask_of(Z5, [5])
    with pytest.raises(ValueError):
        mask_elements(Z5, 1 << 5)


def test_mask_translate_matches_elementwise(rng):
    for group in (Z5, B3, GroupDescriptor.cyclic(6)):
        full = (1 << group.order) - 1
        for _ in range(200):
            mask = rng.randint(0, full)
            g = rng.randrange(group.order)
            expected = mask_of(
                group, [group.op(g, a) for a in mask_elements(group, mask)]
            )
            assert mask_translate(group, mask, g) == expected
        assert mask_translate(group, full, rng.randrange(group.order)) == full


def _translate_by_op(group, mask, g):
    """Reference translate: one group.op call per element of the mask."""
    out = 0
    for a in range(group.order):
        if mask >> a & 1:
            out |= 1 << group.op(g, a)
    return out


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.describe())
def test_mask_translate_exhaustive_small(group):
    for mask in range(1 << group.order):
        for g in range(group.order):
            assert mask_translate(group, mask, g) == _translate_by_op(group, mask, g)


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(16), GroupDescriptor.cyclic(24), GroupDescriptor.boolean_power(4)],
    ids=lambda g: g.describe(),
)
def test_mask_translate_random_large(group, rng):
    full = (1 << group.order) - 1
    for mask in [0, full] + [rng.randint(0, full) for _ in range(300)]:
        g = rng.randrange(group.order)
        assert mask_translate(group, mask, g) == _translate_by_op(group, mask, g)


def _orbit_matches_checked_path(group, masks):
    """The unchecked orbit, and the engine's children and norm_key read
    off it, against the checked mask_translate one shift at a time."""
    universe = FiniteGroupUniverse(SizeAtMost(group, 1))
    for mask in masks:
        slow = [mask_translate(group, mask, g) for g in range(group.order)]
        assert mask_orbit(group, mask) == slow
        assert list(universe.children(mask)) == [
            (g, mask & slow[g]) for g in group.nonidentity()
        ]
        assert universe.norm_key(mask) == min(slow)
        assert universe.match_translate(mask, slow[-1]) == slow.index(slow[-1])


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=lambda g: g.describe())
def test_orbit_matches_checked_translate_exhaustive(group):
    _orbit_matches_checked_path(group, range(1 << group.order))


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(16), GroupDescriptor.boolean_power(4)]
    + [GroupDescriptor(m) for m in ((4, 4), (2, 8), (8, 2), (3, 5), (2, 4, 2))],
    ids=lambda g: g.describe(),
)
def test_orbit_matches_checked_translate_sampled(group):
    full = (1 << group.order) - 1
    sample = random.Random(16).sample(range(full + 1), 400)
    _orbit_matches_checked_path(group, [0, full] + sample)


@pytest.mark.parametrize("group", [Z5, B3], ids=lambda g: g.describe())
def test_mask_translate_validation(group):
    n = group.order
    for mask in (0, 1):
        for g in (True, False, 1.0):
            with pytest.raises(TypeError, match="expected a group element"):
                mask_translate(group, mask, g)
        for g in (n, -1, 1 << 20000):
            with pytest.raises(ValueError, match="not in"):
                mask_translate(group, mask, g)
    for mask in (1 << n, -1, 1 << 20000):
        with pytest.raises(ValueError, match="out of range"):
            mask_translate(group, mask, 1)


@pytest.mark.parametrize("group", [Z5, B3], ids=lambda g: g.describe())
def test_every_mask_entry_point_keeps_one_rule(group):
    """A mask is a plain int in range: each entry point raises TypeError
    on a bool, a float or a string, and ValueError out of range.  A group
    is finite: the descriptor refuses the kind "integers"."""
    engine = Engine(FiniteGroupUniverse(SizeAtMost(group, 1)))
    entry_points = [
        engine.classify,
        engine.tree_rank,
        engine.is_thin,
        engine.tree_dump,
        lambda m: engine.replay_witness(m, CycleWitness((), 0, 1, 0)),
        lambda m: engine.derived_set(m, [1]),
        SizeAtMost(group, 1).contains,
        lambda m: mask_translate(group, m, 1),
        lambda m: mask_elements(group, m),
        lambda m: check_mask(group, m),
    ]
    for call in entry_points:
        for bad in (True, 1.0, "1"):
            with pytest.raises(TypeError, match="expected a bitmask subset"):
                call(bad)
        for bad in (-1, 1 << group.order, 1 << 20000):
            with pytest.raises(ValueError, match="out of range"):
                call(bad)
    with pytest.raises(ValueError, match="unknown group kind"):
        GroupDescriptor("integers")


@pytest.mark.parametrize("group", [Z5, B3], ids=lambda g: g.describe())
def test_every_shift_entry_point_checks_its_shift(group):
    """A shift is a group element: derived_set, and replay_witness for a
    shift on the path, the repeat shift and the translation, raise
    TypeError on a bool or a float and ValueError out of range."""
    engine = Engine(FiniteGroupUniverse(SizeAtMost(group, 1)))
    mask = 0b111
    entry_points = [
        lambda g: engine.derived_set(mask, [g]),
        lambda g: engine.derived_set(mask, [1, g]),
        lambda g: engine.replay_witness(mask, CycleWitness((g,), 1, 1, 0)),
        lambda g: engine.replay_witness(mask, CycleWitness((), 0, g, 0)),
        lambda g: engine.replay_witness(mask, CycleWitness((1,), 1, 1, g)),
        lambda g: engine.universe.derive(mask, g),
    ]
    for call in entry_points:
        for bad in (True, 1.0):
            with pytest.raises(TypeError, match="expected a group element"):
                call(bad)
        for bad in (-1, group.order, 1 << 20000):
            with pytest.raises(ValueError, match="not in"):
                call(bad)
