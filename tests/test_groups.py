import pytest

from thinlab.groups import (
    GroupDescriptor,
    ScaleBy,
    mask_elements,
    mask_of,
    mask_translate,
)

Z = GroupDescriptor.integers()
Z5 = GroupDescriptor.cyclic(5)
B3 = GroupDescriptor.boolean_power(3)


def test_descriptor_orders():
    assert Z.order is None
    assert GroupDescriptor.cyclic(7).order == 7
    assert GroupDescriptor.boolean_power(4).order == 16


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor.cyclic(1)
    with pytest.raises(ValueError):
        GroupDescriptor.boolean_power(0)
    with pytest.raises(ValueError):
        GroupDescriptor("weird")


def test_op_examples():
    assert Z.op(3, 5) == 8
    assert Z5.op(3, 4) == 2
    # (Z/2)^3: 101 xor 011 = 110
    assert B3.op(0b101, 0b011) == 0b110


def test_inverse_examples():
    assert Z.inverse(7) == -7
    assert Z5.inverse(2) == 3
    for x in B3.elements():
        assert B3.inverse(x) == x


def test_element_range_enforced():
    with pytest.raises(ValueError):
        Z5.op(5, 0)
    with pytest.raises(ValueError):
        B3.inverse(8)
    with pytest.raises(ValueError):
        Z5.op(-1, 2)


def test_enumeration_deterministic():
    assert list(GroupDescriptor.cyclic(3).elements()) == [0, 1, 2]
    assert list(GroupDescriptor.boolean_power(2).elements()) == [0, 1, 2, 3]
    assert list(GroupDescriptor.cyclic(2).elements()) == [0, 1]
    assert list(Z5.nonidentity()) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        Z.elements()


@pytest.mark.parametrize(
    "group",
    [Z, Z5, GroupDescriptor.cyclic(9), B3, GroupDescriptor.boolean_power(5)],
    ids=lambda g: g.describe(),
)
def test_group_axioms_random_triples(group, rng):
    def pick():
        if group.order is None:
            return rng.randint(-10**9, 10**9)
        return rng.randrange(group.order)

    e = group.identity
    for _ in range(1000):
        a, b, c = pick(), pick(), pick()
        assert group.op(group.op(a, b), c) == group.op(a, group.op(b, c))
        assert group.op(a, e) == a
        assert group.op(e, a) == a
        assert group.op(a, group.inverse(a)) == e


def test_boolean_self_inverse_exhaustive():
    for d in range(1, 11):
        group = GroupDescriptor.boolean_power(d)
        for x in group.elements():
            assert group.op(x, x) == group.identity
            assert group.inverse(x) == x


def test_scale_by_basics():
    h = ScaleBy(3)
    assert h.apply(4) == 12
    assert ScaleBy(1).apply(11) == 11
    assert ScaleBy(2).iterate(1, 10) == 1024
    with pytest.raises(ValueError):
        ScaleBy(0)


def test_scale_by_additive_and_injective(rng):
    for k in (-5, -2, -1, 1, 2, 3, 5):
        h = ScaleBy(k)
        seen = {}
        for _ in range(300):
            a, b = rng.randint(-10**8, 10**8), rng.randint(-10**8, 10**8)
            assert h.apply(a + b) == h.apply(a) + h.apply(b)
            image = h.apply(a)
            assert seen.setdefault(image, a) == a
        assert h.expanding == (abs(k) >= 2)


def test_escape_exponent_definition():
    # least n with x not divisible by k^n
    h = ScaleBy(2)
    assert h.escape_exponent(1) == 1
    assert h.escape_exponent(8) == 4
    assert h.escape_exponent(12) == 3
    assert ScaleBy(3).escape_exponent(-18) == 3
    with pytest.raises(ValueError):
        h.escape_exponent(0)
    with pytest.raises(ValueError):
        ScaleBy(1).escape_exponent(4)
    with pytest.raises(ValueError):
        ScaleBy(-1).escape_exponent(4)


def test_expanding_escape_small_exhaustive():
    for k in (2, 3, 5):
        h = ScaleBy(k)
        for x in range(-10**4, 10**4 + 1):
            if x == 0:
                continue
            n = h.escape_exponent(x)
            assert x % k ** (n - 1) == 0
            assert x % k**n != 0


def test_expanding_escape_large_random(rng):
    for _ in range(10_000):
        k = rng.choice((2, 3, 5, -2))
        x = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        n = ScaleBy(k).escape_exponent(x)
        assert x % abs(k) ** (n - 1) == 0
        assert x % abs(k) ** n != 0


def test_mask_round_trip():
    assert mask_of(Z5, [0, 3]) == 0b01001
    assert mask_elements(Z5, 0b01001) == [0, 3]
    assert mask_of(Z5, []) == 0
    with pytest.raises(ValueError):
        mask_of(Z5, [5])
    with pytest.raises(ValueError):
        mask_of(Z, [1])
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


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(n) for n in range(2, 11)]
    + [GroupDescriptor.boolean_power(d) for d in range(1, 4)],
    ids=lambda g: g.describe(),
)
def test_mask_translate_exhaustive_small(group):
    for mask in range(1 << group.order):
        for g in group.elements():
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


@pytest.mark.parametrize("group", [Z5, B3], ids=lambda g: g.describe())
def test_mask_translate_validation(group):
    n = group.order
    for mask in (0, 1):
        for g in (True, False, n, -1, 1.0):
            with pytest.raises(ValueError, match="not in"):
                mask_translate(group, mask, g)
    for mask in (1 << n, -1):
        with pytest.raises(ValueError, match="out of range"):
            mask_translate(group, mask, 1)
    with pytest.raises(ValueError, match="finite group"):
        mask_translate(Z, 1, 1)
