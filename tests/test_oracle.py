import hashlib
import json
import math
import tracemalloc
import types
from array import array
from collections import Counter

import pytest

from thinlab.cli import _write_tables
from thinlab.groups import MAX_ORDER, GroupDescriptor, mask_elements, mask_of, mask_translate
from thinlab.ideals import SizeAtMost
from thinlab.oracle import (
    BOTTOM,
    OracleTable,
    _image_tables,
    _images,
    boolean_non_additivity_witness,
    build_table,
    cross_check,
    recursive_levels,
)

Z5 = GroupDescriptor.cyclic(5)
Z7 = GroupDescriptor.cyclic(7)
B2 = GroupDescriptor.boolean_power(2)
B3 = GroupDescriptor.boolean_power(3)
# Products whose elements have mixed orders, all of order at most 12
PRODUCTS = [GroupDescriptor(m) for m in ((2, 4), (4, 2), (3, 3), (2, 6), (2, 2, 3), (2, 3, 2))]


def case_id(value) -> str:
    """Test id of one parameter.  Z/n and (Z/2)^d keep the ids they had
    when a descriptor held a kind and a number; products are described."""
    if not isinstance(value, GroupDescriptor):
        return str(value)
    m = value.moduli
    if len(m) == 1:
        return f"GroupDescriptor(kind='cyclic', n={m[0]})"
    if set(m) == {2}:
        return f"GroupDescriptor(kind='boolean', n={len(m)})"
    return value.describe()


def table(group: GroupDescriptor, t: int) -> OracleTable:
    return build_table(group, SizeAtMost(group, t))


# ---------------------------------------------------------------------------
# In-test re-derivation of levels, written against element sets rather than
# the package's bitmask translation helpers.
# ---------------------------------------------------------------------------


def independent_levels(group: GroupDescriptor, t: int) -> list[int]:
    n = group.order
    elems = list(range(n))

    def child(mask: int, g: int) -> int:
        shifted = 0
        for a in elems:
            if mask >> a & 1:
                shifted |= 1 << group.op(g, a)
        return mask & shifted

    in_family = lambda m: bin(m).count("1") <= t
    color = [0] * (1 << n)  # 0 new, 1 on stack, 2 done
    out: list[int] = [None] * (1 << n)

    def visit(m: int) -> int:
        if in_family(m):
            out[m] = 0
            return 0
        if color[m] == 1:
            return BOTTOM
        if color[m] == 2:
            return out[m]
        color[m] = 1
        worst = 0
        dead = False
        for g in elems[1:]:
            c = child(m, g)
            if in_family(c):
                continue
            r = visit(c)
            if r == BOTTOM:
                dead = True
            else:
                worst = max(worst, r)
        color[m] = 2
        out[m] = BOTTOM if dead else 1 + worst
        return out[m]

    for m in range(1 << n):
        visit(m)
    return out


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(9), GroupDescriptor.cyclic(20), GroupDescriptor.cyclic(24), B3],
    ids=lambda g: g.describe(),
)
def test_shift_tables_match_group_op(group, rng):
    """Every entry of every 8-bit chunk table, including a short last
    chunk, is the images under group.op of the elements it encodes under
    every nonidentity shift g, at index g - 1, and `_images` ORs them into
    a list of translates, also on a one-chunk group."""
    n = group.order
    shifts = list(group.nonidentity())

    def images(mask: int) -> list[int]:
        return [
            sum(1 << group.op(g, a) for a in range(n) if mask >> a & 1) for g in shifts
        ]

    tables = _image_tables(group)
    assert [len(t) for t in tables] == [1 << min(8, n - base) for base in range(0, n, 8)]
    for c, chunk in enumerate(tables):
        for v, out in enumerate(chunk):
            assert out == tuple(images(v << 8 * c))
    full = (1 << n) - 1
    for mask in (0, full, rng.randint(0, full), rng.randint(0, full)):
        got = _images(mask, tables)
        assert type(got) is list
        assert got == images(mask)


ENGINE_NAMES = {"mask_translate", "mask_orbit", "Engine", "FiniteGroupUniverse", "derive"}


def _names(code) -> set[str]:
    out = set(code.co_names) | set(code.co_varnames) | set(code.co_freevars)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _names(const)
    return out


@pytest.mark.parametrize(
    "fn",
    [_image_tables, _images, build_table, recursive_levels, boolean_non_additivity_witness],
    ids=lambda f: f.__name__,
)
def test_oracle_translates_share_no_engine_code(fn):
    """The oracle's own translation and derivation name nothing of the
    engine's, nested functions included, so it stays an independent check."""
    assert _names(fn.__code__).isdisjoint(ENGINE_NAMES)
    # the walk reaches code nested two deep: `contains` is called only
    # inside the witness's `thin` generator
    assert "contains" in _names(boolean_non_additivity_witness.__code__)


# ---------------------------------------------------------------------------
# Frozen tables
# ---------------------------------------------------------------------------


def test_frozen_z5_levels():
    t1 = table(Z5, 1)
    assert t1.level(0) == 0
    assert t1.level(0b00001) == 0
    assert t1.level(0b00011) == 1
    assert t1.level(0b00101) == 1
    assert t1.level(0b11111) == BOTTOM
    assert t1.max_level() == 3
    assert Counter(t1.levels) == {BOTTOM: 1, 0: 6, 1: 10, 2: 10, 3: 5}

    t0 = table(Z5, 0)
    assert t0.level(0) == 0
    assert t0.level(0b00001) == 1
    assert t0.level(0b00011) == 2
    assert t0.max_level() == 4
    assert Counter(t0.levels) == {BOTTOM: 1, 0: 1, 1: 5, 2: 10, 3: 10, 4: 5}


def test_frozen_z7_histograms():
    assert Counter(table(Z7, 1).levels) == {
        BOTTOM: 1, 0: 8, 1: 35, 2: 35, 3: 21, 4: 21, 5: 7,
    }
    assert table(Z7, 0).max_level() == 6
    assert table(Z7, 2).max_level() == 4


def test_frozen_boolean_histograms():
    # with a size-1 bound over (Z/2)^3 every 2-element set already cycles:
    # its child at the xor of its members is itself
    t1 = table(B3, 1)
    assert Counter(t1.levels) == {BOTTOM: 247, 0: 9}
    assert t1.max_level() == 0
    assert Counter(table(B3, 2).levels) == {BOTTOM: 107, 0: 37, 1: 112}


def test_prime_cycles_have_unique_bottom():
    # over Z/p only the whole group is closed enough to cycle
    for g in (Z5, Z7):
        for t in (0, 1, 2):
            tab = table(g, t)
            bottoms = [m for m in range(1 << g.order) if tab.level(m) == BOTTOM]
            assert bottoms == [(1 << g.order) - 1]


# ---------------------------------------------------------------------------
# Cross-derivations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("group", [Z5, Z7, B2, B3], ids=lambda g: g.describe())
@pytest.mark.parametrize("t", [0, 1, 2])
def test_fixpoint_matches_recursive(group, t):
    fam = SizeAtMost(group, t)
    assert build_table(group, fam).levels == recursive_levels(group, fam)


@pytest.mark.parametrize(
    "group,t",
    [(GroupDescriptor.cyclic(n), t) for n in (8, 9, 12) for t in range(4)]
    + [(GroupDescriptor.boolean_power(4), t) for t in (1, 2)]
    + [(group, t) for group in PRODUCTS for t in range(4)]
    + [(GroupDescriptor((4, 4)), 1)],
    ids=lambda v: v.describe() if isinstance(v, GroupDescriptor) else str(v),
)
def test_fixpoint_matches_recursive_with_stabilizers(group, t):
    """Groups with translation orbits that are not all free: a subset
    fixed by some translate has fewer translates than the group has
    elements, so the pass fills its orbit from repeated images."""
    fam = SizeAtMost(group, t)
    assert build_table(group, fam).levels == recursive_levels(group, fam)


def test_z16_table_digest():
    # the table the oracle benchmark workload builds, pinned by its bytes
    tab = table(GroupDescriptor.cyclic(16), 1)
    assert hashlib.sha256(bytes(v + 1 for v in tab.levels)).hexdigest() == (
        "09d1202737ae4c2b5ad0d9e895cfd22d7773871178eb524e5437d590763f4e84"
    )
    assert tab.max_level() == 7
    assert tab.bottom_count() == 58975


@pytest.mark.parametrize("group,t", [(Z5, 1), (Z5, 0), (B3, 2)], ids=case_id)
def test_fixpoint_matches_independent_dfs(group, t):
    assert list(table(group, t).levels) == independent_levels(group, t)


def test_structural_invariants_of_table():
    for group, t in [(Z5, 1), (B3, 2)]:
        tab = table(group, t)
        fam = SizeAtMost(group, t)
        for m in range(1 << group.order):
            kids = [
                m & mask_translate(group, m, g) for g in group.nonidentity()
            ]
            outside = [c for c in kids if not fam.contains(c)]
            if fam.contains(m):
                assert tab.level(m) == 0
            elif tab.level(m) == BOTTOM:
                assert any(tab.level(c) == BOTTOM for c in outside)
            else:
                assert all(tab.level(c) != BOTTOM for c in outside)
                got = 1 + max((tab.level(c) for c in outside), default=0)
                assert tab.level(m) == got


def test_levels_translation_invariant():
    for group, t in [(Z5, 1), (Z7, 2), (B3, 1)]:
        tab = table(group, t)
        for m in range(1 << group.order):
            for g in group.nonidentity():
                assert tab.level(mask_translate(group, m, g)) == tab.level(m)


def test_levels_multiplication_invariant():
    # x -> kx is a group automorphism of Z/p for k nonzero, and the size
    # family is automorphism-stable, so levels must be preserved
    for group, k in [(Z5, 2), (Z5, 3), (Z7, 3)]:
        p = group.order
        tab = table(group, 1)
        for m in range(1 << p):
            image = mask_of(group, [(k * a) % p for a in mask_elements(group, m)])
            assert tab.level(image) == tab.level(m)


def test_levels_monotone_under_subset():
    for group, t in [(Z5, 1), (B3, 1)]:
        tab = table(group, t)
        full = (1 << group.order) - 1
        for m in range(full + 1):
            lm = math.inf if tab.level(m) == BOTTOM else tab.level(m)
            sub = m
            while True:
                ls = math.inf if tab.level(sub) == BOTTOM else tab.level(sub)
                assert ls <= lm
                if sub == 0:
                    break
                sub = (sub - 1) & m


# ---------------------------------------------------------------------------
# Engine agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "group,t",
    [(Z5, 1), (B3, 1), (Z7, 0)] + [(group, t) for group in PRODUCTS for t in range(3)],
    ids=case_id,
)
def test_cross_check_agreement(group, t):
    report = cross_check(table(group, t))
    assert report.ok
    assert report.checked == 1 << group.order
    assert report.mismatches == ()
    assert "agree" in report.summary()
    assert group.describe() in report.summary()


# ---------------------------------------------------------------------------
# Non-additivity witnesses
# ---------------------------------------------------------------------------


def test_boolean_witness_frozen_values():
    assert boolean_non_additivity_witness(3, 1) == (1, 1)
    assert boolean_non_additivity_witness(2, 0) == (1, 1)
    assert boolean_non_additivity_witness(4, 2) == (3, 2)


def test_boolean_witness_verified_independently():
    mask, x = boolean_non_additivity_witness(3, 1)
    fam = SizeAtMost(B3, 1)

    def thin(m: int) -> bool:
        return all(
            fam.contains(m & mask_translate(B3, m, g)) for g in B3.nonidentity()
        )

    union = mask | mask_translate(B3, mask, x)
    assert thin(mask)
    assert thin(mask_translate(B3, mask, x))
    assert not thin(union)
    # the union is x-invariant, so its derived set at x is itself
    assert mask_translate(B3, union, x) == union


def test_boolean_witness_validation():
    with pytest.raises(ValueError):
        boolean_non_additivity_witness(1, 1)


def test_boolean_witness_none_when_family_degenerate():
    # with the bound at the group order everything is thin
    assert boolean_non_additivity_witness(2, 4) is None


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_table(GroupDescriptor.cyclic(30), SizeAtMost(GroupDescriptor.cyclic(30), 1))
    with pytest.raises(ValueError):
        build_table(Z5, SizeAtMost(Z7, 1))


def test_csv_schema():
    tab = table(Z5, 1)
    lines = "".join(tab.csv_chunks()).splitlines()
    assert lines[0] == "subset_bitmask,level"
    assert len(lines) == 33
    assert lines[1] == "0,0"
    assert lines[32] == "31,-1"


def test_json_schema():
    data = json.loads("".join(table(Z5, 1).json_chunks()))
    assert set(data) == {"group", "size_bound", "levels"}
    assert data["group"] == "Z/5"
    assert data["size_bound"] == 1
    assert len(data["levels"]) == 32
    assert data["levels"][31] == -1


# ---------------------------------------------------------------------------
# Storage: one signed byte per subset, written out piece by piece
# ---------------------------------------------------------------------------


def traced_peak(work) -> int:
    """Peak bytes that Python allocated while work() ran."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("group", [Z5, B3], ids=lambda g: g.describe())
def test_levels_are_one_signed_byte_per_subset(group):
    fam = SizeAtMost(group, 1)
    for levels in (build_table(group, fam).levels, recursive_levels(group, fam)):
        assert type(levels) is array and levels.typecode == "b"
        assert len(levels) == 1 << group.order


def test_levels_fit_a_signed_byte():
    """A level is at most |G| <= MAX_ORDER, or BOTTOM; a signed byte holds
    up to 127 and refuses more rather than wrapping."""
    assert MAX_ORDER < 127
    levels = array("b", [BOTTOM, MAX_ORDER])
    with pytest.raises(OverflowError):
        levels[0] = 128


def test_build_table_traces_under_half_a_megabyte_on_z16():
    # a list of ints plus its tuple copy traced 1.3 MB
    z16 = GroupDescriptor.cyclic(16)
    assert traced_peak(lambda: table(z16, 1)) < 500_000


def test_write_tables_never_holds_a_whole_file(tmp_path):
    # writing each file from one whole string traced 5.4 MB on Z/16
    tab = table(GroupDescriptor.cyclic(16), 1)
    assert traced_peak(lambda: _write_tables(tab, str(tmp_path), "z16", 1)) < 1_800_000


@pytest.mark.parametrize(
    "group,name", [(Z5, "z5"), (B3, "b3"), (GroupDescriptor.cyclic(13), "z13")], ids=case_id
)
def test_written_tables_match_to_csv_and_to_json(group, name, tmp_path):
    """Z/13 has 8192 subsets, so its files are written in two pieces."""
    tab = table(group, 1)
    csv_text, json_text = "".join(tab.csv_chunks()), "".join(tab.json_chunks())
    csv_path, json_path = _write_tables(tab, str(tmp_path), name, 1)
    with open(csv_path, "rb") as fh:
        assert fh.read() == csv_text.encode()
    with open(json_path, "rb") as fh:
        assert fh.read() == (json_text + "\n").encode()
    assert json.loads(json_text)["levels"] == list(tab.levels)
    rows = [f"{m},{v}" for m, v in enumerate(tab.levels)]
    assert csv_text.splitlines() == ["subset_bitmask,level"] + rows
