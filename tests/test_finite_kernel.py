"""Finite groups classify by the coset core and the size cut.

classify reads a bottom witness (g,)*k off the root's translates, or else
runs the height recursion, which skips a child c once |c| - t cannot beat
the best height so far.  Here it is checked against tree_rank, the plain
recursion over all |G| - 1 children, and against the oracle's table on
seeded masks of products; and every verdict on the small groups is checked
against the coset core criterion, walked with the checked derive and
group.op: a bottom witness replays, its path is k derives by g, it ends at
a <g>-invariant set of more than t elements, and no g' reaches such a set
in fewer derives, nor a smaller g' in as few.
"""

import random

import pytest

from thinlab.engine import (
    NOT_WELL_FOUNDED,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NotInThinCompletion,
)
from thinlab.groups import GroupDescriptor, mask_elements
from thinlab.ideals import SizeAtMost
from thinlab.oracle import BOTTOM, build_table

PRODUCTS = [GroupDescriptor(m) for m in ((2, 4), (3, 3), (2, 6), (4, 4))]
SMALL = [GroupDescriptor.cyclic(n) for n in range(2, 9)] + [
    GroupDescriptor.boolean_power(d) for d in range(1, 4)
]


@pytest.mark.parametrize("group", PRODUCTS, ids=lambda g: g.describe())
def test_size_cut_matches_the_plain_recursion_and_the_table(group):
    rng = random.Random(group.order)
    for t in range(3):
        family = SizeAtMost(group, t)
        levels = build_table(group, family).levels
        engine = Engine(FiniteGroupUniverse(family))
        for _ in range(600):
            # a size drawn first, so that sparse masks, which are not bottom, come often
            size = rng.randrange(group.order + 1)
            mask = sum(1 << a for a in rng.sample(range(group.order), size))
            verdict, rank = engine.classify(mask), engine.tree_rank(mask)
            if levels[mask] == BOTTOM:
                assert isinstance(verdict, NotInThinCompletion), (t, mask)
                assert rank is NOT_WELL_FOUNDED, (t, mask)
                assert engine.replay_witness(mask, verdict.witness), (t, mask)
            else:
                assert verdict == ExactLevel(levels[mask]) == ExactLevel(rank), (t, mask)


def _derives_to_core(universe: FiniteGroupUniverse, mask: int, g: int) -> tuple[int, int]:
    """(k, core): mask derived by g until a derive keeps it, k derives."""
    k = 0
    while (child := universe.derive(mask, g)) != mask:
        mask, k = child, k + 1
    return k, mask


@pytest.mark.parametrize("group", SMALL, ids=lambda g: g.describe())
def test_bottom_witnesses_reach_the_first_large_core(group):
    bottoms = 0
    for t in range(3):
        universe = FiniteGroupUniverse(SizeAtMost(group, t))
        engine = Engine(universe)
        for mask in range(1 << group.order):
            verdict = engine.classify(mask)
            cores = {g: _derives_to_core(universe, mask, g) for g in group.nonidentity()}
            large = sorted((k, g) for g, (k, core) in cores.items() if core.bit_count() > t)
            if not isinstance(verdict, NotInThinCompletion):
                assert not large, (t, mask)
                continue
            bottoms += 1
            w = verdict.witness
            g, k = w.repeat_shift, w.ancestor_index
            assert (w.path, w.translation) == ((g,) * k, 0), (t, mask)
            assert engine.replay_witness(mask, w), (t, mask)
            final = mask_elements(group, engine.derived_set(mask, w.path))
            assert len(final) > t, (t, mask)
            assert sorted(group.op(a, g) for a in final) == final, (t, mask)
            assert (k, g) == large[0], (t, mask)
    assert bottoms > 0
