"""Exact verdicts, witnesses and Unknown fields, pinned by digest.

The digests were recorded from an engine that matched every child against
every ancestor of its path; they pin the values a reimplementation of the
cycle test must keep, field for field, on two corpora.  On Z the default
budget's verdicts are still those of that engine.  Starved budgets stop
where the cube reduction's traversal stops, so their Unknown fields are
pinned on their own, next to checks that hold for any traversal: a
starved verdict is Unknown or the default one, stays within its budget,
and reports a path whose derived set is infinite.  tree_rank is pinned on
a fresh engine per call, next to what an engine shared across calls may
change: only a starved Unknown, into the default budget's rank.
"""

import functools
import hashlib
import random

from thinlab.engine import Budget, Engine, FiniteGroupUniverse, SymbolicUniverse, Unknown
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.symbolic import random_set

GROUPS = [GroupDescriptor.cyclic(n) for n in range(2, 9)] + [
    GroupDescriptor.boolean_power(d) for d in range(1, 4)
]

FINITE_DIGEST = "4f98b300e29ea2ee7c4efb5b578b562876ec9ec3108beba863e0f81504960195"
SYMBOLIC_DIGEST = "bd28d83092c0f54062aebabdfce1cd983b8f2b65c0cbd4cadbe04f0ff544764b"
STARVED_DIGEST = "20514821a2f5736df11e08299fd076c663c6b1a53a40cbb58aa81a435673625e"
RANK_DIGEST = "98dccc8c89bad748d466040b5aaef67d929d9af3a5c797789f70cbb52b69ff62"
STARVED = (Budget(max_nodes=3), Budget(max_depth=1))
RANK_BUDGETS = (Budget(),) + STARVED + (Budget(max_nodes=40),)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def finite_verdicts():
    """Every subset of each group at t = 0, 1, 2, one engine per (group, t)."""
    for group in GROUPS:
        for t in range(3):
            engine = Engine(FiniteGroupUniverse(group, SizeAtMost(group, t)))
            for mask in range(1 << group.order):
                yield f"{group.describe()} {t} {mask} {engine.classify(mask)!r}"


def symbolic_sets():
    """Seeded random sets, two in three with a periodic part."""
    rng = random.Random(20100401)
    return [random_set(rng, max_geo=4) for _ in range(400)]


def symbolic_verdicts(budgets):
    """The sets classified on one engine per budget, so memo hits are
    pinned too."""
    sets = symbolic_sets()
    for budget in budgets:
        engine = Engine()
        for k, a in enumerate(sets):
            yield f"{k} {budget!r} {engine.classify(a, budget)!r}"


def test_finite_group_verdicts_pinned():
    assert _digest(finite_verdicts()) == FINITE_DIGEST


def test_symbolic_verdicts_pinned():
    assert _digest(symbolic_verdicts([Budget()])) == SYMBOLIC_DIGEST
    assert _digest(symbolic_verdicts(STARVED)) == STARVED_DIGEST


def test_starved_verdicts_are_unknown_or_default():
    """On a fresh engine per set, so no memo hit hides a budget stop."""
    sets = symbolic_sets()
    default = [Engine().classify(a) for a in sets]
    stops = 0
    for budget in STARVED:
        for a, expected in zip(sets, default):
            engine = Engine()
            verdict = engine.classify(a, budget)
            if not isinstance(verdict, Unknown):
                assert verdict == expected, a
                continue
            stops += 1
            assert verdict.nodes_used <= budget.max_nodes + 1, a
            assert verdict.depth_reached <= budget.max_depth, a
            assert not engine.derived_set(a, verdict.deepest_path).is_finite(), a
    assert stops > 0


def rank_corpus():
    """(universe, set) pairs: every subset of each group at t = 0, 1, 2, then
    the first 300 symbolic sets.  Pairs of one universe are adjacent."""
    for group in GROUPS:
        for t in range(3):
            universe = FiniteGroupUniverse(group, SizeAtMost(group, t))
            for mask in range(1 << group.order):
                yield universe, mask
    universe = SymbolicUniverse()
    for a in symbolic_sets()[:300]:
        yield universe, a


@functools.lru_cache(maxsize=None)
def fresh_ranks(budget):
    """tree_rank of each corpus set on its own engine, so no call sees
    another's memo."""
    return [Engine(u).tree_rank(x, budget) for u, x in rank_corpus()]


def test_tree_rank_pinned():
    """Ranks and Unknown fields, recorded from a recursion that matched
    every node against every ancestor and kept its memo for one call."""
    lines = (
        f"{k} {budget!r} {rank!r}"
        for budget in RANK_BUDGETS
        for k, rank in enumerate(fresh_ranks(budget))
    )
    assert _digest(lines) == RANK_DIGEST


def test_shared_engine_ranks_are_fresh_or_default():
    """One engine per universe and budget: a memo hit spends no budget, so a
    rank may only be found where a fresh engine ran out."""
    default = fresh_ranks(Budget())
    moved = 0
    for budget in RANK_BUDGETS:
        engines = {}
        for (u, x), fresh, expected in zip(rank_corpus(), fresh_ranks(budget), default):
            if u not in engines:
                engines[u] = Engine(u)
            shared = engines[u].tree_rank(x, budget)
            if shared != fresh:
                assert isinstance(fresh, Unknown) and shared == expected, (u, x, budget)
                moved += 1
    assert moved > 0
