"""Exact verdicts, witnesses and Unknown fields, pinned by digest.

The digests were recorded from an engine that matched every child against
every ancestor of its path; they pin the values a reimplementation of the
cycle test must keep, field for field, on two corpora.  On Z the default
budget's verdicts are still those of that engine.  Starved budgets stop
where the cube reduction's traversal stops, so their Unknown fields are
pinned on their own, next to checks that hold for any traversal: a
starved verdict is Unknown or the default one, stays within its budget,
and reports a path whose derived set is infinite.  tree_rank is pinned on
a fresh engine per call, next to the same checks for its starved ranks
and to what an engine shared across calls may change: only a starved
Unknown, into the default budget's rank.  Finite-group verdicts under the
same starved budgets are pinned with the same checks beside them.  Both
finite digests were recorded again once finite groups classified by the
coset core and the size cut: levels kept, bottoms kept, each witness now
the fewest derives (g,)*k to a large <g>-core, and a bottom spends no
budget, so starved runs stop elsewhere or not at all.
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

FINITE_DIGEST = "10f52f28b69d5a4144eb0bbc0a4e4694b3440de1f10c73588bd678b863c220c2"
SYMBOLIC_DIGEST = "bd28d83092c0f54062aebabdfce1cd983b8f2b65c0cbd4cadbe04f0ff544764b"
STARVED_DIGEST = "20514821a2f5736df11e08299fd076c663c6b1a53a40cbb58aa81a435673625e"
RANK_DIGEST = "fa4bd61ca20d5b3047cb6db43f29d98771b6ed88c7d6a211b0fdc2a6b9ce7fb1"
FINITE_STARVED_DIGEST = "b5e56fe0ec1a713d945ff716b1d09837ed764a5d1ffc55e064f8bd589a9c6b72"
STARVED = (Budget(max_nodes=3), Budget(max_depth=1))
FINITE_STARVED = STARVED + (Budget(max_nodes=40),)
RANK_BUDGETS = (Budget(),) + FINITE_STARVED


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
            engine = Engine(FiniteGroupUniverse(SizeAtMost(group, t)))
            for mask in range(1 << group.order):
                yield f"{group.describe()} {t} {mask} {engine.classify(mask)!r}"


@functools.lru_cache(maxsize=None)
def starved_finite_verdicts():
    """(group, t, budget, mask, verdict) for every subset of each group at
    t = 0, 1, 2 under each starved budget, one engine per (group, t, budget)."""
    out = []
    for budget in FINITE_STARVED:
        for group in GROUPS:
            for t in range(3):
                engine = Engine(FiniteGroupUniverse(SizeAtMost(group, t)))
                for mask in range(1 << group.order):
                    out.append((group, t, budget, mask, engine.classify(mask, budget)))
    return out


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


def test_starved_finite_group_verdicts_pinned():
    lines = (
        f"{group.describe()} {t} {mask} {budget!r} {verdict!r}"
        for group, t, budget, mask, verdict in starved_finite_verdicts()
    )
    assert _digest(lines) == FINITE_STARVED_DIGEST


def test_starved_finite_group_verdicts_are_unknown_or_default():
    """A starved verdict is the default budget's verdict on a fresh engine,
    or an Unknown that stays within its budget and stopped below a node
    outside the family."""
    stops = 0
    for group, t, budget, mask, verdict in starved_finite_verdicts():
        universe = FiniteGroupUniverse(SizeAtMost(group, t))
        if not isinstance(verdict, Unknown):
            assert verdict == Engine(universe).classify(mask), (group, t, mask, budget)
            continue
        stops += 1
        assert verdict.nodes_used <= budget.max_nodes + 1, (group, t, mask, budget)
        assert verdict.depth_reached <= budget.max_depth, (group, t, mask, budget)
        node = Engine(universe).derived_set(mask, verdict.deepest_path[:-1])
        assert not universe.in_family(node), (group, t, mask, budget)
    assert stops > 0


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
            universe = FiniteGroupUniverse(SizeAtMost(group, t))
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
    every node against every ancestor and kept its memo for one call.  The
    Budget(max_nodes=40) lines were recorded again once that memo was keyed
    per translation orbit: a translate met again within one call spends no
    budget, so the run stops at another node or not at all."""
    lines = (
        f"{k} {budget!r} {rank!r}"
        for budget in RANK_BUDGETS
        for k, rank in enumerate(fresh_ranks(budget))
    )
    assert _digest(lines) == RANK_DIGEST


def test_starved_ranks_are_unknown_or_default():
    """A fresh rank under any budget is the default budget's rank, or an
    Unknown that stays within its budget and stopped below a node outside
    the family."""
    default = fresh_ranks(Budget())
    stops = 0
    for budget in RANK_BUDGETS:
        for (u, x), rank, expected in zip(rank_corpus(), fresh_ranks(budget), default):
            if not isinstance(rank, Unknown):
                assert rank == expected, (u, x, budget)
                continue
            stops += 1
            assert rank.nodes_used <= budget.max_nodes + 1, (u, x, budget)
            assert rank.depth_reached <= budget.max_depth, (u, x, budget)
            node = Engine(u).derived_set(x, rank.deepest_path[:-1])
            assert not u.in_family(node), (u, x, budget)
    assert stops > 0


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
