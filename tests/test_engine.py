import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from thinlab.cli import tree_dot
from thinlab.engine import (
    MAX_DUMP_DEPTH,
    NOT_WELL_FOUNDED,
    Budget,
    CycleWitness,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NotInThinCompletion,
    SymbolicUniverse,
    Unknown,
)
from thinlab.groups import GroupDescriptor, mask_translate
from thinlab.ideals import SizeAtMost
from thinlab.symbolic import (
    SymbolicSet,
    ap,
    empty_set,
    finite_set,
    geo,
    make_set,
    random_set,
)

A = geo(2, 1, 0, 0)  # {2**n}
TWO_TAILS = geo(2, 3, 0, 0) | geo(2, 3, 1, 0)


def verdict_key(v):
    if isinstance(v, ExactLevel):
        return ("level", v.level)
    if isinstance(v, NotInThinCompletion):
        return ("bottom",)
    return None


# ---------------------------------------------------------------------------
# Derived sets
# ---------------------------------------------------------------------------


def test_derived_set_identity_and_one_step():
    eng = Engine()
    assert eng.derived_set(A, ()) == A
    # oracle: {2**n} cap {2**m + 1} by direct enumeration
    powers = {2**n for n in range(70)}
    assert powers & {v + 1 for v in powers} == {2}
    assert eng.derived_set(A, (1,)) == finite_set([2])


def test_derived_set_commutes_with_translation(rng):
    eng = Engine()
    for _ in range(100):
        a = random_set(rng)
        t = rng.randint(-50, 50)
        path = tuple(
            rng.choice([g for g in range(-6, 7) if g != 0])
            for _ in range(rng.randint(0, 3))
        )
        assert eng.derived_set(a.translate(t), path) == eng.derived_set(
            a, path
        ).translate(t)


def test_derived_set_closed_form(rng):
    from itertools import combinations

    eng = Engine()
    for _ in range(100):
        a = random_set(rng)
        path = tuple(
            rng.choice([g for g in range(-5, 6) if g != 0])
            for _ in range(rng.randint(1, 4))
        )
        expect = a
        for r in range(1, len(path) + 1):
            for combo in combinations(range(len(path)), r):
                expect = expect & a.translate(sum(path[i] for i in combo))
        assert eng.derived_set(a, path) == expect


# ---------------------------------------------------------------------------
# Quick predicates
# ---------------------------------------------------------------------------


def test_is_thin():
    eng = Engine()
    assert eng.is_thin(A)
    assert eng.is_thin(finite_set([4, 5]))
    assert eng.is_thin(empty_set())
    assert not eng.is_thin(TWO_TAILS)
    assert not eng.is_thin(ap(2, 0))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_base_levels():
    eng = Engine()
    assert eng.classify(empty_set()) == ExactLevel(0)
    assert eng.classify(finite_set([-3, 8])) == ExactLevel(0)
    assert eng.classify(A) == ExactLevel(1)


def test_classify_two_tails_level_two():
    eng = Engine()
    # justify the expectation: both one-step children are single tails
    assert eng.derived_set(TWO_TAILS, (1,)) == geo(2, 3, 1, 0)
    assert eng.derived_set(TWO_TAILS, (-1,)) == geo(2, 3, 0, 0)
    assert eng.classify(geo(2, 3, 1, 0)) == ExactLevel(1)
    assert eng.classify(TWO_TAILS) == ExactLevel(2)


def test_classify_progression_bottom():
    eng = Engine()
    verdict = eng.classify(ap(2, 0))
    assert isinstance(verdict, NotInThinCompletion)
    assert verdict.witness == CycleWitness((), 0, 2, 0)
    assert eng.replay_witness(ap(2, 0), verdict.witness)


def test_classify_integers_bottom():
    eng = Engine()
    verdict = eng.classify(ap(1, 0))
    assert isinstance(verdict, NotInThinCompletion)
    assert verdict.witness == CycleWitness((), 0, 1, 0)
    assert eng.replay_witness(ap(1, 0), verdict.witness)


def test_classify_translated_progression_bottom():
    eng = Engine()
    odd = ap(2, 0).translate(7)
    verdict = eng.classify(odd)
    assert isinstance(verdict, NotInThinCompletion)
    assert eng.replay_witness(odd, verdict.witness)


def test_classify_mixed_thin_plus_periodic():
    eng = Engine()
    verdict = eng.classify(A | ap(3, 1))
    assert isinstance(verdict, NotInThinCompletion)
    assert eng.replay_witness(A | ap(3, 1), verdict.witness)


def test_classify_bottom_even_at_minimal_budget():
    # the period branch is exact and does not consume search budget
    eng = Engine()
    verdict = eng.classify(ap(6, 1), Budget(max_depth=1, max_nodes=1))
    assert isinstance(verdict, NotInThinCompletion)


def test_replay_rejects_tampered_witness():
    eng = Engine()
    verdict = eng.classify(ap(2, 0))
    w = verdict.witness
    assert not eng.replay_witness(ap(2, 0), CycleWitness(w.path, w.ancestor_index, w.repeat_shift, 5))
    assert not eng.replay_witness(ap(2, 0), CycleWitness(w.path, w.ancestor_index, 7, w.translation))
    # witness against a set whose ancestor is already in the family
    assert not eng.replay_witness(finite_set([0]), CycleWitness((), 0, 2, 0))
    # a zero shift raises even where the ancestor is already in the family
    for w in (CycleWitness((), 0, 0, 0), CycleWitness((1, 0), 1, 2, 0)):
        with pytest.raises(ValueError, match="nonzero"):
            eng.replay_witness(finite_set([0]), w)


def test_replay_matches_the_two_walk_reference(rng):
    """replay_witness walks the path once; the reference derives the frame
    and the ancestor each from the root.  They agree on the witnesses
    classify emits, nonempty paths among them, on those witnesses with the
    fixed point unrolled further (so the ancestor sits inside the path),
    and on random witnesses."""
    eng = Engine()

    def reference(x, w):
        child = eng.derived_set(x, w.path + (w.repeat_shift,))
        ancestor = eng.derived_set(x, w.path[: w.ancestor_index])
        return not eng.universe.in_family(ancestor) and child == ancestor.translate(w.translation)

    emitted = 0
    for _ in range(150):
        x = random_set(rng, max_ap=2)
        v = eng.classify(x)
        if isinstance(v, NotInThinCompletion) and v.witness.path:
            w = v.witness
            k = rng.randrange(1, 3)
            unrolled = CycleWitness(w.path + (w.repeat_shift,) * k,
                                    w.ancestor_index + rng.randrange(k + 1),
                                    w.repeat_shift, w.translation)
            for w in (w, unrolled):
                assert eng.replay_witness(x, w) and reference(x, w)
            emitted += 1
        path = tuple(rng.choice([-3, -2, -1, 1, 2, 4, 6]) for _ in range(rng.randrange(4)))
        w = CycleWitness(path, rng.randrange(len(path) + 1), rng.choice([1, 2, 4]),
                         rng.choice([-2, 0, 2]))
        assert eng.replay_witness(x, w) == reference(x, w)
    assert emitted >= 20


def test_escalation_chain_levels():
    from thinlab.bounds import escalate

    eng = Engine()
    a = A
    for lvl in range(1, 9):
        assert eng.classify(a) == ExactLevel(lvl)
        # tree_rank, sharing the engine's rank memo, takes about 0.2 s of
        # CPU at level 7 and 1.0 s at level 8
        assert eng.tree_rank(a) == lvl
        a = escalate(a, eng)


def _cube_dimensions(span: int) -> list[int]:
    """For every subset D of [0, span] as a bitmask, the largest k with a
    cube x + sums(g_1..g_k), all g_i > 0, inside D (-1 for D empty): each
    multiset of shifts is laid out by bitmask shifts at every x, then the
    best cube is pushed up to the supersets of its mask."""
    best = [-1] * (1 << (span + 1))

    def lay(gs: tuple[int, ...], total: int) -> None:
        mask = 1
        for g in gs:
            mask |= mask << g
        for x in range(span - total + 1):
            best[mask << x] = max(best[mask << x], len(gs))
        for g in range(gs[-1] if gs else 1, span - total + 1):
            lay(gs + (g,), total + g)

    lay((), 0)
    for bit in range(span + 1):
        for m in range(len(best)):
            if m >> bit & 1:
                best[m] = max(best[m], best[m ^ (1 << bit)])
    return best


def test_level_is_one_plus_largest_cube_in_offsets():
    """A set of tails {25 * 2**m + d : m >= 0} for d in D has no cross-key
    coincidences when D lies in [0, 12], so its level is h(D), and h(D) - 1
    is the dimension of the largest cube inside D."""
    span = 12
    best = _cube_dimensions(span)
    eng = Engine()
    for mask in range(1 << (span + 1)):
        offsets = [d for d in range(span + 1) if mask >> d & 1]
        a = SymbolicSet(tails=tuple((25, d, 0, 1) for d in offsets))
        assert eng.classify(a) == ExactLevel(best[mask] + 1), offsets
    whole = range(span + 1)
    assert SymbolicSet(tails=tuple((25, d, 0, 1) for d in whole)) == empty_set().union(
        *[geo(2, 25, d) for d in whole]
    )


@pytest.mark.parametrize("base", [2, 3, 5])
def test_cube_levels_agree_with_tree_rank(base):
    """Sets with no periodic part against the independent recursion on
    exact sets.  Coefficients from {1, -1, base} and offsets in [0, 8) make
    tails share a reduced coefficient often enough to reach level 3 and
    more; exponent steps run from 1 to 3 and start indices from 0 to 2."""
    rng = random.Random(base)
    deep = 0
    for _ in range(150):
        geos = [
            geo(base ** rng.choice([1, 1, 2, 3]), rng.choice([1, 1, -1, base]),
                rng.randrange(8), rng.randrange(3), base=base)
            for _ in range(rng.randrange(1, 7))
        ]
        finite = [rng.randrange(-20, 21) for _ in range(rng.randrange(3))]
        a = finite_set(finite, base=base).union(*geos)
        verdict = Engine().classify(a)
        assert verdict == ExactLevel(Engine().tree_rank(a)), a
        deep += verdict.level >= 3
    assert deep >= 10


def test_engine_limits_suite_still_starves_deep_probe():
    from thinlab.selftest import _Ctx, _suite_engine_limits

    chain = A
    for _ in range(2):
        scaled = chain.scale(3)
        chain = scaled.union(scaled.translate(1))
    assert isinstance(Engine().classify(chain, Budget(max_depth=4, max_nodes=3)), Unknown)
    assert _suite_engine_limits(_Ctx(seed=0, trials=10, budget=Budget())).failures == []


# ---------------------------------------------------------------------------
# Invariance and lowerness
# ---------------------------------------------------------------------------


def test_verdicts_translation_invariant(rng):
    eng = Engine()
    for _ in range(100):
        a = random_set(rng)
        g = rng.choice([v for v in range(-9, 10) if v != 0])
        k0, k1 = verdict_key(eng.classify(a)), verdict_key(eng.classify(a.translate(g)))
        assert k0 is not None and k0 == k1, (a, g)


def test_verdicts_scale_invariant(rng):
    eng = Engine()
    for _ in range(60):
        a = random_set(rng)
        k = rng.choice([2, 3, 5])
        k0, k1 = verdict_key(eng.classify(a)), verdict_key(eng.classify(a.scale(k)))
        assert k0 is not None and k0 == k1, (a, k)


def test_levels_monotone_under_intersection(rng):
    eng = Engine()
    checked = 0
    for _ in range(120):
        a, c = random_set(rng), random_set(rng)
        b = a & c
        va, vb = eng.classify(a), eng.classify(b)
        if isinstance(va, ExactLevel):
            assert isinstance(vb, ExactLevel)
            assert vb.level <= va.level, (a, c)
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# Tree rank
# ---------------------------------------------------------------------------


def test_tree_rank_examples():
    eng = Engine()
    assert eng.tree_rank(finite_set([1])) == 0
    assert eng.tree_rank(A) == 1
    assert eng.tree_rank(TWO_TAILS) == 2
    assert eng.tree_rank(ap(2, 0)) is NOT_WELL_FOUNDED
    assert eng.tree_rank(ap(3, 2) | A) is NOT_WELL_FOUNDED


def test_tree_rank_matches_level(rng):
    eng = Engine()
    for _ in range(80):
        a = random_set(rng, max_ap=0)
        v = eng.classify(a)
        assert isinstance(v, ExactLevel)
        assert eng.tree_rank(a) == v.level


def test_tree_rank_memoized_per_orbit_on_z():
    """A translate of a ranked set is a memo hit: the same rank, no new
    memo entry and no node spent, where a fresh engine runs out."""
    from thinlab.bounds import escalate

    starved = Budget(max_nodes=1, max_depth=1)
    universe = SymbolicUniverse()
    sets = [TWO_TAILS, escalate(escalate(escalate(A))), ap(3, 2) | A, ap(5, 1) | TWO_TAILS]
    for a in sets:
        eng = Engine(universe)
        rank = eng.tree_rank(a)
        size = len(eng._ranks)
        for shift in (10**12 + 7, -(3**40)):
            moved = universe.translate(a, shift)
            assert moved != a
            assert isinstance(Engine(universe).tree_rank(moved, starved), Unknown), a
            assert eng.tree_rank(moved, starved) == rank, a
            assert len(eng._ranks) == size, a


def test_tree_rank_memoized_per_mask_on_finite_groups():
    """On a finite group the rank memo holds one entry per translation orbit:
    a translate of a ranked mask is a memo hit, with the same rank, no new
    entry and no node spent, where a fresh engine runs out."""
    starved = Budget(max_nodes=1, max_depth=1)
    z8 = FiniteGroupUniverse(SizeAtMost(GroupDescriptor.cyclic(8), 1))
    b3 = FiniteGroupUniverse(SizeAtMost(GroupDescriptor.boolean_power(3), 1))
    cases = [(z8, 0b0010_1101, 3, (3, 5)), (b3, 0b0101, NOT_WELL_FOUNDED, (1, 6))]
    for universe, mask, rank, shifts in cases:
        eng = Engine(universe)
        assert eng.tree_rank(mask) == rank
        size = len(eng._ranks)
        for shift in shifts:
            moved = mask_translate(universe.group, mask, shift)
            assert moved != mask
            assert isinstance(Engine(universe).tree_rank(moved, starved), Unknown), mask
            assert eng.tree_rank(moved, starved) == rank, mask
            assert len(eng._ranks) == size, mask


# ---------------------------------------------------------------------------
# Tree dumps
# ---------------------------------------------------------------------------


def test_tree_dump_finite_root():
    root = Engine().tree_dump(finite_set([3]), depth=2)
    assert root["in_family"] and root["rank"] == 0
    assert not root["children"] and not root["classes"]
    assert not root["truncated"]


def test_tree_dump_geo():
    root = Engine().tree_dump(A, depth=2)
    assert not root["in_family"]
    assert root["rank"] == 1
    assert not root["truncated"]
    assert not root["children"] and not root["classes"]


def test_tree_dump_progression_chain():
    node = Engine().tree_dump(ap(2, 0), depth=3)
    for d in range(3):
        assert node["set"] == "ap(2,0)"
        assert node["rank"] is None  # subtree never completes
        assert len(node["classes"]) == 1
        cls = node["classes"][0]
        assert (cls["modulus"], cls["residue"]) == (2, 0)
        assert cls["representative"] == 2 and cls["uniform"]
        assert len(node["children"]) == 1
        child = node["children"][0]
        assert child["shift"] == 2
        node = child["node"]
        assert node["path"] == [2] * (d + 1)
    assert node["truncated"]


def test_tree_dump_depth_zero_and_validation():
    eng = Engine()
    dump = eng.tree_dump(A, depth=0)
    assert dump["truncated"] and dump["rank"] is None
    with pytest.raises(ValueError):
        eng.tree_dump(A, depth=-1)


def test_tree_dump_depth_is_bounded():
    """A dump of MAX_DUMP_DEPTH reaches that depth; one level more is
    refused before any node is built, not left to overflow the stack."""
    assert MAX_DUMP_DEPTH == 200
    node = Engine().tree_dump(ap(2, 0), depth=MAX_DUMP_DEPTH)
    for depth in range(MAX_DUMP_DEPTH):
        assert node["path"] == [2] * depth and not node["truncated"]
        (child,) = node["children"]
        node = child["node"]
    assert node["truncated"] and not node["children"]
    with pytest.raises(ValueError, match=f"dump depth must be <= {MAX_DUMP_DEPTH}"):
        Engine().tree_dump(ap(2, 0), depth=MAX_DUMP_DEPTH + 1)


def test_tree_dump_nodes_are_replayable_derived_sets():
    from thinlab.dsl import parse_set

    eng = Engine()
    a = TWO_TAILS | finite_set([40])
    dump = eng.tree_dump(a, depth=3)

    def walk(node):
        assert parse_set(node["set"]) == eng.derived_set(a, node["path"])
        for child in node["children"]:
            assert child["node"]["path"] == node["path"] + [child["shift"]]
            walk(child["node"])

    walk(dump)


def test_tree_dump_rank_agrees_with_tree_rank():
    eng = Engine()
    for x in (finite_set([2]), A, TWO_TAILS):
        dump = eng.tree_dump(x, depth=6)
        assert dump["rank"] == eng.tree_rank(x)


def test_tree_dump_json_and_dict():
    dump = Engine().tree_dump(TWO_TAILS, depth=2)
    data = json.loads(json.dumps(dump))
    assert set(data) == {
        "path", "set", "in_family", "rank", "truncated", "children", "classes",
    }
    assert data["path"] == []
    assert data["rank"] == 2
    shifts = {c["shift"] for c in data["children"]}
    assert shifts == {1, -1}
    for c in data["children"]:
        assert set(c) == {"shift", "node"}
        assert c["node"]["in_family"] is False


@pytest.mark.parametrize(
    "universe, roots",
    [(SymbolicUniverse(), [TWO_TAILS, ap(2, 0), ap(6, 1) | ap(4, 3) | finite_set([1, 7])]),
     (FiniteGroupUniverse(SizeAtMost(GroupDescriptor.cyclic(5), 1)), [0b00111, 0b01011, 0b11111])],
    ids=["Z", "Z/5"],
)
def test_tree_dump_is_json_native(universe, roots):
    """A dump is made of JSON's own types: it survives a round trip, so
    paths are lists and not tuples."""
    for x in roots:
        dump = Engine(universe).tree_dump(x, depth=3)
        assert json.loads(json.dumps(dump)) == dump


def test_tree_dump_dot():
    dot = tree_dot(Engine().tree_dump(ap(2, 0), depth=2))
    assert dot.startswith("digraph derivation_tree")
    assert dot.rstrip().endswith("}")
    assert "shape=box" in dot
    assert "dashed" in dot  # residue-class summary nodes
    assert "ap(2,0)" in dot


# ---------------------------------------------------------------------------
# Memoization, determinism, budgets
# ---------------------------------------------------------------------------


def test_memo_shares_translation_orbit():
    eng = Engine()
    v0 = eng.classify(TWO_TAILS)
    v1 = eng.classify(TWO_TAILS.translate(41))
    assert v0 == v1 == ExactLevel(2)
    assert eng.classify(TWO_TAILS) is v0


def test_fresh_engines_agree(rng):
    for _ in range(40):
        a = random_set(rng)
        assert verdict_key(Engine().classify(a)) == verdict_key(Engine().classify(a))


def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_depth=0)
    with pytest.raises(ValueError):
        Budget(max_nodes=0)


def test_unknown_reports_consumption():
    from thinlab.bounds import escalate

    eng = Engine()
    deep = escalate(A, eng)  # level 2: needs at least two expansions
    starved = Engine()
    verdict = starved.classify(deep, Budget(max_depth=32, max_nodes=1))
    assert isinstance(verdict, Unknown)
    assert verdict.nodes_used <= 2
    assert verdict.depth_reached <= 32
    assert isinstance(verdict.deepest_path, tuple)


def test_depth_budget_triggers():
    eng = Engine()
    verdict = eng.classify(TWO_TAILS, Budget(max_depth=1, max_nodes=100_000))
    assert isinstance(verdict, Unknown)
    assert verdict.depth_reached == 1


def test_witness_validation():
    with pytest.raises(ValueError):
        CycleWitness((2,), 2, 2, 0)
    CycleWitness((2,), 1, 2, 0)


# ---------------------------------------------------------------------------
# Universe edges: the checks at the API boundary
# ---------------------------------------------------------------------------


def test_symbolic_universe_rejects_bad_sets_and_the_zero_shift():
    eng = Engine()
    for bad in (3, 0b101, "geo(2,1,0,0)"):
        with pytest.raises(TypeError, match="expected a SymbolicSet"):
            eng.classify(bad)
    with pytest.raises(ValueError, match="derivation shifts must be nonzero"):
        eng.derived_set(A, [0])


def test_every_shift_entry_point_checks_its_shift_on_z():
    """A shift of Z is a plain int, the rule a finite group applies to its
    elements: derived_set (also on a run of equal shifts, which it derives
    along multiples of the shift), replay_witness for a shift on the path,
    the repeat shift and the translation, and the universe's derive and
    translate raise TypeError on a bool or a float, integral or not."""
    eng = Engine()
    a = ap(2, 0) | A
    entry_points = [
        lambda g: eng.derived_set(a, [g]),
        lambda g: eng.derived_set(a, [1, g]),
        lambda g: eng.derived_set(a, [g, g]),
        lambda g: eng.replay_witness(a, CycleWitness((g,), 1, 2, 0)),
        lambda g: eng.replay_witness(a, CycleWitness((), 0, g, 0)),
        lambda g: eng.replay_witness(a, CycleWitness((2,), 1, 2, g)),
        lambda g: eng.universe.derive(a, g),
        lambda g: eng.universe.translate(a, g),
    ]
    for call in entry_points:
        for bad in (True, 1.5, 2.0):
            with pytest.raises(TypeError, match="expected an integer shift"):
                call(bad)
    with pytest.raises(ValueError, match="derivation shifts must be nonzero"):
        eng.universe.derive(a, 0)
    with pytest.raises(ValueError, match="derivation shifts must be nonzero"):
        eng.derived_set(a, [0, 0, 0])
    assert eng.replay_witness(ap(2, 0), CycleWitness((), 0, 2, 0))


def test_finite_group_universe_constructor_errors():
    z32 = GroupDescriptor.cyclic(32)
    with pytest.raises(ValueError, match="group order 32 exceeds supported maximum 24"):
        FiniteGroupUniverse(SizeAtMost(z32, 1))


def test_finite_group_universe_rejects_bad_sets_and_the_identity_shift():
    z5 = GroupDescriptor.cyclic(5)
    eng = Engine(FiniteGroupUniverse(SizeAtMost(z5, 1)))
    for bad in (True, A):
        with pytest.raises(TypeError, match="expected a bitmask subset"):
            eng.classify(bad)
    with pytest.raises(ValueError, match="nonidentity"):
        eng.derived_set(0b10111, [0])
    assert eng.derived_set(0b10111, [1]) == 0b00111  # {0,1,2,4} & {1,2,3,0}


@pytest.mark.parametrize(
    "group, top",
    [(GroupDescriptor.cyclic(5), 3), (GroupDescriptor.cyclic(6), 2),
     (GroupDescriptor.boolean_power(2), 0)],
    ids=["Z/5", "Z/6", "(Z/2)^2"],
)
def test_finite_group_tree_dump_labels_and_ranks(group, top):
    """Every dumped node is the derived set along its path, described by
    its elements, and a node with a rank has the rank tree_rank gives it.
    Ranks here stay below the dump depth, so the root of a well-founded
    tree always gets its rank."""
    universe = FiniteGroupUniverse(SizeAtMost(group, 1))
    eng = Engine(universe)
    full = (1 << group.order) - 1
    ranks = set()
    for x in range(full + 1):
        dump = eng.tree_dump(x, depth=4)

        def walk(node):
            y = eng.derived_set(x, node["path"])
            elements = [a for a in range(group.order) if y >> a & 1]
            assert node["set"] == "{" + ",".join(map(str, elements)) + "}"
            assert node["set"] == universe.describe(y)
            if node["rank"] is not None:
                assert node["rank"] == eng.tree_rank(y)
            for child in node["children"]:
                assert child["node"]["path"] == node["path"] + [child["shift"]]
                walk(child["node"])

        walk(dump)
        rank = eng.tree_rank(x)
        assert dump["rank"] == (None if rank is NOT_WELL_FOUNDED else rank)
        ranks.add(dump["rank"])
    assert ranks == {None, *range(top + 1)}
    root = eng.tree_dump(full, depth=2)
    assert root["set"] == universe.describe(full) and len(root["children"]) == group.order - 1


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(6), GroupDescriptor.boolean_power(3)],
    ids=lambda g: g.describe(),
)
def test_group_match_translate_agrees_with_search_over_all_shifts(group):
    """match_translate finds the first shift of every translate, and no other."""
    universe = FiniteGroupUniverse(SizeAtMost(group, 1))
    n = group.order

    def translate(x, g):
        return sum(1 << group.op(g, a) for a in range(n) if x >> a & 1)

    for x in range(1 << n):
        first = {}
        for g in range(group.order):
            first.setdefault(translate(x, g), g)
        for y in range(1 << n):
            assert universe.match_translate(x, y) == first.get(y)


def test_periodic_anchor_and_match_translate_agree_with_search_over_all_shifts():
    """Trying only the shifts that move a present residue finds the same
    first translate as trying every shift mod p.  The search runs on
    residue sets: for one modulus, ordering the progression tuples is
    ordering the sorted residues."""
    universe = SymbolicUniverse()

    def residues(a):
        return [t.residue for t in a.aps]

    for p in range(1, 11):
        for mask in range(1, 1 << p):
            x = make_set(periodic=[(p, [r for r in range(p) if mask >> r & 1])])
            if x.period != p:
                continue  # the same set as a subset of Z/period, seen before
            mirror = make_set(periodic=[(p, [-r % p for r in range(p) if mask >> r & 1])])
            for t in range(p):
                y = x.translate(t)
                for z in (y, mirror.translate(t)):
                    target = set(residues(z))
                    first = next(
                        (r for r in range(p) if {(a + r) % p for a in residues(x)} == target),
                        None,
                    )
                    assert universe.match_translate(x, z) == first


# ---------------------------------------------------------------------------
# Cycles are fixed points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(n) for n in range(2, 11)]
    # (Z/2)^1 is the group Z/2 again; its own id keeps the Z/2 case's id unique
    + [pytest.param(GroupDescriptor.boolean_power(1), id="(Z/2)^1")]
    + [GroupDescriptor.boolean_power(d) for d in range(2, 4)]
    + [GroupDescriptor(m) for m in ((2, 4), (3, 3), (2, 2, 3))],
    ids=lambda g: g.describe(),
)
def test_mask_containing_a_translate_of_itself_equals_it(group):
    """g + A inside A forces g + A == A, so a derived set matches an
    ancestor by translation only when it equals its parent."""
    for x in range(1 << group.order):
        for g in range(group.order):
            y = mask_translate(group, x, g)
            if y & ~x == 0:
                assert y == x


@pytest.mark.parametrize("max_ap", [0, 2], ids=["no_periodic_part", "periodic_part"])
def test_symbolic_set_containing_a_translate_of_itself_equals_it(rng, max_ap):
    moved_onto_itself = 0
    for _ in range(150):
        a = random_set(rng, max_geo=3, max_ap=max_ap)
        for t in range(-40, 41):
            b = a.translate(t)
            if b.intersect(a) == b:
                assert b == a
                moved_onto_itself += t != 0 and a != empty_set()
    # a nonempty set equals a nonzero translate of itself only when it is
    # periodic, so with a periodic part the implication is exercised at
    # nonzero shifts too
    assert (moved_onto_itself > 0) == (max_ap > 0)


def test_norm_key_is_a_translate_constant_on_translation_orbits(rng):
    """Sets without a periodic part; classify memoizes on the same key."""
    universe = SymbolicUniverse()
    for _ in range(300):
        a = random_set(rng, max_ap=0)
        key = universe.norm_key(a)
        assert universe.match_translate(a, key) is not None
        assert universe.norm_key(a.translate(rng.randint(-50, 50))) == key
    eng = Engine()
    assert eng.classify(TWO_TAILS.translate(41)) is eng.classify(TWO_TAILS)


def test_level_at_most_number_of_keys(rng):
    """Without a periodic part, a child keeps key (cp, d) (reduced
    coefficient, offset) only if (cp, d - g) is a key too, and D & (D + g)
    is smaller than any finite nonempty D, so every step loses a key and the
    level is at most the number of keys (and no cycle is found).  Tails
    with nearby offsets and shared coefficients give the deeper levels."""

    def clustered(base):
        return empty_set(base).union(*[
            geo(base, rng.choice([1, 3]), rng.randrange(6), rng.randrange(2), base=base)
            for _ in range(rng.randrange(1, 6))
        ])

    levels = set()
    for base in (2, 3):
        eng = Engine()
        for _ in range(500):
            for a in (random_set(rng, base=base, max_geo=4, max_ap=0), clustered(base)):
                keys = {t[:2] for t in a.tails}
                verdict = eng.classify(a)
                assert isinstance(verdict, ExactLevel)
                assert verdict.level <= len(keys)
                levels.add(verdict.level)
    assert levels >= {0, 1, 2, 3}


HUGE_START = [
    (f"geo(2,1,0,{10**6})", "ExactLevel(level=1)", "1"),
    (f"geo(2,1,0,{10**6}) | {{5}}", "ExactLevel(level=1)", "1"),
    (f"geo(2,1,0,{10**6}) | ap(4,1)", "replay ok", "NOT_WELL_FOUNDED"),
    (f"geo(4,3,5,{5 * 10**5}) | geo(4,3,7,{5 * 10**5})", "ExactLevel(level=2)", "2"),
]

_HUGE_START_RUN = """
import json, sys
from thinlab.dsl import parse_set
from thinlab.engine import Engine, NotInThinCompletion
a = parse_set(sys.argv[1])
verdict = Engine().classify(a)
shown = repr(verdict)
if isinstance(verdict, NotInThinCompletion):
    shown = "replay ok" if Engine().replay_witness(a, verdict.witness) else "replay FAILED"
print(json.dumps([shown, repr(Engine().tree_rank(a))]))
"""


@pytest.mark.parametrize("text, verdict, rank", HUGE_START)
def test_huge_start_exponents_cost_what_small_ones_do(text, verdict, rank):
    """Tails are stored with symbolic exponents, so a start index of 10**6
    never becomes a literal 2**(10**6) on the classify, tree_rank or
    witness replay path; the bound is generous against a run of well
    under a second."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_START_RUN, text],
        env=env, capture_output=True, text=True, timeout=30, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [verdict, rank]


_COPRIME_STEPS_RUN = """
import sys
from thinlab.dsl import parse_set
from thinlab.engine import Engine
print(repr(Engine().classify(parse_set(sys.argv[1]))))
"""


def test_coprime_exponent_steps_cost_no_lcm():
    """Ten tails of one coefficient with prime exponent steps 2..29: their
    classes meet pairwise, so the offsets 0..9 form one D and the level is
    h({0..9}) = 10.  The lcm of the steps is about 6.5e9; classify finds
    the meeting families without walking the classes below it."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    text = " | ".join(f"geo({2**p},1,{d},0)" for d, p in enumerate(primes))
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _COPRIME_STEPS_RUN, text],
        env=env, capture_output=True, text=True, timeout=30, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ExactLevel(level=10)"
