import pytest

from thinlab.engine import (
    NOT_WELL_FOUNDED,
    Budget,
    CycleWitness,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NotInThinCompletion,
    Unknown,
)
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.symbolic import ap, empty_set, finite_set, geo, random_set

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


def test_level_at_most():
    eng = Engine()
    assert eng.level_at_most(A, 1)
    assert not eng.level_at_most(A, 0)
    assert eng.level_at_most(finite_set([3]), 0)
    for k in range(4):
        assert not eng.level_at_most(ap(2, 0), k)
    assert eng.level_at_most(TWO_TAILS, 2)
    assert not eng.level_at_most(TWO_TAILS, 1)
    with pytest.raises(ValueError):
        eng.level_at_most(A, -1)


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


def test_escalation_chain_levels():
    from thinlab.bounds import escalate

    eng = Engine()
    a = A
    for lvl in (1, 2, 3, 4):
        assert eng.classify(a) == ExactLevel(lvl)
        assert eng.tree_rank(a) == lvl
        a = escalate(a, eng)


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


# ---------------------------------------------------------------------------
# Tree dumps
# ---------------------------------------------------------------------------


def test_tree_dump_finite_root():
    dump = Engine().tree_dump(finite_set([3]), depth=2)
    root = dump.root
    assert root.in_family and root.rank == 0
    assert not root.children and not root.classes
    assert not root.truncated


def test_tree_dump_geo():
    dump = Engine().tree_dump(A, depth=2)
    root = dump.root
    assert not root.in_family
    assert root.rank == 1
    assert not root.truncated
    assert not root.children and not root.classes


def test_tree_dump_progression_chain():
    dump = Engine().tree_dump(ap(2, 0), depth=3)
    node = dump.root
    for d in range(3):
        assert node.label == "ap(2,0)"
        assert node.rank is None  # subtree never completes
        assert len(node.classes) == 1
        cls = node.classes[0]
        assert (cls["modulus"], cls["residue"]) == (2, 0)
        assert cls["representative"] == 2 and cls["uniform"]
        assert len(node.children) == 1
        shift, node = node.children[0]
        assert shift == 2
        assert node.path == (2,) * (d + 1)
    assert node.truncated


def test_tree_dump_depth_zero_and_validation():
    eng = Engine()
    dump = eng.tree_dump(A, depth=0)
    assert dump.root.truncated and dump.root.rank is None
    with pytest.raises(ValueError):
        eng.tree_dump(A, depth=-1)


def test_tree_dump_nodes_are_replayable_derived_sets():
    from thinlab.dsl import parse_set

    eng = Engine()
    a = TWO_TAILS | finite_set([40])
    dump = eng.tree_dump(a, depth=3)

    def walk(node):
        assert parse_set(node.label) == eng.derived_set(a, node.path)
        for shift, child in node.children:
            assert child.path == node.path + (shift,)
            walk(child)

    walk(dump.root)


def test_tree_dump_rank_agrees_with_tree_rank():
    eng = Engine()
    for x in (finite_set([2]), A, TWO_TAILS):
        dump = eng.tree_dump(x, depth=6)
        assert dump.root.rank == eng.tree_rank(x)


def test_tree_dump_json_and_dict():
    import json

    dump = Engine().tree_dump(TWO_TAILS, depth=2)
    data = json.loads(dump.to_json())
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


def test_tree_dump_dot():
    dot = Engine().tree_dump(ap(2, 0), depth=2).to_dot()
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


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.cyclic(6), GroupDescriptor.boolean_power(3)],
    ids=lambda g: g.describe(),
)
def test_group_match_translate_agrees_with_search_over_all_shifts(group):
    """The size filter in match_translate never hides a translate."""
    universe = FiniteGroupUniverse(group, SizeAtMost(group, 1))
    n = group.order

    def translate(x, g):
        return sum(1 << group.op(g, a) for a in range(n) if x >> a & 1)

    for x in range(1 << n):
        first = {}
        for g in group.elements():
            first.setdefault(translate(x, g), g)
        for y in range(1 << n):
            assert universe.match_translate(x, y) == first.get(y)
