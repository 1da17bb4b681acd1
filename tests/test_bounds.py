from itertools import combinations_with_replacement, product

import pytest

from thinlab.bounds import (
    CubicSearchResult,
    UnionLevelReport,
    c_n_k,
    c_of_n,
    cubic_image_min,
    escalate,
    union_level_check,
)
from thinlab.engine import Budget, Engine, ExactLevel, Unknown
from thinlab.symbolic import ap, empty_set, finite_set, geo

A = geo(2, 1, 0, 0)


def image(vec) -> set[int]:
    """Subset-sum image, computed directly from the definition."""
    sums = {0}
    for g in vec:
        sums = sums | {s + g for s in sums}
    return sums


NONZERO3 = [v for v in range(-3, 4) if v != 0]


# ---------------------------------------------------------------------------
# Subset-sum image minimums
# ---------------------------------------------------------------------------


def test_image_oracle_examples():
    assert image((1,)) == {0, 1}
    assert image((1, 1)) == {0, 1, 2}
    assert image((1, -1)) == {-1, 0, 1}
    assert image((2, 3)) == {0, 2, 3, 5}


def test_cubic_image_min_frozen():
    assert cubic_image_min(1, 3) == CubicSearchResult(1, 3, 2, (1,))
    assert cubic_image_min(2, 1) == CubicSearchResult(2, 1, 3, (1, 1))
    assert cubic_image_min(3, 3) == CubicSearchResult(3, 3, 4, (1, 1, 1))


def test_min_image_is_m_plus_one():
    for m in range(1, 9):
        res = cubic_image_min(m, 3)
        assert res.min_image_size == m + 1
        assert res.argmin == (1,) * m
        assert len(image(res.argmin)) == res.min_image_size


def test_cubic_image_min_exhaustive_with_signs():
    # re-run the m = 2 and m = 3 searches over raw signed vectors, without
    # the canonicalization the package applies
    for m in (2, 3):
        raw_min = min(len(image(vec)) for vec in product(NONZERO3, repeat=m))
        assert raw_min == cubic_image_min(m, 3).min_image_size


def test_image_size_invariant_under_signs_and_order(rng):
    for _ in range(300):
        m = rng.randint(1, 7)
        vec = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(m)]
        size = len(image(vec))
        rng.shuffle(vec)
        assert len(image(vec)) == size
        j = rng.randrange(m)
        flipped = list(vec)
        flipped[j] = -flipped[j]
        assert len(image(flipped)) == size
        assert size >= m + 1


def test_cubic_image_min_validation():
    with pytest.raises(ValueError):
        cubic_image_min(0, 3)
    with pytest.raises(ValueError):
        cubic_image_min(3, 0)
    with pytest.raises(ValueError):
        cubic_image_min(30, 30)  # canonical vector count guard


# ---------------------------------------------------------------------------
# c and its recursion
# ---------------------------------------------------------------------------


def test_c_of_n_small_values():
    assert [c_of_n(n) for n in range(1, 9)] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_c_of_n_minimality_exhaustive():
    # c(2) = 2: some single entry keeps its image at 2, every pair escapes
    assert any(len(image((g,))) <= 2 for g in NONZERO3)
    assert all(len(image(v)) > 2 for v in product(NONZERO3, repeat=2))
    # c(3) = 3 likewise one length down
    assert any(len(image(v)) <= 3 for v in product(NONZERO3, repeat=2))
    assert all(len(image(v)) > 3 for v in product(NONZERO3, repeat=3))


def test_c_of_n_validation():
    with pytest.raises(ValueError):
        c_of_n(0)


def test_c_of_n_matches_search_and_is_exact_past_64():
    for b in range(1, 5):
        for n in range(1, 9):
            searched = next(
                m
                for m in range(1, n + 2)
                if cubic_image_min(m, b).min_image_size > n
            )
            assert c_of_n(n) == searched, (n, b)
    assert c_of_n(65) == 65
    assert c_of_n(10**6) == 10**6
    assert c_n_k(65, 1) == 64


def test_c_n_k_frozen():
    assert c_n_k(2, 0) == 0
    assert c_n_k(2, 1) == 1
    assert c_n_k(5, 1) == c_of_n(5) - 1
    assert c_n_k(2, 2) == 16


def test_c_n_k_deep_value_is_huge_but_exact():
    v = c_n_k(2, 3)
    assert isinstance(v, int)
    assert v == 15 + 16**65536
    assert v > c_n_k(2, 2) > c_n_k(2, 1) > c_n_k(2, 0)


def test_c_n_k_unrepresentable_step_raises():
    with pytest.raises(ValueError):
        c_n_k(2, 4)
    with pytest.raises(ValueError):
        c_n_k(30, 2)


def test_c_n_k_refuses_by_argument_size():
    # 17 ** (2 ** 17) has 535 752 bits; 18 ** (2 ** 18) has over 2 ** 20
    assert c_n_k(17, 2) == 16 + 17 ** (2**17) - 1
    with pytest.raises(ValueError, match="c of 5 bits"):
        c_n_k(18, 2)
    with pytest.raises(ValueError, match="c of 262145 bits"):
        c_n_k(2, 4)


def test_c_n_k_at_one_stays_zero_without_deep_recursion():
    assert [c_n_k(1, k) for k in (0, 1, 2, 3)] == [0, 0, 0, 0]
    assert c_n_k(1, 5000) == 0


def test_c_n_k_validation():
    with pytest.raises(ValueError):
        c_n_k(0, 1)
    with pytest.raises(ValueError):
        c_n_k(2, -1)


# ---------------------------------------------------------------------------
# Escalation
# ---------------------------------------------------------------------------


def test_escalate_frozen_first_step():
    eng = Engine()
    b = escalate(A, eng)
    assert b == geo(2, 3, 0, 0) | geo(2, 3, 1, 0)
    assert eng.classify(b) == ExactLevel(2)


def test_escalate_second_step_components():
    eng = Engine()
    b = escalate(A, eng)
    c = escalate(b, eng)
    assert c == (
        geo(2, 9, 0, 0) | geo(2, 9, 1, 0) | geo(2, 9, 3, 0) | geo(2, 9, 4, 0)
    )
    assert eng.classify(c) == ExactLevel(3)
    # spot membership: 9*2**n + {0, 1, 3, 4}
    for n in (0, 3, 7):
        for d in (0, 1, 3, 4):
            assert c.member(9 * 2**n + d)
        assert not c.member(9 * 2**n + 2)
    # the stages scaled into disjoint bands: the union is at least as high
    # as every stage
    verdict = eng.classify(A.scale(3) | b.scale(9) | c.scale(27))
    assert isinstance(verdict, ExactLevel) and verdict.level >= 3


def test_escalate_rejects_unsuitable_inputs():
    eng = Engine()
    with pytest.raises(ValueError):
        escalate(finite_set([1, 2]), eng)  # level 0
    with pytest.raises(ValueError):
        escalate(ap(2, 0), eng)  # not classified at a finite level
    deep = escalate(A, eng)  # level 2: needs real exploration
    with pytest.raises(ValueError):
        escalate(deep, Engine(), Budget(max_depth=32, max_nodes=1))


# ---------------------------------------------------------------------------
# Union-level reports
# ---------------------------------------------------------------------------


def test_union_check_frozen_translate_pair():
    eng = Engine()
    report = union_level_check(A, A.translate(5), eng)
    assert (report.level_a, report.level_b, report.k) == (1, 1, 1)
    assert report.union_verdict == ExactLevel(2)
    assert report.union_level == 2
    assert (report.raw_bound, report.adjusted_bound) == (1, 2)
    assert report.union_level > report.raw_bound  # raw recursion undercounts
    assert report.within_adjusted_bound is True
    assert not report.inconclusive


def test_union_check_self_union():
    report = union_level_check(A, A)
    assert report.union_verdict == ExactLevel(1)
    assert report.union_level <= report.raw_bound


def test_union_check_rejects_unclassified():
    with pytest.raises(ValueError):
        union_level_check(A, ap(2, 0))


def test_union_check_starved_budget_inconclusive():
    eng = Engine()
    deep_a = escalate(A, eng)
    deep_b = escalate(A, eng).translate(7)
    report = union_level_check(deep_a, deep_b, Engine(), Budget(32, 6))
    assert report.inconclusive
    assert isinstance(report.union_verdict, Unknown)
    assert report.union_level is None
    assert report.within_adjusted_bound is None


def test_union_check_reports_level_four_without_a_bound():
    """c(2, 4) is refused, so two level-4 inputs get a report whose bounds
    are unavailable (None), not a ValueError."""
    eng = Engine()
    stage = A
    for _ in range(3):
        stage = escalate(stage, eng)
    with pytest.raises(ValueError):
        c_n_k(2, 4)
    report = union_level_check(stage, stage.translate(1000), eng)
    assert (report.level_a, report.level_b, report.k) == (4, 4, 4)
    assert report.union_verdict == ExactLevel(5)
    assert (report.raw_bound, report.adjusted_bound) == (None, None)
    assert report.within_adjusted_bound is None
    assert not report.inconclusive


def test_union_check_window_witness_pair_reaches_seven():
    """D = {1,3,4} and E = {0,2,5,6} each hold no 2-cube, D | E is a run of
    seven, so the unions of geo(2,1,d,0) over D and over E sit at level 2
    and theirs at level 7.  That is the most two level-2 sets can reach
    (every 2-coloring of the subsets of a 7-set has a one-colored Boolean
    square), and the bound union_level_check asserts at k = 2 is that
    exact 7, where c(2, 2) + 2 would give 18."""

    def tails(offsets):
        out = empty_set()
        for d in offsets:
            out |= geo(2, 1, d, 0)
        return out

    d_set, e_set = tails((1, 3, 4)), tails((0, 2, 5, 6))
    eng = Engine()
    assert eng.classify(d_set) == eng.classify(e_set) == ExactLevel(2)
    assert eng.classify(tails(range(7))) == ExactLevel(7)
    report = union_level_check(d_set, e_set, eng)
    assert (report.level_a, report.level_b, report.k) == (2, 2, 2)
    assert (report.raw_bound, report.union_level, report.adjusted_bound) == (16, 7, 7)
    assert report.within_adjusted_bound is True
    assert not report.inconclusive


def test_union_check_level_three_keeps_the_recursion():
    """Above k = 2 the asserted bound is the paper's recursion, c(2, k) + k."""
    eng = Engine()
    stage = escalate(escalate(A, eng), eng)
    report = union_level_check(stage, stage.translate(1000), eng)
    assert (report.level_a, report.level_b, report.k) == (3, 3, 3)
    assert report.union_level == 4
    assert report.raw_bound == c_n_k(2, 3)
    assert report.adjusted_bound == c_n_k(2, 3) + 3
    assert report.within_adjusted_bound is True


def test_union_check_random_geo_pairs(rng):
    from thinlab.symbolic import random_set

    eng = Engine()
    done = 0
    for _ in range(300):
        if done >= 60:
            break
        a, b = random_set(rng, max_ap=0), random_set(rng, max_ap=0)
        va, vb = eng.classify(a), eng.classify(b)
        if not (isinstance(va, ExactLevel) and isinstance(vb, ExactLevel)):
            continue
        if max(va.level, vb.level) > 2:
            continue
        report = union_level_check(a, b, eng)
        if report.inconclusive:
            continue
        assert report.within_adjusted_bound, (a, b)
        done += 1
    assert done >= 60
