from itertools import combinations_with_replacement, product

import pytest

from thinlab.bounds import (
    CFunction,
    CubicSearchResult,
    UnionLevelReport,
    build_c_table,
    c_n_k,
    c_of_n,
    cubic_image_min,
    escalate,
    union_level_check,
)
from thinlab.engine import Budget, Engine, ExactLevel, Unknown
from thinlab.symbolic import ap, finite_set, geo

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


def test_c_function_caching_and_bound_tracking():
    f = CFunction()
    assert f(2) == 2
    assert f(2) == 2
    assert f.bounded_args == []
    big = f(65)
    assert big == 64**2 + 1
    assert f.bounded_args == [65]
    assert f.cache[65] == big


def test_c_n_k_frozen():
    f = CFunction()
    assert c_n_k(2, 0, f) == 0
    assert c_n_k(2, 1, f) == 1
    assert c_n_k(5, 1, f) == c_of_n(5) - 1
    assert c_n_k(2, 2, f) == 16


def test_c_n_k_deep_value_is_huge_but_exact():
    v = c_n_k(2, 3)
    assert isinstance(v, int)
    assert v.bit_length() == 524288
    assert v > c_n_k(2, 2) > c_n_k(2, 1) > c_n_k(2, 0)


def test_c_n_k_unrepresentable_step_raises():
    with pytest.raises(ValueError):
        c_n_k(2, 4)


def test_c_n_k_validation():
    with pytest.raises(ValueError):
        c_n_k(0, 1)
    with pytest.raises(ValueError):
        c_n_k(2, -1)


def test_c_table_csv():
    table = build_c_table([2, 3], [(2, 1), (2, 2)])
    lines = table.to_csv().splitlines()
    assert lines[0] == "kind,n,k,value"
    assert "c_exact,2,,2" in lines
    assert "c_exact,3,,3" in lines
    assert "c_upper_bound,2,,2" in lines
    assert "c_upper_bound,3,,5" in lines
    assert "c_n_k,2,1,1" in lines
    assert "c_n_k,2,2,16" in lines


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
    assert report.within_raw_bound is False  # raw recursion undercounts
    assert report.within_adjusted_bound is True
    assert not report.inconclusive


def test_union_check_self_union():
    report = union_level_check(A, A)
    assert report.union_verdict == ExactLevel(1)
    assert report.within_raw_bound is True


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
