import itertools
import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from thinlab.symbolic import (
    APTerm,
    GeoTerm,
    SymbolicSet,
    ap,
    empty_set,
    finite_set,
    geo,
    make_set,
    random_set,
)
from thinlab.symbolic import _crt, _minimal_shift_period, _orbit_split, _residue_meet

# ---------------------------------------------------------------------------
# Independent brute-force evaluation of raw term lists.  All derived
# expectations below were computed with this first and then frozen.
# ---------------------------------------------------------------------------


def brute_eval(finite, geos, aps, lo, hi):
    """{x in [lo, hi]} of the denoted set, by direct term evaluation."""
    out = {x for x in finite if lo <= x <= hi}
    for b, c, d, n0 in geos:
        for n in range(n0, n0 + 90):
            v = c * b**n + d
            if lo <= v <= hi:
                out.add(v)
            if abs(v) > max(abs(lo), abs(hi)) + abs(d):
                break
    for m, r in aps:
        first = lo + ((r - lo) % m)
        out.update(range(first, hi + 1, m))
    return out


def brute_of(a: SymbolicSet, lo: int, hi: int):
    return brute_eval(
        a.finite,
        [(t.base, t.coeff, t.offset, t.n0) for t in a.geos],
        [(t.modulus, t.residue) for t in a.aps],
        lo,
        hi,
    )


# ---------------------------------------------------------------------------
# Term validation
# ---------------------------------------------------------------------------


def test_geo_term_validation():
    GeoTerm(2, 1, 0, 0)
    with pytest.raises(ValueError):
        GeoTerm(1, 1, 0, 0)
    with pytest.raises(ValueError):
        GeoTerm(2, 0, 0, 0)
    with pytest.raises(ValueError):
        GeoTerm(2, 1, 0, -1)


def test_ap_term_validation():
    APTerm(1, 0)
    with pytest.raises(ValueError):
        APTerm(0, 0)
    with pytest.raises(ValueError):
        APTerm(4, 4)
    with pytest.raises(ValueError):
        APTerm(4, -1)


def test_session_base_compatibility():
    with pytest.raises(ValueError):
        make_set(geos=[GeoTerm(3, 1, 0, 0)], base=2)
    with pytest.raises(ValueError):
        make_set(base=1)
    # powers of the session base are fine
    make_set(geos=[GeoTerm(8, 1, 0, 0)], base=2)
    make_set(geos=[GeoTerm(9, 1, 0, 0)], base=3)


# ---------------------------------------------------------------------------
# Membership and windows
# ---------------------------------------------------------------------------


def test_member_examples():
    assert geo(2, 1, 0, 0).member(8)
    assert not geo(2, 1, 0, 0).member(6)
    assert ap(2, 0).member(-4)
    assert 8 in geo(2, 1, 0, 0)


def test_member_respects_start_index():
    a = geo(2, 1, 0, 2)
    assert not a.member(1)
    assert not a.member(2)
    assert a.member(4)


def test_window_examples():
    assert geo(2, 1, 0, 0).window(0, 10) == [1, 2, 4, 8]
    assert ap(3, 1).window(0, 10) == [1, 4, 7, 10]
    assert empty_set().window(-5, 5) == []
    assert finite_set([3]).window(5, 4) == []


def test_window_huge_endpoints():
    a = geo(2, 3, 7, 0)
    v = 3 * 2**60 + 7
    assert a.window(v - 1, v + 1) == [v]
    assert ap(10**12, 5).window(3 * 10**12, 4 * 10**12) == [3 * 10**12 + 5]


@given(
    st.lists(st.integers(-50, 50), max_size=5),
    st.lists(
        st.tuples(
            st.integers(1, 3),
            st.integers(-6, 6).filter(lambda c: c != 0),
            st.integers(-40, 40),
            st.integers(0, 3),
        ),
        max_size=3,
    ),
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 11)), max_size=2
    ),
    st.integers(-120, 120),
)
def test_normalization_preserves_denotation(finite, geo_specs, ap_specs, lo):
    geos = [GeoTerm(2**j, c, d, n0) for j, c, d, n0 in geo_specs]
    aps = [APTerm(m, r % m) for m, r in ap_specs]
    a = make_set(finite, geos, aps)
    hi = lo + 150
    expected = brute_eval(
        finite,
        [(t.base, t.coeff, t.offset, t.n0) for t in geos],
        [(t.modulus, t.residue) for t in aps],
        lo,
        hi,
    )
    assert set(a.window(lo, hi)) == expected
    for x in list(expected)[:20]:
        assert a.member(x)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def test_canonical_form_invariants(rng):
    for _ in range(300):
        a = random_set(rng)
        # finite part disjoint from all terms
        for x in a.finite:
            assert not any(t.member(x) for t in a.geos)
            assert not any(t.member(x) for t in a.aps)
        # no geo term inside the periodic part
        for t in a.geos:
            assert not all(
                any(p.member(t.coeff * t.base**n + t.offset) for p in a.aps)
                for n in range(t.n0, t.n0 + 8)
            ) or not a.aps
        # sorted deterministic term order
        assert list(a.finite) == sorted(a.finite)
        assert list(a.geos) == sorted(a.geos)
        assert list(a.aps) == sorted(a.aps)
        # idempotence
        assert make_set(a.finite, a.geos, a.aps, base=a.base) == a


def _equivalent_presentation(a: SymbolicSet, rng: random.Random):
    """Raw parts denoting the same set, built by shifting tail starts,
    splitting terms by exponent parity, and spilling members into the
    finite part."""
    finite = list(a.finite)
    geos = []
    aps = []
    for t in a.geos:
        j = rng.randrange(0, 4)
        for i in range(j):
            finite.append(t.coeff * t.base ** (t.n0 + i) + t.offset)
        n0 = t.n0 + j
        if rng.random() < 0.5:
            geos.append(GeoTerm(t.base, t.coeff, t.offset, n0))
        else:
            geos.append(GeoTerm(t.base**2, t.coeff * t.base**n0, t.offset, 0))
            geos.append(
                GeoTerm(t.base**2, t.coeff * t.base ** (n0 + 1), t.offset, 0)
            )
    for t in a.aps:
        if rng.random() < 0.5:
            aps.append(t)
        else:
            aps.append(APTerm(2 * t.modulus, t.residue))
            aps.append(APTerm(2 * t.modulus, t.residue + t.modulus))
        finite.append(t.residue + 3 * t.modulus)
    rng.shuffle(finite)
    rng.shuffle(geos)
    return finite, geos, aps


def test_canonical_form_is_history_free(rng):
    for _ in range(400):
        a = random_set(rng)
        finite, geos, aps = _equivalent_presentation(a, rng)
        assert make_set(finite, geos, aps, base=a.base) == a


def test_equal_denotation_equal_form_regression():
    # same set assembled along two different construction histories
    x = geo(2, 48, 5, 0) | geo(16, 2, -3, 0) | geo(16, 4, -3, 0)
    y = geo(16, 16, -3, 0) | ap(10, 0) | ap(10, 2) | ap(10, 4)
    z = ap(10, 5) | ap(10, 6) | ap(10, 8)
    one = (x | y) | z
    two = x | (y | z)
    parts = two.to_json_dict()
    rebuilt = make_set(
        parts["finite"],
        [GeoTerm(t["b"], t["c"], t["d"], t["n0"]) for t in parts["geo"]],
        [APTerm(t["c"], t["d"]) for t in parts["ap"]],
    )
    assert one == two == rebuilt


def test_ap_merge_to_minimal_period():
    merged = make_set(aps=[APTerm(4, 1), APTerm(4, 3)])
    assert merged == ap(2, 1)
    assert merged.period == 2
    assert make_set(aps=[APTerm(3, 0), APTerm(3, 1), APTerm(3, 2)]) == ap(1, 0)


def test_geo_absorbed_by_progression():
    assert ap(2, 0) | geo(2, 2, 0, 0) == ap(2, 0)
    assert ap(2, 0) | geo(2, 1, 0, 0) == finite_set([1]) | ap(2, 0)


# ---------------------------------------------------------------------------
# Translate / scale
# ---------------------------------------------------------------------------


def test_translate_examples():
    assert geo(2, 1, 0, 0).translate(1) == geo(2, 1, 1, 0)
    a = geo(2, 3, 5, 0) | ap(6, 1) | finite_set([9])
    assert a.translate(0) == a
    assert a.translate(11).translate(-11) == a


def test_translate_is_canonical(rng):
    for _ in range(300):
        a = random_set(rng)
        g = rng.randint(-60, 60)
        moved = a.translate(g)
        assert make_set(moved.finite, moved.geos, moved.aps, base=a.base) == moved
        lo = rng.randint(-100, 40)
        window = set(moved.window(lo, lo + 80))
        assert window == {x + g for x in a.window(lo - g, lo + 80 - g)}


def test_scale_examples():
    assert geo(2, 1, 0, 0).scale(3) == geo(2, 3, 0, 0)
    assert ap(2, 0).scale(2) == ap(4, 0)
    a = geo(2, 5, -2, 1) | ap(3, 2)
    assert a.scale(1) == a
    with pytest.raises(ValueError):
        a.scale(0)


def test_scale_windows(rng):
    for _ in range(200):
        a = random_set(rng)
        k = rng.choice([v for v in range(-6, 7) if v != 0])
        scaled = a.scale(k)
        lo, hi = -400, 400
        expected = {
            k * x for x in a.window(-400, 400) if lo <= k * x <= hi
        }
        assert {v for v in scaled.window(lo, hi)} >= expected
        assert {
            v for v in scaled.window(lo, hi) if abs(v // k) <= 400
        } == expected


def test_scale_negative_one_mirrors():
    a = geo(2, 1, 0, 0) | finite_set([-7])
    m = a.scale(-1)
    assert set(m.window(-40, 40)) == {-x for x in a.window(-40, 40)}
    assert m.scale(-1) == a


# ---------------------------------------------------------------------------
# Union / intersect
# ---------------------------------------------------------------------------


def test_union_examples():
    two = geo(2, 3, 0, 0) | geo(2, 3, 1, 0)
    assert len(two.geos) == 2 and not two.finite and not two.aps
    a = geo(2, 5, 1, 0) | ap(4, 2)
    assert a | a == a
    assert a | empty_set() == a


def test_union_base_mismatch():
    with pytest.raises(ValueError):
        geo(2, 1, 0, 0, base=2).union(geo(3, 1, 0, 0, base=3))
    with pytest.raises(ValueError, match="session base mismatch: 2 vs 3"):
        finite_set([1]).union(geo(2, 1, 0, 0), geo(3, 1, 0, 0, base=3))
    # the operands with tails set the base, as with two operands
    assert finite_set([1], base=3).union(geo(2, 1, 0, 0), empty_set(base=3)).base == 2


def test_intersect_power_alignment():
    # oracle: enumerate 2^n and 2^m + 1 and intersect by brute force
    powers = {2**n for n in range(80)}
    shifted = {2**m + 1 for m in range(80)}
    assert powers & shifted == {2}
    hit = geo(2, 1, 0, 0).intersect(geo(2, 1, 0, 0).translate(1))
    assert hit == finite_set([2])
    assert hit.is_finite()


def test_intersect_parity_empty():
    assert ap(2, 0) & ap(4, 1) == empty_set()


def test_intersect_idempotent():
    a = geo(2, 3, 0, 0)
    assert a & a == a


def test_intersect_crt():
    # x = 1 mod 6 and x = 3 mod 4 has the unique class 7 mod 12
    assert ap(6, 1) & ap(4, 3) == ap(12, 7)


def test_intersect_geo_with_progression():
    # 2^n = 1 mod 3 exactly for even n, leaving the powers of 4
    want = brute_eval([], [(2, 1, 0, 0)], [], 0, 4096) & brute_eval(
        [], [], [(3, 1)], 0, 4096
    )
    got = geo(2, 1, 0, 0) & ap(3, 1)
    assert set(got.window(0, 4096)) == want
    assert got == geo(4, 1, 0, 0)


def test_intersect_laws(rng):
    for _ in range(150):
        a, b, c = random_set(rng), random_set(rng), random_set(rng)
        ab = a & b
        assert ab == b & a
        assert (ab & c) == (a & (b & c))
        lo = rng.randint(-200, 100)
        wa = set(a.window(lo, lo + 120))
        assert set(ab.window(lo, lo + 120)) <= wa


def test_intersect_windows(rng):
    for _ in range(300):
        a, b = random_set(rng), random_set(rng)
        lo = rng.randint(-(2**30), 2**30 - 200)
        hi = lo + rng.randint(0, 200)
        assert set((a & b).window(lo, hi)) == set(a.window(lo, hi)) & set(
            b.window(lo, hi)
        )
        assert set((a | b).window(lo, hi)) == set(a.window(lo, hi)) | set(
            b.window(lo, hi)
        )
    # tails of distinct keys whose offsets differ by a multiple of 8: the
    # cross-key enumeration runs over every exponent up to the 2-adic
    # valuation of the difference, and each coincidence lies in the window
    lo, hi = -(2**14), 2**14
    coeffs = [1, -1, 3, 5, -3, 6, 12]
    for diff in (8, -8, 16, -24, 40, 48, -64, 128, 192, -256):
        for _ in range(12):
            d = rng.randint(-24, 24)
            a = geo(2 ** rng.choice([1, 1, 2, 3]), rng.choice(coeffs), d, rng.randrange(3))
            b = geo(2 ** rng.choice([1, 1, 2, 3]), rng.choice(coeffs), d + diff,
                    rng.randrange(3))
            wa, wb = brute_of(a, lo, hi), brute_of(b, lo, hi)
            assert set((a & b).window(lo, hi)) == wa & wb
            assert set((a | b).window(lo, hi)) == wa | wb


# ---------------------------------------------------------------------------
# Shift spectrum
# ---------------------------------------------------------------------------


def test_spectrum_thin_geo():
    spec = geo(2, 1, 0, 0).shift_spectrum()
    assert spec.explicit == ()
    assert spec.classes == ()
    # windowed spot check: self-intersections stay tiny
    a = geo(2, 1, 0, 0)
    for g in (1, 2, 3, 7, 64, 2**20):
        child = a & a.translate(g)
        assert child.is_finite() and len(child.finite) <= 2


def test_spectrum_two_tails():
    a = geo(2, 3, 0, 0) | geo(2, 3, 1, 0)
    spec = a.shift_spectrum()
    explicit = {g: child for g, child in spec.explicit if not child.is_finite()}
    assert set(explicit) == {1, -1}
    assert explicit[1] == geo(2, 3, 1, 0)
    assert explicit[-1] == geo(2, 3, 0, 0)
    assert spec.classes == ()


def test_spectrum_progression_class():
    spec = ap(2, 0).shift_spectrum()
    assert spec.explicit == ()
    assert len(spec.classes) == 1
    cls = spec.classes[0]
    assert (cls.modulus, cls.residue, cls.representative) == (2, 0, 2)
    assert cls.child == ap(2, 0)
    assert cls.uniform


def test_spectrum_completeness_exhaustive(rng):
    bound_hits = 0
    for _ in range(100):
        a = random_set(rng)
        spec = a.shift_spectrum()
        bound = a.finite_intersection_bound(1024)
        for g in range(1, 1025):
            for s in (g, -g):
                if spec.covers(s):
                    continue
                child = a & a.translate(s)
                assert child.is_finite(), (a, s)
                assert len(child.finite) <= bound, (a, s)
                bound_hits += 1
    # most shifts of a thin set fall outside the spectrum; make sure the
    # sweep actually exercised that path at scale
    assert bound_hits > 50_000


def test_spectrum_explicit_children_exact(rng):
    for _ in range(120):
        a = random_set(rng)
        for g, child in a.shift_spectrum().explicit:
            lo = rng.randint(-300, 100)
            hi = lo + 250
            expect = set(a.window(lo, hi)) & {
                g + x for x in a.window(lo - g, hi - g)
            }
            assert set(child.window(lo, hi)) == expect


def test_spectrum_uniform_classes_sampled(rng):
    seen = 0
    for _ in range(160):
        a = random_set(rng)
        for cls in a.shift_spectrum().classes:
            if not cls.uniform:
                continue
            for i in range(1, 21):
                g = cls.residue + cls.modulus * rng.randint(-10, 10)
                if g == 0:
                    g = cls.residue + cls.modulus * 11
                child = a & a.translate(g)
                assert child == cls.child.translate(g - cls.representative)
                seen += 1
    assert seen >= 400


def test_spectrum_class_children_exact_even_when_not_uniform(rng):
    for _ in range(80):
        a = random_set(rng)
        for cls in a.shift_spectrum().classes:
            g = cls.representative
            child = a & a.translate(g)
            assert child == cls.child


# ---------------------------------------------------------------------------
# Helpers against their slow definitions
# ---------------------------------------------------------------------------


def test_minimal_shift_period_exhaustive():
    for m in range(1, 13):
        for mask in range(1 << m):
            residues = frozenset(r for r in range(m) if mask >> r & 1)
            slow = next(
                q for q in range(1, m + 1)
                if {(r + q) % m for r in residues} == residues
            )
            assert _minimal_shift_period(m, residues) == slow


def test_orbit_split_matches_stepping_loop():
    for s in range(0, 9):
        for j in range(1, 7):
            for u in range(0, 12):
                for v in range(1, 9):
                    m, head = s, []
                    while m < u:
                        head.append(m)
                        m += j
                    step = math.lcm(j, v)
                    firsts = [m + idx * j for idx in range(step // j)]
                    got_head, got_firsts, got_step = _orbit_split(s, j, u, v)
                    assert (list(got_head), list(got_firsts), got_step) == (
                        head, firsts, step
                    )


# ---------------------------------------------------------------------------
# Serialization, misc
# ---------------------------------------------------------------------------


def test_json_schema():
    a = finite_set([5]) | geo(2, 3, 1, 0) | ap(4, 2)
    data = a.to_json_dict()
    assert set(data) == {"finite", "geo", "ap"}
    assert data["finite"] == [5]
    assert data["geo"] == [{"b": 2, "c": 3, "d": 1, "n0": 0}]
    assert data["ap"] == [{"c": 4, "d": 2}]


def test_json_round_trip(rng):
    for _ in range(200):
        a = random_set(rng)
        assert SymbolicSet.from_json(a.to_json()) == a
        assert SymbolicSet.from_json_dict(json.loads(a.to_json())) == a


def test_json_n0_defaults():
    data = {"geo": [{"b": 2, "c": 1, "d": 0}]}
    assert SymbolicSet.from_json_dict(data) == geo(2, 1, 0, 0)


def test_repr_shape():
    a = finite_set([9]) | geo(2, 12, 5, 0) | ap(6, 1)
    assert repr(a) == "{9} | geo(2,12,5,0) | ap(6,1)"
    assert repr(empty_set()) == "{}"


def test_period_property():
    assert ap(6, 1).period == 6
    assert geo(2, 1, 0, 0).period is None
    a = ap(6, 1) | ap(4, 0)
    assert a.period == 12
    assert a.translate(5).period == 12


def test_emptiness_and_finiteness():
    assert empty_set().is_empty()
    assert not finite_set([0]).is_empty()
    assert finite_set([0]).is_finite()
    assert not ap(5, 0).is_finite()
    assert not geo(2, 1, 0, 0).is_finite()


def test_residue_meet_matches_pairwise_crt():
    """Every pair of nonempty residue sets with moduli 1..6: meeting the
    residues class by class modulo the gcd gives the progressions, without
    repeats, that pairing every residue with every other through the CRT
    gives."""
    parts = [
        tuple(APTerm(m, r) for r in rs)
        for m in range(1, 7)
        for k in range(1, m + 1)
        for rs in itertools.combinations(range(m), k)
    ]
    for a in parts:
        for b in parts:
            pairwise = [
                APTerm(sol[1], sol[0])
                for t1 in a
                for t2 in b
                if (sol := _crt(t1.residue, t1.modulus, t2.residue, t2.modulus))
            ]
            assert sorted(_residue_meet(a, b)) == sorted(pairwise)
