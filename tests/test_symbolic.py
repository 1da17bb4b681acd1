import itertools
import math
import random
import time

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
from thinlab.bounds import escalate
from thinlab.symbolic import (
    _crt,
    _geo_geo,
    _in_tail,
    _minimal_shift_period,
    _normalize,
    _orbit_split,
    _partner_index,
    _powmod_orbit,
    _residue_meet,
)

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


@pytest.mark.parametrize("c", [0, -3])
def test_progression_modulus_checked_before_reduction(c):
    """ap(c, d) checks the modulus before d is reduced mod c, so a zero
    modulus is a ValueError, not a ZeroDivisionError."""
    with pytest.raises(ValueError) as info:
        ap(c, 5)
    assert str(info.value) == f"progression modulus must be >= 1, got {c}"


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


def test_member_and_the_bulk_test_agree_with_the_residues(rng):
    """member and the bulk test _in_terms both give the definition: x mod p
    among the residues, or x in a tail."""
    for _ in range(10):
        a = make_set(
            aps=[APTerm(m, rng.randrange(m)) for m in rng.sample([5, 7, 11, 13, 17], 3)],
            geos=[GeoTerm(2, rng.randint(1, 5), rng.randint(-9, 9), 0)],
        )
        xs = range(-200, 200)
        want = {x for x in xs if x % a.period in set(a.residues)
                or any(_in_tail(x, t, a.base) for t in a.tails)}
        assert {x for x in xs if a.member(x)} - set(a.finite) == want - set(a.finite)
        assert a._in_terms(xs) == want


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
        # the stored periodic part: minimal period, sorted reduced residues,
        # and the aps view spelled from it
        assert all(0 <= r < a.period for r in a.residues)
        assert all(r < s for r, s in zip(a.residues, a.residues[1:]))
        assert (a.period is None) == (a.residues == ())
        if a.period is not None:
            assert _minimal_shift_period(a.period, frozenset(a.residues)) == a.period
        assert a.aps == tuple(APTerm(a.period, r) for r in a.residues)
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
    rebuilt = make_set(two.finite, two.geos, two.aps)
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


def _tail_values(tail, b0: int, bound: int) -> set[int]:
    """The values cp * b0**m + d of a tail (cp, d, m0, q) with
    |cp * b0**m| <= bound."""
    cp, d, m, q = tail
    out = set()
    while abs(cp) * b0**m <= bound:
        out.add(cp * b0**m + d)
        m += q
    return out


def test_partner_index_keeps_every_pair_that_meets():
    """Tails over bases 2, 3 and 5 with coefficients of both signs and
    offsets up to 10**4, half of them built to meet an earlier tail.  The
    partners of a key are exactly the tails whose offset differs from its
    own by a multiple of the gcd of the coefficients, and every tail that
    a window search finds meeting the key is among them."""
    rng = random.Random(1011)
    met_same = met_cross = 0
    for b0 in (2, 3, 5):
        for _ in range(40):
            tails = []
            while len(tails) < 16:
                cp = rng.choice([-1, 1]) * rng.randrange(1, 60)
                if cp % b0 == 0:
                    continue
                m0, q = rng.randrange(4), rng.randrange(1, 4)
                if tails and rng.random() < 0.5:
                    # a tail through a value of an earlier tail
                    cp1, d1, s1, j1 = rng.choice(tails)
                    if rng.random() < 0.4:
                        cp = cp1
                    k = m0 + q * rng.randrange(3)
                    d = cp1 * b0 ** (s1 + j1 * rng.randrange(3)) + d1 - cp * b0**k
                else:
                    d = rng.randint(-10**4, 10**4)
                if abs(d) <= 10**4:
                    tails.append((cp, d, m0, q))
            partners = _partner_index(tuple(tails))
            values = [_tail_values(t, b0, 10**9) for t in tails]
            for t1, v1 in zip(tails, values):
                cp1, d1 = t1[:2]
                kept = partners(cp1, d1)
                assert sorted(kept) == sorted(
                    t2 for t2 in tails if (t2[1] - d1) % math.gcd(cp1, t2[0]) == 0
                )
                for t2, v2 in zip(tails, values):
                    if t2[:2] != t1[:2] and v1 & v2:
                        assert t2 in kept
                        if t2[0] == cp1:
                            met_same += cp1 < 0
                        else:
                            met_cross += 1
    assert met_same > 50 and met_cross > 200


def _geo_geo_by_walk(part1, part2, b0: int) -> list[int]:
    """The common values of two tails of distinct keys, found by walking
    either tail's exponents up to the b0-adic valuation v of the offset
    difference and solving for the other tail's exponent at each one."""
    def exponent(y, c):  # e >= 0 with c * b0**e == y, or None
        if y % c or y // c < 1:
            return None
        q, e = y // c, 0
        while q % b0 == 0:
            q, e = q // b0, e + 1
        return e if q == 1 else None

    diff, v = part2[1] - part1[1], 0
    while diff % b0**(v + 1) == 0:
        v += 1
    vals = set()
    for (ca, da, sa, ja), (cb, db, sb, jb) in ((part1, part2), (part2, part1)):
        for m in range(sa, v + 1, ja):
            k = exponent(ca * b0**m + da - db, cb)
            if k is not None and k >= sb and (k - sb) % jb == 0:
                vals.add(ca * b0**m + da)
    return sorted(vals)


def test_geo_geo_tests_two_exponents_like_the_walk():
    """Two tails of distinct keys meet only where min(m, k) is the b0-adic
    valuation of the offset difference, or where m == k: over prime and
    composite bases, coefficients of both signs and valuations up to about
    200, _geo_geo finds exactly the values that the walk over every
    exponent up to that valuation finds.  More than half of the pairs are
    built through a common value."""
    rng = random.Random(2028)
    met = same_exponent = 0
    for b0 in (2, 3, 4, 6, 10):
        top = {2: 200, 3: 120, 4: 100, 6: 80, 10: 60}[b0]
        for _ in range(300):
            tails = []
            while len(tails) < 2:
                cp = rng.choice([-1, 1]) * rng.randrange(1, 40)
                if cp % b0:
                    tails.append((cp, rng.randint(-50, 50), rng.randrange(4), rng.randrange(1, 4)))
            (cp1, d1, s1, j1), (cp2, _, s2, j2) = tails
            roll = rng.random()
            shared = 0.4 <= roll < 0.6 and cp1 != cp2
            if roll < 0.4:  # through a common value at exponents m and k
                m, k = rng.randrange(top), rng.randrange(top)
                d2 = cp1 * b0**m + d1 - cp2 * b0**k
            elif shared:  # through a common value at one shared exponent
                m = rng.randrange(top)
                d2 = d1 + (cp1 - cp2) * b0**m
            else:
                d2 = d1 + rng.choice([-1, 1]) * rng.randrange(1, 2**20) * b0**rng.randrange(top)
            part1, part2 = (cp1, d1, s1, j1), (cp2, d2, s2, j2)
            if part1[:2] == part2[:2]:
                continue
            found, vals = _geo_geo(part1, part2, b0)
            assert found == [] and vals == _geo_geo_by_walk(part1, part2, b0), (part1, part2, b0)
            met += bool(vals)
            same_exponent += shared and bool(vals)
    assert met > 250 and same_exponent > 60


def _reference_intersect(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    """a & b with no pair skipped: every tail of a meets every tail of b
    through _geo_geo, and every cross-key coincidence among the resulting
    tails is handed to _normalize as a finite value, so the partner index
    inside _normalize has nothing left to find."""
    b0 = a._common_base(b)
    fin = {x for x in a.finite if b.member(x)} | {x for x in b.finite if a.member(x)}
    tails = []
    for periodic, parts in ((a, b.tails), (b, a.tails)):
        p = periodic.period
        if p is not None:
            for cp, d, s, j in parts:
                head, firsts, step = _orbit_split(s, j, *_powmod_orbit(b0, p))
                hits = [m for m in [*head, *firsts] if (cp * b0**m + d) % p in periodic.residues]
                fin.update(cp * b0**m + d for m in hits if m in head)
                tails += [(cp, d, m, step) for m in hits if m in firsts]
    for part1 in a.tails:
        for part2 in b.tails:
            found, vals = _geo_geo(part1, part2, b0)
            tails += found
            fin.update(vals)
    for cp, d, _, _ in tails:
        for part in tails:
            if part[:2] != (cp, d):
                fin.update(_geo_geo((cp, d, 0, 1), part, b0)[1])
    meet = []
    if a.period is not None and b.period is not None:
        meet.append(_residue_meet(a.period, a.residues, b.period, b.residues))
    return _normalize(b0, fin, tails, meet)


def test_intersect_matches_all_pairs_reference(rng):
    """Pairing only the tails that can meet changes no intersection: random
    sets over bases 2 and 3 with up to 6 tails, each against another random
    set and against a translate of itself, and escalation stages 1-5
    against their translate by every explicit spectrum shift."""
    for base in (2, 3):
        for max_geo in (2, 4, 6):
            for _ in range(60):
                a = random_set(rng, base=base, max_geo=max_geo)
                for b in (
                    random_set(rng, base=base, max_geo=max_geo),
                    a.translate(rng.randint(-20, 20)),
                ):
                    assert a & b == _reference_intersect(a, b)
    stage = geo(2, 1, 0, 0)
    for _ in range(5):
        for g, child in stage.shift_spectrum().explicit:
            assert child == _reference_intersect(stage, stage.translate(g))
        stage = escalate(stage)


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
    off_spectrum = 0
    for _ in range(100):
        a = random_set(rng)
        spec = a.shift_spectrum()
        explicit = {s for s, _ in spec.explicit}
        for g in range(1, 1025):
            for s in (g, -g):
                # a shift is covered when it is explicit or lies in a class
                if s in explicit or any(
                    (s - c.residue) % c.modulus == 0 for c in spec.classes
                ):
                    continue
                child = a & a.translate(s)
                assert child.is_finite(), (a, s)
                off_spectrum += 1
    # most shifts of a thin set fall outside the spectrum; make sure the
    # sweep actually exercised that path at scale
    assert off_spectrum > 50_000


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


def test_spectrum_negative_children_are_exact_translates(rng):
    """Each -g child is built as the translate of the +g child; it equals
    the intersection A & (A - g) itself: seeded random sets over bases 2
    and 3 with up to 4 tails and a periodic part in about half of them,
    and escalation stages 1-5."""
    corpus = [
        random_set(rng, base=base, max_geo=max_geo, max_ap=1)
        for base in (2, 3)
        for max_geo in (2, 3, 4)
        for _ in range(200)
    ]
    stage = geo(2, 1, 0, 0)
    for _ in range(5):
        corpus.append(stage)
        stage = escalate(stage)
    shifts = periodic = 0
    for a in corpus:
        explicit = a.shift_spectrum().explicit
        assert explicit == tuple((g, a.intersect(a.translate(g))) for g, _ in explicit), a
        shifts += len(explicit)
        periodic += bool(explicit) and a.period is not None
    assert shifts >= 300
    assert periodic >= 40


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


def test_spectrum_classes_match_the_per_class_definition(rng):
    """The class deltas are the differences of residues with residues and
    with eventual tail residues, and a class is uniform when the set has no
    tails and no finite element or pair of distinct finite elements lies
    on its delta: checked class by class on sets whose finite parts often
    hold one residue twice."""
    uniform = nonuniform = 0
    for _ in range(300):
        a = random_set(rng, max_finite=8) | ap(rng.randrange(2, 9), rng.randrange(9))
        p, rs = a.period, set(a.residues)
        u, v = _powmod_orbit(a.base, p)
        tres = {(cp * pow(a.base, m, p) + d) % p
                for cp, d, s, j in a.tails for m in _orbit_split(s, j, u, v)[1]}
        deltas = {(r1 - r2) % p for r1 in rs for r2 in rs}
        deltas |= {(t - r) % p for t in tres for r in rs} | {(r - t) % p for t in tres for r in rs}
        classes = a.shift_spectrum().classes
        assert [c.residue for c in classes] == sorted(deltas)
        for cls in classes:
            expect = not a.tails and not any(
                (f - cls.residue) % p in rs for f in a.finite
            ) and not any(
                (f1 - f2 - cls.residue) % p == 0
                for f1 in a.finite for f2 in a.finite if f1 != f2
            )
            assert cls.uniform == expect, (a, cls.residue)
            uniform += expect
            nonuniform += not expect
    assert uniform >= 100 and nonuniform >= 100


@pytest.mark.parametrize("finite, zero_uniform", [
    (range(0, 8633 * 100, 8633), False), (range(0, 898, 3), True),
])
def test_wide_spectrum_reads_classes_off_residue_sets(finite, zero_uniform):
    """ap(97,1) | ap(89,2) has period 8633 and 8633 classes; with 100 or
    300 finite elements the spectrum builds its residue sets once and
    looks residues up in a set, so it stays well under 5 s.  The class of
    delta 0 is uniform only when no residue is held twice."""
    a = finite_set(finite) | ap(97, 1) | ap(89, 2)
    t0 = time.process_time()
    spec = a.shift_spectrum()
    assert time.process_time() - t0 < 5.0
    assert len(spec.classes) == 8633 and a.period == 8633
    assert spec.classes[0].residue == 0 and spec.classes[0].uniform == zero_uniform


# ---------------------------------------------------------------------------
# Helpers against their slow definitions
# ---------------------------------------------------------------------------


def test_minimal_shift_period_exhaustive():
    for m in range(1, 15):
        for mask in range(1 << m):
            residues = frozenset(r for r in range(m) if mask >> r & 1)
            slow = next(
                q for q in range(1, m + 1)
                if {(r + q) % m for r in residues} == residues
            )
            assert _minimal_shift_period(m, residues) == slow


def _period_by_trial_division(m: int, residues: frozenset[int]) -> int:
    """Least divisor q of m with residues + q == residues, trying every
    divisor found by trial division up to sqrt(m)."""
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    divisors = sorted(set(small + [m // d for d in small]))
    return next(q for q in divisors if all((r + q) % m in residues for r in residues))


def test_minimal_shift_period_matches_trial_division_up_to_10_6():
    """Seeded subsets of Z/m for m up to 10^6, half of them built as a union
    of cosets of a random subgroup qZ/m, so that their period is q or a
    divisor of it."""
    rng = random.Random(31)
    periodic = 0
    for _ in range(300):
        m = rng.randrange(1, 10**6 + 1)
        if rng.random() < 0.5:
            q = rng.choice([m // k for k in range(1, min(m, 2000) + 1) if m % k == 0])
            picked = rng.sample(range(q), rng.randrange(1, min(q, 20) + 1))
            residues = frozenset(r + q * i for r in picked for i in range(m // q))
        else:
            residues = frozenset(rng.sample(range(m), rng.randrange(1, min(m, 50) + 1)))
        expected = _period_by_trial_division(m, residues)
        periodic += expected < m
        assert _minimal_shift_period(m, residues) == expected
    assert periodic > 100


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
# Printing, misc
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sets", [
    (ap(1, 0), ap(1000003, 0)),
    (ap(2, 0), ap(2, 1), ap(999983, 0)),
], ids=["ap1_and_wide", "two_halves_and_wide"])
def test_union_covering_z_is_not_refused_by_the_lcm_cap(sets):
    """Past the lcm cap, residues are merged per modulus: a modulus with
    every residue makes the periodic part Z, so a wide modulus beside it
    lifts nothing.  Without a complete modulus the cap refuses the lcm."""
    assert sets[0].union(*sets[1:]) == ap(1, 0)
    with pytest.raises(ValueError, match="exceed the canonicalization limit"):
        ap(2, 0).union(ap(999983, 0))


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
        (m, rs)
        for m in range(1, 7)
        for k in range(1, m + 1)
        for rs in itertools.combinations(range(m), k)
    ]
    for p1, a in parts:
        for p2, b in parts:
            pairwise = [
                sol
                for r1 in a
                for r2 in b
                if (sol := _crt(r1, p1, r2, p2))
            ]
            m, residues = _residue_meet(p1, a, p2, b)
            assert sorted((r, m) for r in residues) == sorted(pairwise)


def test_finite_parts_meet_by_hash_and_terms(rng):
    """The finite part of a & b is the common finite elements plus each
    finite element that lies in the other set's terms: against the
    element-by-element reference, on sets that share finite elements and
    hold finite elements inside each other's progressions and tails."""
    for _ in range(200):
        a, b = random_set(rng), random_set(rng)
        shared = finite_set(rng.sample(range(-30, 31), rng.randrange(0, 6)))
        a, b = a | shared, b | shared
        a = a | finite_set(b.window(-40, 40)[: rng.randrange(0, 4)])
        b = b | finite_set(a.window(-40, 40)[: rng.randrange(0, 4)])
        assert a & b == _reference_intersect(a, b)
        assert set(shared.finite) <= set((a & b).window(-30, 30))
