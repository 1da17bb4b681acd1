"""Exact symbolic subsets of Z.

A set is a finite part plus finitely many geometric tails
{c * b^n + d : n >= n0} plus finitely many two-sided progressions
{c * n + d : n in Z}.  All geometric bases must be powers of one session
base b0 (default 2).  The class is closed under translation, scaling by a
nonzero integer, finite union and pairwise intersection; membership,
finiteness and equality are decidable, and equality of canonical forms
coincides with equality of the denoted sets.

Canonical form
--------------
* progressions are stored with their minimal common period p: one APTerm
  per residue class of the (unique) maximal periodic subset;
* each geometric tail is stored as a tuple (cp, d, m0, q), the set
  {cp * b0**m + d : m >= m0, m = m0 mod q}, keyed by (reduced coefficient
  cp, offset d), where cp carries no factor of b0; per key the exponent
  set is decomposed with its minimal eventual period and maximal downward
  extension; boundary elements representable under several keys are
  redistributed deterministically;
* the finite part is disjoint from every term.

Exponents stay symbolic: no operation builds b0**m0, so a tail with a huge
start exponent costs what a small one does.  Literal GeoTerms exist only
where terms enter (make_set) or leave (the `geos` view, which repr and JSON
print as geo(b0**q, cp * b0**m0, d, 0)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_BASE = 2

# residue enumeration over mixed progression moduli stops here; beyond it
# the canonical form itself would be astronomically wide
PERIOD_ENUM_LIMIT = 1_000_000


def _val(b: int, x: int) -> int:
    """b-adic valuation of x != 0."""
    n = 0
    while x % b == 0:
        x //= b
        n += 1
    return n


def _pow_exponent(z: int, b: int) -> int | None:
    """e with b**e == z, or None."""
    if z < 1:
        return None
    e = 0
    while z % b == 0:
        z //= b
        e += 1
    return e if z == 1 else None


def _solve_pow(y: int, c: int, b: int) -> int | None:
    """e >= 0 with c * b**e == y, or None."""
    if y == 0 or c == 0:
        return None
    q, r = divmod(y, c)
    if r != 0 or q < 1:
        return None
    return _pow_exponent(q, b)


def _divisors(n: int) -> list[int]:
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _minimal_shift_period(m: int, residues: frozenset[int]) -> int:
    """Least q dividing m with residues + q == residues in Z/m."""
    if len(residues) == m:
        return 1
    if len(residues) == 1:
        return m
    for q in _divisors(m):
        if all((r + q) % m in residues for r in residues):
            return q
    return m


def _powmod_orbit(b: int, m: int) -> tuple[int, int]:
    """(preperiod, period) of the sequence b**e mod m."""
    seen: dict[int, int] = {}
    val = 1 % m
    e = 0
    while val not in seen:
        seen[val] = e
        val = (val * b) % m
        e += 1
    u = seen[val]
    return u, e - u


def _orbit_split(s: int, j: int, u: int, v: int) -> tuple[range, range, int]:
    """Split the exponents {s + j*a : a >= 0} at the preperiod u of a power
    sequence with period v: (exponents below u, first exponent of each
    periodic class, class step lcm(j, v))."""
    m = s if s >= u else s + (u - s + j - 1) // j * j
    step = math.lcm(j, v)
    return range(s, m, j), range(m, m + step, j), step


def _crt(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (m1), x = r2 (m2); returns (residue, lcm) or None."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    lcm = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return ((r1 + m1 * t) % lcm, lcm)


# (cp, d, m0, q): the tail {cp * b0**m + d : m >= m0, m = m0 mod q}
Tail = tuple[int, int, int, int]


def _in_tail(x: int, tail: Tail, b0: int) -> bool:
    cp, d, m0, q = tail
    e = _solve_pow(x - d, cp, b0)
    return e is not None and e >= m0 and (e - m0) % q == 0


@dataclass(frozen=True, order=True)
class GeoTerm:
    """{coeff * base**n + offset : n >= n0}; base a power >= 2 of the session base."""

    base: int
    coeff: int
    offset: int
    n0: int = 0

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"geometric base must be >= 2, got {self.base}")
        if self.coeff == 0:
            raise ValueError("geometric coefficient must be nonzero")
        if self.n0 < 0:
            raise ValueError(f"start index must be >= 0, got {self.n0}")

    def member(self, x: int) -> bool:
        e = _solve_pow(x - self.offset, self.coeff, self.base)
        return e is not None and e >= self.n0


@dataclass(frozen=True, order=True)
class APTerm:
    """{modulus * n + residue : n in Z} with modulus >= 1."""

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"progression modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} not reduced mod {self.modulus}")

    def member(self, x: int) -> bool:
        return (x - self.residue) % self.modulus == 0


def _geo_parts(term: GeoTerm, b0: int) -> Tail:
    """The tail (reduced coeff, offset, start exponent, exponent step) of a
    literal term over base b0."""
    j = _pow_exponent(term.base, b0)
    if j is None or j == 0:
        raise ValueError(f"base {term.base} is not a positive power of session base {b0}")
    t = _val(b0, term.coeff)
    cp = term.coeff // b0**t
    return cp, term.offset, t + j * term.n0, j


def _strip_periodic(
    cp: int, d: int, ap_list: list[tuple[int, int]], singles: set[int],
    p: int, resset: frozenset[int], b0: int,
) -> tuple[list[tuple[int, int]], set[int]]:
    """Remove exponents whose value lies in the periodic part."""
    u, v = _powmod_orbit(b0, p)

    def in_p(m: int) -> bool:
        return (cp * pow(b0, m, p) + d) % p in resset

    out_singles = {m for m in singles if not in_p(m)}
    out_aps: list[tuple[int, int]] = []
    for s, j in ap_list:
        head, firsts, step = _orbit_split(s, j, u, v)
        out_singles.update(m for m in head if not in_p(m))
        out_aps.extend((m, step) for m in firsts if not in_p(m))
    return out_aps, out_singles


def _decompose_family(
    ap_list: list[tuple[int, int]], singles: set[int]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Canonical tails (start, period) plus leftover exponents.

    The eventual period is minimal and each tail extends as far down as
    membership continues; finitely many exponents fall outside every tail.
    Per residue class mod Q, the lcm of the steps, the exponents run from
    the least progression element up, extended downward by singles.  A
    tail of period q starts q above the highest exponent missing from its
    classes mod Q, or at its least class member when none is missing, so
    the work does not grow with the gaps between start exponents.
    """
    if not ap_list:
        return [], sorted(singles)
    big_q = math.lcm(*[j for _, j in ap_list])
    low: dict[int, int] = {}
    for s, j in ap_list:
        for m in range(s, s + big_q, j):
            if m < low.get(m % big_q, m + 1):
                low[m % big_q] = m
    for rho, m in low.items():
        while m - big_q in singles:
            m -= big_q
        low[rho] = m
    q = _minimal_shift_period(big_q, frozenset(low))
    starts: dict[int, int] = {}
    for rho, m in low.items():
        starts[rho % q] = max(starts.get(rho % q, rho % q), m - big_q + q)
    tails = [(starts[r], q) for r in sorted(starts)]
    leftovers: set[int] = set()
    for s, j in ap_list:
        step = math.lcm(j, q)
        for m in range(s, s + step, j):
            leftovers.update(range(m, starts[m % q], step))
    for m in singles:
        r = m % q
        if r not in starts or m < starts[r]:
            leftovers.add(m)
    return tails, sorted(leftovers)


def _normalize(
    base: int,
    finite: Iterable[int],
    parts: Sequence[Tail],
    aps: Iterable[APTerm],
) -> SymbolicSet:
    """The canonical set of raw parts: tails need not be canonical, and
    progressions may mix moduli."""
    aps = list(aps)
    finite = set(finite)

    # Periodic part: the union of the input progressions is itself the
    # maximal periodic subset (geometric tails are too sparse to complete
    # a residue class), stored as minimal period plus residues.  Each
    # residue is lifted to the lcm of the moduli; mixed moduli can make
    # that wide, so they are capped, while one shared modulus lifts nothing.
    p = None
    residues: list[int] = []
    if aps:
        mods = {t.modulus for t in aps}
        big = math.lcm(*mods)
        if len(mods) > 1 and big > PERIOD_ENUM_LIMIT:
            raise ValueError(
                "progression moduli with lcm %d exceed the "
                "canonicalization limit %d" % (big, PERIOD_ENUM_LIMIT)
            )
        present = frozenset(
            x for t in aps for x in range(t.residue, big, t.modulus)
        )
        p = _minimal_shift_period(big, present)
        residues = sorted({r % p for r in present})
        if parts and p > PERIOD_ENUM_LIMIT:
            raise ValueError(
                "geometric terms cannot be reduced against a periodic "
                "part with period %d (limit %d)" % (p, PERIOD_ENUM_LIMIT)
            )
    resset = frozenset(residues)

    # Geometric families keyed by (reduced coeff, offset).  Each family's
    # exponent set is made semantic: native exponents, plus coincidences
    # with other keys' terms, plus representable finite inputs.  The result
    # depends only on the denoted set, not on how it was presented, at the
    # cost of letting two tails share finitely many values.
    fams: dict[tuple[int, int], tuple[list[tuple[int, int]], set[int]]] = {}
    for cp, d, s, j in parts:
        fams.setdefault((cp, d), ([], set()))[0].append((s, j))

    tails: list[Tail] = []
    pool: set[int] = set(finite)
    for (cp, d) in sorted(fams):
        ap_list, singles = fams[(cp, d)]
        values = list(finite)
        for part in parts:
            if part[:2] != (cp, d):
                values += _geo_geo((cp, d, 0, 1), part, base)[1]
        for v in values:
            m = _solve_pow(v - d, cp, base)
            if m is not None:
                singles.add(m)
        if p is not None:
            ap_list, singles = _strip_periodic(cp, d, ap_list, singles, p, resset, base)
        fam_tails, leftovers = _decompose_family(ap_list, singles)
        tails.extend((cp, d, m0, q) for m0, q in fam_tails)
        pool.update(cp * base**m + d for m in leftovers)

    kept = [
        x for x in pool
        if not (p is not None and x % p in resset)
        and not any(_in_tail(x, t, base) for t in tails)
    ]
    ap_terms = tuple(APTerm(p, r) for r in residues) if p is not None else ()
    return SymbolicSet(tuple(sorted(kept)), tuple(sorted(tails)), ap_terms, base)


@dataclass(frozen=True)
class SymbolicSet:
    """Canonical symbolic subset of Z.  Construct via the factory helpers
    (finite_set, geo, ap, empty_set) or the set operations; the raw
    constructor trusts its arguments to be canonical already."""

    finite: tuple[int, ...] = ()
    tails: tuple[Tail, ...] = ()
    aps: tuple[APTerm, ...] = ()
    base: int = DEFAULT_BASE

    # -- queries ---------------------------------------------------------

    def member(self, x: int) -> bool:
        if x in self.finite:
            return True
        if any(t.member(x) for t in self.aps):
            return True
        return any(_in_tail(x, t, self.base) for t in self.tails)

    def __contains__(self, x: int) -> bool:
        return self.member(x)

    def is_finite(self) -> bool:
        return not self.tails and not self.aps

    def is_empty(self) -> bool:
        return not self.finite and self.is_finite()

    @property
    def period(self) -> int | None:
        """Minimal period of the periodic part, if any."""
        return self.aps[0].modulus if self.aps else None

    @property
    def geos(self) -> tuple[GeoTerm, ...]:
        """The tails as sorted literal terms geo(b0**q, cp * b0**m0, d, 0):
        the printed view, for repr, JSON and readers of terms."""
        b0 = self.base
        return tuple(sorted(
            GeoTerm(b0**q, cp * b0**m0, d) for cp, d, m0, q in self.tails
        ))

    def window(self, lo: int, hi: int) -> list[int]:
        """Sorted elements in [lo, hi]."""
        if lo > hi:
            return []
        out = {x for x in self.finite if lo <= x <= hi}
        for t in self.aps:
            first = lo + ((t.residue - lo) % t.modulus)
            out.update(range(first, hi + 1, t.modulus))
        for tail in self.tails:
            c, d = tail[0], tail[1]
            reach = max(abs(lo - d), abs(hi - d))
            while abs(c) <= reach:
                if lo <= c + d <= hi and _in_tail(c + d, tail, self.base):
                    out.add(c + d)
                c *= self.base
        return sorted(out)

    # -- constructions ---------------------------------------------------

    def translate(self, g: int) -> "SymbolicSet":
        """g + A, term by term: a shift keeps the canonical form, and its
        order except among progressions.  Lists, not generators, keep peak RSS down."""
        if g == 0:
            return self
        return SymbolicSet(
            tuple([x + g for x in self.finite]),
            tuple([(cp, d + g, m0, q) for cp, d, m0, q in self.tails]),
            tuple(sorted(
                APTerm(t.modulus, (t.residue + g) % t.modulus) for t in self.aps
            )),
            self.base,
        )

    def scale(self, k: int) -> "SymbolicSet":
        """k * A for k != 0.  Renormalizes: scaling can move cross-key
        coincidences across the exponent-zero boundary, and cp * k can
        gain factors of b0.  Each tail re-enters make_set as the term
        geo(b0**q, cp*k * b0**(m0 mod q), d*k, m0 div q), whose literal
        stays small however large m0 is."""
        if k == 0:
            raise ValueError("cannot scale a set by 0")
        if k == 1:
            return self
        b0 = self.base
        return make_set(
            (x * k for x in self.finite),
            (GeoTerm(b0**q, cp * k * b0 ** (m0 % q), d * k, m0 // q)
             for cp, d, m0, q in self.tails),
            (APTerm(t.modulus * abs(k), (t.residue * k) % (t.modulus * abs(k)))
             for t in self.aps),
            base=b0,
        )

    def union(self, *others: "SymbolicSet") -> "SymbolicSet":
        """The union of self and others, canonicalized once."""
        sets = (self,) + others
        return _normalize(
            self._common_base(*others),
            [x for s in sets for x in s.finite],
            [t for s in sets for t in s.tails],
            [t for s in sets for t in s.aps],
        )

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.union(other)

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        b0 = self._common_base(other)
        fin = {x for x in self.finite if other.member(x)}
        fin.update(x for x in other.finite if self.member(x))
        tails: list[Tail] = []

        for periodic, parts in ((self, other.tails), (other, self.tails)):
            if not periodic.aps or not parts:
                continue
            p = periodic.aps[0].modulus
            rset = frozenset(t.residue for t in periodic.aps)
            orbit = _powmod_orbit(b0, p)
            for part in parts:
                found, vals = _geo_in_ap(part, p, rset, orbit, b0)
                tails.extend(found)
                fin.update(vals)

        for part1 in self.tails:
            for part2 in other.tails:
                found, vals = _geo_geo(part1, part2, b0)
                tails.extend(found)
                fin.update(vals)

        return _normalize(b0, fin, tails, _residue_meet(self.aps, other.aps))

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersect(other)

    def _common_base(self, *others: "SymbolicSet") -> int:
        """The base of the operands with tails, which must agree, else the
        last operand's base."""
        sets = (self,) + others
        bases = list(dict.fromkeys(s.base for s in sets if s.tails))
        if len(bases) > 1:
            raise ValueError("session base mismatch: " + " vs ".join(map(str, bases)))
        return bases[0] if bases else sets[-1].base

    # -- shift spectrum ---------------------------------------------------

    def shift_spectrum(self) -> "ShiftSpectrum":
        """All shifts g != 0 whose self-intersection A & (g + A) is infinite,
        as finitely many explicit shifts plus residue classes; every shift
        outside the spectrum has a finite self-intersection."""
        cands: set[int] = set()
        for cp1, d1, _, _ in self.tails:
            for cp2, d2, _, _ in self.tails:
                if cp1 == cp2 and d1 != d2:
                    cands.add(d1 - d2)
        explicit = tuple(
            (g, self.intersect(self.translate(g))) for g in sorted(cands)
        )

        classes: list[ClassShift] = []
        if self.aps:
            p = self.aps[0].modulus
            rset = frozenset(t.residue for t in self.aps)
            u, v = _powmod_orbit(self.base, p)
            deltas: set[int] = set()
            for r1 in rset:
                for r2 in rset:
                    deltas.add((r1 - r2) % p)
            for cp, d, s, j in self.tails:
                rinf = {
                    (cp * pow(self.base, m, p) + d) % p
                    for m in _orbit_split(s, j, u, v)[1]
                }
                for rho in rinf:
                    for r in rset:
                        deltas.add((rho - r) % p)
                        deltas.add((r - rho) % p)
            for delta in sorted(deltas):
                rep = delta if delta != 0 else p
                child = self.intersect(self.translate(rep))
                uniform = (
                    not self.tails
                    and not any((f - delta) % p in rset for f in self.finite)
                    and not any(
                        (f1 - f2 - delta) % p == 0
                        for f1 in self.finite for f2 in self.finite if f1 != f2
                    )
                )
                classes.append(ClassShift(p, delta, rep, child, uniform))
        return ShiftSpectrum(explicit, tuple(classes))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "finite": list(self.finite),
            "geo": [
                {"b": t.base, "c": t.coeff, "d": t.offset, "n0": t.n0}
                for t in self.geos
            ],
            "ap": [{"c": t.modulus, "d": t.residue} for t in self.aps],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict, base: int = DEFAULT_BASE) -> "SymbolicSet":
        return make_set(
            data.get("finite", ()),
            (GeoTerm(t["b"], t["c"], t["d"], t.get("n0", 0)) for t in data.get("geo", ())),
            (APTerm(t["c"], t["d"] % t["c"]) for t in data.get("ap", ())),
            base=base,
        )

    @staticmethod
    def from_json(text: str, base: int = DEFAULT_BASE) -> "SymbolicSet":
        return SymbolicSet.from_json_dict(json.loads(text), base=base)

    def finite_intersection_bound(self, gmax: int) -> int:
        """Upper bound for |A & (g + A)| over every shift 0 < |g| <= gmax
        outside the shift spectrum."""
        nf = len(self.finite)
        bound = nf
        for _, d1, _, _ in self.tails:
            for _, d2, _, _ in self.tails:
                mag = abs(d1) + abs(d2) + gmax + 1
                vmax = 0
                while self.base**vmax <= mag:
                    vmax += 1
                bound += 2 * (vmax + 1)
        bound += 2 * nf * len(self.tails)
        if self.aps:
            p = self.aps[0].modulus
            u, _ = _powmod_orbit(self.base, p)
            bound += 2 * nf
            bound += 2 * len(self.tails) * len(self.aps) * max(u, 1)
        return bound

    def __repr__(self) -> str:
        bits = []
        if self.finite:
            bits.append("{" + ",".join(str(x) for x in self.finite) + "}")
        bits.extend(
            f"geo({t.base},{t.coeff},{t.offset},{t.n0})" for t in self.geos
        )
        bits.extend(f"ap({t.modulus},{t.residue})" for t in self.aps)
        return " | ".join(bits) if bits else "{}"


def _geo_in_ap(
    part: Tail, p: int, rset: frozenset[int], orbit: tuple[int, int], b0: int
) -> tuple[list[Tail], list[int]]:
    """Exact intersection of a tail with the periodic part of residues rset
    mod p; orbit is _powmod_orbit(b0, p)."""
    cp, d, s, j = part
    head, firsts, step = _orbit_split(s, j, *orbit)

    def hits(exponents: range) -> list[int]:
        return [m for m in exponents if (cp * pow(b0, m, p) + d) % p in rset]

    vals = [cp * b0**m + d for m in hits(head)]
    return [(cp, d, m, step) for m in hits(firsts)], vals


def _residue_meet(
    aps1: tuple[APTerm, ...], aps2: tuple[APTerm, ...]
) -> list[APTerm]:
    """Intersect two periodic parts, each with one modulus.  By the CRT, r1
    mod p1 meets r2 mod p2 exactly when r1 = r2 mod gcd(p1, p2), so each
    residue is paired only with the other side's residues in its class:
    the work is the size of the operands and of the result, and with one
    shared modulus the result is the intersection of the residue sets."""
    if not aps1 or not aps2:
        return []
    p1, p2 = aps1[0].modulus, aps2[0].modulus
    g = math.gcd(p1, p2)
    classes: dict[int, list[int]] = {}
    for t in aps2:
        classes.setdefault(t.residue % g, []).append(t.residue)
    out = []
    for t in aps1:
        for r2 in classes.get(t.residue % g, ()):
            r, m = _crt(t.residue, p1, r2, p2)
            out.append(APTerm(m, r))
    return out


def _geo_geo(
    part1: Tail, part2: Tail, b0: int
) -> tuple[list[Tail], list[int]]:
    """Exact intersection of two tails.

    Equal keys reduce to intersecting the one-sided exponent progressions
    {s + j*a : a >= 0}, by the CRT above the larger start.  Distinct keys
    meet finitely often: writing the difference of offsets as D, any common
    value has min(m, k) bounded by the b0-adic valuation of D, so it is one
    of either tail's values at an exponent up to that bound.
    """
    cp1, d1, s1, j1 = part1
    cp2, d2, s2, j2 = part2
    if (cp1, d1) == (cp2, d2):
        sol = _crt(s1 % j1, j1, s2 % j2, j2)
        if sol is None:
            return [], []
        r, step = sol
        lo = max(s1, s2)
        return [(cp1, d1, lo + (r - lo) % step, step)], []
    diff = d2 - d1
    if diff == 0:
        return [], []
    vmax = _val(b0, diff)
    vals: set[int] = set()
    for (ca, da, sa, ja), (cb, db, sb, jb) in ((part1, part2), (part2, part1)):
        for m in range(sa, vmax + 1, ja):
            k = _solve_pow(ca * b0**m + da - db, cb, b0)
            if k is not None and k >= sb and (k - sb) % jb == 0:
                vals.add(ca * b0**m + da)
    return [], sorted(vals)


@dataclass(frozen=True)
class ClassShift:
    """A residue class of shifts g = residue (mod modulus), g != 0, whose
    children are all infinite.  `uniform` certifies the exact law
    child(g) == child(representative).translate(g - representative) for
    every g in the class; it is only claimed when provable."""

    modulus: int
    residue: int
    representative: int
    child: SymbolicSet
    uniform: bool

    def covers(self, g: int) -> bool:
        return g != 0 and (g - self.residue) % self.modulus == 0


@dataclass(frozen=True)
class ShiftSpectrum:
    """Shifts with infinite self-intersection: explicit candidates from
    geometric-term alignment plus residue classes from progressions."""

    explicit: tuple[tuple[int, SymbolicSet], ...]
    classes: tuple[ClassShift, ...]

    def covers(self, g: int) -> bool:
        if g == 0:
            return True
        if any(g == s for s, _ in self.explicit):
            return True
        return any(c.covers(g) for c in self.classes)


def make_set(
    finite: Iterable[int] = (),
    geos: Iterable[GeoTerm] = (),
    aps: Iterable[APTerm] = (),
    base: int = DEFAULT_BASE,
) -> SymbolicSet:
    """Normalize raw parts into a canonical SymbolicSet."""
    if base < 2:
        raise ValueError(f"session base must be >= 2, got {base}")
    return _normalize(base, finite, [_geo_parts(t, base) for t in geos], aps)


def finite_set(xs: Iterable[int], base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(xs, base=base)


def empty_set(base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(base=base)


def geo(b: int, c: int, d: int, n0: int = 0, base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(geos=[GeoTerm(b, c, d, n0)], base=base)


def ap(c: int, d: int, base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(aps=[APTerm(c, d % c)], base=base)


def random_set(
    rng,
    base: int = DEFAULT_BASE,
    max_geo: int = 2,
    max_ap: int = 2,
    max_finite: int = 4,
) -> SymbolicSet:
    """Random canonical set, for property tests and self-checks."""
    geos = []
    for _ in range(rng.randrange(max_geo + 1)):
        j = rng.choice([1, 1, 1, 2, 3])
        c = rng.randrange(-9, 10) or 1
        d = rng.randrange(-9, 10)
        geos.append(GeoTerm(base**j, c, d, rng.randrange(3)))
    aps = []
    for _ in range(rng.randrange(max_ap + 1)):
        c = rng.randrange(2, 13)
        aps.append(APTerm(c, rng.randrange(c)))
    fin = [rng.randrange(-30, 31) for _ in range(rng.randrange(max_finite + 1))]
    return make_set(fin, geos, aps, base=base)
