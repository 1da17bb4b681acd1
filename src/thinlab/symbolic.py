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
* each geometric tail is keyed by (reduced coefficient, offset), where the
  reduced coefficient carries no factor of b0; per key the exponent set is
  decomposed with its minimal eventual period and maximal downward
  extension; boundary elements representable under several keys are
  redistributed deterministically;
* the finite part is disjoint from every term.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

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


def _ap_intersect(a1: tuple[int, int], a2: tuple[int, int]) -> tuple[int, int] | None:
    """Intersect one-sided exponent progressions {s + j*a : a >= 0}."""
    s1, j1 = a1
    s2, j2 = a2
    sol = _crt(s1 % j1, j1, s2 % j2, j2)
    if sol is None:
        return None
    r, lcm = sol
    lo = max(s1, s2)
    m0 = lo + ((r - lo) % lcm)
    return (m0, lcm)


def _in_ap(m: int, s: int, j: int) -> bool:
    return m >= s and (m - s) % j == 0


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


def _geo_parts(term: GeoTerm, b0: int) -> tuple[int, int, int, int]:
    """(reduced coeff, offset, start exponent, exponent step) over base b0."""
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
    """
    if not ap_list:
        return [], sorted(singles)
    big_q = math.lcm(*[j for _, j in ap_list])
    t0 = max(max(s for s, _ in ap_list), (max(singles) + 1) if singles else 0)

    def member(m: int) -> bool:
        if m < 0:
            return False
        if m in singles:
            return True
        return any(m >= s and (m - s) % j == 0 for s, j in ap_list)

    present = frozenset(
        r for r in range(big_q) if any((r - s) % j == 0 for s, j in ap_list)
    )
    q = _minimal_shift_period(big_q, present)
    starts: dict[int, int] = {}
    for r in sorted({r % q for r in present}):
        m0 = t0 + ((r - t0) % q)
        while m0 - q >= 0 and member(m0 - q):
            m0 -= q
        starts[r] = m0
    tails = [(starts[r], q) for r in sorted(starts)]
    leftovers: set[int] = set()
    bound = max(starts.values())
    for s, j in ap_list:
        m = s
        while m < bound:
            if m < starts[m % q]:
                leftovers.add(m)
            m += j
    for m in singles:
        r = m % q
        if r not in starts or m < starts[r]:
            leftovers.add(m)
    return tails, sorted(leftovers)


def _normalize(
    base: int,
    finite: Iterable[int],
    geos: Iterable[GeoTerm],
    aps: Iterable[APTerm],
) -> tuple[tuple[int, ...], tuple[GeoTerm, ...], tuple[APTerm, ...]]:
    geos = list(geos)
    aps = list(aps)
    finite = set(finite)

    # Periodic part: the union of the input progressions is itself the
    # maximal periodic subset (geometric tails are too sparse to complete
    # a residue class), stored as minimal period plus residues.  Mixed
    # moduli are reduced by enumerating residues mod their lcm, so that
    # path is capped; a family sharing one modulus needs no enumeration.
    p = None
    residues: list[int] = []
    if aps:
        mods = {t.modulus for t in aps}
        big = math.lcm(*mods)
        if len(mods) == 1:
            native = frozenset(t.residue for t in aps)
            p = _minimal_shift_period(big, native)
            residues = sorted({r % p for r in native})
        elif big <= PERIOD_ENUM_LIMIT:
            present = frozenset(
                r for r in range(big)
                if any((r - t.residue) % t.modulus == 0 for t in aps)
            )
            p = _minimal_shift_period(big, present)
            residues = sorted({r % p for r in present})
        else:
            raise ValueError(
                "progression moduli with lcm %d exceed the "
                "canonicalization limit %d" % (big, PERIOD_ENUM_LIMIT)
            )
        if geos and p > PERIOD_ENUM_LIMIT:
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
    parts = [_geo_parts(term, base) for term in geos]
    fams: dict[tuple[int, int], tuple[list[tuple[int, int]], set[int]]] = {}
    for cp, d, s, j in parts:
        fams.setdefault((cp, d), ([], set()))[0].append((s, j))

    tails: list[tuple[int, int, int, int]] = []  # (cp, d, m0, q)
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

    def in_tails(x: int) -> bool:
        for cp, d, m0, q in tails:
            e = _solve_pow(x - d, cp, base)
            if e is not None and e >= m0 and (e - m0) % q == 0:
                return True
        return False

    kept = [
        x for x in pool
        if not (p is not None and x % p in resset) and not in_tails(x)
    ]
    geo_terms = tuple(sorted(
        GeoTerm(base**q, cp * base**m0, d, 0) for cp, d, m0, q in tails
    ))
    ap_terms = tuple(APTerm(p, r) for r in residues) if p is not None else ()
    return tuple(sorted(kept)), geo_terms, ap_terms


@dataclass(frozen=True)
class SymbolicSet:
    """Canonical symbolic subset of Z.  Construct via the factory helpers
    (finite_set, geo, ap, empty_set) or the set operations; the raw
    constructor trusts its arguments to be canonical already."""

    finite: tuple[int, ...] = ()
    geos: tuple[GeoTerm, ...] = ()
    aps: tuple[APTerm, ...] = ()
    base: int = DEFAULT_BASE

    # -- queries ---------------------------------------------------------

    def member(self, x: int) -> bool:
        if x in self.finite:
            return True
        if any(t.member(x) for t in self.aps):
            return True
        return any(t.member(x) for t in self.geos)

    def __contains__(self, x: int) -> bool:
        return self.member(x)

    def is_finite(self) -> bool:
        return not self.geos and not self.aps

    def is_empty(self) -> bool:
        return not self.finite and self.is_finite()

    @property
    def period(self) -> int | None:
        """Minimal period of the periodic part, if any."""
        return self.aps[0].modulus if self.aps else None

    def window(self, lo: int, hi: int) -> list[int]:
        """Sorted elements in [lo, hi]."""
        if lo > hi:
            return []
        out = {x for x in self.finite if lo <= x <= hi}
        for t in self.aps:
            first = lo + ((t.residue - lo) % t.modulus)
            out.update(range(first, hi + 1, t.modulus))
        for t in self.geos:
            n = t.n0
            while True:
                v = t.coeff * t.base**n + t.offset
                if t.coeff > 0 and v > hi:
                    break
                if t.coeff < 0 and v < lo:
                    break
                if lo <= v <= hi:
                    out.add(v)
                n += 1
        return sorted(out)

    # -- constructions ---------------------------------------------------

    def translate(self, g: int) -> "SymbolicSet":
        """g + A, term by term: a shift keeps the canonical form, and its
        order except among progressions.  Lists, not generators, keep peak RSS down."""
        if g == 0:
            return self
        return SymbolicSet(
            tuple([x + g for x in self.finite]),
            tuple([GeoTerm(t.base, t.coeff, t.offset + g, t.n0) for t in self.geos]),
            tuple(sorted(
                APTerm(t.modulus, (t.residue + g) % t.modulus) for t in self.aps
            )),
            self.base,
        )

    def scale(self, k: int) -> "SymbolicSet":
        """k * A for k != 0.  Renormalizes: scaling can move cross-key
        coincidences across the exponent-zero boundary."""
        if k == 0:
            raise ValueError("cannot scale a set by 0")
        if k == 1:
            return self
        return make_set(
            (x * k for x in self.finite),
            (GeoTerm(t.base, t.coeff * k, t.offset * k, t.n0) for t in self.geos),
            (APTerm(t.modulus * abs(k), (t.residue * k) % (t.modulus * abs(k)))
             for t in self.aps),
            base=self.base,
        )

    def union(self, other: "SymbolicSet") -> "SymbolicSet":
        b = self._common_base(other)
        return make_set(
            self.finite + other.finite,
            self.geos + other.geos,
            self.aps + other.aps,
            base=b,
        )

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.union(other)

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        b0 = self._common_base(other)
        fin: set[int] = set()
        geo_out: list[GeoTerm] = []
        ap_out: list[APTerm] = []

        fin.update(x for x in self.finite if other.member(x))
        fin.update(x for x in other.finite if self.member(x))

        for t1 in self.aps:
            for t2 in other.aps:
                sol = _crt(t1.residue, t1.modulus, t2.residue, t2.modulus)
                if sol is not None:
                    ap_out.append(APTerm(sol[1], sol[0]))

        parts1 = [_geo_parts(t, b0) for t in self.geos]
        parts2 = [_geo_parts(t, b0) for t in other.geos]
        for aps, parts in ((self.aps, parts2), (other.aps, parts1)):
            if not parts:
                continue
            for apt in aps:
                orbit = _powmod_orbit(b0, apt.modulus)
                for part in parts:
                    terms, vals = _geo_in_ap(part, apt, orbit, b0)
                    geo_out.extend(terms)
                    fin.update(vals)

        for part1 in parts1:
            for part2 in parts2:
                terms, vals = _geo_geo(part1, part2, b0)
                geo_out.extend(terms)
                fin.update(vals)

        return make_set(fin, geo_out, ap_out, base=b0)

    def __and__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.intersect(other)

    def _common_base(self, other: "SymbolicSet") -> int:
        if self.base == other.base:
            return self.base
        if not self.geos:
            return other.base
        if not other.geos:
            return self.base
        raise ValueError(f"session base mismatch: {self.base} vs {other.base}")

    # -- shift spectrum ---------------------------------------------------

    def shift_spectrum(self) -> "ShiftSpectrum":
        """All shifts g != 0 whose self-intersection A & (g + A) is infinite,
        as finitely many explicit shifts plus residue classes; every shift
        outside the spectrum has a finite self-intersection."""
        parts = [_geo_parts(t, self.base) for t in self.geos]
        cands: set[int] = set()
        for cp1, d1, _, _ in parts:
            for cp2, d2, _, _ in parts:
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
            for cp, d, s, j in parts:
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
                    not self.geos
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
        parts = [_geo_parts(t, self.base) for t in self.geos]
        for cp1, d1, _, _ in parts:
            for cp2, d2, _, _ in parts:
                mag = abs(d1) + abs(d2) + gmax + 1
                vmax = 0
                while self.base**vmax <= mag:
                    vmax += 1
                bound += 2 * (vmax + 1)
        bound += 2 * nf * len(self.geos)
        if self.aps:
            p = self.aps[0].modulus
            u, _ = _powmod_orbit(self.base, p)
            bound += 2 * nf
            bound += 2 * len(self.geos) * len(self.aps) * max(u, 1)
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
    part: tuple[int, int, int, int], apterm: APTerm, orbit: tuple[int, int], b0: int
) -> tuple[list[GeoTerm], list[int]]:
    """Exact intersection of a geometric tail, given by its _geo_parts, with
    a progression; orbit is _powmod_orbit(b0, modulus)."""
    cp, d, s, j = part
    p, r = apterm.modulus, apterm.residue
    head, firsts, step = _orbit_split(s, j, *orbit)

    def hits(exponents: range) -> list[int]:
        return [m for m in exponents if (cp * pow(b0, m, p) + d - r) % p == 0]

    vals = [cp * b0**m + d for m in hits(head)]
    return [GeoTerm(b0**step, cp * b0**m, d, 0) for m in hits(firsts)], vals


def _geo_geo(
    part1: tuple[int, int, int, int], part2: tuple[int, int, int, int], b0: int
) -> tuple[list[GeoTerm], list[int]]:
    """Exact intersection of two geometric tails, given by their _geo_parts.

    Equal keys reduce to intersecting exponent progressions.  Distinct keys
    meet finitely often: writing the difference of offsets as D, any common
    value has min(m, k) bounded by the b0-adic valuation of D, which makes
    the enumeration below exhaustive.
    """
    cp1, d1, s1, j1 = part1
    cp2, d2, s2, j2 = part2
    if (cp1, d1) == (cp2, d2):
        inter = _ap_intersect((s1, j1), (s2, j2))
        if inter is None:
            return [], []
        m0, step = inter
        return [GeoTerm(b0**step, cp1 * b0**m0, d1, 0)], []
    diff = d2 - d1
    if diff == 0:
        return [], []
    vals: set[int] = set()
    vmax = _val(b0, diff)
    for m in range(vmax + 1):
        if not _in_ap(m, s1, j1):
            continue
        k = _solve_pow(cp1 * b0**m - diff, cp2, b0)
        if k is not None and _in_ap(k, s2, j2):
            vals.add(cp1 * b0**m + d1)
    for k in range(vmax + 1):
        if not _in_ap(k, s2, j2):
            continue
        m = _solve_pow(cp2 * b0**k + diff, cp1, b0)
        if m is not None and _in_ap(m, s1, j1):
            vals.add(cp1 * b0**m + d1)
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
    f, g, a = _normalize(base, finite, geos, aps)
    return SymbolicSet(f, g, a, base)


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
