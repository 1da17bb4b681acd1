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
* the (unique) maximal periodic subset is stored as the pair (period,
  residues): its minimal period p, or None when there is none, and its
  residues mod p, sorted;
* each geometric tail is stored as a tuple (cp, d, m0, q), the set
  {cp * b0**m + d : m >= m0, m = m0 mod q}, keyed by (reduced coefficient
  cp, offset d), where cp carries no factor of b0; per key the exponent
  set is decomposed with its minimal eventual period and maximal downward
  extension; boundary elements representable under several keys are
  redistributed deterministically;
* the finite part is disjoint from every term.

Exponents stay symbolic: no operation builds b0**m0, so a tail with a huge
start exponent costs what a small one does.  Literal GeoTerms and APTerms
exist only where terms enter (make_set) or leave (the `geos` view of the
printed terms geo(b0**q, cp * b0**m0, d, 0), and the `aps` view, one
ap(p, r) per residue).  make_set builds a lone tail or a lone residue as
it is, as each is canonical already; everything else is canonicalized by
_normalize.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .groups import int_text

DEFAULT_BASE = 2

# residue enumeration over mixed progression moduli stops here; beyond it
# the canonical form itself would be astronomically wide.  Tails are not
# cut at a longer period either: that takes the O(p) orbit of b0 mod p
PERIOD_ENUM_LIMIT = 1_000_000


def _val(b: int, x: int) -> tuple[int, int]:
    """(n, x // b**n) for the b-adic valuation n of x != 0."""
    n = 0
    while x % b == 0:
        x //= b
        n += 1
    return n, x


def _solve_pow(y: int, c: int, b: int) -> int | None:
    """e >= 0 with c * b**e == y, or None."""
    if y == 0 or c == 0:
        return None
    q, r = divmod(y, c)
    if r != 0 or q < 1:
        return None
    e, unit = _val(b, q)
    return e if unit == 1 else None


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
    """Least q dividing m with residues + q == residues in Z/m.  The
    periods form a subgroup qZ/m and the residues are a union of its
    cosets, each of size m/q, so m/q divides gcd(m, |residues|): only
    those q are tried, the smallest first."""
    qs = (m // k for k in reversed(_divisors(math.gcd(m, len(residues)))))
    return next(q for q in qs if all((r + q) % m in residues for r in residues))


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
        return _in_tail(x, _geo_parts(self, self.base), self.base)


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
    j = _solve_pow(term.base, 1, b0)
    if j is None or j == 0:
        raise ValueError(f"base {term.base} is not a positive power of session base {b0}")
    t, cp = _val(b0, term.coeff)
    return cp, term.offset, t + j * term.n0, j


def _split_at_period(tails: Sequence[Tail], p: int, b0: int) -> list[tuple[Tail, int]]:
    """Cut tails where b0**m mod p turns periodic, and pair each piece with
    the residue mod p that all its values share.  A piece (cp, d, m, step)
    is one periodic class of a tail's exponents; a piece (cp, d, m, 0), the
    tail {cp * b0**m + d} of step 0, is an exponent below the preperiod or
    a single exponent as given.  The orbit of b0 mod p, O(p) to find, is
    only sought when there are tails, and refused past PERIOD_ENUM_LIMIT."""
    if not tails:
        return []
    if p > PERIOD_ENUM_LIMIT:
        raise ValueError(f"geometric terms cannot be reduced against a periodic "
                         f"part with period {int_text(p)} (limit {PERIOD_ENUM_LIMIT})")
    u, v = _powmod_orbit(b0, p)
    pieces: list[Tail] = []
    for cp, d, s, j in tails:
        head, firsts, step = _orbit_split(s, j, u, v) if j else ((s,), (), 0)
        pieces += [(cp, d, m, 0) for m in head] + [(cp, d, m, step) for m in firsts]
    return [((cp, d, m, q), (cp * pow(b0, m, p) + d) % p) for cp, d, m, q in pieces]


def _decompose_family(
    pieces: list[tuple[int, int]]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Canonical tails (start, period) plus leftover exponents, of the
    exponents m + q*a, a >= 0, of each piece (m, q), m alone when q is 0.

    The eventual period is minimal and each tail extends as far down as
    membership continues; finitely many exponents fall outside every tail.
    Per residue class mod Q, the lcm of the steps, the exponents run from
    the least progression element up, extended downward by singles.  A
    tail of period q starts q above the highest exponent missing from its
    classes mod Q, or at its least class member when none is missing, so
    the work does not grow with the gaps between start exponents.
    """
    ap_list = [(s, j) for s, j in pieces if j]
    singles = {m for m, j in pieces if not j}
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
    periodic: Iterable[tuple[int, Sequence[int]]],
) -> SymbolicSet:
    """The canonical set of raw parts: tails need not be canonical, and
    the periodic parts (modulus, residues) may mix moduli."""
    finite = set(finite)

    # Periodic part: the union of the input progressions is itself the
    # maximal periodic subset (geometric tails are too sparse to complete
    # a residue class), stored as minimal period plus residues.  Each
    # residue is lifted to the lcm of the moduli; mixed moduli can make
    # that wide, so they are capped, while one shared modulus lifts nothing.
    # Past the cap, a modulus with every residue still makes the part Z.
    periodic = [(m, rs) for m, rs in periodic if rs]
    p = None
    residues: list[int] = []
    if periodic:
        mods = {m for m, _ in periodic}
        big = math.lcm(*mods)
        if len(mods) > 1 and big > PERIOD_ENUM_LIMIT:
            by_mod: dict[int, set[int]] = {}
            for m, rs in periodic:
                by_mod.setdefault(m, set()).update(rs)
            if not any(len(rs) == m for m, rs in by_mod.items()):
                raise ValueError(f"progression moduli with lcm {int_text(big)} exceed "
                                 f"the canonicalization limit {PERIOD_ENUM_LIMIT}")
            periodic, big = [(1, (0,))], 1
        present = frozenset(
            x for m, rs in periodic for r in rs for x in range(r, big, m)
        )
        p = _minimal_shift_period(big, present)
        residues = sorted({r % p for r in present})
    resset = frozenset(residues)

    # Geometric families keyed by (reduced coeff, offset).  Each family's
    # exponent set is made semantic: native exponents, plus coincidences
    # with other keys' terms, plus representable finite inputs, each of
    # these a piece (cp, d, m, 0).  The result depends only on the denoted
    # set, not on how it was presented, at the cost of letting two tails
    # share finitely many values.  The exponents whose value lies in the
    # periodic part are cut away before each family is decomposed.
    pieces: list[Tail] = list(parts)
    partners = _partner_index(parts)
    for cp, d in {t[:2] for t in parts}:
        values = list(finite)
        for part in partners(cp, d):
            if part[:2] != (cp, d):
                values += _geo_geo((cp, d, 0, 1), part, base)[1]
        for v in values:
            m = _solve_pow(v - d, cp, base)
            if m is not None:
                pieces.append((cp, d, m, 0))
    if p is not None and parts:
        pieces = [t for t, r in _split_at_period(pieces, p, base) if r not in resset]
    fams: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for cp, d, m, q in pieces:
        fams.setdefault((cp, d), []).append((m, q))

    tails: list[Tail] = []
    pool: set[int] = set(finite)
    for (cp, d), fam in fams.items():
        fam_tails, leftovers = _decompose_family(fam)
        tails.extend((cp, d, m0, q) for m0, q in fam_tails)
        pool.update(cp * base**m + d for m in leftovers)
    terms = SymbolicSet((), tuple(sorted(tails)), p, tuple(residues), base)
    kept = pool - terms._in_terms(pool)
    return SymbolicSet(tuple(sorted(kept)), terms.tails, p, terms.residues, base) if kept else terms


@dataclass(frozen=True)
class SymbolicSet:
    """Canonical symbolic subset of Z.  Construct via the factory helpers
    (finite_set, geo, ap, empty_set) or the set operations; the raw
    constructor trusts its arguments to be canonical already."""

    finite: tuple[int, ...] = ()
    tails: tuple[Tail, ...] = ()
    period: int | None = None
    residues: tuple[int, ...] = ()
    base: int = DEFAULT_BASE

    # -- queries ---------------------------------------------------------

    def member(self, x: int) -> bool:
        return x in self.finite or x in self._in_terms((x,))

    def _in_terms(self, xs: Iterable[int]) -> set[int]:
        """The elements of xs that lie in the periodic part or a tail."""
        p, rs, tails, b0 = self.period, frozenset(self.residues), self.tails, self.base
        return {x for x in xs if p is not None and x % p in rs
                or tails and any(_in_tail(x, t, b0) for t in tails)}

    def __contains__(self, x: int) -> bool:
        return self.member(x)

    def is_finite(self) -> bool:
        return not self.tails and self.period is None

    def is_empty(self) -> bool:
        return not self.finite and self.is_finite()

    @property
    def aps(self) -> tuple[APTerm, ...]:
        """The periodic part as sorted terms ap(period, r): the printed view."""
        return tuple([APTerm(self.period, r) for r in self.residues])

    @property
    def geos(self) -> tuple[GeoTerm, ...]:
        """The tails as sorted literal terms geo(b0**q, cp * b0**m0, d, 0),
        for readers of terms.  Unguarded: a huge m0 builds a huge coefficient."""
        return tuple([GeoTerm(b, c, d) for b, c, d in self._printed_tails(guard=False)])

    def _printed_tails(self, guard: bool = True) -> list[tuple[int, int, int]]:
        """The tails as sorted (b0**q, cp * b0**m0, d), the printed terms
        geo(b0**q, cp * b0**m0, d, 0).  With guard, str(10**limit) raises
        the interpreter's int-to-str ValueError before a coefficient surely
        too long to print is built."""
        b0 = self.base
        limit = sys.get_int_max_str_digits() if guard else 0
        if limit and any(t[2] > (limit + 1) / math.log10(b0) for t in self.tails):
            str(10**limit)
        return sorted([(b0**q, cp * b0**m0, d) for cp, d, m0, q in self.tails])

    def window(self, lo: int, hi: int) -> list[int]:
        """Sorted elements in [lo, hi]."""
        if lo > hi:
            return []
        out = {x for x in self.finite if lo <= x <= hi}
        p = self.period
        for r in self.residues:
            out.update(range(lo + (r - lo) % p, hi + 1, p))
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
        order except among residues.  Lists, not generators, keep peak RSS down."""
        if g == 0:
            return self
        p = self.period
        return SymbolicSet(
            tuple([x + g for x in self.finite]),
            tuple([(cp, d + g, m0, q) for cp, d, m0, q in self.tails]),
            p,
            tuple(sorted([(r + g) % p for r in self.residues])),
            self.base,
        )

    def scale(self, k: int) -> "SymbolicSet":
        """k * A for k != 0.  Renormalizes: scaling can move cross-key
        coincidences across the exponent-zero boundary, and cp * k can
        gain factors of b0, which move into the tail's start exponent.
        Tails and residues reach _normalize in their stored form."""
        if k == 0:
            raise ValueError("cannot scale a set by 0")
        if k == 1:
            return self
        b0, p = self.base, self.period
        tails = []
        for cp, d, m0, q in self.tails:
            t, ck = _val(b0, cp * k)
            tails.append((ck, d * k, m0 + t, q))
        periodic = []
        if p is not None:
            pk = p * abs(k)
            periodic.append((pk, [r * k % pk for r in self.residues]))
        return _normalize(b0, [x * k for x in self.finite], tails, periodic)

    def union(self, *others: "SymbolicSet") -> "SymbolicSet":
        """The union of self and others, canonicalized once."""
        sets = (self,) + others
        return _normalize(
            self._common_base(*others),
            [x for s in sets for x in s.finite],
            [t for s in sets for t in s.tails],
            [(s.period, s.residues) for s in sets],
        )

    def __or__(self, other: "SymbolicSet") -> "SymbolicSet":
        return self.union(other)

    def intersect(self, other: "SymbolicSet") -> "SymbolicSet":
        b0 = self._common_base(other)
        fin = set(self.finite).intersection(other.finite)
        fin |= other._in_terms(self.finite)
        fin |= self._in_terms(other.finite)
        tails: list[Tail] = []

        for periodic, parts in ((self, other.tails), (other, self.tails)):
            p = periodic.period
            if p is None or not parts:
                continue
            rset = frozenset(periodic.residues)
            for (cp, d, m, q), r in _split_at_period(parts, p, b0):
                if r in rset and q:
                    tails.append((cp, d, m, q))
                elif r in rset:  # one value, below the preperiod
                    fin.add(cp * b0**m + d)

        partners = _partner_index(other.tails)
        for part1 in self.tails:
            for part2 in partners(part1[0], part1[1]):
                found, vals = _geo_geo(part1, part2, b0)
                tails.extend(found)
                fin.update(vals)

        meet = []
        if self.period is not None and other.period is not None:
            meet.append(_residue_meet(
                self.period, self.residues, other.period, other.residues
            ))
        return _normalize(b0, fin, tails, meet)

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

    # -- derivation ------------------------------------------------------

    def derive(self, g: int) -> "SymbolicSet":
        """A & (A + g): every derivation step on Z meets a set with its
        translate here."""
        return self.intersect(self.translate(g))

    def shift_spectrum(self) -> "ShiftSpectrum":
        """All shifts g != 0 whose derived set A & (A + g) is infinite, as
        finitely many explicit shifts plus residue classes; every shift
        outside the spectrum has a finite derived set.

        The explicit candidates, differences of tail offsets of one cp, come
        in pairs +-g, and A & (A - g) = (A & (A + g)) - g: only the children
        for g > 0 are derived, and each -g child is their translate.  Mod p,
        the class deltas are (R - R) | +-(T - R) for residues R and tail
        residues T; without tails a class is uniform unless its delta is in
        F - R or a difference of two distinct finite elements."""
        ts = self.tails
        cands = {d1 - d2 for cp1, d1, _, _ in ts for cp2, d2, _, _ in ts
                 if cp1 == cp2 and d1 > d2}
        up = [(g, self.derive(g)) for g in sorted(cands)]
        explicit = tuple([(-g, c.translate(-g)) for g, c in reversed(up)] + up)

        classes: list[ClassShift] = []
        p, rs = self.period, frozenset(self.residues)
        if p is not None:
            tres = {r for (_, _, _, q), r in _split_at_period(ts, p, self.base) if q}
            deltas = {(r1 - r2) % p for r1 in rs for r2 in rs}
            deltas |= {sign * (t - r) % p for t in tres for r in rs for sign in (1, -1)}
            fs = set() if ts else {f % p for f in self.finite}
            off = {(f - r) % p for f in fs for r in rs}
            off |= {(f1 - f2) % p for f1 in fs for f2 in fs if f1 != f2}
            if len(fs) < len(self.finite):
                off.add(0)
            for delta in sorted(deltas):
                rep = delta if delta != 0 else p
                uniform = not ts and delta not in off
                classes.append(ClassShift(p, delta, rep, self.derive(rep), uniform))
        return ShiftSpectrum(explicit, tuple(classes))

    def __repr__(self) -> str:
        bits = []
        if self.finite:
            bits.append("{" + ",".join(str(x) for x in self.finite) + "}")
        bits.extend(f"geo({b},{c},{d},0)" for b, c, d in self._printed_tails())
        bits.extend(f"ap({self.period},{r})" for r in self.residues)
        return " | ".join(bits) if bits else "{}"


def _residue_meet(
    p1: int, res1: Sequence[int], p2: int, res2: Sequence[int]
) -> tuple[int, list[int]]:
    """Intersect the residues res1 mod p1 with res2 mod p2, as residues
    mod lcm(p1, p2).  By the CRT, r1 mod p1 meets r2 mod p2 exactly when
    r1 = r2 mod gcd(p1, p2), so each residue is paired only with the other
    side's residues in its class: the work is the size of the operands and
    of the result, and with one shared modulus the result is the
    intersection of the residue sets."""
    g = math.gcd(p1, p2)
    classes: dict[int, list[int]] = {}
    for r2 in res2:
        classes.setdefault(r2 % g, []).append(r2)
    out = [_crt(r1, p1, r2, p2)[0] for r1 in res1 for r2 in classes.get(r1 % g, ())]
    return p1 // g * p2, out


def _partner_index(tails: Sequence[Tail]) -> Callable[[int, int], list[Tail]]:
    """Index tails once, and return partners(cp, d): the indexed tails
    that may share a value with a tail of key (cp, d).

    A common value cp * b0**m + d = cp2 * b0**k + d2 makes gcd(cp, cp2)
    divide d2 - d.  Tails are bucketed by cp, then by d2 mod cp2: with the
    same cp the partners are the one bucket of d mod cp, and a bucket of
    another cp2 is kept whole when the gcd divides its residue minus d,
    as the gcd then divides d2 - d for every tail in it.
    """
    by_cp: dict[int, dict[int, list[Tail]]] = {}
    for tail in tails:
        by_cp.setdefault(tail[0], {}).setdefault(tail[1] % tail[0], []).append(tail)

    def partners(cp: int, d: int) -> list[Tail]:
        out = list(by_cp.get(cp, {}).get(d % cp, ()))
        for cp2, buckets in by_cp.items():
            if cp2 != cp:
                g = math.gcd(cp, cp2)
                for r, bucket in buckets.items():
                    if (r - d) % g == 0:
                        out.extend(bucket)
        return out

    return partners


def _geo_geo(
    part1: Tail, part2: Tail, b0: int
) -> tuple[list[Tail], list[int]]:
    """Exact intersection of two tails.

    Equal keys reduce to intersecting the one-sided exponent progressions
    {s + j*a : a >= 0}, by the CRT above the larger start.  Distinct keys
    meet finitely often.  A common value cp1 * b0**m + d1 = cp2 * b0**k + d2
    has m == k and (cp1 - cp2) * b0**m = D = d2 - d1, or else min(m, k) is
    exactly the b0-adic valuation v of D, as no cp carries a factor of b0;
    so each side tests only those two exponents, both at most v.  D is also
    a multiple of gcd(cp1, cp2), the test by which _partner_index pairs tails.
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
    v = _val(b0, diff)[0]
    vals: set[int] = set()
    for (ca, da, sa, ja), (cb, db, sb, jb) in ((part1, part2), (part2, part1)):
        for m in (v, _solve_pow(diff, cp1 - cp2, b0)) if v >= sa else ():
            if m is not None and m >= sa and (m - sa) % ja == 0:
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


@dataclass(frozen=True)
class ShiftSpectrum:
    """Shifts with infinite self-intersection: explicit candidates from
    geometric-term alignment plus residue classes from progressions."""

    explicit: tuple[tuple[int, SymbolicSet], ...]
    classes: tuple[ClassShift, ...]


def make_set(
    finite: Iterable[int] = (),
    geos: Iterable[GeoTerm] = (),
    aps: Iterable[APTerm] = (),
    base: int = DEFAULT_BASE,
) -> SymbolicSet:
    """Normalize raw parts into a canonical SymbolicSet.  One tail alone
    or one residue alone is canonical already and is built as it is: a
    tail (cp, d, m0, q) has no lower exponent to extend to, and the
    residue of ap(c, d) has minimal period c."""
    if base < 2:
        raise ValueError(f"session base must be >= 2, got {base}")
    parts = [_geo_parts(t, base) for t in geos]
    periodic = [(t.modulus, (t.residue,)) for t in aps]
    finite = list(finite)
    if not finite and len(parts) + len(periodic) == 1:
        if parts:
            return SymbolicSet((), (parts[0],), None, (), base)
        return SymbolicSet((), (), *periodic[0], base)
    return _normalize(base, finite, parts, periodic)


def finite_set(xs: Iterable[int], base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(xs, base=base)


def empty_set(base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(base=base)


def geo(b: int, c: int, d: int, n0: int = 0, base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(geos=[GeoTerm(b, c, d, n0)], base=base)


def _ap_term(c: int, d: int) -> APTerm:
    """The term ap(c, d): the modulus is checked before d is reduced mod c."""
    if c < 1:
        raise ValueError(f"progression modulus must be >= 1, got {c}")
    return APTerm(c, d % c)


def ap(c: int, d: int, base: int = DEFAULT_BASE) -> SymbolicSet:
    return make_set(aps=[_ap_term(c, d)], base=base)


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
