"""The oracle checks the Z engine through a lifting lemma.

Take D a subset of [0, L) and n >= 2L.  A k-cube x + {sum of g_i, i in S}
inside D mod n lifts to a k-cube inside D in Z:

* lift x and each g_i from the points x and x + g_i, so 0 < |g_i| < L
  and no generator becomes 0;
* by induction on |S|, each corner equals
  corner(S - i) + corner(S - j) - corner(S - {i, j}), a value in
  (-L, 2L) that is congruent to a point of D; the two differ by less than
  2L <= n, so they are equal.

No coset of a nontrivial subgroup of Z/n fits in [0, n/2), so D is not
bottom in Z/n, and its level over SizeAtMost(0) is h(D), the level of a
finite set of offsets (thinlab.engine).  h(D) is also the level of the
union of the tails geo(b, 1, d, 0) over d in D, for any base b.  So one
table of Z/22 at t = 0 gives the Z level of every such union with
offsets in [0, 11), computed by code that shares nothing with the engine.

A set with tails of several reduced coefficients cp and exponent classes
r sits at the largest h(D_(cp,r)), D_(cp,r) the offsets of the tails that
hold the class r; the seeded draws below build such sets as text for
parse_set, with their D_(cp,r) known by construction.

The same table gives the union windows: u_W(k), the largest level of a
set of offsets in [0, 10] that splits into two sets of level at most k.
"""

import random

import pytest

from thinlab.dsl import parse_set
from thinlab.engine import Engine, ExactLevel
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.oracle import build_table
from thinlab.symbolic import empty_set, geo

L = 11


@pytest.fixture(scope="module")
def z22():
    group = GroupDescriptor.cyclic(2 * L)
    return build_table(group, SizeAtMost(group, 0))


def _mask(offsets) -> int:
    return sum(1 << d for d in set(offsets))


def _offsets(mask: int) -> list[int]:
    return [d for d in range(L) if mask >> d & 1]


def test_every_offset_set_below_eleven_classifies_at_its_table_level(z22):
    engine = Engine()
    counts = [0] * (L + 1)
    for mask in range(1, 1 << L):
        a = empty_set().union(*[geo(2, 1, d) for d in _offsets(mask)])
        level = z22.level(mask)
        assert engine.classify(a) == ExactLevel(level), _offsets(mask)
        counts[level] += 1
    assert counts == [0, 11, 305, 836, 554, 205, 88, 28, 12, 5, 2, 1]


def _term(base: int, coeff: int, d: int, rng: random.Random) -> str:
    """A geo term with offset d and a start index above 0 one time in two."""
    n0 = rng.choice([0, rng.randrange(1, 6)])
    return f"geo({base},{coeff},{d},{n0})"


def _draw_offsets(rng: random.Random) -> list[int]:
    return rng.sample(range(L), rng.randrange(1, L + 1))


def _draw(rng: random.Random) -> tuple[str, int, list[list[int]]]:
    """(text, session base, the maximal D_(cp,r) of the set it denotes).
    Each family of offsets is moved by its own constant, which keeps h, and
    some finite elements are added, which keep the level."""
    kind = rng.randrange(3)
    terms, families = [], []
    if kind < 2:
        # several reduced coefficients over base 2 or 3: one class each
        base = 2 if kind == 0 else 3
        coeffs = [c for c in (1, -1, 5, 7, -11) if c % base]
        for coeff in rng.sample(coeffs, rng.randrange(1, 4)):
            shift = rng.randrange(-40, 41)
            offsets = _draw_offsets(rng)
            terms += [_term(base, coeff, d + shift, rng) for d in offsets]
            families.append(offsets)
    else:
        # base 4 over session base 2: 4^n holds the even exponents of 2 and
        # 2 * 4^n the odd ones, and a base-2 term holds both classes
        base, shift = 2, rng.randrange(-40, 41)
        even, odd, both = (rng.sample(range(L), rng.randrange(L // 2)) for _ in range(3))
        terms += [_term(4, 1, d + shift, rng) for d in even]
        terms += [_term(4, 2, d + shift, rng) for d in odd]
        terms += [_term(2, 1, d + shift, rng) for d in both]
        families = [f for f in (even + both, odd + both) if f]
        if not families:
            families, terms = [[0]], [_term(2, 1, shift, rng)]
    finite = rng.sample(range(-60, 60), rng.randrange(4))
    if finite:
        terms.append("{" + ",".join(map(str, finite)) + "}")
    rng.shuffle(terms)
    return " | ".join(terms), base, families


@pytest.mark.parametrize("seed", range(4))
def test_seeded_texts_classify_at_their_largest_family_level(z22, seed):
    rng = random.Random(seed)
    engine = Engine()
    for _ in range(60):
        text, base, families = _draw(rng)
        expected = max(z22.level(_mask(f)) for f in families)
        assert engine.classify(parse_set(text, base)) == ExactLevel(expected), text


def _best_splits(levels: list[int]) -> list[int]:
    """For each mask M over [0, 10], the least max(h(S), h(M - S)) over
    the submasks S of M."""
    out = []
    for m in range(len(levels)):
        best, s = levels[m], m
        while s:
            s = (s - 1) & m
            best = min(best, max(levels[s], levels[m ^ s]))
        out.append(best)
    return out


def test_union_windows_from_the_table(z22):
    """u_W(1) = 2 and u_W(2) = 7 over [0, 10], and D = {1,3,4},
    E = {0,2,5,6} reach 7 from two sets of level 2, on both universes."""
    levels = [z22.level(m) for m in range(1 << L)]
    splits = _best_splits(levels)

    def u(k):
        return max(h for h, s in zip(levels, splits) if s <= k)

    assert (u(1), u(2)) == (2, 7)
    d, e = [1, 3, 4], [0, 2, 5, 6]
    assert (levels[_mask(d)], levels[_mask(e)], levels[_mask(d + e)]) == (2, 2, 7)
    assert splits[_mask(d + e)] == 2
    engine = Engine()
    for offsets, level in ((d, 2), (e, 2), (d + e, 7)):
        a = empty_set().union(*[geo(2, 1, x) for x in offsets])
        assert engine.classify(a) == ExactLevel(level)
