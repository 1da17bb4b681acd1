"""Quantitative bounds and hierarchy-witness constructions.

The subset-sum image of a vector (g_1, ..., g_m) of nonzero integers is
{sum over S of g_i : S a subset of indices}.  `cubic_image_min` finds the
smallest image size over all vectors with entries bounded by a given
magnitude, by exhaustive search; that size is m + 1, so c(n), the least m
forcing every image past n, is n (`c_of_n`).  `c_n_k` evaluates the
recursive union-level bound built from c and refuses a step whose argument
would pass `MAX_STEP_BITS` bits.

`escalate` lifts a set one exact hierarchy level (scale by 3, union a
translate); `union_level_check` classifies a union of two classified sets
against the union bounds: exact up to k = 2, the c-derived recursion above.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .engine import Budget, Engine, ExactLevel, NotInThinCompletion, Unknown
from .symbolic import SymbolicSet

MAX_CANONICAL_VECTORS = 2_000_000

MAX_STEP_BITS = 1 << 20


@dataclass(frozen=True)
class CubicSearchResult:
    """Minimal subset-sum image size over bounded nonzero vectors.

    Sign flips translate the image and permutations leave it unchanged,
    so the search ranges over non-decreasing positive vectors only; the
    reported argmin is the first minimizer in that canonical order.
    """

    m: int
    entry_bound: int
    min_image_size: int
    argmin: tuple[int, ...]


def _subset_sum_count(vec: tuple[int, ...]) -> int:
    sums = {0}
    for g in vec:
        sums |= {s + g for s in sums}
    return len(sums)


def cubic_image_min(m: int, entry_bound: int) -> CubicSearchResult:
    if m < 1:
        raise ValueError(f"vector length must be >= 1, got {m}")
    if entry_bound < 1:
        raise ValueError(f"entry bound must be >= 1, got {entry_bound}")
    if comb(entry_bound + m - 1, m) > MAX_CANONICAL_VECTORS:
        raise ValueError(
            f"search space for m={m}, bound={entry_bound} exceeds "
            f"{MAX_CANONICAL_VECTORS} canonical vectors"
        )
    best = None
    best_vec = None
    for vec in combinations_with_replacement(range(1, entry_bound + 1), m):
        size = _subset_sum_count(vec)
        if best is None or size < best:
            best, best_vec = size, vec
    return CubicSearchResult(m, entry_bound, best, best_vec)


def c_of_n(n: int) -> int:
    """Least m such that every m nonzero integers have more than n subset
    sums.  That m is n.  Flipping the sign of g_i translates the image by
    -g_i and reordering leaves it unchanged, so take 0 < g_1 <= ... <= g_m:
    the partial sums 0 < g_1 < g_1 + g_2 < ... are m + 1 distinct sums,
    and all ones have exactly m + 1.  So every image exceeds n iff m >= n.
    `cubic_image_min` is the exhaustive reference for small n."""
    if n < 1:
        raise ValueError(f"threshold must be >= 1, got {n}")
    return n


def c_n_k(n: int, k: int) -> int:
    """The recursive union bound: value 0 at k = 0, and
    c(n, k+1) = c(n) - 1 + c(n ** (2 ** c(n)), k).  Arguments blow up
    doubly exponentially, so a step whose argument could exceed
    `MAX_STEP_BITS` bits is refused before it is built.  At n = 1 the
    argument stays 1 and every further step adds 0."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    total = 0
    for step in range(k):
        cn = c_of_n(n)
        total += cn - 1
        if n == 1 or step == k - 1:
            break
        # n >= 2, so n ** (2 ** c) has more than 2 ** c bits; testing c
        # first keeps the shift small.
        big = cn >= MAX_STEP_BITS.bit_length()
        if big or (n.bit_length() << cn) > MAX_STEP_BITS:
            raise ValueError(
                "recursion argument n**(2**c) with c of "
                f"{cn.bit_length()} bits would pass {MAX_STEP_BITS} bits"
            )
        n = n ** (2**cn)
    return total


def escalate(
    a: SymbolicSet, engine: Engine | None = None, budget: Budget | None = None
) -> SymbolicSet:
    """One exact step up the hierarchy: 3A union (1 + 3A).

    Scaling by 3 is injective with image avoiding 1 + 3Z, and 1 + 1 lies
    outside 3Z, which is what makes the level rise by exactly one.  The
    input must classify at a finite level >= 1."""
    engine = engine if engine is not None else Engine()
    verdict = engine.classify(a, budget)
    if not isinstance(verdict, ExactLevel):
        raise ValueError(f"escalation needs a classified input, got {verdict}")
    if verdict.level < 1:
        raise ValueError(
            f"escalation needs level >= 1, got level {verdict.level}"
        )
    scaled = a.scale(3)
    return scaled.union(scaled.translate(1))


@dataclass(frozen=True)
class UnionLevelReport:
    """Classification of A | B against the recursive union bounds.

    `raw_bound` is c(2, k) for k the larger input level; it undercounts by
    up to k (its derivation drops one level per union step), so
    `adjusted_bound`, the bound actually asserted, is c(2, k) + k, except
    at k = 2, where it is the exact bound 7 (see `union_level_check`).
    Where `c_n_k` refuses c(2, k) (every k >= 4: its argument would pass
    `MAX_STEP_BITS` bits), both are None and the report states the union's
    level with no bound, so `within_adjusted_bound` is None.
    An Unknown union verdict is reported as inconclusive, never a failure.
    """

    level_a: int
    level_b: int
    union_verdict: object
    k: int
    raw_bound: int | None
    adjusted_bound: int | None
    inconclusive: bool

    @property
    def union_level(self) -> int | None:
        return (
            self.union_verdict.level
            if isinstance(self.union_verdict, ExactLevel)
            else None
        )

    @property
    def within_adjusted_bound(self) -> bool | None:
        lv, bound = self.union_level, self.adjusted_bound
        return None if lv is None or bound is None else lv <= bound


def union_level_check(
    a: SymbolicSet,
    b: SymbolicSet,
    engine: Engine | None = None,
    budget: Budget | None = None,
) -> UnionLevelReport:
    """Classify A, B and A | B, and report the union's level against the
    bound for k, the larger input level.

    The bound is exact for k <= 2.  At k = 1 it is c(2, 1) + 1 = 2.  At
    k = 2 it is 7 in place of c(2, 2) + 2 = 18.  A level on Z is 1 plus the
    largest dimension of a cube x + sums(g_1..g_K) inside one offset set D
    of the set's tails, and the offset sets of A | B are unions D | E of
    offset sets of A and of B.  Color a K-cube inside D | E by membership
    of each vertex in D.  A one-colored Boolean square is a 2-cube inside D
    or inside E, which level 2 rules out, so K < R_B(2) = 7 and the level
    is at most 7 (tests/test_boolean_squares.py proves R_B(2) = 7).  The
    window pair D = {1,3,4}, E = {0,2,5,6} reaches 7.  From k = 3 on the
    bound is the paper's recursion, c(2, k) + k."""
    engine = engine if engine is not None else Engine()
    va = engine.classify(a, budget)
    vb = engine.classify(b, budget)
    if not isinstance(va, ExactLevel) or not isinstance(vb, ExactLevel):
        raise ValueError(
            f"union check needs two classified inputs, got {va} and {vb}"
        )
    union_verdict = engine.classify(a.union(b), budget)
    if isinstance(union_verdict, NotInThinCompletion):
        raise AssertionError(
            "union of two classified sets fell outside the thin completion: "
            f"{a} | {b}"
        )
    k = max(va.level, vb.level)
    try:
        raw = c_n_k(2, k)
    except ValueError:  # a step past MAX_STEP_BITS: no bound to report
        raw = None
    return UnionLevelReport(
        level_a=va.level,
        level_b=vb.level,
        union_verdict=union_verdict,
        k=k,
        raw_bound=raw,
        adjusted_bound=None if raw is None else 7 if k == 2 else raw + k,
        inconclusive=isinstance(union_verdict, Unknown),
    )
