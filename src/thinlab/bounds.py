"""Quantitative bounds and hierarchy-witness constructions.

The subset-sum image of a vector (g_1, ..., g_m) of nonzero integers is
{sum over S of g_i : S a subset of indices}.  `cubic_image_min` finds the
smallest image size over all vectors with entries bounded by a given
magnitude; `c_of_n` inverts it: the least m forcing every image past n.
`c_n_k` evaluates the recursive union-level bound built from c.

`escalate` lifts a set one exact hierarchy level (scale by 3, union a
translate); `union_level_check` classifies a union of two classified sets
against the c-derived bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb

from .engine import Budget, Engine, ExactLevel, NotInThinCompletion, Unknown
from .symbolic import SymbolicSet

MAX_CANONICAL_VECTORS = 2_000_000

SEARCH_EXACT_LIMIT = 64


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


def c_of_n(n: int, entry_bound: int = 3) -> int:
    """Least m such that every bounded nonzero vector of length m has
    subset-sum image larger than n.  The entry bound truncates the search
    space; the true value over Z lies in [n, (n-1)^2 + 1] regardless."""
    if n < 1:
        raise ValueError(f"threshold must be >= 1, got {n}")
    upper = (n - 1) ** 2 + 1
    for m in range(1, upper + 1):
        if cubic_image_min(m, entry_bound).min_image_size > n:
            if not n <= m <= upper:
                raise AssertionError(
                    f"c({n}) = {m} escaped the interval [{n}, {upper}]"
                )
            return m
    raise AssertionError(f"no length up to {upper} forced images past {n}")


@dataclass
class CFunction:
    """c with exact values searched for arguments up to
    `SEARCH_EXACT_LIMIT` and the quadratic upper bound substituted above it
    (recorded in `bounded_args` so callers can flag inexactness)."""

    entry_bound: int = 3
    cache: dict = field(default_factory=dict, init=False)
    bounded_args: list = field(default_factory=list, init=False)

    def __call__(self, n: int) -> int:
        if n in self.cache:
            return self.cache[n]
        if n <= SEARCH_EXACT_LIMIT:
            value = c_of_n(n, self.entry_bound)
        else:
            value = (n - 1) ** 2 + 1
            self.bounded_args.append(n)
        self.cache[n] = value
        return value


def c_n_k(n: int, k: int, c_fun=None) -> int:
    """The recursive union bound: value 0 at k = 0, and
    c(n, k+1) = c(n) - 1 + c(n ** (2 ** c(n)), k).  Arguments blow up
    doubly exponentially; a size guard rejects unrepresentable steps."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    if c_fun is None:
        c_fun = CFunction()
    if k == 0:
        return 0
    cn = c_fun(n)
    if k == 1:
        return cn - 1
    if cn > 4_000_000:
        raise ValueError(
            "recursion argument n**(2**c) with c of "
            f"{cn.bit_length()} bits is not representable"
        )
    return cn - 1 + c_n_k(n ** (2**cn), k - 1, c_fun)


@dataclass(frozen=True)
class CTable:
    """Exact-or-bounded c values alongside the quadratic upper bound and
    the derived union-level bounds."""

    entry_bound: int
    c_exact: tuple[tuple[int, int], ...]
    c_upper_bound: tuple[tuple[int, int], ...]
    c_n_k_values: tuple[tuple[int, int, int], ...]

    def to_csv(self) -> str:
        lines = ["kind,n,k,value"]
        lines.extend(f"c_exact,{n},,{v}" for n, v in self.c_exact)
        lines.extend(f"c_upper_bound,{n},,{v}" for n, v in self.c_upper_bound)
        lines.extend(f"c_n_k,{n},{k},{v}" for n, k, v in self.c_n_k_values)
        return "\n".join(lines) + "\n"


def build_c_table(
    ns: list[int], pairs: list[tuple[int, int]], entry_bound: int = 3
) -> CTable:
    c_fun = CFunction(entry_bound=entry_bound)
    exact = tuple((n, c_fun(n)) for n in ns)
    upper = tuple((n, (n - 1) ** 2 + 1) for n in ns)
    cnk = tuple((n, k, c_n_k(n, k, c_fun)) for n, k in pairs)
    return CTable(entry_bound, exact, upper, cnk)


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
    `adjusted_bound` = c(2, k) + k is the bound actually asserted.
    An Unknown union verdict is reported as inconclusive, never a failure.
    """

    level_a: int
    level_b: int
    union_verdict: object
    k: int
    raw_bound: int
    adjusted_bound: int
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
        lv = self.union_level
        return None if lv is None else lv <= self.adjusted_bound

    @property
    def within_raw_bound(self) -> bool | None:
        lv = self.union_level
        return None if lv is None else lv <= self.raw_bound


def union_level_check(
    a: SymbolicSet,
    b: SymbolicSet,
    engine: Engine | None = None,
    budget: Budget | None = None,
) -> UnionLevelReport:
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
    raw = c_n_k(2, k)
    return UnionLevelReport(
        level_a=va.level,
        level_b=vb.level,
        union_verdict=union_verdict,
        k=k,
        raw_bound=raw,
        adjusted_bound=raw + k,
        inconclusive=isinstance(union_verdict, Unknown),
    )
