"""Brute-force ground truth over small finite groups.

Enumerates every subset of a finite group (bitmask-encoded) and assigns its
exact hierarchy level in one pass over the masks in ascending order.  A
subset outside the base family is bottom (outside the thin completion) when
one of its children equals it or is bottom; otherwise its level is one plus
the largest child level, family children counting 0.  Every child
m & (g + m) is a subset of m, so the pass meets every proper child before
its parent.  Derivation commutes with translation,
(g + A) & (h + g + A) = g + (A & (h + A)), and the family is
translation-invariant, so a level is constant on each translation orbit:
the first mask of an orbit fills all of it.

The oracle intentionally shares no code with the classification engine:
children are recomputed from the group operation directly, and an
independent depth-first recursion (`recursive_levels`), which assumes
neither the order nor the orbits, re-derives the same table.  `cross_check`
runs the engine over every subset and compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import or_

from .engine import (
    Budget,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NOT_WELL_FOUNDED,
    NotInThinCompletion,
)
from .groups import MAX_ORDER, GroupDescriptor
from .ideals import SizeAtMost

BOTTOM = -1

_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1


def _shift_maps(group: GroupDescriptor) -> dict[int, tuple[list[int], ...]]:
    """For each nonidentity g, one image table per 8-bit chunk of a mask:
    entry v of chunk c is the image under g of the elements 8c + j for
    the bits j set in v, read off one `group.op` image per element."""
    n = group.order
    maps = {}
    for g in group.nonidentity():
        bits = [1 << group.op(g, a) for a in range(n)]
        tables = []
        for base in range(0, n, _CHUNK):
            width = min(_CHUNK, n - base)
            table = [0] * (1 << width)
            for v in range(1, 1 << width):
                low = v & -v
                table[v] = table[v ^ low] | bits[base + low.bit_length() - 1]
            tables.append(table)
        maps[g] = tuple(tables)
    return maps


def _translate(mask: int, tables: tuple[list[int], ...]) -> int:
    out = 0
    for table in tables:
        out |= table[mask & _CHUNK_MASK]
        mask >>= _CHUNK
    return out


@dataclass(frozen=True)
class OracleTable:
    """Exact level of every subset; BOTTOM (-1) marks sets outside the
    thin completion."""

    group: GroupDescriptor
    family: SizeAtMost
    levels: tuple[int, ...]

    def level(self, mask: int) -> int:
        return self.levels[mask]

    def is_bottom(self, mask: int) -> bool:
        return self.levels[mask] == BOTTOM

    def max_level(self) -> int:
        return max((v for v in self.levels if v != BOTTOM), default=0)

    def bottom_count(self) -> int:
        return self.levels.count(BOTTOM)

    def to_csv(self) -> str:
        lines = ["subset_bitmask,level"]
        lines.extend(f"{m},{v}" for m, v in enumerate(self.levels))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "group": self.group.describe(),
                "size_bound": self.family.t,
                "levels": list(self.levels),
            }
        )


def build_table(group: GroupDescriptor, family: SizeAtMost) -> OracleTable:
    """Exact level of every subset, in one ascending pass over the masks.

    Ascending order is exact because a child m & (g + m) is a subset of m:
    it is either smaller than m, so already filled, or m itself, a cycle
    that makes m bottom unless m is in the family.  Filling the whole
    translation orbit of m with its level is exact because the family is
    translation-invariant and derivation commutes with translation."""
    if group.order > MAX_ORDER:
        raise ValueError(f"subset lattice 2^{group.order} exceeds 2^{MAX_ORDER}")
    if family.group != group:
        raise ValueError("family is defined over a different group")
    # chunks[c][v]: the images of value v of chunk c under every shift
    chunks = [list(zip(*tables)) for tables in zip(*_shift_maps(group).values())]
    levels: list[int | None] = [None] * (1 << group.order)
    for m in range(len(levels)):
        if levels[m] is not None:
            continue
        images = chunks[0][m & _CHUNK_MASK]
        for c in range(1, len(chunks)):
            images = list(map(or_, images, chunks[c][m >> _CHUNK * c & _CHUNK_MASK]))
        level = 0
        if not family.contains(m):
            level = 1
            for image in images:
                child = m & image
                if child == m or levels[child] == BOTTOM:
                    level = BOTTOM
                    break
                level = max(level, 1 + levels[child])
        levels[m] = level
        for image in images:
            levels[image] = level
    return OracleTable(group, family, tuple(levels))


def recursive_levels(group: GroupDescriptor, family: SizeAtMost) -> tuple[int, ...]:
    """Independent check: memoized depth-first recursion with an explicit
    stack-based cycle test.  A subset whose derivation reaches a cycle of
    sets outside the family is bottom; otherwise its level is one plus the
    largest child level."""
    n = group.order
    total = 1 << n
    maps = _shift_maps(group)
    done: dict[int, int] = {}

    def visit(m: int, stack: set[int]) -> int:
        if m in done:
            return done[m]
        if family.contains(m):
            done[m] = 0
            return 0
        if m in stack:
            return BOTTOM
        stack.add(m)
        best = 0
        bottom = False
        for tables in maps.values():
            child = m & _translate(m, tables)
            if family.contains(child):
                continue
            r = visit(child, stack)
            if r == BOTTOM:
                bottom = True
            else:
                best = max(best, r)
        stack.discard(m)
        res = BOTTOM if bottom else 1 + best
        done[m] = res
        return res

    for m in range(total):
        visit(m, set())
    return tuple(done[m] for m in range(total))


@dataclass(frozen=True)
class CrossCheckReport:
    """Per-subset agreement between the oracle table and the engine."""

    group: GroupDescriptor
    size_bound: int
    checked: int
    mismatches: tuple[tuple, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = "agree" if self.ok else f"{len(self.mismatches)} MISMATCHES"
        return (
            f"{self.group.describe()} with size bound {self.size_bound}: "
            f"{self.checked} subsets, {state}"
        )


def cross_check(table: OracleTable, budget: Budget | None = None) -> CrossCheckReport:
    """Classify every subset with the engine (full branching) and compare
    levels, bottom verdicts, tree ranks, and witness replays against the
    table."""
    engine = Engine(FiniteGroupUniverse(table.family))
    budget = budget if budget is not None else Budget()
    mismatches: list[tuple] = []
    total = 1 << table.group.order
    for m in range(total):
        verdict = engine.classify(m, budget)
        rank = engine.tree_rank(m, budget)
        expected = table.levels[m]
        if isinstance(verdict, ExactLevel):
            ok = expected == verdict.level == rank
        elif isinstance(verdict, NotInThinCompletion):
            ok = (
                expected == BOTTOM
                and rank is NOT_WELL_FOUNDED
                and engine.replay_witness(m, verdict.witness)
            )
        else:
            ok = False
        if not ok:
            mismatches.append((m, expected, verdict, rank))
    return CrossCheckReport(table.group, table.family.t, total, tuple(mismatches))


def boolean_non_additivity_witness(
    d: int, t: int
) -> tuple[int, int] | None:
    """First (A, x) in numeric order with A thin but A | (x + A) not thin,
    over the Boolean group (Z/2)^d with the size-t family.  Exhibits the
    failure of additivity for thinness: A | (x + A) is x-invariant, so its
    derived set at x is itself."""
    if d < 2:
        raise ValueError(f"Boolean witness search needs d >= 2, got {d}")
    group = GroupDescriptor.boolean_power(d)
    family = SizeAtMost(group, t)
    maps = _shift_maps(group)

    def thin(mask: int) -> bool:
        return all(
            family.contains(mask & _translate(mask, tables)) for tables in maps.values()
        )

    for mask in range(1 << group.order):
        if not thin(mask):
            continue
        for x in group.nonidentity():
            union = mask | _translate(mask, maps[x])
            if not thin(union):
                assert _translate(union, maps[x]) == union
                return (mask, x)
    return None
