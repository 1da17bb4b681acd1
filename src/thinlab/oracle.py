"""Brute-force ground truth over small finite groups.

Enumerates every subset of a finite group (bitmask-encoded) and assigns its
exact hierarchy level by a round-based least fixpoint: round 0 marks the
base-family members at level 0, round r+1 marks the unmarked subsets all of
whose derived children are already marked, at one plus the largest child
level.  Subsets never marked sit outside the thin completion and get the
bottom value.

The oracle intentionally shares no code with the classification engine:
children are recomputed from the group operation directly, and an
independent depth-first recursion (`recursive_levels`) re-derives the same
table a third way.  `cross_check` runs the engine over every subset and
compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .engine import (
    Budget,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NOT_WELL_FOUNDED,
    NotInThinCompletion,
)
from .groups import GroupDescriptor, mask_elements
from .ideals import SizeAtMost

BOTTOM = -1

MAX_LATTICE_BITS = 24


_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1


def _shift_maps(group: GroupDescriptor) -> dict[int, tuple[list[int], ...]]:
    """For each nonidentity g, one image table per 8-bit chunk of a mask:
    entry v of chunk c is the image under g of the elements 8c + j for
    the bits j set in v."""
    n = group.order
    maps = {}
    for g in group.nonidentity():
        tables = []
        for base in range(0, n, _CHUNK):
            width = min(_CHUNK, n - base)
            table = [0] * (1 << width)
            for v in range(1, 1 << width):
                low = v & -v
                a = base + low.bit_length() - 1
                table[v] = table[v ^ low] | (1 << group.op(g, a))
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
    """Round-based least fixpoint over the full subset lattice."""
    if group.order is None:
        raise ValueError("oracle requires a finite group")
    if group.order > MAX_LATTICE_BITS:
        raise ValueError(
            f"subset lattice 2^{group.order} exceeds 2^{MAX_LATTICE_BITS}"
        )
    if family.group != group:
        raise ValueError("family is defined over a different group")
    n = group.order
    total = 1 << n
    maps = _shift_maps(group)
    levels: list[int | None] = [None] * total
    for m in range(total):
        if family.contains(m):
            levels[m] = 0

    round_no = 0
    while True:
        round_no += 1
        marks: list[tuple[int, int]] = []
        for m in range(total):
            if levels[m] is not None:
                continue
            worst = -1
            complete = True
            for tables in maps.values():
                child = m & _translate(m, tables)
                lc = levels[child]
                if lc is None:
                    complete = False
                    break
                if lc > worst:
                    worst = lc
            if complete:
                marks.append((m, 1 + worst))
        if not marks:
            break
        for m, lv in marks:
            assert lv == round_no, "fixpoint round invariant violated"
            levels[m] = lv

    return OracleTable(
        group, family, tuple(BOTTOM if v is None else v for v in levels)
    )


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
    engine = Engine(FiniteGroupUniverse(table.group, table.family))
    mismatches: list[tuple] = []
    total = 1 << table.group.order
    for m in range(total):
        verdict = engine.classify(m, budget)
        rank = engine.tree_rank(m, budget)
        expected = table.levels[m]
        if isinstance(verdict, ExactLevel):
            ok = (
                expected == verdict.level
                and rank == verdict.level
            )
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
    return CrossCheckReport(
        table.group, table.family.t, total, tuple(mismatches)
    )


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
