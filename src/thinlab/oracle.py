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

The oracle intentionally shares no code with the classification engine.
Every translate it uses, in `build_table`, `recursive_levels` and
`boolean_non_additivity_witness` alike, comes from one table built from
`group.op` (`_image_tables`, read through `_images`).  An independent
depth-first recursion (`recursive_levels`), which assumes neither the
order nor the orbits, re-derives the same table, and `cross_check` runs
the engine over every subset and compares.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterator
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
from .groups import MAX_ORDER, GroupDescriptor, int_text
from .ideals import SizeAtMost

BOTTOM = -1
_UNSET = -2

_CHUNK = 8
_CHUNK_MASK = (1 << _CHUNK) - 1
_ROWS = 4096


def _image_tables(group: GroupDescriptor) -> list[list[tuple[int, ...]]]:
    """One table per 8-bit chunk of a mask: entry v of chunk c is the tuple
    of the images of the elements 8c + j, for the bits j set in v, under
    every nonidentity shift g, at index g - 1.  Each image of an element is
    read off one `group.op` call."""
    n = group.order
    shifts = list(group.nonidentity())
    bits = [[1 << group.op(g, a) for g in shifts] for a in range(n)]
    tables = []
    for base in range(0, n, _CHUNK):
        table = [(0,) * len(shifts)]
        for v in range(1, 1 << min(_CHUNK, n - base)):
            low = v & -v
            lowest = bits[base + low.bit_length() - 1]
            table.append(tuple(map(or_, table[v ^ low], lowest)))
        tables.append(table)
    return tables


def _images(mask: int, tables: list[list[tuple[int, ...]]]) -> list[int]:
    """The translates of a mask under every nonidentity shift g, at index
    g - 1, as the OR of its chunks' images."""
    images = tables[0][mask & _CHUNK_MASK]
    for table in tables[1:]:
        mask >>= _CHUNK
        images = map(or_, images, table[mask & _CHUNK_MASK])
    return list(images)


@dataclass(frozen=True)
class OracleTable:
    """Exact level of every subset, one signed byte each; BOTTOM (-1)
    marks sets outside the thin completion."""

    group: GroupDescriptor
    family: SizeAtMost
    levels: array

    def level(self, mask: int) -> int:
        return self.levels[mask]

    def max_level(self) -> int:
        return max((v for v in self.levels if v != BOTTOM), default=0)

    def bottom_count(self) -> int:
        return self.levels.count(BOTTOM)

    def csv_chunks(self) -> Iterator[str]:
        """The CSV text, `_ROWS` rows at a time."""
        yield "subset_bitmask,level\n"
        for start in range(0, len(self.levels), _ROWS):
            rows = enumerate(self.levels[start : start + _ROWS], start)
            yield "".join(f"{m},{v}\n" for m, v in rows)

    def json_chunks(self) -> Iterator[str]:
        """`json.dumps` of {group, size_bound, levels}, `_ROWS` levels at
        a time."""
        head = json.dumps({"group": self.group.describe(), "size_bound": self.family.t})
        yield head[:-1] + ', "levels": ['
        for start in range(0, len(self.levels), _ROWS):
            piece = ", ".join(map(str, self.levels[start : start + _ROWS]))
            yield ", " + piece if start else piece
        yield "]}"


def build_table(group: GroupDescriptor, family: SizeAtMost) -> OracleTable:
    """Exact level of every subset, in one ascending pass over the masks.

    Ascending order is exact because a child m & (g + m) is a subset of m:
    it is either smaller than m, so already filled, or m itself, a cycle
    that makes m bottom unless m is in the family.  Filling the whole
    translation orbit of m with its level is exact because the family is
    translation-invariant and derivation commutes with translation.

    Levels fit a signed byte: a level is at most |G| <= MAX_ORDER = 24,
    or BOTTOM; `array("b")` raises OverflowError past 127."""
    if group.order > MAX_ORDER:
        raise ValueError(f"subset lattice 2^{int_text(group.order)} exceeds 2^{MAX_ORDER}")
    if family.group != group:
        raise ValueError("family is defined over a different group")
    tables = _image_tables(group)
    total = 1 << group.order
    # one spare _UNSET entry past the end stops the scan for unfilled masks
    levels = array("b", [_UNSET]) * (total + 1)
    m = 0
    while m < total:
        images = _images(m, tables)
        level = 0
        if not family.contains(m):
            level = 1
            for image in images:
                child = m & image
                below = levels[child]
                if child == m or below == BOTTOM:
                    level = BOTTOM
                    break
                if below >= level:
                    level = below + 1
        levels[m] = level
        for image in images:
            levels[image] = level
        m = levels.index(_UNSET, m + 1)
    levels.pop()
    return OracleTable(group, family, levels)


def recursive_levels(group: GroupDescriptor, family: SizeAtMost) -> array:
    """Independent check: memoized depth-first recursion with an explicit
    stack-based cycle test.  A subset whose derivation reaches a cycle of
    sets outside the family is bottom; otherwise its level is one plus the
    largest child level."""
    n = group.order
    total = 1 << n
    tables = _image_tables(group)
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
        for image in _images(m, tables):
            child = m & image
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
    return array("b", (done[m] for m in range(total)))


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
    """Classify every subset with the engine (coset core and size cut) and
    compare levels, bottom verdicts, tree ranks, and witness replays
    against the table."""
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
    tables = _image_tables(group)

    def thin(mask: int) -> bool:
        return all(family.contains(mask & image) for image in _images(mask, tables))

    for mask in range(1 << group.order):
        if not thin(mask):
            continue
        for x, image in enumerate(_images(mask, tables), 1):
            union = mask | image
            if not thin(union):
                assert _images(union, tables)[x - 1] == union
                return (mask, x)
    return None
