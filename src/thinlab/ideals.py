"""Base families of negligible sets.

A base family F is left-invariant (closed under translation) and lower
(closed under subsets); it may or may not be additive (closed under
finite union).  Two families are provided:

* FiniteSets: the finite subsets of Z, tested on symbolic sets;
* SizeAtMost(group, t): subsets of a finite group with at most t elements,
  tested on bitmask subsets.  Additive only when t == 0 or t == |G|.

The hierarchy machinery needs only left-invariance and lowerness;
additivity is a separately checkable property, not an assumption.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .groups import GroupDescriptor, check_mask, mask_elements, mask_of, mask_translate
from .symbolic import SymbolicSet, finite_set, random_set


@dataclass(frozen=True)
class FiniteSets:
    """The family of finite subsets of Z."""

    def contains(self, a: SymbolicSet) -> bool:
        if not isinstance(a, SymbolicSet):
            raise TypeError(f"FiniteSets tests symbolic subsets of Z, got {type(a).__name__}")
        return a.is_finite()

    # sampling hooks for axiom checking

    def _random_member(self, rng: random.Random) -> SymbolicSet:
        return finite_set(rng.sample(range(-40, 41), rng.randrange(0, 6)))

    def _random_any(self, rng: random.Random) -> SymbolicSet:
        return random_set(rng)

    def _random_shift(self, rng: random.Random) -> int:
        return rng.randrange(-50, 51)

    def _translate(self, a: SymbolicSet, g: int) -> SymbolicSet:
        return a.translate(g)

    def _random_subobject(self, a: SymbolicSet, rng: random.Random) -> SymbolicSet:
        xs = [x for x in a.finite if rng.random() < 0.5]
        return finite_set(xs)

    def _forced_union_pair(self) -> tuple[SymbolicSet, SymbolicSet] | None:
        return None


@dataclass(frozen=True)
class SizeAtMost:
    """Subsets of a finite group with at most t elements, as bitmasks."""

    group: GroupDescriptor
    t: int

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"size bound must be >= 0, got {self.t}")

    def contains(self, a: int) -> bool:
        check_mask(self.group, a)
        return self.fits(a)

    def fits(self, a: int) -> bool:
        return a.bit_count() <= self.t

    def _random_member(self, rng: random.Random) -> int:
        n = self.group.order
        size = rng.randrange(0, min(self.t, n) + 1)
        return mask_of(self.group, rng.sample(range(n), size))

    def _random_any(self, rng: random.Random) -> int:
        return rng.randrange(1 << self.group.order)

    def _random_shift(self, rng: random.Random) -> int:
        return rng.randrange(self.group.order)

    def _translate(self, a: int, g: int) -> int:
        return mask_translate(self.group, a, g)

    def _random_subobject(self, a: int, rng: random.Random) -> int:
        xs = [x for x in mask_elements(self.group, a) if rng.random() < 0.5]
        return mask_of(self.group, xs)

    def _forced_union_pair(self) -> tuple[int, int] | None:
        # two disjoint members whose union exceeds the bound, when one exists
        if 1 <= self.t < self.group.order:
            return ((1 << self.t) - 1, 1 << self.t)
        return None


@dataclass(frozen=True)
class AxiomReport:
    """Result of property-testing a base family's axioms."""

    left_invariant: bool
    lower: bool
    additive: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def is_base_family(self) -> bool:
        return self.left_invariant and self.lower


def check_axioms(family, samples: int = 100, rng: random.Random | None = None) -> AxiomReport:
    """Property-test left-invariance, lowerness, and additivity.

    Left-invariance is checked in both directions (membership is preserved
    and reflected by translation); lowerness on random sub-objects of
    members; additivity on random pairs of members plus, when the family
    can supply one, a deliberately adversarial pair.
    """
    rng = rng if rng is not None else random.Random(0)
    left = lower = additive = True
    witnesses: dict[str, Any] = {}

    for _ in range(samples):
        a = family._random_member(rng)
        g = family._random_shift(rng)
        if not family.contains(family._translate(a, g)):
            left = False
            witnesses.setdefault("left_invariant", (a, g))
        x = family._random_any(rng)
        if family.contains(x) != family.contains(family._translate(x, g)):
            left = False
            witnesses.setdefault("left_invariant", (x, g))
        b = family._random_subobject(a, rng)
        if not family.contains(b):
            lower = False
            witnesses.setdefault("lower", (a, b))
        c = family._random_member(rng)
        if not family.contains(a | c):
            additive = False
            witnesses.setdefault("additive", (a, c))

    forced = family._forced_union_pair()
    if forced is not None and not family.contains(forced[0] | forced[1]):
        additive = False
        witnesses.setdefault("additive", forced)

    return AxiomReport(left, lower, additive, witnesses)
