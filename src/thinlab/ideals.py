"""Base families of negligible sets.

A base family F is left-invariant (closed under translation) and lower
(closed under subsets); it may or may not be additive (closed under
finite union).  Two families are provided:

* FiniteSets: the finite subsets of Z, tested on symbolic sets;
* SizeAtMost(group, t): subsets of a finite group with at most t elements,
  tested on bitmask subsets.

Both predicates make the first two axioms true by construction:

* a translation is a bijection, so it preserves finiteness and size;
* a subset is no larger than its set.

FiniteSets is additive.  SizeAtMost(t) is additive exactly when t == 0 or
t >= |G|: otherwise t members and one more element make a union of t + 1.
The hierarchy machinery needs only left-invariance and lowerness.
"""

from __future__ import annotations

from dataclasses import dataclass

# mask_translate stays a module attribute: bench/spans.py wraps
# thinlab.ideals.mask_translate by name
from .groups import GroupDescriptor, check_mask, mask_translate  # noqa: F401
from .symbolic import SymbolicSet


@dataclass(frozen=True)
class FiniteSets:
    """The family of finite subsets of Z."""

    def contains(self, a: SymbolicSet) -> bool:
        if not isinstance(a, SymbolicSet):
            raise TypeError(f"FiniteSets tests symbolic subsets of Z, got {type(a).__name__}")
        return a.is_finite()


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
