"""Ambient finite groups: Z/n and (Z/2)^d.

Elements are plain Python ints throughout: reduced residues 0..n-1 for
Z/n, and d-bit masks for (Z/2)^d.  A subset is a bitmask with bit a set
for each element a; `check_mask` is the one rule for what a valid mask
is, and MAX_ORDER the one bound on the order of a group whose subsets
the engine and the oracle take.  Subsets of Z are symbolic sets instead
(`thinlab.symbolic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

CYCLIC = "cyclic"
BOOLEAN = "boolean"

MAX_ORDER = 24


@dataclass(frozen=True)
class GroupDescriptor:
    """One of the supported finite abelian groups.

    kind "cyclic" is Z/n (n >= 2); "boolean" is (Z/2)^d with n holding
    the exponent d >= 1.
    """

    kind: str
    n: int = 0

    @staticmethod
    def cyclic(n: int) -> "GroupDescriptor":
        if n < 2:
            raise ValueError(f"cyclic group needs modulus >= 2, got {n}")
        return GroupDescriptor(CYCLIC, n)

    @staticmethod
    def boolean_power(d: int) -> "GroupDescriptor":
        if d < 1:
            raise ValueError(f"boolean power needs exponent >= 1, got {d}")
        return GroupDescriptor(BOOLEAN, d)

    def __post_init__(self) -> None:
        if self.kind not in (CYCLIC, BOOLEAN):
            raise ValueError(f"unknown group kind {self.kind!r}")

    @cached_property
    def order(self) -> int:
        if self.kind == CYCLIC:
            return self.n
        return 1 << self.n

    @property
    def identity(self) -> int:
        return 0

    def _check(self, a: int) -> None:
        """Raise TypeError unless a is a plain int (so not a bool), and
        ValueError unless it is an element of the group."""
        if type(a) is not int:
            raise TypeError(f"expected a group element, got {type(a).__name__}")
        if not 0 <= a < self.order:
            raise ValueError(f"element {a!r} not in {self.describe()}")

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.kind == CYCLIC:
            return (a + b) % self.n
        return a ^ b

    def elements(self) -> Iterator[int]:
        """All elements in deterministic (numeric) order."""
        return iter(range(self.order))

    def nonidentity(self) -> Iterator[int]:
        return iter(range(1, self.order))

    def describe(self) -> str:
        if self.kind == CYCLIC:
            return f"Z/{self.n}"
        return f"(Z/2)^{self.n}"


def mask_of(group: GroupDescriptor, elements: "Iterator[int] | list[int] | set[int]") -> int:
    """Bitmask encoding of a subset of a finite group."""
    mask = 0
    for a in elements:
        group._check(a)
        mask |= 1 << a
    return mask


def check_mask(group: GroupDescriptor, mask: int) -> None:
    """Raise TypeError unless mask is a plain int (so not a bool), and
    ValueError unless it encodes a subset of the group."""
    if type(mask) is not int:
        raise TypeError(f"expected a bitmask subset, got {type(mask).__name__}")
    if not 0 <= mask < (1 << group.order):
        raise ValueError(f"mask {mask} out of range for {group.describe()}")


def mask_elements(group: GroupDescriptor, mask: int) -> list[int]:
    check_mask(group, mask)
    return [a for a in range(group.order) if mask >> a & 1]


def mask_translate(group: GroupDescriptor, mask: int, g: int) -> int:
    """Bitmask of {g + a : a in mask} under the group operation: on Z/n a
    left rotation by g, on (Z/2)^d one block swap per set bit of g."""
    check_mask(group, mask)
    group._check(g)
    if group.kind == CYCLIC:
        n = group.n
        return (mask << g | mask >> (n - g)) & ((1 << n) - 1)
    for bit, low in _swap_masks(group.n):
        if g & bit:
            mask = (mask & low) << bit | (mask >> bit) & low
    return mask


def mask_orbit(group: GroupDescriptor, mask: int) -> list[int]:
    """All |G| translates of a mask already checked, the one by g at index
    g, in one pass.  On Z/n each is a left rotation, read off the mask
    written twice over.  On (Z/2)^d, XOR with 2^i swaps blocks of 2^i bits,
    so each bit doubles the list."""
    n = group.order
    if group.kind == CYCLIC:
        twice, full = mask | mask << n, (1 << n) - 1
        return [twice >> (n - g) & full for g in range(n)]
    out = [mask]
    for bit, low in _swap_masks(group.n):
        out += [(m & low) << bit | (m >> bit) & low for m in out]
    return out


@cache
def _swap_masks(d: int) -> tuple[tuple[int, int], ...]:
    """For each bit i < d, the pair (2^i, low): low is the mask of the
    positions in 0..2^d-1 whose bit i is clear, runs of 2^i ones and 2^i
    zeros from bit 0 up."""
    span = (1 << (1 << d)) - 1
    return tuple(
        (1 << i, ((1 << (1 << i)) - 1) * (span // ((1 << (2 << i)) - 1)))
        for i in range(d)
    )
