"""Ambient groups: Z, Z/n, and (Z/2)^d, plus scaling endomorphisms on Z.

Elements are plain Python ints throughout: arbitrary integers for Z, reduced
residues 0..n-1 for Z/n, and d-bit masks for (Z/2)^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

INTEGERS = "integers"
CYCLIC = "cyclic"
BOOLEAN = "boolean"


@dataclass(frozen=True)
class GroupDescriptor:
    """One of the supported abelian groups.

    kind "integers" ignores n; "cyclic" is Z/n (n >= 2); "boolean" is
    (Z/2)^d with n holding the exponent d >= 1.
    """

    kind: str
    n: int = 0

    @staticmethod
    def integers() -> "GroupDescriptor":
        return GroupDescriptor(INTEGERS)

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
        if self.kind not in (INTEGERS, CYCLIC, BOOLEAN):
            raise ValueError(f"unknown group kind {self.kind!r}")

    @cached_property
    def order(self) -> int | None:
        """Group order, or None for Z."""
        if self.kind == INTEGERS:
            return None
        if self.kind == CYCLIC:
            return self.n
        return 1 << self.n

    @property
    def identity(self) -> int:
        return 0

    def contains_element(self, a: int) -> bool:
        if not isinstance(a, int) or isinstance(a, bool):
            return False
        if self.kind == INTEGERS:
            return True
        order = self.order
        assert order is not None
        return 0 <= a < order

    def _check(self, a: int) -> None:
        if not self.contains_element(a):
            raise ValueError(f"element {a!r} not in {self.describe()}")

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.kind == INTEGERS:
            return a + b
        if self.kind == CYCLIC:
            return (a + b) % self.n
        return a ^ b

    def inverse(self, a: int) -> int:
        self._check(a)
        if self.kind == INTEGERS:
            return -a
        if self.kind == CYCLIC:
            return (-a) % self.n
        return a

    def elements(self) -> Iterator[int]:
        """All elements in deterministic (numeric) order; error for Z."""
        order = self.order
        if order is None:
            raise ValueError("cannot enumerate the integers")
        return iter(range(order))

    def nonidentity(self) -> Iterator[int]:
        order = self.order
        if order is None:
            raise ValueError("cannot enumerate the integers")
        return iter(range(1, order))

    def describe(self) -> str:
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == CYCLIC:
            return f"Z/{self.n}"
        return f"(Z/2)^{self.n}"


@dataclass(frozen=True)
class ScaleBy:
    """The endomorphism x -> k*x of Z (injective for k != 0).

    For |k| >= 2 the images k^n * Z intersect in 0 alone, so the map is
    expanding: every nonzero x escapes k^n * Z once n exceeds the k-adic
    valuation of x.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k == 0:
            raise ValueError("scaling by 0 is not injective")

    def apply(self, a: int) -> int:
        return self.k * a

    def iterate(self, a: int, times: int) -> int:
        return a * self.k**times

    @property
    def expanding(self) -> bool:
        return abs(self.k) >= 2

    def escape_exponent(self, x: int) -> int:
        """Least n >= 0 with x not in k^n * Z, for nonzero x and |k| >= 2."""
        if x == 0:
            raise ValueError("0 lies in every image")
        if not self.expanding:
            raise ValueError(f"scale by {self.k} is not expanding")
        n = 0
        k = abs(self.k)
        while x % k == 0:
            x //= k
            n += 1
        return n + 1


def mask_of(group: GroupDescriptor, elements: "Iterator[int] | list[int] | set[int]") -> int:
    """Bitmask encoding of a subset of a finite group."""
    if group.order is None:
        raise ValueError("bitmask subsets require a finite group")
    mask = 0
    for a in elements:
        group._check(a)
        mask |= 1 << a
    return mask


def mask_elements(group: GroupDescriptor, mask: int) -> list[int]:
    if group.order is None:
        raise ValueError("bitmask subsets require a finite group")
    if not 0 <= mask < (1 << group.order):
        raise ValueError(f"mask {mask} out of range for {group.describe()}")
    return [a for a in range(group.order) if mask >> a & 1]


def mask_translate(group: GroupDescriptor, mask: int, g: int) -> int:
    """Bitmask of {g + a : a in mask} under the group operation.

    On Z/n this rotates the mask left by g bits.  On (Z/2)^d, XOR with a
    set bit 2^i of g moves each position by 2^i, exchanging the blocks of
    2^i bits that differ in bit i of their position, so the translate is
    one block swap per set bit.
    """
    n = group.order
    if n is None:
        raise ValueError("bitmask subsets require a finite group")
    if not 0 <= mask < (1 << n):
        raise ValueError(f"mask {mask} out of range for {group.describe()}")
    group._check(g)
    if group.kind == CYCLIC:
        return ((mask << g) | (mask >> (n - g))) & ((1 << n) - 1)
    for bit, low in _swap_masks(group.n):
        if g & bit:
            mask = ((mask & low) << bit) | ((mask >> bit) & low)
    return mask


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
