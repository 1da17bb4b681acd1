"""Ambient finite groups: products Z/m_0 x Z/m_1 x ... of cyclic groups.

An element is an int in mixed radix, factor 0 least significant, and the
group adds digit by digit: Z/n is (n,) and (Z/2)^d is (2,)*d.  A subset is
a bitmask with bit a set for each element a; `check_mask` is the one rule
for what a valid mask is, and MAX_ORDER the one bound on the order of a
group whose subsets the engine and the oracle take.  Subsets of Z are
symbolic sets instead (`thinlab.symbolic`).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Iterator

MAX_ORDER = 24


def int_text(x: int) -> str:
    """x in decimal, or its sign and bit length where str() refuses it."""
    try:
        return str(x)
    except ValueError:
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit int>"


class _ShortRepr(reprlib.Repr):
    """reprlib's bounded repr, naming the ints str() refuses by int_text."""

    def repr_int(self, x: int, level: int) -> str:
        try:
            return super().repr_int(x, level)
        except ValueError:
            return int_text(x)


short_repr = _ShortRepr().repr


@dataclass(frozen=True)
class GroupDescriptor:
    """The group Z/m_0 x Z/m_1 x ... of one or more moduli m_i >= 2."""

    moduli: tuple[int, ...]
    identity = 0

    @staticmethod
    def cyclic(n: int) -> "GroupDescriptor":
        if n < 2:
            raise ValueError(f"cyclic group needs modulus >= 2, got {int_text(n)}")
        return GroupDescriptor((n,))

    @staticmethod
    def boolean_power(d: int) -> "GroupDescriptor":
        if d < 1:
            raise ValueError(f"boolean power needs exponent >= 1, got {int_text(d)}")
        if d > MAX_ORDER:
            raise ValueError(f"boolean power needs exponent <= {MAX_ORDER}, got {int_text(d)}")
        return GroupDescriptor((2,) * d)

    def __post_init__(self) -> None:
        m = self.moduli
        if type(m) is not tuple or not m or any(type(k) is not int or k < 2 for k in m):
            raise ValueError(f"unknown group kind {short_repr(m)}")

    @cached_property
    def order(self) -> int:
        return prod(self.moduli)

    def _check(self, a: int) -> None:
        """Raise TypeError unless a is a plain int (so not a bool), and
        ValueError unless it is an element of the group."""
        if type(a) is not int:
            raise TypeError(f"expected a group element, got {type(a).__name__}")
        if not 0 <= a < self.order:
            raise ValueError(f"element {int_text(a)} not in {self.describe()}")

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        total, stride = 0, 1
        for n in self.moduli:
            total += (a // stride + b // stride) % n * stride
            stride *= n
        return total

    def nonidentity(self) -> Iterator[int]:
        return iter(range(1, self.order))

    def describe(self) -> str:
        m = self.moduli
        if len(m) > 1 and set(m) == {2}:
            return f"(Z/2)^{len(m)}"
        return " x ".join(f"Z/{int_text(n)}" for n in m)

    @cached_property
    def _layout(self) -> tuple[tuple, dict, int, int, int]:
        """(moves, steps, s, order, full), s the last factor's stride.  Per
        other factor moves holds (n, stride, table), table[a - 1] the (low,
        up, high, down) moving the bits of digit below n - a up by a*stride,
        the rest down by (n - a)*stride; steps[r] caches the moves of r's digits."""
        full = (1 << self.order) - 1
        moves, s = [], 1
        for n in self.moduli[:-1]:
            rep = full // ((1 << n * s) - 1)  # one bit at the start of each block
            lows = [((1 << k * s) - 1) * rep for k in range(n)]
            moves.append((n, s, tuple((lows[n - a], a * s, lows[a], (n - a) * s) for a in range(1, n))))
            s *= n
        return tuple(moves), {}, s, self.order, full

    @cached_property
    def _tops(self) -> tuple[tuple[int, int], ...]:
        """(up, down) of the rotation by each nonzero digit of the last factor."""
        return tuple((up, self.order - up) for up in range(self._layout[2], self.order, self._layout[2]))


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
        raise ValueError(f"mask {int_text(mask)} out of range for {group.describe()}")


def mask_elements(group: GroupDescriptor, mask: int) -> list[int]:
    check_mask(group, mask)
    return [a for a in range(group.order) if mask >> a & 1]


def mask_translate(group: GroupDescriptor, mask: int, g: int) -> int:
    """Bitmask of {g + a : a in mask}: one move per nonzero digit of g, the last a rotation."""
    check_mask(group, mask)
    group._check(g)
    moves, steps, s, order, full = group._layout
    r = g % s
    if r:
        if r not in steps:
            steps[r] = [table[a - 1] for n, stride, table in moves if (a := r // stride % n)]
        for low, up, high, down in steps[r]:
            mask = (mask & low) << up | (mask >> down) & high
    up = g - r
    return (mask << up | mask >> (order - up)) & full


def mask_orbit(group: GroupDescriptor, mask: int) -> list[int]:
    """All |G| translates of a mask already checked, the one by g at index g."""
    moves, _, s, n, full = group._layout
    if s == 1:
        twice = mask | mask << n
        return [twice >> down & full for down in range(n, 0, -1)]
    out = [mask]
    for _, _, table in moves:
        out += [(m & low) << up | (m >> down) & high for low, up, high, down in table for m in out]
    return out + [(m << up | m >> down) & full for up, down in group._tops for m in out]
