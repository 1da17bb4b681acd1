"""An independent evaluator of set expressions on a window of integers.

It reads the grammar of `thinlab.dsl` with its own tokenizer and parser
and shares no code with thinlab, so it can check what `parse_set` and
`SymbolicSet.window` compute.  Each node is evaluated explicitly:
- `geo(b,c,d,n0)` by walking its powers, `ap(c,d)` by `range`, and a
  finite literal by filtering;
- `A + k` on the window shifted by -k, and `A * k` on the window divided
  by k, rounded inward;
- `&`, `|` pointwise, and integer `+`, `*` and unary `-` exactly.

`window_of(text, lo, hi)` is the set of elements of the expression's set
in [lo, hi].  Only expressions that `parse_set` accepts are evaluated, so
an ill-typed expression just raises ValueError.
"""

from __future__ import annotations

import re
from typing import Callable, Union

# A value: an integer, or a set given by its elements in a window [lo, hi].
Window = Callable[[int, int], set]
Value = Union[int, Window]

TOKEN = re.compile(r"\s*([0-9]+|[a-z]+|[-{}(),|&+*])")


def tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad character at {pos} in {text!r}")
        out.append(m[1])
        pos = m.end()
    return out


def _finite(xs: list[int]) -> Window:
    return lambda lo, hi: {x for x in xs if lo <= x <= hi}


def _geo(b: int, c: int, d: int, n0: int) -> Window:
    if b < 2 or c == 0 or n0 < 0:
        raise ValueError(f"bad geo({b},{c},{d},{n0})")

    def elements(lo: int, hi: int) -> set:
        out, v = set(), c * b**n0
        while abs(v) <= max(abs(lo - d), abs(hi - d)):
            if lo <= v + d <= hi:
                out.add(v + d)
            v *= b
        return out
    return elements


def _ap(c: int, d: int) -> Window:
    if c < 1:
        raise ValueError(f"bad ap({c},{d})")
    return lambda lo, hi: set(range(lo + (d - lo) % c, hi + 1, c))


def _shift(a: Window, k: int) -> Window:
    return lambda lo, hi: {x + k for x in a(lo - k, hi - k)}


def _scale(a: Window, k: int) -> Window:
    """k * A: x with lo <= k * x <= hi runs from ceil(lo / k) to floor(hi / k)
    for k > 0, and from ceil(hi / k) to floor(lo / k) for k < 0."""
    def elements(lo: int, hi: int) -> set:
        first, last = (lo, hi) if k > 0 else (hi, lo)
        return {k * x for x in a(-(-first // k), last // k)}
    return elements


def _combine(sym: str, left: Value, right: Value) -> Value:
    ints = isinstance(left, int), isinstance(right, int)
    if sym in "|&":
        if any(ints):
            raise ValueError(f"'{sym}' on an integer")
        if sym == "|":
            return lambda lo, hi: left(lo, hi) | right(lo, hi)
        return lambda lo, hi: left(lo, hi) & right(lo, hi)
    if all(ints):
        return left + right if sym == "+" else left * right
    if not any(ints):
        raise ValueError(f"'{sym}' on two sets")
    a, k = (right, left) if ints[0] else (left, right)
    if sym == "+":
        return _shift(a, k)
    if k == 0:
        raise ValueError("scale by 0")
    return _scale(a, k)


class _Reader:
    """Recursive descent by precedence, low to high: '|', '&', '+', '*',
    unary '-'; each binary operator is left associative."""

    LEVELS = "|&+*"

    def __init__(self, text: str):
        self.toks = tokens(text)
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if tok is None or want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        self.i += 1
        return tok

    def expr(self, level: int = 0) -> Value:
        if level == len(self.LEVELS):
            return self.unary()
        value = self.expr(level + 1)
        while self.peek() == self.LEVELS[level]:
            sym = self.take()
            value = _combine(sym, value, self.expr(level + 1))
        return value

    def unary(self) -> Value:
        signs = 0
        while self.peek() == "-":
            self.take()
            signs += 1
        value = self.primary()
        if signs and not isinstance(value, int):
            raise ValueError("unary '-' on a set")
        return -value if signs % 2 else value

    def signed(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, found {tok!r}")
        return sign * int(tok)

    def args(self, n: int) -> list[int]:
        self.take("(")
        out = [self.signed()]
        for _ in range(n - 1):
            self.take(",")
            out.append(self.signed())
        self.take(")")
        return out

    def primary(self) -> Value:
        tok = self.take()
        if tok.isdigit():
            return int(tok)
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok == "{":
            xs = []
            while self.peek() != "}":
                if xs:
                    self.take(",")
                xs.append(self.signed())
            self.take("}")
            return _finite(xs)
        if tok == "geo":
            return _geo(*self.args(4))
        if tok == "ap":
            return _ap(*self.args(2))
        raise ValueError(f"unexpected token {tok!r}")


def window_of(text: str, lo: int, hi: int) -> set:
    """The elements in [lo, hi] of the set that `text` denotes."""
    reader = _Reader(text)
    value = reader.expr()
    if reader.peek() is not None:
        raise ValueError(f"trailing input {reader.peek()!r}")
    if isinstance(value, int):
        raise ValueError("an integer, not a set")
    return value(lo, hi)
