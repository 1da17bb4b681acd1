"""Expression language for symbolic sets.

Grammar (precedence low to high):

    expr   := union
    union  := inter ('|' inter)*
    inter  := sum ('&' sum)*
    sum    := prod ('+' prod)*
    prod   := unary ('*' unary)*
    unary  := '-' unary | primary
    primary:= INT | '{' [INT (',' INT)*] '}'
            | 'geo' '(' INT ',' INT ',' INT ',' INT ')'
            | 'ap' '(' INT ',' INT ')'
            | '(' expr ')'

Values are integers or sets; '+' translates a set by an integer, '*'
scales one, '|' and '&' are union and intersection of sets.  Errors carry
the character position for caret diagnostics.  `format_set` prints the
canonical form, and printing then parsing is the identity on canonical
sets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .symbolic import APTerm, GeoTerm, SymbolicSet, make_set


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position


def caret_diagram(text: str, position: int) -> str:
    return f"  {text}\n  {' ' * position}^"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_PUNCT = set("{}(),|&+*-")


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


class _Parser:
    def __init__(self, text: str, base: int):
        self.text = text
        self.base = base
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self, kind: str | None = None) -> _Token:
        tok = self.tokens[self.i]
        if kind is not None and tok.kind != kind:
            want = {"int": "an integer", "end": "end of input"}.get(kind, f"'{kind}'")
            raise ParseError(f"expected {want}, found {tok.text or 'end of input'!r}", tok.pos)
        self.i += 1
        return tok

    def parse(self):
        value = self.union()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return value

    def union(self):
        """A '|' chain, canonicalized once.  Should that fail, the chain is
        folded left to right as it is read, so the set, or the error and
        caret of the first '|' that fails, is the fold's; a later operand's
        error comes only after the fold up to it has passed."""
        operands, ops = [self.inter()], []
        while self.peek().kind == "|":
            ops.append(self.take())
            try:
                operands.append(self.inter())
            except ParseError:
                self._fold(operands, ops)
                raise
        if ops and all(isinstance(a, SymbolicSet) for a in operands):
            try:
                return operands[0].union(*operands[1:])
            except ValueError:
                pass
        return self._fold(operands, ops)

    def _fold(self, operands: list, ops: list[_Token]):
        left = operands[0]
        for op, right in zip(ops, operands[1:]):
            left = self._set_op(left, right, op, "union")
        return left

    def inter(self):
        left = self.sum()
        while self.peek().kind == "&":
            op = self.take()
            right = self.sum()
            left = self._set_op(left, right, op, "intersect")
        return left

    def _set_op(self, left, right, op: _Token, name: str):
        if not isinstance(left, SymbolicSet) or not isinstance(right, SymbolicSet):
            raise ParseError(f"'{op.kind}' needs set operands", op.pos)
        try:
            return getattr(left, name)(right)
        except ValueError as exc:
            raise ParseError(str(exc), op.pos) from None

    def sum(self):
        left = self.prod()
        while self.peek().kind == "+":
            op = self.take()
            left = self._mixed(left, self.prod(), op, operator.add, SymbolicSet.translate)
        return left

    def prod(self):
        left = self.unary()
        while self.peek().kind == "*":
            op = self.take()
            left = self._mixed(left, self.unary(), op, operator.mul, SymbolicSet.scale)
        return left

    def _mixed(self, left, right, op: _Token, on_ints, on_set):
        """Two integers, or a set and an integer in either order; a
        ValueError of on_set is reported at the operator."""
        if isinstance(left, int) and isinstance(right, int):
            return on_ints(left, right)
        if isinstance(left, int):
            left, right = right, left
        if not isinstance(right, int):
            raise ParseError(f"'{op.kind}' cannot combine two sets", op.pos)
        try:
            return on_set(left, right)
        except ValueError as exc:
            raise ParseError(str(exc), op.pos) from None

    def unary(self):
        if self.peek().kind == "-":
            op = self.take()
            value = self.unary()
            if not isinstance(value, int):
                raise ParseError("unary '-' needs an integer", op.pos)
            return -value
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return int(tok.text)
        if tok.kind == "{":
            return self.finite_literal()
        if tok.kind == "name":
            if tok.text == "geo":
                return self.term_call(4, self._make_geo)
            if tok.text == "ap":
                return self.term_call(2, self._make_ap)
            raise ParseError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "(":
            self.take()
            value = self.union()
            self.take(")")
            return value
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}", tok.pos
        )

    def finite_literal(self) -> SymbolicSet:
        self.take("{")
        xs = []
        if self.peek().kind != "}":
            xs.append(self.signed_int())
            while self.peek().kind == ",":
                self.take()
                xs.append(self.signed_int())
        self.take("}")
        return make_set(xs, base=self.base)

    def signed_int(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        return sign * int(tok.text)

    def term_call(self, arity: int, build):
        name = self.take("name")
        self.take("(")
        args = [self.signed_int()]
        for _ in range(arity - 1):
            self.take(",")
            args.append(self.signed_int())
        self.take(")")
        try:
            return build(args)
        except ValueError as exc:
            raise ParseError(str(exc), name.pos) from None

    def _make_geo(self, args: list[int]) -> SymbolicSet:
        b, c, d, n0 = args
        return make_set(geos=[GeoTerm(b, c, d, n0)], base=self.base)

    def _make_ap(self, args: list[int]) -> SymbolicSet:
        c, d = args
        if c < 1:
            raise ValueError(f"progression modulus must be >= 1, got {c}")
        return make_set(aps=[APTerm(c, d % c)], base=self.base)


def parse_expr(text: str, base: int = 2):
    """Evaluate an expression to an integer or a canonical SymbolicSet."""
    return _Parser(text, base).parse()


def parse_set(text: str, base: int = 2) -> SymbolicSet:
    value = parse_expr(text, base)
    if not isinstance(value, SymbolicSet):
        raise ParseError("expression is an integer, not a set", 0)
    return value


def format_set(a: SymbolicSet) -> str:
    """Canonical printable form; parse_set(format_set(a)) == a."""
    return repr(a)
