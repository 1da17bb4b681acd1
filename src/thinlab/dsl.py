"""Expression language for symbolic sets.

Grammar (precedence low to high):

    expr   := union
    union  := inter ('|' inter)*
    inter  := sum ('&' sum)*
    sum    := prod ('+' prod)*
    prod   := unary ('*' unary)*     (one loop reads inter, sum and prod)
    unary  := '-'* primary
    primary:= INT | '{' [INT (',' INT)*] '}'
            | 'geo' '(' INT ',' INT ',' INT ',' INT ')'
            | 'ap' '(' INT ',' INT ')'
            | '(' expr ')'

Tokens: whitespace is skipped; INT is a run of decimal digits (str.isdecimal,
what int() reads); a name is a letter (str.isalpha) then letters and digits
(str.isalnum), so '_' ends it; each of {}(),|&+*- is a token of its own; any
other character is an error.  Parentheses nest at most MAX_PAREN_DEPTH
(100) deep; the '(' that goes deeper is an error.

Values are integers or sets; '+' translates a set by an integer, '*'
scales one, '|' and '&' are union and intersection of sets; `geo` and
`ap` build their sets by `symbolic.geo` and `symbolic.ap`.  Errors carry
the character position for caret diagnostics.  `format_set` prints the
canonical form, and printing then parsing is the identity on canonical
sets.
"""

from __future__ import annotations

import operator
import re

from .symbolic import SymbolicSet, ap, geo, make_set


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.message = message
        self.position = position


def caret_diagram(text: str, position: int) -> str:
    return f"  {text}\n  {' ' * position}^"


# The token rule of the module docstring.  '\w' also holds numerals that are
# not letters, such as '²', so _tokenize checks a name's first character.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[^\W\d_][^\W_]*)|(?P<punct>[-{}(),|&+*])|(?P<other>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token; a punctuation token is its own kind."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind)
        if kind == "other" or kind == "name" and not tok[0].isalpha():
            raise ParseError(f"unexpected character {tok[0]!r}", pos)
        out.append((tok if kind == "punct" else kind, tok, pos))
    out.append(("end", "", len(text)))
    return out


# Each '(' costs the parser four stack frames (union, chain, unary and
# primary), so 100 levels stay well inside the default recursion limit.
MAX_PAREN_DEPTH = 100

# Per operator: how tightly it binds ('|' is read by _Parser.union), its
# rule on two integers or None, the SymbolicSet method for a set and the
# other operand (by name, so a wrapper put on the class is seen), and its
# refusal of an operand of the wrong kind.
_RULES = {
    "|": (0, None, "union", "needs set operands"),
    "&": (1, None, "intersect", "needs set operands"),
    "+": (2, operator.add, "translate", "cannot combine two sets"),
    "*": (3, operator.mul, "scale", "cannot combine two sets"),
}


class _Parser:
    def __init__(self, text: str, base: int):
        self.base = base
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.i][0]

    def take(self, kind: str | None = None) -> tuple[str, int]:
        """(text, position) of the next token, which must be of `kind` if given."""
        got, text, pos = self.tokens[self.i]
        if kind is not None and got != kind:
            want = {"int": "an integer", "end": "end of input"}.get(kind, f"'{kind}'")
            raise ParseError(f"expected {want}, found {text or 'end of input'!r}", pos)
        self.i += 1
        return text, pos

    def parse(self):
        value = self.union()
        if self.peek() != "end":
            text, pos = self.take()
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return value

    def union(self):
        """A '|' chain, canonicalized once.  Should that fail, the chain is
        folded left to right as it is read, so the set, or the error and
        caret of the first '|' that fails, is the fold's; a later operand's
        error comes only after the fold up to it has passed."""
        operands, ops = [self.chain()], []
        while self.peek() == "|":
            ops.append(self.take())
            try:
                operands.append(self.chain())
            except ParseError:
                self._fold(operands, ops)
                raise
        if ops and all(isinstance(a, SymbolicSet) for a in operands):
            try:
                return operands[0].union(*operands[1:])
            except ValueError:
                pass
        return self._fold(operands, ops)

    def _fold(self, operands: list, ops: list[tuple[str, int]]):
        left = operands[0]
        for op, right in zip(ops, operands[1:]):
            left = self._apply(left, right, op)
        return left

    def chain(self):
        """Operands joined by '&', '+' and '*': at each operator and at the
        end, pending operators binding at least as tightly are applied."""
        values, ops = [self.unary()], []
        while True:
            binding = _RULES.get(self.peek(), (0,))[0]
            while ops and _RULES[ops[-1][0]][0] >= binding:
                right = values.pop()
                values.append(self._apply(values.pop(), right, ops.pop()))
            if not binding:
                return values[0]
            ops.append(self.take())
            values.append(self.unary())

    def _apply(self, left, right, op: tuple[str, int]):
        """left op right by _RULES; a set method's ValueError is reported at op."""
        sym, pos = op
        _, on_ints, on_set, refusal = _RULES[sym]
        if isinstance(left, int):
            if on_ints is not None and isinstance(right, int):
                return on_ints(left, right)
            left, right = right, left
        if isinstance(right, int) != (on_ints is not None):
            raise ParseError(f"'{sym}' {refusal}", pos)
        try:
            return getattr(left, on_set)(right)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None

    def unary(self):
        signs = []
        while self.peek() == "-":
            signs.append(self.take()[1])
        value = self.primary()
        if signs and not isinstance(value, int):
            raise ParseError("unary '-' needs an integer", signs[-1])
        return -value if len(signs) % 2 else value

    def primary(self):
        kind, text, pos = self.tokens[self.i]
        if kind == "int":
            self.take()
            return int(text)
        if kind == "{":
            return self.finite_literal()
        if kind == "name":
            if text == "geo":
                return self.term_call(4, geo)
            if text == "ap":
                return self.term_call(2, ap)
            raise ParseError(f"unknown name {text!r}", pos)
        if kind == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", pos)
            self.take()
            self.depth += 1
            value = self.union()
            self.depth -= 1
            self.take(")")
            return value
        raise ParseError(f"expected an expression, found {text or 'end of input'!r}", pos)

    def finite_literal(self) -> SymbolicSet:
        self.take("{")
        xs = []
        if self.peek() != "}":
            xs.append(self.signed_int())
            while self.peek() == ",":
                self.take()
                xs.append(self.signed_int())
        self.take("}")
        return make_set(xs, base=self.base)

    def signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return sign * int(self.take("int")[0])

    def term_call(self, arity: int, build):
        _, pos = self.take("name")
        self.take("(")
        args = [self.signed_int()]
        for _ in range(arity - 1):
            self.take(",")
            args.append(self.signed_int())
        self.take(")")
        try:
            return build(*args, base=self.base)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None


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
