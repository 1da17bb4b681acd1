"""A seeded grammar fuzz of the expression language.

`expression` draws text from the `dsl` grammar with `random.Random(seed)`:
finite literals, `geo` with bases 2-8, `ap`, the operators `|`, `&`, `+`
and `*`, unary `-` and parentheses, nested up to NESTING deep, with about
5% of the integers up to 10^12, set factors among them.  Each expression
goes through the stages of `thinlab classify`, in its order: parse_set,
Engine.classify under the default Budget, format_set, parse_set of the
printed form, and replay_witness for a cycle witness.  Between the round
trip and the replay, the set's elements in [-WINDOW, WINDOW] are checked
against `window_semantics`, an evaluator that shares no code with
thinlab.  Each stage runs under LIMIT seconds of CPU time, enforced by an
interval timer, so a hang fails the test instead of stalling it.

The test fails on an uncaught exception, a stage over its limit, a replay
that returns False, a round trip that gives another set, a window that
differs from the evaluator's, or an error raised after classify returned.
Clean refusals are the CLI's exit 2: a ParseError of the parse, or a
ValueError of classify.

Left out, because they escape the budget today (ROADMAP, table of inputs
that escape the budget); each joins the fuzz in the change that fixes it:
- `ap` moduli above MAX_MODULUS = 12, which keep the rows of the family
  `ap(p,1) | geo(2,1,0,0)` out of the draw: `classify "ap(2053,1) |
  geo(2,1,0,0)"`, `... "ap(4099,1) | geo(2,1,0,0)"` and `...
  "ap(99991,1) | geo(2,1,0,0)"`, a tail split by a long orbit of 2 into
  thousands of tails.  A large factor of a set can make such a period
  too; the seeded draw holds none that escapes.
- `geo` start indices above MAX_START = 30: the row `classify
  "geo(2,1,0,100000)"`, a set too large to print.
- unions of thousands of terms, the row of the 4000-term union of
  `geo(2,1,7d,0)`: nesting 4 deep bounds an expression to 81 operands.
- `tree_rank` and `thinlab tree`, the `tree` and `Engine().tree_rank`
  rows: neither runs here.
"""

import random
import signal
from contextlib import contextmanager

from thinlab.dsl import ParseError, format_set, parse_set
from thinlab.engine import Budget, Engine, NotInThinCompletion
from window_semantics import window_of

SEED = 1
COUNT = 2000
NESTING = 4
MAX_MODULUS = 12  # ap moduli; see the docstring for what lies past these
MAX_START = 30  # geo start indices
LIMIT = 2.0  # CPU seconds per stage; every stage takes well under 0.2 s today
WINDOW = 3000  # the window stage compares the elements in [-WINDOW, WINDOW]


def _int(rng: random.Random) -> int:
    if rng.random() < 0.05:
        return rng.randint(-10**12, 10**12)
    return rng.randint(-9, 20)


def _signs(rng: random.Random) -> str:
    return "-" * rng.choice((0, 0, 0, 0, 1, 2))


def integer(rng: random.Random, depth: int) -> str:
    """An integer expression: a literal under signs, or a sum or product."""
    if depth == 0 or rng.random() < 0.7:
        return _signs(rng) + str(abs(_int(rng)))
    op = rng.choice("+*")
    return _signs(rng) + f"({integer(rng, depth - 1)} {op} {integer(rng, depth - 1)})"


def _scale(rng: random.Random, base: int) -> str:
    """A factor for a set: a nonzero integer as `_int` draws it, or rarely
    0 (a refusal)."""
    k = _int(rng) or 1
    return _signs(rng) + str(0 if rng.random() < 0.03 else k)


def _term(rng: random.Random, base: int) -> str:
    kind = rng.random()
    if kind < 0.3:
        return "{" + ",".join(str(_int(rng)) for _ in range(rng.randrange(5))) + "}"
    if kind < 0.65:
        powers = [base**j for j in (1, 2, 3) if base**j <= 8]
        b = rng.choice(powers) if rng.random() < 0.9 else rng.randint(2, 8)
        c = rng.choice((1, 1, 2, 3, -1, _int(rng) or 1))
        return f"geo({b},{c},{_int(rng)},{rng.randint(0, MAX_START)})"
    c = rng.randint(1, MAX_MODULUS) if rng.random() < 0.98 else rng.randint(-1, 0)
    return f"ap({c},{_int(rng)})"


def expression(rng: random.Random, base: int, depth: int = NESTING) -> str:
    """A set expression.  About one operator in thirty gets an operand of
    the wrong kind, and about one parenthesis in thirty a unary '-', so
    that refusals stay a minority."""
    if depth == 0 or rng.random() < 0.3:
        return _term(rng, base)
    text = expression(rng, base, depth - 1)
    for _ in range(rng.randint(1, 2)):
        op = rng.choice("|&+*")
        if (op in "+*") != (rng.random() < 0.03):
            right = integer(rng, depth - 1) if op != "*" else _scale(rng, base)
        else:
            right = expression(rng, base, depth - 1)
        text = f"{right} {op} {text}" if rng.random() < 0.3 else f"{text} {op} {right}"
    if rng.random() < 0.5:
        text = ("-" if rng.random() < 0.03 else "") + f"({text})"
    return text


class OverLimit(BaseException):
    """A stage ran past LIMIT; a BaseException, so no except clause of the
    code under test can swallow it."""


def _alarm(signum, frame):
    raise OverLimit


@contextmanager
def limit(seconds: float):
    previous = signal.signal(signal.SIGVTALRM, _alarm)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


def run_stages(text: str, base: int) -> str:
    """'refused', or the kind of the verdict, of one expression; a failure
    is an AssertionError that names the stage."""
    stage = "parse"
    try:
        with limit(LIMIT):
            a = parse_set(text, base)
        stage = "classify"
        engine = Engine()
        with limit(LIMIT):
            verdict = engine.classify(a, Budget())
    except (Exception, OverLimit) as exc:
        if isinstance(exc, ParseError if stage == "parse" else ValueError):
            return "refused"
        raise AssertionError(f"{stage}: {type(exc).__name__} {exc}") from exc
    try:
        stage = "format_set"
        with limit(LIMIT):
            printed = format_set(a)
        stage = "round trip"
        with limit(LIMIT):
            again = parse_set(printed, base)
        assert again == a, f"{printed!r} parses to {again!r}"
        stage = "window"
        with limit(LIMIT):
            got = a.window(-WINDOW, WINDOW)
            want = sorted(window_of(text, -WINDOW, WINDOW))
        if got != want:
            missing = sorted(set(want) - set(got))[:5]
            extra = sorted(set(got) - set(want))[:5]
            raise AssertionError(f"window misses {missing} and adds {extra}")
        if isinstance(verdict, NotInThinCompletion):
            stage = "replay"
            with limit(LIMIT):
                assert engine.replay_witness(a, verdict.witness), verdict
    except (Exception, OverLimit) as exc:
        raise AssertionError(f"{stage} after classify returned: {type(exc).__name__} {exc}") from exc
    return type(verdict).__name__


def test_fuzzed_expressions_end_in_a_verdict_or_a_clean_refusal():
    rng = random.Random(SEED)
    outcomes: dict[str, int] = {}
    for _ in range(COUNT):
        base = rng.choice((2, 2, 3))
        text = expression(rng, base)
        try:
            outcome = run_stages(text, base)
        except AssertionError as exc:
            raise AssertionError(f"{text!r} (base {base}): {exc}") from exc
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    # the draw reaches both definite verdicts, and most expressions get one
    assert outcomes.get("ExactLevel", 0) >= COUNT // 4, outcomes
    assert outcomes.get("NotInThinCompletion", 0) >= COUNT // 10, outcomes
    assert outcomes.get("refused", 0) <= COUNT // 2, outcomes
