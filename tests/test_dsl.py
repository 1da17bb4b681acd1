import functools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from thinlab.bounds import escalate
from thinlab.dsl import ParseError, caret_diagram, format_set, parse_expr, parse_set
from thinlab.dsl import MAX_PAREN_DEPTH, _tokenize
from thinlab.symbolic import SymbolicSet, ap, empty_set, finite_set, geo, random_set


def err(text: str, base: int = 2) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_expr(text, base=base)
    return info.value


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------


def test_scalar_arithmetic():
    assert parse_expr("42") == 42
    assert parse_expr("-7") == -7
    assert parse_expr("2+3*4") == 14
    assert parse_expr("(2+3)*4") == 20
    assert parse_expr("2*-3") == -6
    assert parse_expr("--5") == 5


# ---------------------------------------------------------------------------
# Set construction
# ---------------------------------------------------------------------------


def test_finite_literals():
    assert parse_expr("{1,2,3}") == finite_set([1, 2, 3])
    assert parse_expr("{}") == empty_set()
    assert parse_expr("{ -2 , 1 }") == finite_set([-2, 1])
    assert parse_expr("{5,5}") == finite_set([5])


def test_term_calls():
    assert parse_expr("geo(2,1,0,0)") == geo(2, 1, 0, 0)
    assert parse_expr("geo(4,3,-1,2)") == geo(4, 3, -1, 2)
    assert parse_expr("ap(4,1)") == ap(4, 1)
    # residues reduce into range
    assert parse_expr("ap(4,5)") == ap(4, 1)
    assert parse_expr("ap(4,-3)") == ap(4, 1)


def test_session_base_argument():
    assert parse_expr("geo(3,1,0,0)", base=3) == geo(3, 1, 0, 0, base=3)
    assert err("geo(3,1,0,0)").position == 0


def test_operators():
    a = geo(2, 1, 0, 0)
    assert parse_expr("geo(2,1,0,0)+1") == a.translate(1)
    assert parse_expr("1+geo(2,1,0,0)") == a.translate(1)
    assert parse_expr("geo(2,1,0,0)+-2") == a.translate(-2)
    assert parse_expr("3*geo(2,1,0,0)") == a.scale(3)
    assert parse_expr("geo(2,1,0,0)*3") == a.scale(3)
    assert parse_expr("{0} | {1}") == finite_set([0, 1])
    assert parse_expr("{0,1} & {1,2}") == finite_set([1])


def test_precedence_and_grouping():
    a = geo(2, 1, 0, 0)
    # times binds tighter than plus, plus tighter than & and |
    assert parse_expr("3*geo(2,1,0,0)+1") == a.scale(3).translate(1)
    assert parse_expr("3*(geo(2,1,0,0)+1)") == a.translate(1).scale(3)
    assert parse_expr("geo(2,1,0,0)+1|ap(2,0)") == a.translate(1) | ap(2, 0)
    assert parse_expr("{0}|{1}&{1,2}") == finite_set([0, 1])
    assert parse_expr("({0}|{1})&{1,2}") == finite_set([1])


def test_escalation_shape_parses():
    got = parse_expr("3*geo(2,1,0,0) | (3*geo(2,1,0,0)+1)")
    assert got == geo(2, 3, 0, 0) | geo(2, 3, 1, 0)


def test_union_chain_equals_left_fold(rng):
    for _ in range(200):
        sets = [random_set(rng, max_geo=2) for _ in range(rng.randint(2, 6))]
        text = " | ".join(f"({format_set(a)})" for a in sets)
        assert parse_set(text) == functools.reduce(SymbolicSet.union, sets)


def test_union_chain_the_fold_accepts_parses_through_the_fold():
    """At once the moduli 2000 and 999 exceed the lcm limit; folded, the
    first two progressions merge to period 1000 and the chain fits."""
    got = parse_set("ap(2000,0) | ap(2000,1000) | ap(999,0)")
    assert got == ap(1000, 0) | ap(999, 0)


@pytest.mark.parametrize("text", [
    "ap(2000000,0) | geo(2,1,0,0) | ap(2000000,1000000)",
    "ap(2000000,0) | ap(2000000,1000000) | geo(2,1,0,0)",
])
def test_union_chain_canonicalizes_in_any_order(text):
    """Folded, the first order would meet a tail with period 2*10**6 in
    hand and fail; at once, the period is 10**6 in both orders."""
    assert parse_set(text) == ap(1000000, 0) | geo(2, 1, 0, 0)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def test_error_positions_and_messages():
    e = err("{1,2")
    assert (e.position, e.message) == (4, "expected '}', found 'end of input'")
    e = err("geo(2,1,0,0) | | ap(2,0)")
    assert e.position == 15
    e = err("2|3")
    assert (e.position, e.message) == (1, "'|' needs set operands")
    e = err("{1}&3")
    assert (e.position, e.message) == (3, "'&' needs set operands")
    e = err("foo(1)")
    assert (e.position, e.message) == (0, "unknown name 'foo'")
    e = err("geo(2,1)")
    assert e.position == 7
    e = err("{1} x")
    assert (e.position, e.message) == (4, "unexpected trailing input 'x'")
    e = err("")
    assert e.position == 0
    e = err("{1}*{2}")
    assert (e.position, e.message) == (3, "'*' cannot combine two sets")
    e = err("{1}+{2}")
    assert (e.position, e.message) == (3, "'+' cannot combine two sets")
    e = err("-{1}")
    assert (e.position, e.message) == (0, "unary '-' needs an integer")
    e = err("{1} $ {2}")
    assert (e.position, e.message) == (4, "unexpected character '$'")


def test_nesting_is_bounded_and_signs_are_counted():
    """MAX_PAREN_DEPTH parentheses parse; the '(' one deeper is the error,
    wherever it sits.  Signs are a loop: thousands parse, and a set under
    them is an error at the innermost sign."""
    n = MAX_PAREN_DEPTH
    assert parse_expr("(" * n + "{1}" + ")" * n) == finite_set([1])
    for text in ("(" * (n + 1) + "{1}" + ")" * (n + 1), "{2} | " + "(" * 300):
        e = err(text)
        assert e.message == f"parentheses nested deeper than {n}"
        assert text[e.position] == "(" and text[:e.position].count("(") == n
    assert parse_expr("-" * 3000 + "5") == 5 and parse_expr("-" * 3001 + "5") == -5
    assert parse_expr("{1}+" + "-" * 3001 + "1") == finite_set([0])
    e = err("-" * 3000 + "{1}")
    assert (e.position, e.message) == (2999, "unary '-' needs an integer")


def test_union_chain_errors_are_the_folds():
    """A chain that fails at once is folded: the error and its caret are
    those of the first '|' that fails, before any later operand's error."""
    lcm_error = "progression moduli with lcm 1001000 exceed the canonicalization limit 1000000"
    e = err("ap(1000,1) | {1} | ap(1001,0) | ap(7,3)")
    assert (e.position, e.message) == (17, lcm_error)
    for tail in ("(1 +", "3"):
        e = err(f"ap(1000,1) | ap(1001,0) | {tail}")
        assert (e.position, e.message) == (11, lcm_error)


def test_limit_errors_name_a_huge_period_by_bit_length():
    """The lcm of two 3000-digit moduli, and a 4001-digit modulus scaled by
    10**4000, have too many digits for str(), so the errors name them by
    their bit length."""
    e = err(f"ap({10**2999 + 1},0) | ap({10**2999 + 3},0)")
    assert e.message == (
        "progression moduli with lcm <19925-bit int> exceed the canonicalization limit 1000000"
    )
    e = err(f"{10**4000}*ap({10**4000},1) | geo(2,1,0,0)")
    assert e.message == (
        "geometric terms cannot be reduced against a periodic part with period "
        "<26576-bit int> (limit 1000000)"
    )


def test_semantic_errors_become_parse_errors():
    e = err("0*geo(2,1,0,0)")
    assert (e.position, e.message) == (1, "cannot scale a set by 0")
    assert err("ap(0,1)").position == 0
    assert err("geo(1,1,0,0)").position == 0
    assert err("{1}+{2}").position == 3  # set + set has no meaning here


def test_parse_set_rejects_integers():
    with pytest.raises(ParseError) as info:
        parse_set("1+2")
    assert info.value.position == 0
    assert info.value.message == "expression is an integer, not a set"


def test_caret_diagram():
    assert caret_diagram("geo(2,1", 7) == "  geo(2,1\n         ^"
    assert caret_diagram("2|3", 1) == "  2|3\n   ^"


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The character loop the regex scanner replaced, as its reference."""
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
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "{}(),|&+*-":
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", n))
    return out


def _scan(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as exc:
        return exc.message, exc.position


# The grammar's characters; digits and letters, a few beyond ASCII (the
# Arabic-Indic three, the numeral one half, which is neither digit nor
# letter); '_', '$'; whitespace, a no-break space among it.  Numerals that
# str.isdigit accepts and int() rejects, such as '²', are left to the probes
# below: the loop made them integers that int() then failed on.
_ALPHABET = "{}(),|&+*-" "0123456789٣½" "geoapxëß" "_$" " \t\n\u00a0"


def test_scanner_matches_the_character_loop():
    rng = random.Random(14)
    outcomes = {list: 0, tuple: 0}
    for _ in range(5000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(13)))
        got = _scan(_tokenize, text)
        assert got == _scan(_reference_tokenize, text), text
        outcomes[type(got)] += 1
    assert min(outcomes.values()) >= 1000, outcomes


def test_scanner_reads_decimal_digits_of_any_script():
    assert parse_set("{٣}") == finite_set([3])


@pytest.mark.parametrize("text, message, position", [
    ("{²}", "unexpected character '²'", 1),
    ("½", "unexpected character '½'", 0),
    ("gëo(2,1,0,0)", "unknown name 'gëo'", 0),
    ("x²", "unknown name 'x²'", 0),
])
def test_scanner_unicode_probes(text, message, position):
    e = err(text)
    assert (e.message, e.position) == (message, position)


# ---------------------------------------------------------------------------
# Formatting round trips
# ---------------------------------------------------------------------------


def test_format_examples():
    assert format_set(empty_set()) == "{}"
    a = finite_set([9]) | geo(2, 12, 5, 0) | ap(6, 1)
    assert format_set(a) == "{9} | geo(2,12,5,0) | ap(6,1)"
    assert parse_set(format_set(a)) == a


def test_format_parse_round_trip(rng):
    for _ in range(300):
        a = random_set(rng)
        assert parse_set(format_set(a)) == a


def test_round_trip_other_base(rng):
    for _ in range(50):
        a = random_set(rng, base=3)
        assert parse_set(format_set(a), base=3) == a


@pytest.mark.parametrize("start", [10**6, 3 * 10**6])
def test_distant_start_of_one_key_parses_fast(start):
    """A tail's start is found per residue class, not by walking down one
    period at a time, so a gap of millions of exponents costs nothing."""
    t0 = time.process_time()
    a = parse_set(f"geo(2,1,0,0) | geo(2,1,0,{start})")
    assert time.process_time() - t0 < 0.5
    assert a.tails == ((1, 0, 0, 1),)


_PARSE_ERROR_RUN = """
import json, sys
from thinlab.dsl import ParseError, parse_set
try:
    parse_set(sys.argv[1])
except ParseError as exc:
    print(json.dumps([exc.message, exc.position]))
"""


@pytest.mark.parametrize("suffix, message, offset", [
    (" | ap(2000,0) | ap(999,0)",
     "progression moduli with lcm 1998000 exceed the canonicalization limit 1000000", 14),
    (" | (1 +", "expected an expression, found 'end of input'", 7),
])
def test_failing_union_chain_reports_in_seconds(suffix, message, offset):
    """A '|' chain that cannot be canonicalized at once is folded left to
    right, and each fold step pairs only the tails that can meet, so the
    256 tails of escalation stage 9 fold in well under the timeout.  The
    error and its caret are those of the fold: the second '|' for the lcm
    error, the end of input for the syntax error."""
    stage = geo(2, 1, 0, 0)
    for _ in range(8):
        stage = escalate(stage)
    text = format_set(stage)
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PARSE_ERROR_RUN, text + suffix],
        env=env, capture_output=True, text=True, timeout=10, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [message, len(text) + offset]
