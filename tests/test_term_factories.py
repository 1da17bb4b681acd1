"""The shortcuts of make_set, the factories geo and ap, and the printed
view of tails.

make_set builds a finite set, a lone tail or a lone residue as it is.
These tests hold each shortcut to its general path, reached by giving the
same part twice, on a seeded corpus; hold geo and ap to the tails and
residues they must build, good arguments and bad; and check that repr
prints the tails as before while refusing at once a coefficient too long
to print."""

import os
import random
import resource
import subprocess
import sys
import types
from pathlib import Path

import pytest

from thinlab import symbolic
from thinlab.symbolic import (
    GeoTerm,
    ap,
    geo,
    make_set,
    random_set,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _outcome(build):
    """The set built, or the type and message of the error raised."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def _tail(b, c, d, n0, base):
    """The raw tail of geo(b, c, d, n0) over base, found by search: b is
    base**j, and c is cp * base**t with cp free of factors of base."""
    j = next(j for j in range(1, b.bit_length() + 1) if base**j == b)
    t = next(t for t in range(abs(c).bit_length()) if c % base ** (t + 1))
    return c // base**t, d, t + j * n0, j


def _general_geo(b, c, d, n0, base):
    """geo through make_set's general path: the tail given twice."""
    return make_set(tails=[_tail(b, c, d, n0, base)] * 2, base=base)


def _general_ap(c, d, base):
    return make_set(periodic=[(c, (d % c,))] * 2, base=base)


def _geo_args(rng):
    base = rng.choice([2, 3, 4])
    b = base ** rng.choice([1, 1, 2, 3])
    c = rng.choice([1, -1, rng.randrange(-50, 51) or 1, rng.randrange(1, 10) * b])
    n0 = rng.choice([0, 1, rng.randrange(10), 10**6])
    return b, c, rng.randrange(-100, 101), n0, base


def test_geo_matches_the_general_canonicalizer():
    rng = random.Random(15)
    for _ in range(2000):
        args = _geo_args(rng)
        a = geo(*args)
        assert a == make_set(tails=[_tail(*args)], base=args[4])
        assert a == _general_geo(*args)


def test_ap_matches_the_general_canonicalizer():
    rng = random.Random(16)
    for _ in range(2000):
        c = rng.choice([1, 1, 2, rng.randrange(1, 40), rng.randrange(1, 10**6)])
        d = rng.randrange(-10**7, 10**7)
        base = rng.choice([2, 3, 4])
        a = ap(c, d, base=base)
        assert a == make_set(periodic=[(c, (d % c,))], base=base)
        assert a == _general_ap(c, d, base)


def test_finite_sets_match_the_general_canonicalizer():
    """A finite set is returned sorted.  Beside one residue, given twice
    to reach the general path, the same values are kept where they miss
    the residue."""
    rng = random.Random(19)
    for _ in range(500):
        xs = [rng.randrange(-40, 41) for _ in range(rng.randrange(8))]
        m = rng.randrange(1, 12)
        r = rng.randrange(m)
        a = make_set(xs, periodic=[(m, (r,))] * 2)
        assert a.finite == make_set(x for x in xs if x % m != r).finite
        assert (a.tails, a.period, a.residues) == ((), m, frozenset([r]))


def test_lone_terms_from_other_entry_points_stay_canonical():
    """A generator of one tail reaches make_set's shortcut, and scale
    passes the stored tail of a one-tail set to the same shortcut: both
    give the canonical set."""
    rng = random.Random(17)
    for _ in range(500):
        b, c, d, n0, base = _geo_args(rng)
        lone = make_set(tails=(t for t in [_tail(b, c, d, n0, base)]), base=base)
        assert lone == _general_geo(b, c, d, n0, base)
        k = rng.choice([-3, -1, 2, 5])
        one = geo(b, c, d, min(n0, 9), base=base)
        assert one.scale(k) == _general_geo(b, c * k, d * k, min(n0, 9), base)
        m = rng.randrange(1, 30)
        assert ap(m, d, base=base).scale(k) == _general_ap(m * abs(k), d * k, base)


@pytest.mark.parametrize("args", [
    (1, 1, 0, 0, 2, "geometric base must be >= 2, got 1"),
    (0, 1, 0, 0, 2, "geometric base must be >= 2, got 0"),
    (-2, 1, 0, 0, 2, "geometric base must be >= 2, got -2"),
    (2, 0, 0, 0, 2, "geometric coefficient must be nonzero"),
    (2, 1, 0, -1, 2, "start index must be >= 0, got -1"),
    (3, 1, 0, 0, 2, "base 3 is not a positive power of session base 2"),
    (2, 1, 0, 0, 4, "base 2 is not a positive power of session base 4"),
    (8, 1, 0, 0, 4, "base 8 is not a positive power of session base 4"),
    (2, 1, 0, 0, 1, "session base must be >= 2, got 1"),
    (2, 1, 0, 0, 0, "session base must be >= 2, got 0"),
    (2, 1, 0, 0, -3, "session base must be >= 2, got -3"),
    (4, 1, 0, 0, 1, "session base must be >= 2, got 1"),
    # a bad term and a bad base: the term is checked first
    (1, 1, 0, 0, 1, "geometric base must be >= 2, got 1"),
    (2, 0, 0, 0, 0, "geometric coefficient must be nonzero"),
    (2, 1, 0, -5, 1, "start index must be >= 0, got -5"),
    (9, 1, 0, 0, 1, "session base must be >= 2, got 1"),
])
def test_bad_geo_arguments_raise_as_before(args):
    """Each row is geo's arguments, then the message it raises."""
    *term, message = args
    assert _outcome(lambda: geo(*term)) == (ValueError, message)


@pytest.mark.parametrize("args", [
    (0, 5, 2, "progression modulus must be >= 1, got 0"),
    (-3, 1, 2, "progression modulus must be >= 1, got -3"),
    (1, 0, 1, "session base must be >= 2, got 1"),
    (4, 1, 0, "session base must be >= 2, got 0"),
    (0, 1, 1, "progression modulus must be >= 1, got 0"),
    (-1, 0, -2, "progression modulus must be >= 1, got -1"),
])
def test_bad_ap_arguments_raise_as_before(args):
    """Each row is ap's modulus, residue and base, then the message it raises."""
    c, d, base, message = args
    assert _outcome(lambda: ap(c, d, base=base)) == (ValueError, message)


def _nested_code(code, path=()):
    """Each code object nested in code, with the dotted path of the class
    or function it belongs to; a comprehension belongs to its function."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            inner = path if const.co_name.startswith("<") else path + (const.co_name,)
            yield ".".join(inner), const
            yield from _nested_code(const, inner)


def test_only_the_printed_views_name_the_literal_terms():
    """Literal terms appear only on the way out: apart from the class
    statements of the module itself, the only code in thinlab.symbolic
    that names GeoTerm or APTerm is the `geos` and `aps` views."""
    module = compile(Path(symbolic.__file__).read_text(), symbolic.__file__, "exec")
    readers = {path for path, code in _nested_code(module)
               if {"GeoTerm", "APTerm"} & set(code.co_names)}
    assert readers == {"SymbolicSet.aps", "SymbolicSet.geos"}


def test_printed_view_is_unchanged():
    """repr prints what the sorted GeoTerms of `geos` print."""
    rng = random.Random(18)
    for _ in range(500):
        a = random_set(rng, base=rng.choice([2, 3]), max_geo=4)
        terms = sorted(GeoTerm(a.base**q, cp * a.base**m0, d) for cp, d, m0, q in a.tails)
        assert list(a.geos) == terms
        bits = ["{" + ",".join(map(str, a.finite)) + "}"] if a.finite else []
        bits += [f"geo({t.base},{t.coeff},{t.offset},{t.n0})" for t in terms]
        bits += [f"ap({a.period},{r})" for r in sorted(a.residues)]
        assert repr(a) == (" | ".join(bits) or "{}")
    assert repr(geo(4, 3, -1, 2)) == "geo(4,48,-1,0)"


def test_json_refuses_a_coefficient_too_long_to_print():
    """2**15000 has 4516 digits, over the default limit of 4300: repr
    raises the int-to-str error, geos still builds it."""
    a = geo(2, 1, 0, 15000)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        repr(a)
    assert a.geos == (GeoTerm(2, 2**15000, 0),)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("call", ["__repr__()"])
def test_huge_start_index_is_refused_at_once(call):
    """The coefficient 2**(10**12) is never built: the child, with its
    address space capped, raises within the timeout."""
    code = (
        "from thinlab.symbolic import geo\n"
        "try:\n"
        f"    geo(2, 1, 0, 10**12).{call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        check=False, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0 and proc.stdout.startswith("Exceeds the limit (4300 digits)")


def test_huge_step_is_refused_at_once():
    """The printed base 2**(10**9) of a tail of step 10**9 is never built
    either: in a child with its address space capped, repr raises within
    0.1 s of CPU time."""
    code = (
        "import time\n"
        "from thinlab.symbolic import SymbolicSet\n"
        "a = SymbolicSet(tails=((1, 0, 0, 10**9),))\n"
        "start = time.process_time()\n"
        "try:\n"
        "    repr(a)\n"
        "except ValueError as exc:\n"
        "    print(time.process_time() - start, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
        check=False, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    spent, message = proc.stdout.split(" ", 1)
    assert float(spent) < 0.1 and message.startswith("Exceeds the limit (4300 digits)")

