"""The shortcuts of make_set, and the printed view of tails.

make_set builds a lone tail or a lone residue as it is, without
_normalize.  These tests hold it to the general canonicalizer on a seeded
corpus, good arguments and bad, and check that repr prints the tails as
before while refusing at once a coefficient too long to print."""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from thinlab.symbolic import (
    GeoTerm,
    _ap_term,
    _geo_parts,
    _normalize,
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


def _normalized_geo(b, c, d, n0, base):
    """geo through the general canonicalizer, with make_set's checks in order."""
    term = GeoTerm(b, c, d, n0)
    if base < 2:
        raise ValueError(f"session base must be >= 2, got {base}")
    return _normalize(base, [], [_geo_parts(term, base)], [])


def _normalized_ap(c, d, base):
    term = _ap_term(c, d)
    if base < 2:
        raise ValueError(f"session base must be >= 2, got {base}")
    return _normalize(base, [], [], [(term.modulus, (term.residue,))])


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
        assert a == make_set(geos=[GeoTerm(*args[:4])], base=args[4])
        assert a == _normalized_geo(*args)


def test_ap_matches_the_general_canonicalizer():
    rng = random.Random(16)
    for _ in range(2000):
        c = rng.choice([1, 1, 2, rng.randrange(1, 40), rng.randrange(1, 10**6)])
        d = rng.randrange(-10**7, 10**7)
        base = rng.choice([2, 3, 4])
        a = ap(c, d, base=base)
        assert a == make_set(aps=[_ap_term(c, d)], base=base)
        assert a == _normalized_ap(c, d, base)


def test_lone_terms_from_other_entry_points_stay_canonical():
    """A generator of one term reaches make_set's shortcut, and scale
    passes the stored tail of a one-tail set to _normalize: both give the
    canonical set."""
    rng = random.Random(17)
    for _ in range(500):
        b, c, d, n0, base = _geo_args(rng)
        lone = make_set(geos=(t for t in [GeoTerm(b, c, d, n0)]), base=base)
        assert lone == _normalized_geo(b, c, d, n0, base)
        k = rng.choice([-3, -1, 2, 5])
        one = geo(b, c, d, min(n0, 9), base=base)
        assert one.scale(k) == _normalized_geo(b, c * k, d * k, min(n0, 9), base)
        m = rng.randrange(1, 30)
        assert ap(m, d, base=base).scale(k) == _normalized_ap(m * abs(k), d * k, base)


@pytest.mark.parametrize("args", [
    (1, 1, 0, 0, 2), (0, 1, 0, 0, 2), (-2, 1, 0, 0, 2), (2, 0, 0, 0, 2),
    (2, 1, 0, -1, 2), (3, 1, 0, 0, 2), (2, 1, 0, 0, 4), (8, 1, 0, 0, 4),
    (2, 1, 0, 0, 1), (2, 1, 0, 0, 0), (2, 1, 0, 0, -3), (4, 1, 0, 0, 1),
    # a bad term and a bad base: the term is checked first
    (1, 1, 0, 0, 1), (2, 0, 0, 0, 0), (2, 1, 0, -5, 1), (9, 1, 0, 0, 1),
])
def test_bad_geo_arguments_raise_as_before(args):
    got = _outcome(lambda: geo(*args))
    assert isinstance(got, tuple) and got[0] is ValueError
    assert got == _outcome(lambda: _normalized_geo(*args))
    assert got == _outcome(lambda: make_set(geos=[GeoTerm(*args[:4])], base=args[4]))


@pytest.mark.parametrize("args", [
    (0, 5, 2), (-3, 1, 2), (1, 0, 1), (4, 1, 0), (0, 1, 1), (-1, 0, -2),
])
def test_bad_ap_arguments_raise_as_before(args):
    got = _outcome(lambda: ap(*args[:2], base=args[2]))
    assert isinstance(got, tuple) and got[0] is ValueError
    assert got == _outcome(lambda: _normalized_ap(*args))
    assert got == _outcome(lambda: make_set(aps=[_ap_term(*args[:2])], base=args[2]))


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

