"""The period branch of a set with a periodic part, counted on the remainder.

SymbolicUniverse.bottom derives only R, the finite part and the tails, and
only while R has tails, at most once per distinct tail key; the rest of
the branch is the longest run y, y - p, ... of R's finite part.  These
tests read the witness off the full chain x, x & (x + p), ... instead,
compare, and count the derives.  Replay derives a run of equal shifts by
doubling; it is compared with the chain derived one shift at a time."""

import random
import time

import pytest

from thinlab.dsl import parse_set
from thinlab.engine import Budget, CycleWitness, Engine, NotInThinCompletion
import thinlab.symbolic
from thinlab.symbolic import SymbolicSet, ap, finite_set, geo, make_set, random_set

# periodic sets with many split tails, mixed moduli, a lone periodic part, Z
PERIOD_ROWS = [
    ap(11, 3) | geo(2, 1, 5, 0) | finite_set([0, 7]),
    ap(6, 1) | ap(4, 3) | geo(2, 3, 1, 2),
    ap(5, 2),
    ap(1, 0),
]


def _full_chain_witness(x: SymbolicSet) -> CycleWitness:
    """The witness of the first k with x_(k+1) == x_k on the whole set."""
    p = x.period
    for k in range(1000):
        nxt = x.intersect(x.translate(p))
        if nxt == x:
            return CycleWitness((p,) * k, k, p, 0)
        x = nxt
    raise AssertionError("the full chain did not stabilize")


def _longest_run(rest: SymbolicSet, p: int) -> int:
    """The longest run y, y - p, ... inside a set with finitely many such
    runs, read off a window wide enough for the sets tested here."""
    elems = set(rest.window(-10**6, 10**6))
    return max((next(i for i in range(len(elems) + 1) if y - i * p not in elems)
                for y in elems), default=0)


def _check(x: SymbolicSet) -> CycleWitness:
    verdict = Engine().classify(x)
    assert isinstance(verdict, NotInThinCompletion)
    assert verdict.witness == _full_chain_witness(x)
    assert Engine().replay_witness(x, verdict.witness)
    return verdict.witness


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_remainder_hunt_matches_the_full_chain(seed):
    rng = random.Random(seed)
    seen = 0
    while seen < 40:
        x = random_set(rng, base=rng.choice([2, 2, 3]), max_geo=4, max_finite=8)
        if x.period is None:
            continue
        seen += 1
        rest = SymbolicSet(x.finite, x.tails, None, frozenset(), x.base)
        assert rest == make_set(x.finite, x.tails, base=x.base)
        _check(x)


def test_pure_progression_needs_no_derive():
    assert _check(ap(6, 1)) == CycleWitness((), 0, 6, 0)


def test_tails_whose_offsets_differ_by_the_period():
    x = geo(2, 1, 0) | geo(2, 1, 6) | geo(2, 1, 12) | ap(6, 1)
    rest = SymbolicSet(x.finite, x.tails, None, (), x.base)
    w = _check(x)
    assert w.ancestor_index == _longest_run(rest, 6) >= 3


def test_run_longer_than_the_depth_budget():
    """{0, 7, ..., 280} is a run of 41 under the period 7, past the default
    max_depth of 32: the hunt spends no budget, and the witness replays."""
    text = "{" + ",".join(str(7 * i) for i in range(41)) + "} | ap(7,1)"
    x = parse_set(text)
    assert x == finite_set(range(0, 281, 7)) | ap(7, 1)
    verdict = Engine().classify(x, Budget())
    assert verdict == NotInThinCompletion(CycleWitness((7,) * 41, 41, 7, 0))
    assert 41 > Budget().max_depth
    assert Engine().replay_witness(x, verdict.witness)
    assert verdict.witness == _full_chain_witness(x)


def test_long_run_meets_finite_parts_by_hash():
    """{0, 7, ..., 7 * 1599} | ap(7, 1): classify counts the run of 1600
    without a derive, and the replay derives it along 7, 14, 28, ..., each
    derive meeting two finite parts of up to 1600 elements by hash lookup."""
    n = 1600
    x = finite_set(range(0, 7 * n, 7)) | ap(7, 1)
    verdict = Engine().classify(x)
    assert verdict == NotInThinCompletion(CycleWitness((7,) * n, n, 7, 0))
    assert Engine().replay_witness(x, verdict.witness)


def _counted_classify(monkeypatch, x: SymbolicSet):
    """classify x, and the number of intersect calls it made."""
    calls = []
    real = SymbolicSet.intersect

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(SymbolicSet, "intersect", counting)
    verdict = Engine().classify(x)
    monkeypatch.setattr(SymbolicSet, "intersect", real)
    return verdict, len(calls)


@pytest.mark.parametrize("seed", [6, 7, 8, 9, 10])
def test_at_most_one_derive_per_tail_key(monkeypatch, seed):
    rng = random.Random(seed)
    seen = 0
    while seen < 40:
        x = random_set(rng, base=rng.choice([2, 2, 3]), max_geo=4, max_finite=8)
        if x.period is None:
            continue
        seen += 1
        verdict, calls = _counted_classify(monkeypatch, x)
        assert calls <= len({t[:2] for t in x.tails})
        assert verdict.witness == _full_chain_witness(x)


def test_four_key_chain_then_a_finite_run(monkeypatch):
    """Four keys 6 apart lose one key per derive, so four derives leave a
    finite rest, whose longest run 26, 32, ..., 50 lasts five more steps."""
    x = (geo(2, 1, 0) | geo(2, 1, 6) | geo(2, 1, 12) | geo(2, 1, 18) | ap(6, 1)
         | finite_set([5, 11, 17, 23, 29]))
    assert len({t[:2] for t in x.tails}) == 4
    verdict, calls = _counted_classify(monkeypatch, x)
    assert calls == 4
    assert verdict == NotInThinCompletion(CycleWitness((6,) * 9, 9, 6, 0))
    assert verdict.witness == _full_chain_witness(x)


def test_hundred_thousand_run_is_counted_not_walked(monkeypatch):
    """{0, 7, ..., 7 * 99999} | ap(7, 1) has no tails: no derive, one pass."""
    n = 100_000
    x = finite_set(range(0, 7 * n, 7)) | ap(7, 1)
    t0 = time.process_time()
    verdict, calls = _counted_classify(monkeypatch, x)
    assert time.process_time() - t0 < 1.0
    assert calls == 0
    assert verdict.witness == CycleWitness((7,) * n, n, 7, 0)


def _multiples_of_the_period(x: SymbolicSet) -> list[int]:
    return [sign * k * x.period for k in (1, 2, 7) for sign in (1, -1)]


def test_derive_by_a_period_multiple_matches_the_whole_meet():
    """derive(g) for g in pZ meets only the remainder; it equals the meet
    of the whole set with its translate, and leaves a lone periodic part
    unchanged."""
    rng = random.Random(17)
    draws = [x for x in (random_set(rng, max_geo=4, max_ap=3, max_finite=6)
                         for _ in range(600)) if x.period is not None]
    assert len(draws) > 200
    for x in PERIOD_ROWS + draws:
        for g in _multiples_of_the_period(x):
            assert x.derive(g) == x.intersect(x.translate(g)), (x, g)
    assert all(x.derive(g) == x for x in PERIOD_ROWS[2:] for g in _multiples_of_the_period(x))


def test_replay_of_a_period_witness_never_cuts_a_tail(monkeypatch):
    """Every derive along a period witness is by a multiple of p, so the
    replay never splits tails at the period."""
    calls = []
    real = thinlab.symbolic._split_at_period

    def counting(*args):
        calls.append(1)
        return real(*args)

    for x in PERIOD_ROWS:
        witness = Engine().classify(x).witness
        monkeypatch.setattr(thinlab.symbolic, "_split_at_period", counting)
        assert Engine().replay_witness(x, witness)
        monkeypatch.setattr(thinlab.symbolic, "_split_at_period", real)
    assert calls == []


def _step_by_step(x: SymbolicSet, path) -> SymbolicSet:
    for g in path:
        x = x.intersect(x.translate(g))
    return x


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_doubled_runs_match_the_step_by_step_chain(seed):
    """derived_set derives a run of k equal shifts g along g, 2g, 4g, ...
    and (k + 1 - 2^m)g, which have the same subset sums 0, g, ..., kg: the
    result equals the chain derived one shift at a time, for runs of up to
    12 shifts of either sign."""
    rng = random.Random(seed)
    for _ in range(100):
        x = random_set(rng, base=rng.choice([2, 2, 3]), max_geo=3, max_finite=8)
        path = []
        for _ in range(rng.randrange(1, 4)):
            path += [rng.choice([-1, 1]) * rng.randrange(1, 7)] * rng.randrange(1, 13)
        assert Engine().derived_set(x, path) == _step_by_step(x, path), (x, path)


def test_hundred_thousand_run_replays_by_doubling():
    """The witness of {0, 7, ..., 7 * 99999} | ap(7, 1) repeats the shift 7
    a hundred thousand times; its replay takes about 17 derives."""
    n = 100_000
    x = finite_set(range(0, 7 * n, 7)) | ap(7, 1)
    witness = CycleWitness((7,) * n, n, 7, 0)
    t0 = time.process_time()
    assert Engine().replay_witness(x, witness)
    assert time.process_time() - t0 < 2.0
