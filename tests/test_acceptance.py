"""Acceptance gate.

Each test exercises one release criterion end to end at desk scale and
prints a single PASS line on success (failures surface as assertions with
context).  Scales, tolerances, and time limits are fixed here on purpose;
loosening them is a release decision, not a refactor.
"""

import random
import time
from itertools import product

from thinlab.bounds import c_n_k, c_of_n, cubic_image_min, escalate
from thinlab.engine import (
    NOT_WELL_FOUNDED,
    CycleWitness,
    Engine,
    ExactLevel,
    NotInThinCompletion,
)
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.oracle import boolean_non_additivity_witness, build_table, cross_check
from thinlab.symbolic import ap, geo, random_set


def announce(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_oracle_equivalence():
    groups = [
        GroupDescriptor.cyclic(3),
        GroupDescriptor.cyclic(5),
        GroupDescriptor.cyclic(7),
        GroupDescriptor.boolean_power(2),
        GroupDescriptor.boolean_power(3),
    ]
    t0 = time.perf_counter()
    subsets = 0
    for group in groups:
        for t in (0, 1, 2):
            table = build_table(group, SizeAtMost(group, t))
            report = cross_check(table)
            assert report.ok, report.summary()
            subsets += report.checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    announce(
        1,
        f"engine matches the fixpoint oracle and tree ranks on {subsets} "
        f"subsets across 15 group/family combinations in {elapsed:.1f}s",
    )


def test_criterion_2_escalation_chain():
    eng = Engine()
    a = geo(2, 1, 0, 0)
    times = []
    for lvl in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        verdict = Engine().classify(a)  # fresh engine: no memo shortcuts
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        assert verdict == ExactLevel(lvl), (lvl, verdict)
        assert elapsed < 120.0, f"level {lvl} took {elapsed:.1f}s"
        if lvl < 5:
            a = escalate(a, eng)
    announce(
        2,
        "escalation chain hits exact levels 1,2,3,4,5; slowest verdict "
        f"{max(times):.2f}s",
    )


def test_criterion_3_non_membership_certificates():
    eng = Engine()
    for a, expected in (
        (ap(2, 0), CycleWitness((), 0, 2, 0)),
        (ap(1, 0), CycleWitness((), 0, 1, 0)),
    ):
        verdict = eng.classify(a)
        assert isinstance(verdict, NotInThinCompletion), (a, verdict)
        assert verdict.witness == expected
        assert eng.replay_witness(a, verdict.witness)
        assert eng.tree_rank(a) is NOT_WELL_FOUNDED
    announce(
        3,
        "ap(2,0) and ap(1,0) certified outside the thin completion with "
        "replayable cycle witnesses",
    )


def test_criterion_4_subset_sum_bound():
    def image_size(vec) -> int:
        sums = {0}
        for g in vec:
            sums |= {s + g for s in sums}
        return len(sums)

    nonzero = [v for v in range(-3, 4) if v != 0]
    # n = 2 and n = 3: every signed vector of length (n-1)**2 + 1, literally
    for n in (2, 3):
        m = (n - 1) ** 2 + 1
        assert all(image_size(v) > n for v in product(nonzero, repeat=m))
    # n = 4, m = 10: 6**10 raw vectors collapse to sorted positive ones,
    # since sign flips translate the image and order never mattered
    from itertools import combinations_with_replacement

    assert all(
        image_size(v) > 4 for v in combinations_with_replacement((1, 2, 3), 10)
    )
    rng = random.Random(41)
    for _ in range(10_000):
        n = rng.choice((2, 3, 4))
        m = (n - 1) ** 2 + 1
        vec = [
            rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(m)
        ]
        assert image_size(vec) > n, vec
    for n in range(1, 6):
        c = c_of_n(n)
        assert n <= c <= (n - 1) ** 2 + 1, (n, c)
    announce(
        4,
        "subset-sum images exceed n for all bounded vectors (n=2,3,4 "
        "exhaustive) and 10000 random large-entry vectors; c(n) inside "
        "[n,(n-1)^2+1] for n<=5",
    )


def test_criterion_5_union_additivity():
    eng = Engine()
    rng = random.Random(5150)
    pairs = 0
    attempts = 0
    while pairs < 200:
        attempts += 1
        assert attempts < 5000, "could not assemble 200 classified pairs"
        a, b = random_set(rng), random_set(rng)
        va, vb = eng.classify(a), eng.classify(b)
        if not (isinstance(va, ExactLevel) and isinstance(vb, ExactLevel)):
            continue
        if max(va.level, vb.level) > 2:
            continue
        union_verdict = eng.classify(a | b)
        assert not isinstance(union_verdict, NotInThinCompletion), (a, b)
        assert isinstance(union_verdict, ExactLevel), (a, b, union_verdict)
        k = max(va.level, vb.level)
        bound = c_n_k(2, k) + k  # recursion undercounts by one per step
        assert union_verdict.level <= bound, (a, b, union_verdict, bound)
        pairs += 1
    announce(
        5,
        "200 random unions of classified sets stay classified and respect "
        "the recursive level bound",
    )


def test_criterion_6_boolean_non_additivity():
    witness = boolean_non_additivity_witness(3, 1)
    assert witness is not None
    # the invariance identity behind the witness, on every subset of (Z/2)^d
    for d in range(1, 5):
        group = GroupDescriptor.boolean_power(d)
        n = group.order
        for x in group.nonidentity():
            bit_img = [1 << group.op(x, a) for a in range(n)]
            table = [0] * (1 << n)
            for mask in range(1, 1 << n):
                low = mask & -mask
                table[mask] = table[mask ^ low] | bit_img[low.bit_length() - 1]
            for mask in range(1 << n):
                union = mask | table[mask]
                assert union & table[union] == union
    announce(
        6,
        "boolean witness found at (Z/2)^3, t=1; union invariance identity "
        "holds for every subset and shift up to d=4",
    )


def test_criterion_7_invariance():
    eng = Engine()
    rng = random.Random(777)

    def key(v):
        if isinstance(v, ExactLevel):
            return ("level", v.level)
        if isinstance(v, NotInThinCompletion):
            return ("bottom",)
        raise AssertionError(f"unexpected verdict {v}")

    for _ in range(100):
        a = random_set(rng)
        g = rng.choice([v for v in range(-9, 10) if v != 0])
        assert key(eng.classify(a)) == key(eng.classify(a.translate(g)))
    for _ in range(100):
        a = random_set(rng)
        k = rng.choice((2, 3, 5))
        assert key(eng.classify(a)) == key(eng.classify(a.scale(k)))
    announce(
        7,
        "levels invariant under 100 random translations and 100 random "
        "expansions (k in {2,3,5})",
    )


def test_criterion_8_symbolic_soundness():
    rng = random.Random(88)
    eng = Engine()
    lo_hi = lambda: sorted((rng.randint(-150, 150), rng.randint(-150, 150)))
    for _ in range(10_000):
        a = random_set(rng, max_geo=1, max_ap=1, max_finite=3)
        b = random_set(rng, max_geo=1, max_ap=1, max_finite=3)
        lo, hi = lo_hi()
        wa, wb = set(a.window(lo, hi)), set(b.window(lo, hi))
        op = rng.randrange(4)
        if op == 0:
            g = rng.randint(-40, 40)
            got = set(a.translate(g).window(lo, hi))
            want = {x + g for x in a.window(lo - g, hi - g)}
        elif op == 1:
            k = rng.choice([-3, -2, 2, 3])
            got = set(a.scale(k).window(lo, hi))
            want = {
                k * x
                for x in a.window(-abs(lo) - abs(hi), abs(lo) + abs(hi))
                if lo <= k * x <= hi
            }
        elif op == 2:
            got, want = set((a | b).window(lo, hi)), wa | wb
        else:
            got, want = set((a & b).window(lo, hi)), wa & wb
        assert got == want, (a, b, op, lo, hi)
    from itertools import combinations

    for _ in range(100):
        a = random_set(rng)
        path = tuple(
            rng.choice([g for g in range(-5, 6) if g != 0])
            for _ in range(rng.randint(1, 4))
        )
        expect = a
        for r in range(1, len(path) + 1):
            for combo in combinations(range(len(path)), r):
                expect = expect & a.translate(sum(path[i] for i in combo))
        assert eng.derived_set(a, path) == expect, (a, path)
    announce(
        8,
        "10000 windowed algebra checks and 100 incremental-vs-closed-form "
        "derivations agree exactly",
    )
