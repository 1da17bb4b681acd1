"""Seeded verification suites.

Nine suites mirror the package's acceptance checks: finite-oracle
agreement, the escalation ladder, non-membership certificates, subset-sum
image bounds, union level bounds, Boolean non-additivity, level
invariance, symbolic window soundness, and an engine-limits section that
exercises budget exhaustion.

A suite fails only on a provably wrong result (bad level, broken witness,
violated bound).  Unknown verdicts are tallied separately: they reflect
the configured budget, not an error, so a run with a tiny node budget
reports Unknown-dominated suites and still exits 0.  Output contains no
timing and is byte-identical for identical (seed, trials, budget).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement, product
from random import Random

from .bounds import (
    _subset_sum_count,
    c_of_n,
    cubic_image_min,
    escalate,
    union_level_check,
)
from .engine import (
    Budget,
    Engine,
    ExactLevel,
    FiniteGroupUniverse,
    NotInThinCompletion,
    SymbolicUniverse,
    Unknown,
)
from .groups import GroupDescriptor, mask_translate
from .ideals import SizeAtMost
from .oracle import (
    boolean_non_additivity_witness,
    build_table,
    cross_check,
)
from .symbolic import SymbolicSet, ap, geo, random_set


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    unknowns: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool | None, failure: str, *args, count: int = 1) -> bool:
        """Count `count` checks (one by default).  ok None tallies an
        unknown; ok False records failure.format(*args), formatted only
        then.  Returns whether ok."""
        self.checks += count
        if ok is None:
            self.unknowns += 1
        elif not ok:
            self.failures.append(failure.format(*args))
        return bool(ok)

    @property
    def outcome(self) -> str:
        if self.failures:
            return "FAIL"
        if self.unknowns:
            return "UNKNOWN"
        return "PASS"


@dataclass(frozen=True)
class _Ctx:
    seed: int
    trials: int
    budget: Budget

    def rng(self, index: int) -> Random:
        return Random(self.seed * 1_000_003 + index)

    def cap(self, full: int) -> int:
        return max(1, min(full, self.trials))


def _known(ok: bool, *verdicts) -> bool | None:
    """ok, or None (an unknown) when any of the verdicts is Unknown."""
    return None if any(isinstance(v, Unknown) for v in verdicts) else ok


_ORACLE_GROUPS = (
    ("z3", GroupDescriptor.cyclic(3)),
    ("z5", GroupDescriptor.cyclic(5)),
    ("z7", GroupDescriptor.cyclic(7)),
    ("b2", GroupDescriptor.boolean_power(2)),
    ("b3", GroupDescriptor.boolean_power(3)),
)


def _suite_oracle_agreement(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("finite-oracle-agreement")
    for name, group in _ORACLE_GROUPS:
        for t in (0, 1, 2):
            report = cross_check(build_table(group, SizeAtMost(group, t)), ctx.budget)
            res.checks += report.checked  # the mismatches are among these
            for m, expected, verdict, rank in report.mismatches:
                res.check(_known(False, verdict, rank),
                          "{} t={} mask={}: table {}, engine {}, rank {}",
                          name, t, m, expected, verdict, rank, count=0)
    return res


def _suite_escalation(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("hierarchy-escalation")
    engine = Engine(SymbolicUniverse())
    a = geo(2, 1, 0, 0)
    for i in range(5):
        verdict = engine.classify(a, ctx.budget)
        exact = isinstance(verdict, ExactLevel)
        ok = _known(exact and verdict.level == i + 1, verdict)
        failure = "stage {0}: level {1.level}, expected {2}" if exact else "stage {0}: unexpected {1}"
        if not res.check(ok, failure, i, verdict, i + 1):
            break
        rank = engine.tree_rank(a, ctx.budget)
        res.check(_known(rank == verdict.level, rank),
                  "stage {}: tree rank {} != level {}", i, rank, verdict.level)
        if i < 4:
            a = escalate(a, engine, ctx.budget)
    return res


def _suite_bottom_certificates(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("bottom-certificates")
    engine = Engine(SymbolicUniverse())
    for a in (ap(2, 0), ap(1, 0), ap(2, 0).translate(7)):
        verdict = engine.classify(a, ctx.budget)
        if res.check(isinstance(verdict, NotInThinCompletion),
                     "{!r}: expected a certificate, got {}", a, verdict):
            res.check(engine.replay_witness(a, verdict.witness),
                      "{!r}: witness replay failed", a)
    return res


def _suite_cubic_bounds(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("subset-sum-image-bounds")
    # Literal sweep over nonzero entries for the two small cases, then
    # n = 4 via the sign/permutation reduction to sorted positive vectors.
    nonzero = [e for e in range(-3, 4) if e != 0]
    sweeps = [("", n, vec) for n, m in ((2, 2), (3, 5)) for vec in product(nonzero, repeat=m)]
    sweeps += [("", 4, vec) for vec in combinations_with_replacement((1, 2, 3), 10)]
    # Random large-entry vectors.
    rng = ctx.rng(40)
    for _ in range(ctx.cap(10_000)):
        n = rng.choice((2, 3, 4))
        m = (n - 1) ** 2 + 1
        vec = tuple(
            rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(m)
        )
        sweeps.append(("random ", n, vec))
    for kind, n, vec in sweeps:
        res.check(_subset_sum_count(vec) > n, "{}n={}: image too small for {}", kind, n, vec)
    # c(n) against the exhaustive search, and inside its sandwich, n <= 5.
    for n in range(1, 6):
        value, upper = c_of_n(n), (n - 1) ** 2 + 1
        lengths = range(1, upper + 1)
        searched = next(
            (m for m in lengths if cubic_image_min(m, 3).min_image_size > n), None
        )
        res.check(value == searched and n <= value <= upper,
                  "c({}) = {}: search gives {}, sandwich [{}, {}]",
                  n, value, searched, n, upper)
    return res


def _suite_union_bounds(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("union-level-bounds")
    engine = Engine(SymbolicUniverse())
    rng = ctx.rng(50)
    target = ctx.cap(200)
    pool: list[SymbolicSet] = []
    attempts = 0
    done = 0
    while done < target and attempts < 20 * target:
        attempts += 1
        s = random_set(rng, max_geo=2, max_ap=0, max_finite=3)
        verdict = engine.classify(s, ctx.budget)
        res.check(_known(True, verdict), "", count=0)  # an unknown draw is no check
        if not isinstance(verdict, ExactLevel) or verdict.level > 2:
            continue
        pool.append(s)
        if len(pool) < 2:
            continue
        a, b = pool.pop(), pool.pop()
        done += 1
        try:
            report = union_level_check(a, b, engine, ctx.budget)
        except AssertionError as exc:
            res.check(False, "{}", exc)
            continue
        res.check(None if report.inconclusive else report.within_adjusted_bound is not False,
                  "union level {} exceeds adjusted bound {} for {!r} | {!r}",
                  report.union_level, report.adjusted_bound, a, b)
    # too few pairs is a failure only when no failure or unknown explains it
    res.check(done == target or res.outcome != "PASS",
              "only {}/{} classified pairs found in {} attempts",
              done, target, attempts, count=0)
    # The window pair: unions of geo(2,1,d,0) over D = {1,3,4} and
    # E = {0,2,5,6} sit at level 2 each and reach the exact bound 7 together.
    a, b = (reduce(SymbolicSet.union, [geo(2, 1, d, 0) for d in ds])
            for ds in ((1, 3, 4), (0, 2, 5, 6)))
    ok = _known(True, engine.classify(a, ctx.budget), engine.classify(b, ctx.budget))
    if ok:  # union_level_check raises on an input it cannot classify
        report = union_level_check(a, b, engine, ctx.budget)
        ok = None if report.inconclusive else report.union_level == report.adjusted_bound == 7
    res.check(ok, "window pair D={{1,3,4}}, E={{0,2,5,6}}: union level or its bound is not 7")
    return res


def _suite_boolean(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("boolean-non-additivity")
    witness = boolean_non_additivity_witness(3, 1)
    if res.check(witness is not None, "no witness found over (Z/2)^3 with bound 1"):
        mask, x = witness
        group = GroupDescriptor.boolean_power(3)
        engine = Engine(FiniteGroupUniverse(SizeAtMost(group, 1)))
        union = mask | mask_translate(group, mask, x)
        res.check(engine.is_thin(mask), "witness mask {} is not thin", mask)
        res.check(not engine.is_thin(union), "witness union {} is thin", union)
    # x-invariance of A | (x + A), exhaustive for small Boolean powers.
    for d in range(1, 5):
        group = GroupDescriptor.boolean_power(d)
        total = 1 << group.order
        for x in group.nonidentity():
            table = [0] * total  # translates by x, each from a smaller mask
            for mask in range(1, total):
                low = mask & -mask
                table[mask] = table[mask ^ low] | 1 << group.op(x, low.bit_length() - 1)
            for mask in range(total):  # one check per mask up to the first failure
                union = mask | table[mask]
                if table[union] != union:
                    break
            res.check(table[union] == union, "d={} x={} mask={}: union not x-invariant",
                      d, x, mask, count=mask + 1)
    return res


def _verdict_key(verdict):
    """What translation and scaling keep: the level, or bottom.  An Unknown
    is returned as it is."""
    if isinstance(verdict, ExactLevel):
        return ("level", verdict.level)
    if isinstance(verdict, NotInThinCompletion):
        return ("bottom",)
    return verdict


def _suite_invariance(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("level-invariance")
    engine = Engine(SymbolicUniverse())
    rng = ctx.rng(70)
    for _ in range(ctx.cap(100)):
        s = random_set(rng)
        base = _verdict_key(engine.classify(s, ctx.budget))
        if not res.check(_known(True, base), ""):
            continue
        g = rng.choice([v for v in range(-9, 10) if v != 0])
        k = rng.choice((2, 3, 5))
        for op, by, moved in (("translate", g, s.translate(g)), ("scale", k, s.scale(k))):
            key = _verdict_key(engine.classify(moved, ctx.budget))
            res.check(_known(key == base, key), "{} by {} changed {} to {} on {!r}",
                      op, by, base, key, s)
    return res


def _suite_window_soundness(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("symbolic-window-soundness")
    rng = ctx.rng(80)
    lo, hi = -75, 115
    for _ in range(ctx.cap(10_000)):
        a = random_set(rng)
        op = rng.choice(("translate", "scale", "union", "intersect"))
        if op == "translate":
            g = rng.randint(-20, 20)
            result = a.translate(g)
            expect = {x + g for x in a.window(lo - g, hi - g)}
        elif op == "scale":
            k = rng.choice([v for v in range(-5, 6) if v != 0])
            result = a.scale(k)
            ak = abs(k)
            start = lo + (-lo) % ak
            expect = {
                x for x in range(start, hi + 1, ak) if a.member(x // k)
            }
        elif op == "union":
            b = random_set(rng)
            result = a.union(b)
            expect = set(a.window(lo, hi)) | set(b.window(lo, hi))
        else:
            b = random_set(rng)
            result = a.intersect(b)
            expect = set(a.window(lo, hi)) & set(b.window(lo, hi))
        if not res.check(set(result.window(lo, hi)) == expect,
                         "{} window mismatch on {!r}", op, a):
            break
    # Incremental versus closed-form derived sets.
    engine = Engine(SymbolicUniverse())
    for _ in range(ctx.cap(100)):
        a = random_set(rng, max_geo=2, max_ap=1, max_finite=3)
        length = rng.randint(1, 4)
        path = tuple(
            rng.choice([v for v in range(-6, 7) if v != 0])
            for _ in range(length)
        )
        incremental = engine.derived_set(a, path)
        sums = {0}
        for g in path:
            sums |= {s + g for s in sums}
        closed = a
        for s in sorted(sums - {0}):
            closed = closed.intersect(a.translate(s))
        if not res.check(incremental == closed,
                         "derived set mismatch on {!r} along {}", a, path):
            break
    return res


def _suite_engine_limits(ctx: _Ctx) -> SuiteResult:
    """Starve the engine on purpose and check that exhaustion is clean:
    deterministic, well-formed Unknown verdicts, with certificates still
    available where no recursion is needed.  Expected Unknowns here count
    as passing checks, not as unknowns."""
    res = SuiteResult("engine-limits")
    tiny = Budget(
        max_depth=min(ctx.budget.max_depth, 4),
        max_nodes=min(ctx.budget.max_nodes, 3),
    )
    chain = geo(2, 1, 0, 0)
    for _ in range(2):
        scaled = chain.scale(3)
        chain = scaled.union(scaled.translate(1))
    for probe in (chain, geo(2, 1, 0, 0).union(geo(2, 3, 10, 0)), ap(2, 0)):
        first = Engine(SymbolicUniverse()).classify(probe, tiny)
        second = Engine(SymbolicUniverse()).classify(probe, tiny)
        res.check(first == second, "nondeterministic verdict on {!r}", probe, count=2)
        if isinstance(first, Unknown):  # one check of both budgets
            res.check(first.nodes_used <= tiny.max_nodes + 1,
                      "unknown verdict overran the node budget on {!r}", probe)
            res.check(first.depth_reached <= tiny.max_depth,
                      "unknown verdict overran the depth budget on {!r}", probe, count=0)
    res.check(isinstance(Engine(SymbolicUniverse()).classify(chain, tiny), Unknown),
              "deep probe classified under a 3-node budget")
    return res


_SUITES = (
    _suite_oracle_agreement,
    _suite_escalation,
    _suite_bottom_certificates,
    _suite_cubic_bounds,
    _suite_union_bounds,
    _suite_boolean,
    _suite_invariance,
    _suite_window_soundness,
    _suite_engine_limits,
)


def run_selftest(
    seed: int = 0,
    trials: int = 10_000,
    budget: Budget | None = None,
    out=None,
) -> int:
    """Run all suites; print a deterministic report; return 0 unless a
    suite failed outright."""
    out = out if out is not None else sys.stdout
    budget = budget if budget is not None else Budget()
    ctx = _Ctx(seed=seed, trials=max(1, trials), budget=budget)

    print("thinlab selftest", file=out)
    print(f"seed: {ctx.seed}", file=out)
    print(f"trials: {ctx.trials}", file=out)
    print(
        f"budget: depth={budget.max_depth} nodes={budget.max_nodes}", file=out
    )
    print(file=out)

    results = []
    for idx, suite in enumerate(_SUITES, start=1):
        result = suite(ctx)
        results.append(result)
        label = f"[{idx}/{len(_SUITES)}] {result.name} ".ljust(44, ".")
        detail = f"{result.checks} checks"
        if result.unknowns:
            detail += f", {result.unknowns} unknown"
        print(f"{label} {result.outcome} ({detail})", file=out)
        for note in result.failures[:5]:
            print(f"      ! {note}", file=out)

    failures = sum(len(r.failures) for r in results)
    unknowns = sum(r.unknowns for r in results)
    checks = sum(r.checks for r in results)
    overall = "FAIL" if failures else "PASS"
    print(file=out)
    print(
        f"result: {overall} ({len(results)} suites, {checks} checks, "
        f"{failures} failures, {unknowns} unknown)",
        file=out,
    )
    return 1 if failures else 0
