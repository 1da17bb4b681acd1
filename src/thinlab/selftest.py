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
from itertools import combinations_with_replacement
from random import Random

from .bounds import (
    _subset_sum_count,
    c_of_n,
    escalate,
    union_level_check,
)
from .engine import (
    Budget,
    Engine,
    ExactLevel,
    NotInThinCompletion,
    SymbolicUniverse,
    Unknown,
)
from .groups import GroupDescriptor, mask_translate
from .ideals import SizeAtMost, check_axioms
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


_ORACLE_GROUPS = (
    ("z3", GroupDescriptor.cyclic(3)),
    ("z5", GroupDescriptor.cyclic(5)),
    ("z7", GroupDescriptor.cyclic(7)),
    ("b2", GroupDescriptor.boolean_power(2)),
    ("b3", GroupDescriptor.boolean_power(3)),
)


def _is_unknown_mismatch(entry: tuple) -> bool:
    _, _, verdict, rank = entry
    return isinstance(verdict, Unknown) or isinstance(rank, Unknown)


def _suite_oracle_agreement(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("finite-oracle-agreement")
    for name, group in _ORACLE_GROUPS:
        for t in (0, 1, 2):
            family = SizeAtMost(group, t)
            axioms = check_axioms(family, samples=24, rng=ctx.rng(10 + t))
            res.checks += 1
            if not axioms.left_invariant or not axioms.lower:
                res.failures.append(f"{name} t={t}: base family axioms broken")
            table = build_table(group, family)
            report = cross_check(table, ctx.budget)
            res.checks += report.checked
            for entry in report.mismatches:
                if _is_unknown_mismatch(entry):
                    res.unknowns += 1
                else:
                    m, expected, verdict, rank = entry
                    res.failures.append(
                        f"{name} t={t} mask={m}: table {expected}, "
                        f"engine {verdict}, rank {rank}"
                    )
    return res


def _suite_escalation(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("hierarchy-escalation")
    engine = Engine(SymbolicUniverse())
    a = geo(2, 1, 0, 0)
    for i in range(5):
        verdict = engine.classify(a, ctx.budget)
        res.checks += 1
        if isinstance(verdict, Unknown):
            res.unknowns += 1
            break
        if not isinstance(verdict, ExactLevel):
            res.failures.append(f"stage {i}: unexpected {verdict}")
            break
        if verdict.level != i + 1:
            res.failures.append(
                f"stage {i}: level {verdict.level}, expected {i + 1}"
            )
            break
        rank = engine.tree_rank(a, ctx.budget)
        res.checks += 1
        if isinstance(rank, Unknown):
            res.unknowns += 1
        elif rank != verdict.level:
            res.failures.append(
                f"stage {i}: tree rank {rank} != level {verdict.level}"
            )
        if i < 4:
            a = escalate(a, engine, ctx.budget)
    return res


def _suite_bottom_certificates(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("bottom-certificates")
    engine = Engine(SymbolicUniverse())
    for a in (ap(2, 0), ap(1, 0), ap(2, 0).translate(7)):
        verdict = engine.classify(a, ctx.budget)
        res.checks += 1
        if not isinstance(verdict, NotInThinCompletion):
            res.failures.append(f"{a!r}: expected a certificate, got {verdict}")
            continue
        res.checks += 1
        if not engine.replay_witness(a, verdict.witness):
            res.failures.append(f"{a!r}: witness replay failed")
    return res


def _suite_cubic_bounds(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("subset-sum-image-bounds")
    # Literal sweep over nonzero entries for the two small cases.
    for n, m in ((2, 2), (3, 5)):
        entries = [e for e in range(-3, 4) if e != 0]
        vecs = [()]
        for _ in range(m):
            vecs = [v + (e,) for v in vecs for e in entries]
        for vec in vecs:
            res.checks += 1
            if _subset_sum_count(vec) <= n:
                res.failures.append(f"n={n}: image too small for {vec}")
    # n = 4 via the sign/permutation reduction to sorted positive vectors.
    for vec in combinations_with_replacement((1, 2, 3), 10):
        res.checks += 1
        if _subset_sum_count(vec) <= 4:
            res.failures.append(f"n=4: image too small for {vec}")
    # Random large-entry vectors.
    rng = ctx.rng(40)
    for _ in range(ctx.cap(10_000)):
        n = rng.choice((2, 3, 4))
        m = (n - 1) ** 2 + 1
        vec = tuple(
            rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(m)
        )
        res.checks += 1
        if _subset_sum_count(vec) <= n:
            res.failures.append(f"random n={n}: image too small for {vec}")
    # c(n) sandwich for n <= 5.
    for n in range(1, 6):
        value = c_of_n(n)
        res.checks += 1
        if not n <= value <= (n - 1) ** 2 + 1:
            res.failures.append(f"c({n}) = {value} outside its sandwich")
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
        if isinstance(verdict, Unknown):
            res.unknowns += 1
            continue
        if not isinstance(verdict, ExactLevel) or verdict.level > 2:
            continue
        pool.append(s)
        if len(pool) < 2:
            continue
        a, b = pool.pop(), pool.pop()
        res.checks += 1
        done += 1
        try:
            report = union_level_check(a, b, engine, ctx.budget)
        except AssertionError as exc:
            res.failures.append(str(exc))
            continue
        if report.inconclusive:
            res.unknowns += 1
        elif not report.within_adjusted_bound:
            res.failures.append(
                f"union level {report.union_level} exceeds adjusted bound "
                f"{report.adjusted_bound} for {a!r} | {b!r}"
            )
    if done < target and not res.failures and res.unknowns == 0:
        res.failures.append(
            f"only {done}/{target} classified pairs found in {attempts} attempts"
        )
    return res


def _suite_boolean(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("boolean-non-additivity")
    witness = boolean_non_additivity_witness(3, 1)
    res.checks += 1
    if witness is None:
        res.failures.append("no witness found over (Z/2)^3 with bound 1")
    else:
        mask, x = witness
        group = GroupDescriptor.boolean_power(3)
        family = SizeAtMost(group, 1)
        union = mask | mask_translate(group, mask, x)

        def thin(m: int) -> bool:
            return all(
                family.contains(m & mask_translate(group, m, g))
                for g in group.nonidentity()
            )

        res.checks += 2
        if not thin(mask):
            res.failures.append(f"witness mask {mask} is not thin")
        if thin(union):
            res.failures.append(f"witness union {union} is thin")
    # x-invariance of A | (x + A), exhaustive for small Boolean powers.
    for d in range(1, 5):
        group = GroupDescriptor.boolean_power(d)
        total = 1 << group.order
        for x in group.nonidentity():
            table = [mask_translate(group, mask, x) for mask in range(total)]
            for mask in range(total):
                union = mask | table[mask]
                res.checks += 1
                if table[union] != union:
                    res.failures.append(
                        f"d={d} x={x} mask={mask}: union not x-invariant"
                    )
                    break
    return res


def _verdict_key(verdict) -> tuple | None:
    if isinstance(verdict, ExactLevel):
        return ("level", verdict.level)
    if isinstance(verdict, NotInThinCompletion):
        return ("bottom",)
    return None


def _suite_invariance(ctx: _Ctx) -> SuiteResult:
    res = SuiteResult("level-invariance")
    engine = Engine(SymbolicUniverse())
    rng = ctx.rng(70)
    for _ in range(ctx.cap(100)):
        s = random_set(rng)
        base_key = _verdict_key(engine.classify(s, ctx.budget))
        res.checks += 1
        if base_key is None:
            res.unknowns += 1
            continue
        g = rng.choice([v for v in range(-9, 10) if v != 0])
        moved_key = _verdict_key(engine.classify(s.translate(g), ctx.budget))
        res.checks += 1
        if moved_key is None:
            res.unknowns += 1
        elif moved_key != base_key:
            res.failures.append(
                f"translate by {g} changed {base_key} to {moved_key} on {s!r}"
            )
        k = rng.choice((2, 3, 5))
        scaled_key = _verdict_key(engine.classify(s.scale(k), ctx.budget))
        res.checks += 1
        if scaled_key is None:
            res.unknowns += 1
        elif scaled_key != base_key:
            res.failures.append(
                f"scale by {k} changed {base_key} to {scaled_key} on {s!r}"
            )
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
        res.checks += 1
        if set(result.window(lo, hi)) != expect:
            res.failures.append(f"{op} window mismatch on {a!r}")
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
        res.checks += 1
        if incremental != closed:
            res.failures.append(
                f"derived set mismatch on {a!r} along {path}"
            )
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
        res.checks += 2
        if first != second:
            res.failures.append(f"nondeterministic verdict on {probe!r}")
        if isinstance(first, Unknown):
            res.checks += 1
            if first.nodes_used > tiny.max_nodes + 1:
                res.failures.append(
                    f"unknown verdict overran the node budget on {probe!r}"
                )
            if first.depth_reached > tiny.max_depth:
                res.failures.append(
                    f"unknown verdict overran the depth budget on {probe!r}"
                )
    res.checks += 1
    if not isinstance(Engine(SymbolicUniverse()).classify(chain, tiny), Unknown):
        res.failures.append("deep probe classified under a 3-node budget")
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
