"""The three benchmark workloads: inputs, one pass, and output checks.

Each workload has `build(seed)`, which makes the inputs and the references
the outputs are checked against; `run_pass(inputs, store)`, which runs
every operation once as a single closed-loop caller and returns a
PassResult; and `check(inputs, outputs)`, which grades each output as
"ok", "raised" (the operation raised an exception) or "wrong" (it returned
something that differs from the reference).  No reference is produced by
`classify`.

Calls into thinlab go through module attributes (`dsl.parse_set`, ...) and
instance methods, so that the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass

from thinlab import bounds, dsl, oracle, symbolic
from thinlab.engine import (
    Budget,
    Engine,
    ExactLevel,
    NotInThinCompletion,
    SymbolicUniverse,
)
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost

OK, RAISED, WRONG = "ok", "raised", "wrong"


@dataclass
class PassResult:
    seconds: float
    op_seconds: list[float]
    outputs: list


class Tally:
    """Graded operations of the timed passes, and wrong outputs anywhere."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def add(self, grades: list[str], timed: bool) -> None:
        self.wrong += grades.count(WRONG)
        if timed:
            self.attempted += len(grades)
            self.failed += sum(g != OK for g in grades)


def _timed_ops(ops, store) -> PassResult:
    """Run each zero-argument op in turn, timing it in CPU seconds; an
    exception is its output."""
    clock = time.process_time
    op_seconds, outputs = [], []
    begin = clock()
    for request, op in enumerate(ops):
        if store is not None:
            store.request_id = request
        t0 = clock()
        try:
            out = op()
        except Exception as exc:
            out = exc
        op_seconds.append(clock() - t0)
        outputs.append(out)
    return PassResult(clock() - begin, op_seconds, outputs)


# -- escalation ---------------------------------------------------------------


class Escalation:
    """Stages 1..levels of the chain A_1 = {2^n}, A_(k+1) = escalate(A_k).

    The chain is fixed by its construction, so the seed does not enter.
    One pass parses each stage's text and classifies it with a fresh
    Engine (one operation), then runs tree_rank on it (a second one).  The
    reference is the construction itself: stage k sits at level k.
    """

    name = "escalation"

    def __init__(self, levels: int = 6):
        self.levels = levels

    def build(self, seed: int) -> list[tuple[int, str, symbolic.SymbolicSet]]:
        stage = symbolic.geo(2, 1, 0, 0)
        engine = Engine()
        stages = [stage]
        for _ in range(self.levels - 1):
            stage = bounds.escalate(stage, engine)
            stages.append(stage)
        return [(k, dsl.format_set(s), s) for k, s in enumerate(stages, 1)]

    def run_pass(self, inputs, store=None) -> PassResult:
        ops = []
        for _, text, stage in inputs:
            engine = Engine()
            parsed = {}

            def verdict(text=text, engine=engine, parsed=parsed):
                parsed["set"] = dsl.parse_set(text)
                return parsed["set"], engine.classify(parsed["set"], Budget())

            def rank(stage=stage, engine=engine, parsed=parsed):
                return engine.tree_rank(parsed.get("set", stage), Budget())

            ops += [verdict, rank]
        return _timed_ops(ops, store)

    def check(self, inputs, outputs) -> list[str]:
        grades = []
        for (k, _, stage), out_verdict, out_rank in zip(
            inputs, outputs[0::2], outputs[1::2]
        ):
            if isinstance(out_verdict, Exception):
                grades.append(RAISED)
            else:
                parsed, verdict = out_verdict
                grades.append(OK if parsed == stage and verdict == ExactLevel(k) else WRONG)
            if isinstance(out_rank, Exception):
                grades.append(RAISED)
            else:
                grades.append(OK if type(out_rank) is int and out_rank == k else WRONG)
        return grades


# -- zbatch -------------------------------------------------------------------

LARGE_SHARE = 0.03

# Mixed moduli are kept to an lcm of at most MIXED_LCM_MAX, far below
# symbolic.PERIOD_ENUM_LIMIT (10^6).  Classify time of a periodic part with
# mixed moduli grows with the lcm times its number of residues, which is
# about lcm^2 when one modulus is small.  Measured on a 2-core x86-64 VM
# with Python 3.11: ap(990,1) | ap(100,7) (lcm 9 900) took 1.5 s,
# ap(1000,1) | ap(3,2) (lcm 3 000, 1 003 residues) 3.6 s, ap(2000,1) |
# ap(3,2) (lcm 6 000) 16 s and ap(3000,1) | ap(7,2) (lcm 21 000) 73 s;
# ap(999,0) | ap(1000,1) has been reported to give no verdict within 3
# minutes.  Inputs near the limit belong in an adversarial test, not in a
# pass that is repeated.
MIXED_LCM_MAX = 2000
MIXED_MODULI = range(8, 65)

# The n0 range crosses 14 284, above which 2^n0 has more decimal digits
# than Python's default int-to-str limit (4300).  Those lines fail in
# format_set, a known defect that the benchmark keeps visible.  A tail
# joins only progressions with a power-of-two modulus: against a modulus
# in which 2 has a long orbit, a large-n0 tail takes tens of seconds
# (geo(2,-8,-48,5579) | ap(29,26) took 32 s on the VM above), too long
# for a repeated pass.
TAIL_N0 = (1000, 20000)


@dataclass(frozen=True)
class Line:
    text: str
    periodic: bool
    over_limit: bool
    ref_set: str | None
    ref_level: int | None


def _over_limit(a: symbolic.SymbolicSet) -> bool:
    """Whether the canonical form holds an integer too long for str()."""
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        return False
    top = 10**limit
    ints = list(a.finite)
    for t in a.geos:
        ints += [t.base, t.coeff, t.offset, t.n0]
    for t in a.aps:
        ints += [t.modulus, t.residue]
    return any(abs(x) >= top for x in ints)


def _mixed_pairs() -> list[tuple[int, int]]:
    """Moduli pairs, neither dividing the other, in order of their lcm."""
    pairs = [
        (m1, m2)
        for m1 in MIXED_MODULI
        for m2 in MIXED_MODULI
        if m1 < m2 and m2 % m1 and math.lcm(m1, m2) <= MIXED_LCM_MAX
    ]
    return sorted(pairs, key=lambda p: (math.lcm(*p), p))


def _signed(rng: random.Random, lo: int, hi: int) -> int:
    return rng.randrange(lo, hi + 1) * rng.choice((1, -1))


def large_lines(rng: random.Random, n: int) -> list[tuple[str, symbolic.SymbolicSet]]:
    """Large-parameter lines of four kinds: geometric tails with a large
    n0, large offsets, a large single modulus and mixed moduli.  No
    measured traffic says how often each kind occurs, so the lines are
    split evenly between the kinds; the mix is an assumption.  The
    parameter that sets a line's cost (n0, offset digits, modulus, lcm) is
    spread evenly over its range, the same for every seed, so that the
    slowest lines, which set verdict_p99_ms, do not change from seed to
    seed; the seed draws the rest.  Each line is written as text and built
    separately through the constructors, never by parsing."""
    geo, ap, finite_set = symbolic.geo, symbolic.ap, symbolic.finite_set
    kinds = ("tail", "offset", "single", "mixed")
    counts = {kind: n // 4 + (i < n % 4) for i, kind in enumerate(kinds)}
    mixed = _mixed_pairs()
    out = []
    for kind, m in counts.items():
        for i in range(m):
            u = (i + 0.5) / m
            if kind == "tail":
                n0 = int(TAIL_N0[0] + u * (TAIL_N0[1] - TAIL_N0[0]))
                b, n0 = (2, n0) if i % 2 == 0 else (4, n0 // 2)
                c, d = _signed(rng, 1, 9), rng.randrange(-50, 51)
                text, a = f"geo({b},{c},{d},{n0})", geo(b, c, d, n0)
                if i % 3 == 1:
                    x = rng.randrange(-50, 51)
                    text, a = text + f" | {{{x}}}", a | finite_set([x])
                elif i % 3 == 2:
                    p = 2 ** rng.randrange(2, 7)
                    r = rng.randrange(p)
                    text, a = text + f" | ap({p},{r})", a | ap(p, r)
            elif kind == "offset":
                digits = int(20 + u * 280)
                d1 = _signed(rng, 10 ** (digits - 1), 10**digits - 1)
                d2 = d1 + _signed(rng, 1, 64)
                c1, c2 = rng.choice((1, 3)), rng.choice((1, 3))
                n1, n2 = rng.randrange(4), rng.randrange(4)
                text = f"geo(2,{c1},{d1},{n1}) | geo(2,{c2},{d2},{n2})"
                a = geo(2, c1, d1, n1) | geo(2, c2, d2, n2)
            elif kind == "single":
                p = int(2 ** (8 + 8 * u))
                r1, r2 = rng.randrange(p), rng.randrange(p)
                text, a = f"ap({p},{r1})", ap(p, r1)
                if i % 2:
                    text, a = text + f" | ap({p},{r2})", a | ap(p, r2)
                if i % 3 == 0:
                    x = rng.randrange(-1000, 1001)
                    text, a = text + f" | {{{x}}}", a | finite_set([x])
            else:
                m1, m2 = mixed[int(u * len(mixed))]
                r1, r2 = rng.randrange(m1), rng.randrange(m2)
                text, a = f"ap({m1},{r1}) | ap({m2},{r2})", ap(m1, r1) | ap(m2, r2)
            out.append((text, a))
    return out


def _batch_line(engine: Engine, text: str) -> str:
    """The per-line work of `thinlab classify --batch`, with timing."""
    a = dsl.parse_set(text)
    t0 = time.perf_counter()
    verdict = engine.classify(a, Budget())
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    report = {"input": text, "set": dsl.format_set(a)}
    if isinstance(verdict, ExactLevel):
        report.update(verdict="exact_level", level=verdict.level)
    elif isinstance(verdict, NotInThinCompletion):
        w = verdict.witness
        report.update(
            verdict="not_in_thin_completion",
            witness={
                "path": list(w.path),
                "ancestor_index": w.ancestor_index,
                "repeat_shift": w.repeat_shift,
                "translation": w.translation,
                "replay_ok": engine.replay_witness(a, w),
            },
        )
    else:
        report.update(
            verdict="unknown",
            depth_reached=verdict.depth_reached,
            nodes_used=verdict.nodes_used,
        )
    report["time_ms"] = round(elapsed_ms, 3)
    return json.dumps(report, sort_keys=True)


class ZBatch:
    """A `classify --batch` stream: about 97% small lines from
    symbolic.random_set and 3% large-parameter lines, in seeded order.

    References: a line with a periodic part lies outside the thin
    completion; a line without one sits at the level tree_rank gives; the
    printed set is the canonical text of the set built in set-up.
    """

    name = "zbatch"

    def __init__(self, lines: int = 1000):
        self.lines = lines

    def build(self, seed: int) -> list[Line]:
        rng = random.Random(seed)
        n_large = round(self.lines * LARGE_SHARE)
        entries = large_lines(rng, n_large)
        for _ in range(self.lines - n_large):
            a = symbolic.random_set(rng)
            entries.append((dsl.format_set(a), a))
        rng.shuffle(entries)
        ranker = Engine()
        out = []
        for text, a in entries:
            over = _over_limit(a)
            level = None
            if not a.aps:
                level = ranker.tree_rank(a, Budget())
                if type(level) is not int:
                    raise RuntimeError(f"no reference level for {text!r}: {level}")
            out.append(Line(
                text, bool(a.aps), over, None if over else dsl.format_set(a), level
            ))
        return out

    def run_pass(self, inputs: list[Line], store=None) -> PassResult:
        engine = Engine(SymbolicUniverse())
        return _timed_ops(
            [lambda text=line.text: _batch_line(engine, text) for line in inputs],
            store,
        )

    def check(self, inputs: list[Line], outputs) -> list[str]:
        grades = []
        for line, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                grades.append(RAISED)
                continue
            report = json.loads(out)
            if line.periodic:
                good = (
                    report.get("verdict") == "not_in_thin_completion"
                    and report["witness"]["replay_ok"] is True
                )
            else:
                good = report.get("verdict") == "exact_level" and report["level"] == line.ref_level
            good = good and line.ref_set is not None and report["set"] == line.ref_set
            grades.append(OK if good else WRONG)
        return grades


# -- oracle -------------------------------------------------------------------


def levels_digest(levels) -> str:
    return hashlib.sha256(bytes(v + 1 for v in levels)).hexdigest()


@dataclass(frozen=True)
class OracleRequest:
    group: GroupDescriptor
    t: int
    cross_check: bool
    digest: str


# sha256 of oracle.recursive_levels for each group at t = 1: the oracle's
# independent depth-first recursion, pinned so set-up need not rerun it.
# Z/12 is left out: its cross_check alone takes about 9 s, so a run could
# repeat it only twice and its times would not settle (Z/11 takes 27 s).
ORACLE_REQUESTS = [
    OracleRequest(GroupDescriptor.cyclic(9), 1, True,
                  "09bfba39837758032b304a48fa35ef5283d4cc5b48ac2466329e4bce03d5f969"),
    OracleRequest(GroupDescriptor.cyclic(10), 1, True,
                  "5eb93e8c0fa7077a7b6c9923bdcc78f967ecc42ab4519e249193adde4c0ee162"),
    OracleRequest(GroupDescriptor.boolean_power(3), 1, True,
                  "e2e3878199a2634f1c2770cf5fe66af51da30f7cbb336a9343b7bfba0075ccc5"),
    OracleRequest(GroupDescriptor.cyclic(16), 1, False,
                  "09d1202737ae4c2b5ad0d9e895cfd22d7773871178eb524e5437d590763f4e84"),
]


class Oracle:
    """What `thinlab oracle` runs, one group request per operation:
    build_table, plus cross_check where the request asks for it.  The
    groups are fixed, so the seed does not enter."""

    name = "oracle"

    def __init__(self, requests: list[OracleRequest] = ORACLE_REQUESTS):
        self.requests = requests

    def build(self, seed: int) -> list[OracleRequest]:
        return list(self.requests)

    def run_pass(self, inputs: list[OracleRequest], store=None) -> PassResult:
        def request(req: OracleRequest):
            table = oracle.build_table(req.group, SizeAtMost(req.group, req.t))
            return table, oracle.cross_check(table) if req.cross_check else None

        return _timed_ops([lambda req=req: request(req) for req in inputs], store)

    def check(self, inputs: list[OracleRequest], outputs) -> list[str]:
        grades = []
        for req, out in zip(inputs, outputs):
            if isinstance(out, Exception):
                grades.append(RAISED)
                continue
            table, report = out
            good = levels_digest(table.levels) == req.digest
            if req.cross_check:
                good = good and report.ok and report.checked == 1 << req.group.order
            grades.append(OK if good else WRONG)
        return grades


WORKLOADS = {w.name: w for w in (Escalation, ZBatch, Oracle)}
