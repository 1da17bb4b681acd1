"""Span tracing of thinlab's public entry points, from outside the package.

`tracing(store)` replaces the entry points listed in SPANNED and COUNTED
with wrappers for the duration of a `with` block and restores the
originals afterwards; nothing under src/ is edited.  Besides the public
names, the wrappers replace the names other modules bound at import time
(`thinlab.dsl.make_set`, `thinlab.engine.mask_translate`, ...), because a
call through such a name never reaches the module attribute it was copied
from.

Every call to a SPANNED entry point records one span (name, start, end,
parent span, request id) in the SpanStore; calls to a COUNTED entry point
only increment a counter, because they are too many and too short to time.
Span times are read from time.perf_counter, which costs less per call than
the CPU clock the passes are timed with, so self times are wall seconds.
A span's self time is its duration minus the time covered by its direct
child spans.  The observers derive the ratio metrics from each call's
arguments and return value, seen from outside the call.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import Counter
from statistics import median


def _observe_intersect(args, out, extra: Counter) -> None:
    a, b = args[0], args[1]
    extra["geo_pairs"] += len(a.geos) * len(b.geos)
    extra["geo_terms_out"] += len(out.geos)


def _observe_spectrum(args, out, extra: Counter) -> None:
    extra["candidates"] += len(out.explicit)
    extra["infinite"] += sum(1 for _, child in out.explicit if not child.is_finite())


def _observe_match(args, out, extra: Counter) -> None:
    extra["hits"] += out is not None


# (module, attribute path, span name, observer)
SPANNED = [
    ("thinlab.dsl", "parse_set", "dsl.parse_set", None),
    ("thinlab.dsl", "format_set", "dsl.format_set", None),
    ("thinlab.symbolic", "make_set", "symbolic.make_set", None),
    ("thinlab.dsl", "make_set", "symbolic.make_set", None),
    ("thinlab.symbolic", "SymbolicSet.intersect", "symbolic.intersect", _observe_intersect),
    ("thinlab.symbolic", "SymbolicSet.shift_spectrum", "symbolic.shift_spectrum",
     _observe_spectrum),
    ("thinlab.engine", "Engine.classify", "engine.classify", None),
    ("thinlab.engine", "Engine.tree_rank", "engine.tree_rank", None),
    ("thinlab.engine", "Engine.replay_witness", "engine.replay_witness", None),
    ("thinlab.engine", "SymbolicUniverse.match_translate", "engine.match_translate.z",
     _observe_match),
    ("thinlab.engine", "FiniteGroupUniverse.match_translate",
     "engine.match_translate.group", _observe_match),
    ("thinlab.engine", "SymbolicUniverse.norm_key", "engine.norm_key.z", None),
    ("thinlab.engine", "FiniteGroupUniverse.norm_key", "engine.norm_key.group", None),
    ("thinlab.groups", "mask_translate", "groups.mask_translate", None),
    ("thinlab.engine", "mask_translate", "groups.mask_translate", None),
    ("thinlab.ideals", "mask_translate", "groups.mask_translate", None),
    ("thinlab.oracle", "build_table", "oracle.build_table", None),
    ("thinlab.oracle", "cross_check", "oracle.cross_check", None),
    ("thinlab.bounds", "escalate", "bounds.escalate", None),
]

# (module, attribute path, counter name)
COUNTED = [
    ("thinlab.ideals", "FiniteSets.contains", "ideals.contains"),
    ("thinlab.ideals", "SizeAtMost.contains", "ideals.contains"),
]

SPAN_NAMES = sorted({name for _, _, name, _ in SPANNED})


class SpanStore:
    """Spans of one traced phase, kept in flat arrays until the run ends."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.request_id = -1
        self.failures: Counter = Counter()
        self.extra: dict[str, Counter] = {name: Counter() for name in SPAN_NAMES}
        self.counts: Counter = Counter()

    def __len__(self) -> int:
        return len(self.start)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, self time, failures and observer counts."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        start, end = self.start, self.end
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - covered[i]
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[name] = {
                "calls": calls[nid],
                "self_s": self_s[nid],
                "failures": self.failures[nid],
                **self.extra[name],
            }
        for _, _, name in COUNTED:
            out[name] = {"calls": self.counts[name]}
        return out

    def write(self, fh, phase: str) -> None:
        """Write the spans as CSV lines to a text file handle, with times
        in nanoseconds from the phase's first span."""
        fh.write(f"# phase {phase}: name,start_ns,end_ns,parent,request\n")
        base = self.start[0] if len(self) else 0.0
        fh.writelines(
            f"{SPAN_NAMES[nid]},{round((s - base) * 1e9)},{round((e - base) * 1e9)},{p},{r}\n"
            for nid, s, e, p, r in zip(
                self.name, self.start, self.end, self.parent, self.request
            )
        )


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _spanned(fn, nid: int, store: SpanStore, observe, extra: Counter):
    names, parents, requests = store.name, store.parent, store.request
    starts, ends, stack, failures = store.start, store.end, store.stack, store.failures
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        requests.append(store.request_id)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            out = fn(*args, **kwargs)
        except Exception:
            failures[nid] += 1
            raise
        finally:
            ends[idx] = clock()
            stack.pop()
        if observe is not None:
            observe(args, out, extra)
        return out

    return wrapper


def _counted(fn, name: str, counts: Counter):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def tracing(store: SpanStore):
    """Wrap every entry point so that calls record into `store`."""
    saved = []
    try:
        for module, path, name, observe in SPANNED:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            nid = SPAN_NAMES.index(name)
            setattr(owner, attr, _spanned(fn, nid, store, observe, store.extra[name]))
        for module, path, name in COUNTED:
            owner, attr = _resolve(module, path)
            fn = vars(owner)[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _counted(fn, name, store.counts))
        yield store
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(pass_totals: list[dict], setup_totals: dict, overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.  Counts and ratios come
    from the first traced pass and self times are medians over traced
    passes; bounds.escalate runs only while inputs are made, so its
    figures come from the traced set-up.  A ratio without a base is 0."""
    first = pass_totals[0]

    def ratio(name: str, num: str, den: str) -> tuple[float, str]:
        base = first[name].get(den, 0)
        return (first[name].get(num, 0) / base if base else 0.0), "ratio"

    out = {}
    for name in SPAN_NAMES:
        source = [setup_totals] if name == "bounds.escalate" else pass_totals
        out[f"{name}.calls"] = (source[0][name]["calls"], "count")
        out[f"{name}.self_s"] = (median(t[name]["self_s"] for t in source), "s")
    out["dsl.format_set.failures"] = (first["dsl.format_set"]["failures"], "count")
    out["symbolic.intersect.geo_pair_yield"] = ratio(
        "symbolic.intersect", "geo_terms_out", "geo_pairs")
    out["symbolic.shift_spectrum.infinite_yield"] = ratio(
        "symbolic.shift_spectrum", "infinite", "candidates")
    for side in ("z", "group"):
        name = f"engine.match_translate.{side}"
        out[f"{name}.hit_ratio"] = ratio(name, "hits", "calls")
    out["ideals.contains.calls"] = (first["ideals.contains"]["calls"], "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
