"""thinlab benchmark: time to verdict on three workloads.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload zbatch --seed 1 --seconds 8 --trace 0

Workloads (bench/workloads.py):

    escalation  stages 1-6 of the escalation chain from {2^n}: parse and
                classify each stage with a fresh Engine, then tree_rank it
    zbatch      the per-line work of `thinlab classify --batch` on a seeded
                1000-line stream, one Engine shared across the stream
    oracle      what `thinlab oracle` runs: build_table and cross_check for
                Z/9, Z/10 and (Z/2)^3, build_table for Z/16, all at t=1

Load: one process and one thread as a closed loop; a single caller waits
for each verdict, as a CLI or library user does.  Every classify uses the
default Budget().  Set-up imports thinlab from src/, builds the inputs from
the seed and runs one untimed warm-up pass; then timed passes run until
--seconds have passed.  Each output is checked against a reference that
classify did not produce.

Times are CPU seconds of the process (time.process_time).  The loop is
single-threaded and never waits on anything but the CPU, so this is its
wall time less the time the host gave to other work.

--trace 0 prints every end-to-end figure, each with its sample count:

    setup_s         s   CPU time from process start to the end of set-up:
                        interpreter start, import, input generation and
                        the warm-up pass.  Set-up runs in this process and
                        in SETUP_RUNS - 1 fresh child processes, one at a
                        time, half before the timed passes and half after,
                        so that the samples spread over the run; the
                        median is reported
    pass_s          s   median time of one timed pass over all inputs,
                        with the quartiles of the passes
    verdict_p50_ms  ms  each operation's median time over the timed
                        passes (a batch line, a stage classify or rank, a
                        group request), then the median over operations
    verdict_p99_ms  ms  the same at the 99th percentile, by nearest rank
    peak_rss_mb     MB  ru_maxrss of this process

and fail_ratio = failed / attempted with both counts.  An operation fails
when it raises or returns an output that differs from its reference;
`correct` is false only for the latter.  The JSON result carries GATED,
the figures steady enough from run to run to bound a change by.  On a
shared 2-core VM the host's speed swings by up to 1.6x within ten
seconds, so pass_s and the verdict percentiles spread by 20-30% over
runs; they are reported, in TIMINGS, with the traced run's result.

--trace 1 skips the child set-ups, runs untraced and traced passes in turn
and prints the per-layer metrics of bench/spans.py: calls and self time
of each entry point, the ratio metrics, trace.overhead_ratio (the traced
pass_s over the untraced one) and the TIMINGS of the untraced passes.
Counts come from the first traced pass, self times are medians over
traced passes, and bounds.escalate comes from a traced re-run of the
input generation.  The spans themselves are written to bench/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
SETUP_RUNS = 5
GATED = ("setup_s", "peak_rss_mb")
TIMINGS = ("pass_s", "verdict_p50_ms", "verdict_p99_ms")


def load_thinlab() -> None:
    """Import thinlab from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import thinlab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import thinlab from {SRC}: {exc}")
    if Path(thinlab.__file__).resolve().parent != (SRC / "thinlab").resolve():
        raise SystemExit(f"bench: thinlab was imported from {thinlab.__file__}, not {SRC}")


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in (SRC / "thinlab").glob("*.py")
        ),
    }


def nearest_rank(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[max(math.ceil(q * len(xs)) - 1, 0)]


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def timed_passes(seconds: float, step) -> None:
    """Call step() until `seconds` have passed, at least once."""
    begin = time.perf_counter()
    step()
    while time.perf_counter() - begin < seconds:
        step()


def child_setup_s(args) -> float:
    """Set-up time of a fresh process: run this script with --setup-only."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up in a child process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(setup_s: list[float], passes: list) -> dict:
    """{name: (value, unit, samples, quartiles or None)}."""
    walls = [p.seconds for p in passes]
    per_op = [statistics.median(times) for times in zip(*(p.op_seconds for p in passes))]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s), quartiles(setup_s)),
        "pass_s": (statistics.median(walls), "s", len(walls), quartiles(walls)),
        "verdict_p50_ms": (statistics.median(per_op) * 1000.0, "ms", len(per_op), None),
        "verdict_p99_ms": (nearest_rank(per_op, 0.99) * 1000.0, "ms", len(per_op), None),
        "peak_rss_mb": (peak, "MB", 1, None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thinlab benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["escalation", "zbatch", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_thinlab()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.build(args.seed)
    tally = workloads.Tally()

    def run_pass(store=None):
        gc.collect()  # every pass starts from the same heap
        return wl.run_pass(inputs, store)

    tally.add(wl.check(inputs, run_pass().outputs), timed=False)
    setup_s = [time.process_time()]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0

    plain, traced, totals = [], [], []
    first_store = None

    def graded(result):
        tally.add(wl.check(inputs, result.outputs), timed=True)
        result.outputs = None  # only the times are kept
        return result

    def untraced_pass() -> None:
        plain.append(graded(run_pass()))

    def traced_pair() -> None:
        nonlocal first_store
        untraced_pass()
        store = spans.SpanStore()
        with spans.tracing(store):
            result = run_pass(store)
        traced.append(graded(result))
        totals.append(store.layer_totals())
        if first_store is None:
            first_store = store

    if args.trace:
        setup_store = spans.SpanStore()
        with spans.tracing(setup_store):
            wl.build(args.seed)
        timed_passes(args.seconds, traced_pair)
    else:
        children = SETUP_RUNS - 1
        setup_s += [child_setup_s(args) for _ in range(children // 2)]
        timed_passes(args.seconds, untraced_pass)
        setup_s += [child_setup_s(args) for _ in range(children - children // 2)]

    meta = run_metadata(args)
    meta["timed_passes"] = len(plain) + len(traced)
    print("run " + json.dumps(meta, sort_keys=True))
    timings = end_to_end(setup_s, plain)
    if args.trace:
        overhead = (statistics.median(p.seconds for p in traced)
                    / statistics.median(p.seconds for p in plain))
        metrics = spans.layer_metrics(totals, setup_store.layer_totals(), overhead)
        metrics.update((name, timings[name][:2]) for name in TIMINGS)
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.csv.gz"
        with gzip.open(trace_file, "wt", compresslevel=1) as fh:
            setup_store.write(fh, "setup")
            first_store.write(fh, "pass")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"{name:45s} {value:>14.6g} {unit}")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        for name, (value, unit, samples, quart) in timings.items():
            spread = "" if quart is None else f"  (q1 {quart[0]:.6g}  q3 {quart[1]:.6g})"
            print(f"{name:15s} {value:12.6g} {unit:3s} samples {samples}{spread}")
        ratio = tally.failed / tally.attempted if tally.attempted else 0.0
        print(f"{'fail_ratio':15s} {ratio:12.6g} failed/attempted "
              f"({tally.failed} / {tally.attempted})")
        metrics = {name: timings[name][:2] for name in GATED}

    print(json.dumps({
        "correct": tally.wrong == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
