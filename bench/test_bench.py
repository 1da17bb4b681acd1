"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with `python3 -m pytest bench`.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
from thinlab import dsl, oracle
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost

BENCH = Path(__file__).resolve().parent


def _request(group: GroupDescriptor, cross: bool) -> workloads.OracleRequest:
    levels = oracle.recursive_levels(group, SizeAtMost(group, 1))
    return workloads.OracleRequest(group, 1, cross, workloads.levels_digest(levels))


TINY = {
    "escalation": lambda: workloads.Escalation(levels=3),
    "zbatch": lambda: workloads.ZBatch(lines=200),
    "oracle": lambda: workloads.Oracle([
        _request(GroupDescriptor.cyclic(4), True),
        _request(GroupDescriptor.boolean_power(2), False),
    ]),
}


def _graded(wl, inputs):
    result = wl.run_pass(inputs)
    return result, wl.check(inputs, result.outputs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_pass_is_correct(name):
    wl = TINY[name]()
    inputs = wl.build(7)
    result, grades = _graded(wl, inputs)
    assert len(grades) == len(result.op_seconds) == len(result.outputs)
    assert workloads.WRONG not in grades
    if name == "zbatch":
        # Exactly the lines whose canonical form is too long for str() fail.
        raised = [line.over_limit for line, g in zip(inputs, grades) if g == workloads.RAISED]
        assert raised == [True] * sum(line.over_limit for line in inputs)
    else:
        assert set(grades) == {workloads.OK}


def test_zbatch_counts_over_limit_lines_as_failed():
    wl = workloads.ZBatch(lines=400)
    inputs = wl.build(3)
    assert any(line.over_limit for line in inputs)
    _, grades = _graded(wl, inputs)
    assert [g == workloads.RAISED for g in grades] == [line.over_limit for line in inputs]


@pytest.mark.parametrize("name", sorted(TINY))
def test_planted_wrong_reference_is_counted(name):
    wl = TINY[name]()
    inputs = wl.build(7)
    if name == "escalation":
        k, text, stage = inputs[1]
        inputs[1] = (k + 1, text, stage)
        planted = 2
    elif name == "zbatch":
        i = next(i for i, line in enumerate(inputs) if not line.periodic)
        line = inputs[i]
        inputs[i] = workloads.Line(line.text, False, line.over_limit, line.ref_set,
                                   line.ref_level + 1)
        planted = 1
    else:
        inputs[0] = workloads.OracleRequest(inputs[0].group, 1, True, "0" * 64)
        planted = 1
    _, grades = _graded(wl, inputs)
    tally = workloads.Tally()
    tally.add(grades, timed=True)
    assert tally.wrong == planted
    assert tally.failed >= planted and tally.attempted == len(grades)


def test_operation_that_raises_does_not_stop_the_pass():
    wl = workloads.ZBatch(lines=40)
    inputs = wl.build(1)
    inputs[0] = workloads.Line("geo(", False, False, "{}", 0)
    _, grades = _graded(wl, inputs)
    assert grades[0] == workloads.RAISED
    assert len(grades) == 40 and workloads.WRONG not in grades[1:]


def test_same_seed_gives_same_inputs():
    a = workloads.ZBatch(lines=100).build(5)
    assert a == workloads.ZBatch(lines=100).build(5)
    assert a != workloads.ZBatch(lines=100).build(6)


def test_large_lines_parse_to_the_sets_they_were_built_as():
    for text, a in workloads.large_lines(random.Random(2), 30):
        assert dsl.parse_set(text) == a


def test_mixed_moduli_stay_under_their_lcm_cap():
    for m1, m2 in workloads._mixed_pairs():
        assert math.lcm(m1, m2) <= workloads.MIXED_LCM_MAX


def test_pinned_oracle_digests_match_recursive_levels():
    for req in workloads.ORACLE_REQUESTS:
        levels = oracle.recursive_levels(req.group, SizeAtMost(req.group, req.t))
        assert workloads.levels_digest(levels) == req.digest


def _traced_totals(wl):
    inputs = wl.build(1)
    store = spans.SpanStore()
    with spans.tracing(store):
        wl.run_pass(inputs, store)
    return store.layer_totals()


def test_tracing_records_layers_and_restores_entry_points():
    before = (dsl.parse_set, dsl.make_set, workloads.Engine.classify)
    esc = _traced_totals(TINY["escalation"]())
    assert (dsl.parse_set, dsl.make_set, workloads.Engine.classify) == before
    assert esc["dsl.parse_set"]["calls"] == 3
    assert esc["engine.classify"]["calls"] == esc["engine.tree_rank"]["calls"] == 3
    assert esc["symbolic.make_set"]["calls"] > 0
    assert esc["groups.mask_translate"]["calls"] == 0
    orc = _traced_totals(TINY["oracle"]())
    assert orc["symbolic.intersect"]["calls"] == 0
    assert orc["groups.mask_translate"]["calls"] > 0
    assert orc["oracle.build_table"]["calls"] == 2
    assert orc["ideals.contains"]["calls"] > 0


def test_self_time_subtracts_direct_children():
    store = spans.SpanStore()
    parent, child = spans.SPAN_NAMES.index("engine.classify"), spans.SPAN_NAMES.index(
        "symbolic.intersect")
    for nid, par, s, e in [(parent, -1, 0.0, 10.0), (child, 0, 1.0, 4.0), (child, 0, 5.0, 6.0)]:
        store.name.append(nid)
        store.parent.append(par)
        store.request.append(0)
        store.start.append(s)
        store.end.append(e)
    totals = store.layer_totals()
    assert totals["engine.classify"]["self_s"] == pytest.approx(6.0)
    assert totals["symbolic.intersect"]["calls"] == 2
    assert totals["symbolic.intersect"]["self_s"] == pytest.approx(4.0)


def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "traces", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "zbatch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    fake = [workloads.PassResult(1.0, [0.1, 0.2], [None, None])]
    timings = run.end_to_end([1.0, 2.0, 3.0], fake)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: timings[name][1] for name in run.GATED}
    first = spans.SpanStore().layer_totals()
    printed = spans.layer_metrics([first], first, 1.0)
    printed.update((name, timings[name][:2]) for name in run.TIMINGS)
    assert [m["name"] for m in spec["per_layer"]] == sorted(printed)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in printed.items()}


def test_timings_are_medians_with_their_sample_counts():
    passes = [workloads.PassResult(s, [s / 4, s / 2], [None, None]) for s in (1.0, 3.0, 2.0)]
    timings = run.end_to_end([5.0, 4.0, 9.0], passes)
    assert timings["setup_s"][:3] == (5.0, "s", 3)
    assert timings["pass_s"][:3] == (2.0, "s", 3)
    assert timings["verdict_p50_ms"][:3] == (750.0, "ms", 2)
    assert timings["verdict_p99_ms"][:3] == (1000.0, "ms", 2)
