"""CLI output pinned byte for byte.

cli_golden.json maps each input expression to the exit code and stdout of
`classify EXPR --no-timing` in text and in JSON, and of `tree EXPR --depth 3`
in text, JSON and DOT.  The strings were recorded once and are not derived
from the code under test, so any difference is a change of behaviour: a
verdict, witness, canonical form, branch order or printed byte.  The last
input is stage 2 of the escalation chain from geo(2,1,0,0), the set that
escalate() returns after two steps.

The CLI dumps trees only on Z, so finite_tree_golden.json pins the text and
DOT printers on Z/5 over SizeAtMost(1): it maps three masks to the printed
tree_dump(mask, depth=2), recorded the same way.

REPORTS pins, the same way, the reports no golden input reaches: an
unknown verdict in text, the stderr of a parse error and of a config
error, and the stdout of the oracle.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from thinlab.bounds import escalate
from thinlab.cli import _tree_text, main, tree_dot
from thinlab.engine import Engine, FiniteGroupUniverse
from thinlab.groups import GroupDescriptor
from thinlab.ideals import SizeAtMost
from thinlab.symbolic import geo

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
FINITE_GOLDEN = json.loads((Path(__file__).parent / "finite_tree_golden.json").read_text())

COMMANDS = {
    "classify_text": ("classify", "--no-timing"),
    "classify_json": ("classify", "--format", "json", "--no-timing"),
    "tree_text": ("tree", "--depth", "3", "--format", "text"),
    "tree_json": ("tree", "--depth", "3", "--format", "json"),
    "tree_dot": ("tree", "--depth", "3", "--format", "dot"),
}


def run_cli(command: str, *flags: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, *flags])
    return code, out.getvalue()


def test_golden_inputs_are_the_named_sets():
    eng = Engine()
    stage2 = escalate(escalate(geo(2, 1, 0, 0), eng), eng)
    assert sorted(GOLDEN) == sorted([
        "geo(2,1,0,0)",
        "ap(2,0)",
        "geo(2,3,0,0) | geo(2,3,1,0)",
        "ap(6,1) | ap(4,3) | {1,7}",
        "geo(4,3,5,2) | ap(8,3) | {0}",
        repr(stage2),
    ])
    assert all(sorted(modes) == sorted(COMMANDS) for modes in GOLDEN.values())


UNKNOWN4 = "geo(2,9,0,0) | geo(2,9,1,0) | geo(2,9,3,0) | geo(2,9,4,0)"

REPORTS = {
    "unknown_text": (
        ["classify", UNKNOWN4, "--max-nodes", "3", "--no-timing"],
        4,
        f"input: {UNKNOWN4}\nset: {UNKNOWN4}\nverdict: unknown\n"
        "depth_reached: 2\nnodes_used: 4\n",
        "",
    ),
    "classify_parse_error": (
        ["classify", "geo(2,1,0", "--no-timing"],
        2,
        "",
        "parse error: expected ',', found 'end of input'\n  geo(2,1,0\n           ^\n",
    ),
    "tree_parse_error": (
        ["tree", "ap(2,", "--depth", "1"],
        2,
        "",
        "parse error: expected an integer, found 'end of input'\n  ap(2,\n       ^\n",
    ),
    "config_error": (
        ["classify", "{1}", "--base", "1", "--no-timing"],
        2,
        "",
        "error: session base must be >= 2, got 1\n",
    ),
    "oracle_z5": (
        ["oracle", "--group", "z5", "--t", "1", "--out", "."],
        0,
        "group: Z/5\nsize_bound: 1\nrows: 32\nmax_level: 3\nbottom_count: 1\n"
        "csv: ./oracle_z5_t1.csv\njson: ./oracle_z5_t1.json\n"
        "cross_check: Z/5 with size bound 1: 32 subsets, agree\n",
        "",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes_match_golden(name, monkeypatch, tmp_path):
    """stdout and stderr byte for byte, run from an empty directory."""
    argv, *expected = REPORTS[name]
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert [code, out.getvalue(), err.getvalue()] == expected


@pytest.mark.parametrize("mode", sorted(COMMANDS))
@pytest.mark.parametrize("expr", sorted(GOLDEN))
def test_cli_bytes_match_golden(expr, mode):
    command, *flags = COMMANDS[mode]
    code, out = run_cli(command, expr, *flags)
    assert [code, out] == GOLDEN[expr][mode]


def test_finite_group_tree_printers_match_golden():
    """{0,1,2} and {0,1,3} are fully expanded, at rank 2; the whole group
    is bottom, so every node at depth 2 is truncated."""
    eng = Engine(FiniteGroupUniverse(SizeAtMost(GroupDescriptor.cyclic(5), 1)))
    assert sorted(FINITE_GOLDEN, key=int) == ["7", "11", "31"]
    for mask, printed in FINITE_GOLDEN.items():
        dump = eng.tree_dump(int(mask), depth=2)
        assert "\n".join(_tree_text(dump)) == printed["text"]
        assert tree_dot(dump) == printed["dot"]
