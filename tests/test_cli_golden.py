"""CLI output pinned byte for byte.

cli_golden.json maps each input expression to the exit code and stdout of
`classify EXPR --format json --no-timing` and of `tree EXPR --depth 3` in
text, JSON and DOT.  The strings were recorded once and are not derived
from the code under test, so any difference is a change of behaviour: a
verdict, witness, canonical form, branch order or printed byte.  The last
input is stage 2 of the escalation chain from geo(2,1,0,0), the set that
escalate() returns after two steps.

The CLI dumps trees only on Z, so finite_tree_golden.json pins the text and
DOT printers on Z/5 over SizeAtMost(1): it maps three masks to the printed
tree_dump(mask, depth=2), recorded the same way.
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
