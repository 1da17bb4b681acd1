"""A fixed corpus of adversarial inputs, each through `thinlab classify`.

Every row must finish within its stated CPU-time limit, generous against
what it takes today, with a definite verdict (exit 0 or 3, and a replayed
witness for exit 3) or a clean refusal (exit 2 with the position of the
error).  The rows cover a long finite part with a period branch, huge
offsets, start indices and moduli, moduli whose lcm is just under or
past PERIOD_ENUM_LIMIT, deep nesting, long runs of signs, and long
chains of one operator.
"""

import contextlib
import io
import json
import time

import pytest

from thinlab.cli import main

D = 10**4000  # a 4001-digit offset

# 100 nested parentheses, each holding '&', '+' and '*': "(ap(1,0) & " is
# 11 characters, so the innermost '(' is at position 1089.
NESTED_OPERATORS = "{1}"
for _ in range(100):
    NESTED_OPERATORS = f"(ap(1,0) & {NESTED_OPERATORS} + 1 * 1)"

# (id, expression, exit code, fields the JSON report must hold, CPU seconds)
CORPUS = [
    ("period_branch_100000",
     "{" + ",".join(str(7 * i) for i in range(100000)) + "} | ap(7,1)",
     3, {"verdict": "not_in_thin_completion"}, 10.0),
    ("offsets_4001_digits_2_100_apart",
     f"geo(2,1,{D},0) | geo(2,1,{D + 2**100},0)",
     0, {"verdict": "exact_level", "level": 2}, 2.0),
    ("start_index_14000", "geo(2,1,0,14000)",
     0, {"verdict": "exact_level", "level": 1, "set": f"geo(2,{2**14000},0,0)"}, 2.0),
    ("start_index_3000000", "geo(2,1,0,0) | geo(2,1,0,3000000)",
     0, {"verdict": "exact_level", "level": 1, "set": "geo(2,1,0,0)"}, 2.0),
    ("modulus_2_40", "ap(1099511627776,3) | {5}",
     3, {"verdict": "not_in_thin_completion"}, 2.0),
    ("lcm_just_under_the_limit", "ap(1000,1) | ap(999,2)",
     3, {"verdict": "not_in_thin_completion"}, 5.0),
    ("lcm_past_the_limit", "ap(1000,1) | ap(1001,2)",
     2, {"position": 11}, 2.0),
    ("lcm_past_the_limit_of_z", "ap(1,0) | ap(1000003,0)",
     3, {"set": "ap(1,0)"}, 2.0),
    ("lcm_past_the_limit_of_two_halves", "ap(2,0) | ap(2,1) | ap(999983,0)",
     3, {"set": "ap(1,0)"}, 2.0),
    ("parentheses_100", "(" * 100 + "{1}" + ")" * 100,
     0, {"verdict": "exact_level", "level": 0}, 2.0),
    ("parentheses_101", "(" * 101 + "{1}" + ")" * 101,
     2, {"error": "parentheses nested deeper than 100", "position": 100}, 2.0),
    ("minus_signs_3000", "{1}+" + "-" * 3000 + "1",
     0, {"verdict": "exact_level", "level": 0, "set": "{2}"}, 2.0),
    ("and_chain_20000", " & ".join(["ap(2,0)", "ap(4,0)"] * 10000),
     3, {"verdict": "not_in_thin_completion", "set": "ap(4,0)"}, 5.0),
    ("plus_chain_20000", "geo(2,1,0,0)" + " + 1" * 19999,
     0, {"verdict": "exact_level", "level": 1, "set": "geo(2,1,19999,0)"}, 5.0),
    ("times_chain_of_minus_ones", "geo(2,1,0,0)" + " * -1" * 20001,
     0, {"verdict": "exact_level", "level": 1, "set": "geo(2,-1,0,0)"}, 5.0),
    ("parentheses_100_with_operators", NESTED_OPERATORS,
     0, {"verdict": "exact_level", "level": 0, "set": "{101}"}, 2.0),
    ("parentheses_101_with_operators", f"({NESTED_OPERATORS} & ap(1,0))",
     2, {"error": "parentheses nested deeper than 100", "position": 1090}, 2.0),
]


@pytest.mark.parametrize(
    "expr, code, fields, limit",
    [row[1:] for row in CORPUS],
    ids=[row[0] for row in CORPUS],
)
def test_corpus_row_is_definite_within_its_limit(expr, code, fields, limit):
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main(["classify", expr, "--format", "json", "--no-timing"])
    assert time.process_time() - start < limit
    assert (got, err.getvalue()) == (code, "")
    report = json.loads(out.getvalue())
    assert report["input"] == expr
    assert {k: report.get(k) for k in fields} == fields
    if code == 3:
        assert report["witness"]["replay_ok"] is True
