import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

from thinlab.cli import main
from thinlab.dsl import caret_diagram, parse_set
from thinlab.engine import MAX_DUMP_DEPTH, Engine

LEVEL2 = "3*geo(2,1,0,0) | (3*geo(2,1,0,0)+1)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_text_level(capsys):
    code, out, err = run(capsys, "classify", "geo(2,1,0,0)", "--no-timing")
    assert code == 0 and err == ""
    assert "verdict: exact_level" in out
    assert "level: 1" in out
    assert "set: geo(2,1,0,0)" in out
    assert "time_ms" not in out


def test_classify_reports_canonical_set(capsys):
    code, out, _ = run(capsys, "classify", "{1} | geo(2,1,0,1)", "--no-timing")
    assert code == 0
    assert "set: geo(2,1,0,0)" in out


def test_classify_json(capsys):
    code, out, _ = run(
        capsys, "classify", LEVEL2, "--format", "json", "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "input": LEVEL2,
        "set": "geo(2,3,0,0) | geo(2,3,1,0)",
        "verdict": "exact_level",
        "level": 2,
    }


def test_classify_timing_field_present_by_default(capsys):
    code, out, _ = run(capsys, "classify", "{1}", "--format", "json")
    assert code == 0
    assert isinstance(json.loads(out)["time_ms"], float)


def test_classify_text_prints_its_time_by_default(capsys):
    code, out, _ = run(capsys, "classify", "geo(2,1,0,0)")
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("time_ms: ")]
    assert float(line.removeprefix("time_ms: ")) >= 0


def test_classify_tails_against_a_period_past_the_limit(capsys):
    """Tails are reduced against a periodic part only up to period
    PERIOD_ENUM_LIMIT; past it the expression is a parse error at the '|'
    that joins them."""
    text = "geo(2,1,0,0) | ap(1000003,0)"
    code, out, err = run(capsys, "classify", text, "--no-timing")
    assert (code, out) == (2, "")
    assert err == (
        "parse error: geometric terms cannot be reduced against a periodic "
        "part with period 1000003 (limit 1000000)\n" + caret_diagram(text, 13) + "\n"
    )


@pytest.mark.parametrize("text", ["ap(1,0) | ap(1000003,0)", "ap(2,0) | ap(2,1) | ap(999983,0)"])
def test_classify_a_union_covering_z_past_the_lcm_cap(capsys, text):
    """The lcm of the moduli passes PERIOD_ENUM_LIMIT, but one modulus
    holds every residue, so the set is Z and a bottom."""
    code, out, err = run(capsys, "classify", text, "--no-timing")
    assert (code, err) == (3, "")
    assert "set: ap(1,0)\n" in out and "witness_replay: ok\n" in out


def test_classify_bottom_exit_and_witness(capsys):
    code, out, _ = run(capsys, "classify", "ap(2,0)", "--no-timing")
    assert code == 3
    assert "verdict: not_in_thin_completion" in out
    assert "witness_path: (empty)" in out
    assert "witness_repeat_shift: 2" in out
    assert "witness_translation: 0" in out
    assert "witness_replay: ok" in out


def test_classify_bottom_json(capsys):
    code, out, _ = run(
        capsys, "classify", "ap(1,0)", "--format", "json", "--no-timing"
    )
    assert code == 3
    w = json.loads(out)["witness"]
    assert w == {
        "path": [],
        "ancestor_index": 0,
        "repeat_shift": 1,
        "translation": 0,
        "replay_ok": True,
    }


def test_classify_unknown_exit(capsys):
    code, out, _ = run(
        capsys, "classify", LEVEL2, "--max-nodes", "1", "--no-timing"
    )
    assert code == 4
    assert "verdict: unknown" in out
    assert "nodes_used:" in out


def test_classify_parse_error(capsys):
    code, out, err = run(capsys, "classify", "geo(2,1", "--no-timing")
    assert code == 2 and out == ""
    assert "parse error:" in err
    assert "^" in err
    code, out, err = run(capsys, "classify", "geo(2,1", "--format", "json")
    assert code == 2 and err == ""
    assert json.loads(out) == {
        "error": "expected ',', found 'end of input'", "input": "geo(2,1", "position": 7,
    }


def test_classify_config_error_budget(capsys):
    code, _, err = run(capsys, "classify", "{1}", "--max-nodes", "0")
    assert code == 2
    assert "error:" in err


def test_classify_unprintable_set(capsys):
    """A set whose integers exceed the str-digit limit is an error of its
    expression: JSON on stdout under --format json, `error:` on stderr in
    text mode."""
    code, out, err = run(capsys, "classify", "geo(2,1,0,100000)", "--format", "json",
                         "--no-timing")
    assert code == 2 and err == ""
    report = json.loads(out)
    assert set(report) == {"error", "input"} and "digits" in report["error"]
    assert report["input"] == "geo(2,1,0,100000)"
    code, out, err = run(capsys, "classify", "geo(2,1,0,100000)", "--no-timing")
    assert code == 2 and out == ""
    assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("command", [
    ("classify", "EXPR", "--no-timing"),
    ("classify", "EXPR", "--no-timing", "--format", "json"),
    ("tree", "EXPR", "--format", "json"),
])
def test_huge_start_index_reports_at_once(command):
    """geo(2,1,0,10**12) gets a verdict or a tree, but its printed
    coefficient 2**(10**12) has far more digits than str() allows.  The
    report is the one geo(2,1,0,15000) gives, with exit 2, and it comes at
    once because the power is never built.  The child's address space is
    capped, so a regression fails here instead of filling memory."""

    def report(n0: int) -> tuple[int, str, str]:
        expr = f"geo(2,1,0,{n0})"
        proc = subprocess.run(
            [sys.executable, "-m", "thinlab.cli", *(expr if a == "EXPR" else a for a in command)],
            capture_output=True, text=True, timeout=10, check=False,
            preexec_fn=_limit_address_space,
        )
        return proc.returncode, proc.stdout.replace(expr, "EXPR"), proc.stderr

    huge = report(10**12)
    assert huge == report(15000)
    assert huge[0] == 2 and "Exceeds the limit (4300 digits)" in huge[1] + huge[2]


@pytest.mark.parametrize("coeff, level", [(3, 1), (1, 2)])
def test_tails_with_offsets_far_apart_classify_at_once(capsys, coeff, level):
    """Two tails whose offsets differ by D = 2**4000 (1205 digits) can
    meet only where the smaller exponent is 4000, the 2-adic valuation of
    D, or where both exponents agree, so their intersection tests those
    exponents and does not walk the 4000 below."""
    start = time.process_time()
    code, out, _ = run(capsys, "classify", f"geo(2,1,0,0) | geo(2,{coeff},{2**4000},0)",
                       "--no-timing")
    assert time.process_time() - start < 5
    assert code == 0 and out.endswith(f"verdict: exact_level\nlevel: {level}\n")


def test_classify_bad_base(capsys):
    """A base the parser rejects: `error:` on stderr in text mode, the
    JSON object in JSON mode."""
    message = "session base must be >= 2, got 1"
    code, out, err = run(capsys, "classify", "{1}", "--base", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run(capsys, "classify", "{1}", "--base", "1", "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {"error": message, "input": "{1}"}


@pytest.mark.parametrize("argv", [
    ["classify", "{1}"],
    ["classify", "{1}", "--format", "json"],
    ["classify", "--batch"],
    ["oracle", "--group", "z3"],
    ["selftest", "--trials", "5"],
])
def test_bad_env_budget_is_a_config_error(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setenv("THINLAB_BUDGET_NODES", "x")
    feed(monkeypatch, "{1}\n")
    if argv[0] == "oracle":
        argv = argv + ["--out", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: invalid literal for int() with base 10: 'x'\n"


def test_classify_requires_expression(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify"])
    assert info.value.code == 2


def test_classify_base_flag(capsys):
    code, out, _ = run(
        capsys, "classify", "geo(9,1,0,0)", "--base", "3", "--no-timing"
    )
    assert code == 0
    assert "level: 1" in out


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("THINLAB_BUDGET_NODES", "1")
    code, out, _ = run(capsys, "classify", LEVEL2, "--no-timing")
    assert code == 4
    # explicit flag beats the environment
    monkeypatch.setenv("THINLAB_BUDGET_NODES", "1")
    code, out, _ = run(
        capsys, "classify", LEVEL2, "--max-nodes", "100000", "--no-timing"
    )
    assert code == 0


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def feed(monkeypatch, text: str) -> None:
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_batch_json_lines(capsys, monkeypatch):
    feed(monkeypatch, "geo(2,1,0,0)\n\n{4,5}\nap(2,0)\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    assert code == 3  # first non-zero verdict wins
    lines = out.splitlines()
    assert len(lines) == 3  # blank line skipped
    reports = [json.loads(line) for line in lines]
    assert [r["input"] for r in reports] == ["geo(2,1,0,0)", "{4,5}", "ap(2,0)"]
    assert reports[0]["level"] == 1
    assert reports[1]["level"] == 0
    assert reports[2]["verdict"] == "not_in_thin_completion"
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_batch_inline_errors_keep_going(capsys, monkeypatch):
    feed(monkeypatch, "geo(2,1\n{1}\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    assert code == 2
    first, second = (json.loads(s) for s in out.splitlines())
    assert first["error"] and first["position"] == 7
    assert second["level"] == 0


def test_batch_unprintable_line_keeps_going(capsys, monkeypatch):
    """A set whose integers exceed the str-digit limit fails its own line,
    not the stream."""
    feed(monkeypatch, "geo(2,1,0,15000)\n{1}\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    assert code == 2
    first, second = (json.loads(s) for s in out.splitlines())
    assert first["input"] == "geo(2,1,0,15000)"
    assert "digits" in first["error"] and set(first) == {"error", "input"}
    assert second["input"] == "{1}" and second["level"] == 0


def test_batch_all_ok_exit_zero(capsys, monkeypatch):
    feed(monkeypatch, "{1}\ngeo(2,1,0,0)\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    assert code == 0


def test_batch_lines_are_independent(capsys, monkeypatch):
    """Each batch line is classified on a fresh engine: escalation stage 6
    fed twice under a starved budget gives two identical unknown lines, and
    every batch line equals that expression's own JSON output."""
    stage6 = escalation_stage_text(6)
    feed(monkeypatch, f"{stage6}\n{stage6}\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing", "--max-nodes", "600")
    assert code == 4
    first, second = out.splitlines()
    assert first == second and json.loads(first)["verdict"] == "unknown"

    exprs = [
        "geo(2,1,0,0)", LEVEL2, "{4,5}", "ap(2,0)", "geo(2,1", stage6, LEVEL2,
        "geo(2,1,0,15000)",
    ]
    feed(monkeypatch, "\n".join(exprs) + "\n")
    _, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    batch = out.splitlines()
    assert len(batch) == len(exprs)
    for text, line in zip(exprs, batch):
        _, own, _ = run(capsys, "classify", text, "--format", "json", "--no-timing")
        assert line == own.rstrip("\n")


DEEP_PARENS = "(" * 200 + "{1}" + ")" * 200


def test_deep_nesting_is_a_parse_error_in_every_mode(capsys, monkeypatch):
    """Parentheses past MAX_PAREN_DEPTH are a parse error at the '(' that
    crosses the bound, exit 2, in text, in JSON and under --batch, where
    the stream goes on; a long run of signs parses without recursing."""
    code, out, err = run(capsys, "classify", DEEP_PARENS, "--no-timing")
    assert (code, out) == (2, "")
    assert err == "parse error: parentheses nested deeper than 100\n" + caret_diagram(
        DEEP_PARENS, 100) + "\n"
    signs = "{1}+" + "-" * 3001 + "1"
    feed(monkeypatch, f"{DEEP_PARENS}\n{signs}\n{{1}}\n")
    code, out, _ = run(capsys, "classify", "--batch", "--no-timing")
    assert code == 2
    deep, signed, last = (json.loads(s) for s in out.splitlines())
    assert deep == {"error": "parentheses nested deeper than 100",
                    "input": DEEP_PARENS, "position": 100}
    assert signed["set"] == "{0}" and last["level"] == 0


# ---------------------------------------------------------------------------
# tree
# ---------------------------------------------------------------------------


def test_tree_text(capsys):
    code, out, _ = run(capsys, "tree", LEVEL2, "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("geo(2,3,0,0) | geo(2,3,1,0)")
    assert "[rank 2]" in lines[0]
    assert any(line.strip().startswith("g=+1:") for line in lines)
    assert any(line.strip().startswith("g=-1:") for line in lines)


def test_tree_text_of_a_set_in_the_family(capsys):
    code, out, err = run(capsys, "tree", "{1,2}")
    assert (code, out, err) == (0, "{1,2}  [in family, rank 0]\n", "")


def test_tree_text_progression_classes(capsys):
    code, out, _ = run(capsys, "tree", "ap(2,0)", "--depth", "1")
    assert code == 0
    assert "class g = 0 (mod 2), representative g=+2, uniform" in out


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", LEVEL2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["set"] == "geo(2,3,0,0) | geo(2,3,1,0)"
    assert data["rank"] == 2


def test_tree_dot(capsys):
    code, out, _ = run(capsys, "tree", "ap(2,0)", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph derivation_tree")


def test_tree_parse_error(capsys):
    code, _, err = run(capsys, "tree", "waffles")
    assert code == 2
    assert "parse error:" in err


def test_tree_deep_nesting_is_a_parse_error(capsys):
    code, out, err = run(capsys, "tree", DEEP_PARENS)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: parentheses nested deeper than 100\n")
    code, out, err = run(capsys, "tree", DEEP_PARENS, "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out)["position"] == 100


def test_tree_json_reports_errors_of_the_expression(capsys):
    """Under --format json an error of the expression is the JSON object
    classify prints; text and DOT output, and a bad --depth, keep stderr."""
    code, out, err = run(capsys, "tree", "geo(2,1", "--format", "json")
    assert (code, err) == (2, "")
    assert json.loads(out) == {
        "error": "expected ',', found 'end of input'", "input": "geo(2,1", "position": 7,
    }
    code, out, err = run(capsys, "tree", "geo(2,1,0,100000)", "--format", "json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert set(report) == {"error", "input"} and "digits" in report["error"]
    for fmt in ("text", "dot"):
        code, out, err = run(capsys, "tree", "geo(2,1,0,100000)", "--format", fmt)
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit") and err.count("\n") == 1
    code, out, err = run(capsys, "tree", "{1}", "--depth", "-1", "--format", "json")
    assert (code, out, err) == (2, "", "error: dump depth must be >= 0\n")


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
def test_tree_prints_at_the_depth_bound_and_refuses_past_it(capsys, fmt):
    """Every format prints a dump of MAX_DUMP_DEPTH levels; one level more
    is one error line of the command and exit 2, with no traceback."""
    args = ("tree", "ap(2,0)", "--format", fmt, "--depth")
    code, out, err = run(capsys, *args, str(MAX_DUMP_DEPTH))
    assert (code, err) == (0, "")
    if fmt == "json":
        node, depth = json.loads(out), 0
        while node["children"]:
            (child,) = node["children"]
            node, depth = child["node"], depth + 1
        assert depth == MAX_DUMP_DEPTH and node["truncated"]
    elif fmt == "dot":
        assert out.count('[label="g=2"]') == MAX_DUMP_DEPTH
    else:
        assert out.count("g=+2: ap(2,0)") == MAX_DUMP_DEPTH
    code, out, err = run(capsys, *args, str(MAX_DUMP_DEPTH + 1))
    assert (code, out, err) == (2, "", f"error: dump depth must be <= {MAX_DUMP_DEPTH}\n")


def test_tree_json_is_one_line_linear_in_the_depth(capsys):
    """The JSON dump is the tree's to_dict on one line.  With an indent a
    line at depth k carried about 6k spaces, and the depth-200 dump of
    ap(2,0) was 18.8 MB; on one line it is about 100 KB."""
    code, out, err = run(capsys, "tree", "ap(2,0)", "--format", "json",
                         "--depth", str(MAX_DUMP_DEPTH))
    assert (code, err) == (0, "")
    assert len(out.encode()) <= 200_000 and out.count("\n") == 1
    expect = Engine().tree_dump(parse_set("ap(2,0)"), depth=MAX_DUMP_DEPTH).to_dict()
    assert json.loads(out) == expect


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_writes_tables(capsys, tmp_path):
    out_dir = str(tmp_path / "tables")
    code, out, _ = run(
        capsys, "oracle", "--group", "z5", "--t", "1", "--out", out_dir
    )
    assert code == 0
    assert "group: Z/5" in out
    assert "rows: 32" in out
    assert "max_level: 3" in out
    assert "bottom_count: 1" in out
    assert "cross_check: Z/5 with size bound 1: 32 subsets, agree" in out
    csv_path = os.path.join(out_dir, "oracle_z5_t1.csv")
    json_path = os.path.join(out_dir, "oracle_z5_t1.json")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "subset_bitmask,level"
    assert len(lines) == 33
    with open(json_path) as fh:
        data = json.loads(fh.read())
    assert data["group"] == "Z/5" and len(data["levels"]) == 32


def test_oracle_on_a_boolean_group(capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "--group", "b2", "--t", "1", "--out", str(tmp_path))
    assert code == 0
    assert "group: (Z/2)^2" in out and "rows: 16" in out
    assert "cross_check: (Z/2)^2 with size bound 1: 16 subsets, agree" in out
    assert (tmp_path / "oracle_b2_t1.csv").read_text().count("\n") == 17


@pytest.mark.parametrize("name", ["z", "bx"])
def test_oracle_group_without_an_order(capsys, tmp_path, name):
    code, out, err = run(capsys, "oracle", "--group", name, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: unknown group '{name}': expected zN or bD\n"


@pytest.mark.parametrize("name", ["z²", "b²", "z1²"])
def test_oracle_group_with_superscript_digits_is_unknown(capsys, tmp_path, name):
    """'²' passes str.isdigit but is no decimal digit that int() reads."""
    code, out, err = run(capsys, "oracle", "--group", name, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: unknown group '{name}': expected zN or bD\n"


@pytest.mark.parametrize("name, message", [
    ("z" + "9" * 5000, "subset lattice 2^<16610-bit int> exceeds 2^24"),
    ("b" + "9" * 5000, "boolean power needs exponent <= 24, got <16610-bit int>"),
    ("q" + "9" * 5000, "unknown group 'q99999999999...9999999999999': expected zN or bD"),
], ids=["z_5001_chars", "b_5001_chars", "q_5001_chars"])
def test_oracle_group_errors_are_short(capsys, tmp_path, name, message):
    """A group number past the interpreter's int-to-str digit limit is
    read and named by its bit length, and an unknown name is cut short:
    one line of error, under 200 characters."""
    code, out, err = run(capsys, "oracle", "--group", name, "--out", str(tmp_path))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert len(err) < 200


def test_oracle_reads_the_budget_before_building_the_table(capsys, monkeypatch, tmp_path):
    """A bad THINLAB_BUDGET_NODES fails before any table is built; a bad
    group name is still the error reported first."""
    calls = []
    monkeypatch.setattr("thinlab.cli.build_table", lambda *args: calls.append(args))
    monkeypatch.setenv("THINLAB_BUDGET_NODES", "x")
    code, out, err = run(capsys, "oracle", "--group", "z16", "--t", "1", "--out", str(tmp_path))
    assert (code, out) == (2, "") and calls == []
    assert err == "error: invalid literal for int() with base 10: 'x'\n"
    code, _, err = run(capsys, "oracle", "--group", "q3", "--out", str(tmp_path))
    assert code == 2 and calls == []
    assert err == "error: unknown group 'q3': expected zN or bD\n"


def test_oracle_rejects_oversized_group(capsys, tmp_path):
    code, _, err = run(
        capsys, "oracle", "--group", "z30", "--out", str(tmp_path)
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "d", ["25", "100000000", "1000000000", "9" * 4000], ids=lambda d: f"{len(d)}_digits"
)
def test_oracle_refuses_a_boolean_power_past_max_order(capsys, tmp_path, d):
    """The exponent is bounded before the group is built, so a huge one
    allocates nothing and is refused at once."""
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "--group", "b" + d, "--t", "1", "--out", str(tmp_path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: boolean power needs exponent <= 24, got {d}\n"


def test_oracle_on_b1_names_the_group_z2(capsys, tmp_path):
    """(Z/2)^1 is the group Z/2, and is named so."""
    code, out, _ = run(capsys, "oracle", "--group", "b1", "--t", "0", "--out", str(tmp_path))
    assert code == 0
    assert out.startswith("group: Z/2\n")
    assert "cross_check: Z/2 with size bound 0: 4 subsets, agree" in out
    assert json.loads((tmp_path / "oracle_b1_t0.json").read_text())["group"] == "Z/2"


def test_oracle_rejects_unknown_group(capsys, tmp_path):
    code, _, err = run(
        capsys, "oracle", "--group", "q8", "--out", str(tmp_path)
    )
    assert code == 2


def test_oracle_reports_an_unwritable_out_path(capsys, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    code, out, err = run(capsys, "oracle", "--group", "z3", "--out", str(blocker))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker) in err


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


SELFTEST_SEED7 = """\
thinlab selftest
seed: 7
trials: 40
budget: depth=32 nodes=100000

[1/9] finite-oracle-agreement .............. PASS (1320 checks)
[2/9] hierarchy-escalation ................. PASS (10 checks)
[3/9] bottom-certificates .................. PASS (6 checks)
[4/9] subset-sum-image-bounds .............. PASS (7923 checks)
[5/9] union-level-bounds ................... PASS (40 checks)
[6/9] boolean-non-additivity ............... PASS (984887 checks)
[7/9] level-invariance ..................... PASS (120 checks)
[8/9] symbolic-window-soundness ............ PASS (80 checks)
[9/9] engine-limits ........................ PASS (8 checks)

result: PASS (9 suites, 994394 checks, 0 failures, 0 unknown)
"""

SELFTEST_STARVED = """\
thinlab selftest
seed: 0
trials: 5
budget: depth=32 nodes=1

[1/9] finite-oracle-agreement .............. UNKNOWN (1320 checks, 742 unknown)
[2/9] hierarchy-escalation ................. UNKNOWN (3 checks, 1 unknown)
[3/9] bottom-certificates .................. PASS (6 checks)
[4/9] subset-sum-image-bounds .............. PASS (7888 checks)
[5/9] union-level-bounds ................... UNKNOWN (5 checks, 2 unknown)
[6/9] boolean-non-additivity ............... PASS (984887 checks)
[7/9] level-invariance ..................... PASS (15 checks)
[8/9] symbolic-window-soundness ............ PASS (10 checks)
[9/9] engine-limits ........................ PASS (8 checks)

result: PASS (9 suites, 994142 checks, 0 failures, 745 unknown)
"""


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "40", "--seed", "7")
    assert (code, out) == (0, SELFTEST_SEED7)


def test_selftest_starved_budget_still_passes(capsys):
    code, out, _ = run(
        capsys, "selftest", "--trials", "5", "--max-nodes", "1"
    )
    assert (code, out) == (0, SELFTEST_STARVED)


def test_selftest_reports_broken_checks(capsys, monkeypatch):
    """A broken check prints FAIL on its suite line with at most five
    notes, and the run ends FAIL with exit code 1.  Three suites are broken
    by hand: every subset-sum count is 0, no witness replays, and each
    oracle cross-check reports one level mismatch."""
    import thinlab.selftest
    from thinlab.engine import Engine, ExactLevel
    from thinlab.oracle import CrossCheckReport

    monkeypatch.setattr(thinlab.selftest, "_subset_sum_count", lambda vec: 0)
    monkeypatch.setattr(Engine, "replay_witness", lambda self, a, w: False)
    monkeypatch.setattr(
        thinlab.selftest, "cross_check",
        lambda table, budget: CrossCheckReport(
            table.group, table.family.t, 4, ((5, 1, ExactLevel(2), 2),)
        ),
    )
    code, out, _ = run(capsys, "selftest", "--trials", "5")
    lines = out.splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("[")] == [
        "[1/9] finite-oracle-agreement .............. FAIL (60 checks)",
        "[2/9] hierarchy-escalation ................. PASS (10 checks)",
        "[3/9] bottom-certificates .................. FAIL (6 checks)",
        "[4/9] subset-sum-image-bounds .............. FAIL (7888 checks)",
        "[5/9] union-level-bounds ................... PASS (5 checks)",
        "[6/9] boolean-non-additivity ............... PASS (984887 checks)",
        "[7/9] level-invariance ..................... PASS (15 checks)",
        "[8/9] symbolic-window-soundness ............ PASS (10 checks)",
        "[9/9] engine-limits ........................ PASS (8 checks)",
    ]
    notes = [line for line in lines if line.startswith("      ! ")]
    assert notes == [
        *(f"      ! {g} t={t} mask=5: table 1, engine ExactLevel(level=2), rank 2"
          for g, t in (("z3", 0), ("z3", 1), ("z3", 2), ("z5", 0), ("z5", 1))),
        "      ! ap(2,0): witness replay failed",
        "      ! ap(1,0): witness replay failed",
        "      ! ap(2,1): witness replay failed",
        *(f"      ! n=2: image too small for (-3, {e})" for e in (-3, -2, -1, 1, 2)),
    ]
    assert lines[-1] == (
        "result: FAIL (9 suites, 992889 checks, 7901 failures, 0 unknown)"
    )


# ---------------------------------------------------------------------------
# determinism (end-to-end through the installed entry point)
# ---------------------------------------------------------------------------


def module_run(*args: str) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "thinlab.cli", *args],
        capture_output=True,
        check=False,
    )
    return proc.stdout


def test_output_bytes_deterministic():
    for args in (
        ("classify", LEVEL2, "--format", "json", "--no-timing"),
        ("tree", "ap(2,0)", "--format", "dot"),
        ("selftest", "--trials", "25"),
    ):
        assert module_run(*args) == module_run(*args)


def escalation_stage_text(level: int) -> str:
    from thinlab.bounds import escalate
    from thinlab.dsl import format_set
    from thinlab.engine import Engine
    from thinlab.symbolic import geo

    engine = Engine()
    stage = geo(2, 1, 0, 0)
    for _ in range(level - 1):
        stage = escalate(stage, engine)
    return format_set(stage)


def test_classify_escalation_stage_8_in_seconds():
    """Stage 8 of the escalation chain (128 tails) parses with one
    canonicalization and classifies by the cube reduction in milliseconds."""
    proc = subprocess.run(
        [sys.executable, "-m", "thinlab.cli", "classify", escalation_stage_text(8),
         "--no-timing"],
        capture_output=True, text=True, timeout=10, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "level: 8\n" in proc.stdout


def test_classify_escalation_stage_10_with_a_larger_budget():
    """Stage 10 (512 tails) parses with one canonicalization and needs
    about 262 000 nodes, more than the default budget."""
    proc = subprocess.run(
        [sys.executable, "-m", "thinlab.cli", "classify", escalation_stage_text(10),
         "--no-timing", "--max-nodes", "1000000"],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "level: 10\n" in proc.stdout
