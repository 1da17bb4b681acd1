import io
import json
import os
import subprocess
import sys

import pytest

from thinlab.cli import main

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


def test_classify_config_error_budget(capsys):
    code, _, err = run(capsys, "classify", "{1}", "--max-nodes", "0")
    assert code == 2
    assert "error:" in err


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


def test_oracle_rejects_oversized_group(capsys, tmp_path):
    code, _, err = run(
        capsys, "oracle", "--group", "z30", "--out", str(tmp_path)
    )
    assert code == 2
    assert "error:" in err


def test_oracle_rejects_unknown_group(capsys, tmp_path):
    code, _, err = run(
        capsys, "oracle", "--group", "q8", "--out", str(tmp_path)
    )
    assert code == 2


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, "selftest", "--trials", "40", "--seed", "7")
    assert code == 0
    assert "result: PASS" in out
    assert out.count("PASS") >= 9


def test_selftest_starved_budget_still_passes(capsys):
    code, out, _ = run(
        capsys, "selftest", "--trials", "5", "--max-nodes", "1"
    )
    assert code == 0
    assert "result: PASS" in out
    assert "unknown" in out


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
