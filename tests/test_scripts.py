"""Smoke tests for scripts/: each runs in a subprocess, exits with the
expected code (0 unless it refuses its arguments), and what it writes
parses back to what it claims to be."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from thinlab.bounds import escalate
from thinlab.dsl import parse_set
from thinlab.engine import Engine, ExactLevel
from thinlab.symbolic import geo

ROOT = Path(__file__).resolve().parents[1]


def run_script(
    name: str, *args: str, cwd: Path, code: int = 0
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def test_escalation_demo_exports_replayable_stages(tmp_path):
    proc = run_script("escalation_demo.py", "--stages", "3", "--export", "chain.txt",
                      cwd=tmp_path)
    lines = (tmp_path / "chain.txt").read_text().splitlines()
    assert len(lines) == 3
    assert "wrote 3 expressions" in proc.stdout
    eng = Engine()
    stage = geo(2, 1, 0, 0)
    for level, line in enumerate(lines, 1):
        parsed = parse_set(line)
        assert parsed == stage
        assert repr(parsed) == line
        assert eng.classify(parsed) == ExactLevel(level)
        stage = escalate(stage, eng)


def test_oracle_sweep_tables_parse_and_agree(tmp_path):
    proc = run_script("oracle_sweep.py", "--groups", "z3", "--t", "1", "--out", "tab",
                      cwd=tmp_path)
    assert proc.stdout.splitlines()[-1] == "all tables agree with the engine"
    table = json.loads((tmp_path / "tab" / "oracle_z3_t1.json").read_text())
    assert (table["group"], table["size_bound"]) == ("Z/3", 1)
    assert len(table["levels"]) == 8
    with open(tmp_path / "tab" / "oracle_z3_t1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["subset_bitmask"]) for r in rows] == list(range(8))
    assert [int(r["level"]) for r in rows] == table["levels"]


def test_bounds_table_csv_parses(tmp_path):
    proc = run_script("bounds_table.py", "--ns", "1:3", "--out", "c.csv", cwd=tmp_path)
    text = (tmp_path / "c.csv").read_text()
    assert proc.stdout == text + "# wrote c.csv\n"
    rows = list(csv.DictReader(text.splitlines()))
    exact = [(int(r["n"]), int(r["value"])) for r in rows if r["kind"] == "c_exact"]
    assert [n for n, _ in exact] == [1, 2, 3]
    assert all(int(r["value"]) >= 0 for r in rows)
    assert {r["kind"] for r in rows} == {"c_exact", "c_upper_bound", "c_n_k"}


def test_c_table_csv(tmp_path):
    proc = run_script("bounds_table.py", "--ns", "2:3", "--pairs", "2:1,2:2", cwd=tmp_path)
    assert proc.stdout.splitlines() == [
        "kind,n,k,value",
        "c_exact,2,,2",
        "c_exact,3,,3",
        "c_upper_bound,2,,2",
        "c_upper_bound,3,,5",
        "c_n_k,2,1,1",
        "c_n_k,2,2,16",
    ]


def test_bounds_table_is_exact_past_64(tmp_path):
    proc = run_script("bounds_table.py", "--ns", "63:66", cwd=tmp_path)
    lines = proc.stdout.splitlines()
    assert [l for l in lines if l.startswith("c_exact,")] == [
        f"c_exact,{n},,{n}" for n in range(63, 67)
    ]
    assert "c_upper_bound,65,,4097" in lines


def test_bounds_table_reports_unprintable_and_refused_values(tmp_path):
    for pairs, message in (
        ("2:3", "error: Exceeds the limit"),  # 15 + 16**65536, 78 914 digits
        ("2:4", "error: recursion argument"),
        ("30:2", "error: recursion argument"),
    ):
        proc = run_script(
            "bounds_table.py", "--pairs", pairs, "--out", "c.csv",
            cwd=tmp_path, code=2,
        )
        assert proc.stdout == ""
        assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    proc = run_script("bounds_table.py", "--ns", "0", cwd=tmp_path, code=2)
    assert (proc.stdout, proc.stderr) == ("", "error: threshold must be >= 1, got 0\n")
    assert not (tmp_path / "c.csv").exists()


def test_bounds_table_reports_an_unwritable_out_path(tmp_path):
    (tmp_path / "afile").write_text("")
    target = str(tmp_path / "afile" / "x.csv")
    proc = run_script("bounds_table.py", "--out", target, cwd=tmp_path, code=2)
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert target in proc.stderr
