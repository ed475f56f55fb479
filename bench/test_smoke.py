"""Smoke tests for the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed_cpu",
         "--seed", "3", "--seconds", "0.05", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_quick_suite_passes_every_check():
    proc = subprocess.run([sys.executable, "-m", "bench", "--quick"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "bench: all checks passed" in proc.stdout


def test_last_line_holds_every_metric_of_the_spec():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_one(ROOT, trace)
        assert proc.returncode == 0, proc.stderr[-3000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == {entry["name"]
                                          for entry in SPEC[section]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_one(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
