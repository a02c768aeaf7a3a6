"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each run must succeed, pass its output checks, and emit exactly the
metrics ``BENCHMARK.json`` declares for its mode, each with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_metric_tables_match_benchmark_json():
    assert END_TO_END == _declared("end_to_end")
    assert PER_LAYER == _declared("per_layer")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", trace, "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "chip-signoff", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
