"""Smoke test of the benchmark at tiny size.

Every workload, untraced and traced, must exit cleanly, pass its own output
checks and report exactly the metrics BENCHMARK.json names, with their
units.  Run with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({m["name"]: m["unit"] for m in wanted}
            == {name: m["unit"] for name, m in result["metrics"].items()})
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        own = sum(v for name, v in values.items()
                  if name.endswith((".ms", ".self_ms"))
                  and not name.startswith(("trace.", "evalio.")))
        assert own == pytest.approx(values["trace.window_ms"], rel=1e-9)


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, "train", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
