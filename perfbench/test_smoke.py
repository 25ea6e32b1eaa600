"""Smoke test of the benchmark itself: a minimal-length run of each workload.

Run from the repository root (about three minutes on two cores):

    python3 -m pytest -q perfbench/test_smoke.py

Each workload, the ones BENCHMARK.json lists and fit_triple, runs once
untraced and once traced with ``--seconds 1``, which still completes one
operation per phase. The test checks that every metric
BENCHMARK.json names is emitted with its unit, that the full record carries
the workload's timing series and the fail rate, and that no check failed.
It also checks that the benchmark refuses to report from a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SERIES = {
    "fit_triple": {"fit_s.no_propensity", "fit_s.true_propensity",
                   "fit_s.estimated_propensity"},
    "grid_short": {"fit_s.no_propensity", "fit_s.true_propensity",
                   "fit_s.estimated_propensity", "run_s", "report_s"},
    "report_full": {"report_s"},
}


def _run(cwd: Path, workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]] + ["fit_triple"])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)

    record = json.loads((ROOT / "perfbench" / "out" /
                         f"{workload}-seed3-trace{trace}.json").read_text())
    assert SERIES[workload] <= set(record["timings"])
    assert record["fail_rate"] == 0.0
    assert record["problems"] == []


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "work",
                                                      "__pycache__"))
    proc = _run(tmp_path, "report_full", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
