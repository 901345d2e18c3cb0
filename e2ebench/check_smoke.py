"""Smoke tests of the benchmark itself, on a tiny grid.

Run from the root of a checkout::

    python3 -m pytest e2ebench/check_smoke.py -q

The file name keeps it out of the repository's default test
collection: every case starts real daemon subprocesses.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "e2ebench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(workload, seed=7, trace=0, *extra, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc):
    return re.search(r"simulated-results digest \(round 0\): (\w+)",
                     proc.stdout).group(1)


def daemon_exits(proc):
    return [(int(pid), int(code)) for pid, code in re.findall(
        r"daemon pid (\d+) exit code (-?\d+)", proc.stderr)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_checks_and_digest(workload):
    first = run(workload)
    result = result_of(first)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    checks = int(re.search(r"correctness checks: (\d+), mismatches: 0",
                           first.stdout).group(1))
    assert checks > 0
    assert "error_rate           0.000000" in first.stdout
    # A fixed seed reproduces every simulated result of round 0.
    assert digest_of(run(workload)) == digest_of(first)
    assert all(code == 0 for _, code in daemon_exits(first))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run(workload, trace=1)
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    assert "tracing overhead per phase" in proc.stdout
    assert (ROOT / ".e2ebench_out" / f"spans-{workload}-seed7.jsonl").exists()


@pytest.mark.parametrize("workload", ["daemon_query", "fabric_sweep"])
def test_daemons_exit_cleanly_when_a_phase_raises(workload):
    proc = run(workload, 7, 0, "--fail-phase", "warm")
    assert proc.returncode != 0
    assert "InjectedFailure" in proc.stderr
    assert not proc.stdout.strip().endswith("}")
    exits = daemon_exits(proc)
    # Every set-up repetition's daemons, and the ones the rounds used.
    assert len(exits) >= 2
    for pid, code in exits:
        assert code == 0, proc.stderr
        assert not os.path.exists(f"/proc/{pid}")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("dse_sweep", cwd=tmp_path,
               script=tmp_path / "e2ebench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
