"""Byte-for-byte checks of the tracked figure data and the benchmark harness."""

import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def test_make_figure_data_reproduces_tracked_out(tmp_path):
    # The script writes next to its own location, so run a copy of it.
    for name in ("scripts", "scenarios"):
        shutil.copytree(ROOT / name, tmp_path / name)
    runpy.run_path(str(tmp_path / "scripts" / "make_figure_data.py"), run_name="__main__")
    tracked = sorted(path.name for path in (ROOT / "out").iterdir())
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == tracked
    for name in tracked:
        assert (tmp_path / "out" / name).read_bytes() == (ROOT / "out" / name).read_bytes(), name


def test_bench_smoke():
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "smoke ok" in result.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_smoke(tmp_path, workload):
    # The traced loop wraps the functions bench/tracer.py names, so renaming
    # one of them fails here.  No bytecode is written under bench/.
    out = tmp_path / f"{workload}.json"
    result = subprocess.run(
        [sys.executable, "bench/worker.py", "--workload", workload, "--smoke", "--trace", "1"]
        + ["--seconds", "1", "--out", str(out)],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    record = json.loads(out.read_text())
    assert record["golden_problems"] == []
    assert record["ops"] and record["traced_ops"]
    for op in record["ops"] + record["traced_ops"]:
        assert op["ok"], op["problems"]
