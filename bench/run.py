#!/usr/bin/env python3
"""Benchmark runner for cryoqaoa.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --smoke

Run from the root of a checkout.  Each workload runs in a fresh child
process (``worker.py``) as a closed loop with one client and BLAS/OpenMP
pinned to one thread.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, measured untraced; ``--trace 1`` reports its per-layer
metrics from a traced run of the same op seeds.  Every metric is printed
by name with its unit, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with per-op fingerprints and the machine
description, is written under ``.bench_out/``.  ``--smoke`` runs every
workload at tiny sizes, traced and untraced, in a few seconds.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 8
DEADLINE_S = 170.0
REQUIRED = (
    "BENCHMARK.json",
    "src/cryoqaoa/cli.py",
    "scenarios/maxcut-ring8.scenario",
    "out/fig5a_staircase.csv",
    "out/fig5b_power.csv",
    "out/ring8_summary.txt",
    "out/ring8_trace.csv",
)
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child(args: list[str], out: Path, deadline: float) -> dict:
    """Run worker.py with ``args``; returns its JSON record."""
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args, "--out", str(out)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float]) -> dict | None:
    """The highest of p75..p99.9 with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(values) * (100 - p) / 100 >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=1000)[round(p * 10) - 1]}
    return None


def wall_stats(ops: list[dict]) -> dict:
    walls = [op["wall_s"] for op in ops]
    q1, median, q3 = quartiles(walls)
    return {
        "n": len(walls),
        "median": median,
        "q1": q1,
        "q3": q3,
        "tail": tail_percentile(walls),
        "min": min(walls),
    }


def end_to_end(record: dict, setup: list[float]) -> dict[str, float]:
    ops = record["ops"]
    attempted, failed = tally(record)
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "trials_per_s": sum(op["trials"] for op in ops) / sum(op["wall_s"] for op in ops),
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(setup),
        "pass_frac": (attempted - failed) / attempted,
    }


def per_layer(record: dict) -> tuple[dict[str, float], list[str]]:
    """Per-op medians of the traced layer values, plus consistency problems."""
    traced = record["traced_ops"]
    complete = [op for op in traced if op["layers"] is not None]
    if not complete:
        return {}, ["no traced op completed"]
    values = {
        name: statistics.median(op["layers"][name] for op in complete)
        for name in complete[0]["layers"]
    }
    untraced_wall = statistics.median(op["wall_s"] for op in record["ops"])
    traced_wall = statistics.median(op["wall_s"] for op in traced)
    overhead = traced_wall - untraced_wall
    gaps = [op["wall_s"] - op["layers"]["trace.attributed_s"] for op in complete]
    values.update(
        {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": overhead,
            "trace.unattributed_s": statistics.median(gaps),
            "cli.output_bytes": statistics.median(op["output_bytes"] for op in complete),
        }
    )
    # Self times must add up to the op wall time: never more, and less only
    # by what the harness itself spends around the CLI calls.
    problems = []
    allowed = max(abs(overhead), 1e-3)
    for op, gap in zip(complete, gaps):
        if not -1e-6 <= gap <= allowed:
            problems.append(f"op {op['seed']}: wall minus summed self times is {gap:.6f} s")
        if op["layers"]["trace.negative_self_spans"]:
            problems.append(f"op {op['seed']}: a span has negative self time")
        replayed = op["fingerprint"].get("audit_trials_checked")
        if replayed is not None and replayed != op["layers"]["audit.trials_checked"]:
            problems.append(f"op {op['seed']}: replayed audit trial count differs from check_case")
    return values, problems


def tally(record: dict) -> tuple[int, int]:
    """Attempted and failed ops; the once-per-run ring-8 golden check counts as one."""
    ops = record["ops"] + record.get("traced_ops", [])
    attempted = len(ops) + 1
    failed = sum(not op["ok"] for op in ops) + bool(record["golden_problems"])
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """Run one workload; returns the result line plus the full record."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    setup: list[float] = []

    def sample_setup(count: int) -> None:
        for _ in range(count):
            setup.append(child(["--setup-only"], OUT / f"{stem}.setup.json", deadline)["setup_s"])

    # A discarded first import lets Python cache the bytecode, as it is for
    # any user after the first run.  Half the samples come before the
    # workload and half after, so that their median spans the run.
    if not trace:
        sample_setup(1)
        setup.clear()
        sample_setup(SETUP_SAMPLES // 2)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(trace)] + (["--smoke"] if smoke else [])
    record = child(args, OUT / f"{stem}.json", deadline)
    if not trace:
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    problems = list(record["golden_problems"])
    for op in record["ops"] + record.get("traced_ops", []):
        problems += [f"op {op['seed']}: {p}" for p in op["problems"]]
    if trace:
        metrics, trace_problems = per_layer(record)
        problems += trace_problems
    else:
        metrics = end_to_end(record, setup)
        record["setup_samples_s"] = setup
    record["wall_stats"] = wall_stats(record["ops"])
    record["metrics"] = metrics
    record["problems"] = problems
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    attempted, failed = tally(record)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "record": record,
        "record_path": OUT / f"{stem}.json",
    }


def benchmark_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(result: dict, trace: int) -> dict:
    """Print the human-readable lines; returns the JSON result line."""
    record = result["record"]
    env = record["environment"]
    stats = record["wall_stats"]
    print(f"workload {record['workload']}  seed {env['workload_seed']}  trace {trace}")
    print(
        f"  python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
        f"cpu {env['cpu_model']}  commit {env['git_commit']}"
    )
    print(
        f"  untraced op wall: n={stats['n']} median={stats['median']:.4f} s "
        f"q1={stats['q1']:.4f} q3={stats['q3']:.4f} min={stats['min']:.4f} tail={stats['tail']}"
    )
    metrics = {}
    for spec in benchmark_metrics(trace):
        name, unit = spec["name"], spec["unit"]
        if name not in result["metrics"]:
            raise KeyError(f"benchmark produced no value for metric {name}")
        value = result["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")
    print(f"  record: {result['record_path'].relative_to(ROOT)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 0, 0.0, trace, smoke=True)
            line = report(result, trace)
            ok = ok and line["correct"] and line["failed"] == 0
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"error: not a cryoqaoa checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, smoke=False)
    print(json.dumps(report(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
