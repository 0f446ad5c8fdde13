"""Benchmark child: one workload as a closed loop in a fresh process.

``run.py`` starts this file; it is not meant to be run by hand except for
``--record-fingerprints``.  It imports ``cryoqaoa`` from the checkout's own
``src/``, checks the ring-8 golden files once, then runs ops one at a time
(one client, no threads).  An op is one or more ``cryoqaoa.cli.main(argv)``
calls made in-process; op k uses seed = workload seed + k.  Every op passes
through the correctness gate and yields a fingerprint of its simulated
statistics.  The JSON record written to ``--out`` holds the raw per-op
numbers; ``run.py`` turns them into metrics.

  python3 bench/worker.py --setup-only --out PATH
  python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out PATH [--smoke]
  python3 bench/worker.py --record-fingerprints K
      rewrites bench/fingerprints.json for op seeds 0..K-1 of every workload
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "out"
FINGERPRINTS = BENCH / "fingerprints.json"
GOLDEN_FILES = {
    "fig5a": "fig5a_staircase.csv",
    "fig5b": "fig5b_power.csv",
    "ring8_summary": "ring8_summary.txt",
    "ring8_trace": "ring8_trace.csv",
}

# Each op is a list of CLI calls; "{trace}" is replaced by a path in the
# op's scratch directory.  "--seed <op seed>" is appended to every call.
WORKLOADS = {
    "exact-ring16": {
        "full": [
            "run --generator ring:16 --source exact --trials 100000 --layers 3 --optimize-steps 24"
        ],
        "smoke": [
            "run --generator ring:8 --source exact --trials 2000 --layers 1 --optimize-steps 4"
        ],
    },
    "synthetic-path750": {
        "full": ["run --generator path:750 --source synthetic --trials 10000 --trace {trace}"],
        "smoke": ["run --generator path:40 --source synthetic --trials 300 --trace {trace}"],
    },
    "audit-sweeps": {
        "full": ["audit --cases 2000", "fig5a", "fig5b --n-max 4096"],
        "smoke": ["audit --cases 20", "fig5a", "fig5b --n-max 4096"],
    },
}

FINGERPRINT_KEYS = (
    "counter_bits",
    "m_in_use",
    "proposed_total_msb_bits",
    "collection_bits",
    "baseline_total_bits",
    "baseline_energy",
    "counter_energy",
)


def op_argvs(workload: str, smoke: bool, op_seed: int, scratch: Path) -> list[list[str]]:
    commands = WORKLOADS[workload]["smoke" if smoke else "full"]
    return [
        [word.format(trace=scratch / "trace.csv") for word in command.split()]
        + ["--seed", str(op_seed)]
        for command in commands
    ]


def parse_summary(text: str) -> dict[str, str]:
    pairs = (line.partition("=") for line in text.splitlines() if not line.startswith("#"))
    return {key: value for key, _, value in pairs}


def audit_trial_count(argv: list[str]) -> int:
    """Trials an ``audit`` call checks, found by replaying its case draws.

    Mirrors the random-case loop of ``cryoqaoa.audit.run_audit`` (default
    n_max, t_max and b range) and the draws of ``random_trials``, without
    building the trial tuples.  The traced run compares the result with the
    trials ``check_case`` really received, so a drift here fails the gate.
    """
    import numpy as np
    from cryoqaoa import audit

    cases = int(argv[argv.index("--cases") + 1])
    rng = np.random.default_rng(int(argv[argv.index("--seed") + 1]))
    total = 0
    for _ in range(cases):
        instance = audit.random_instance(rng, 8)
        t = int(rng.integers(1, 201))
        rng.integers(0, 2, size=(t, instance.n_qubits))
        total += t
        rng.integers(2, 9)
    return total


def check_op(argvs, codes, outputs, scratch: Path, golden: dict[str, bytes]):
    """Correctness gate for one op: (problems, fingerprint, trials)."""
    problems = [f"{argv[0]} exited {code}" for argv, code in zip(argvs, codes) if code != 0]
    fingerprint: dict[str, object] = {}
    trials = 0
    for argv, text in zip(argvs, outputs):
        command = argv[0]
        if command == "run":
            summary = parse_summary(text)
            if summary.get("energies_equal") != "true":
                problems.append(f"energies_equal={summary.get('energies_equal')}")
            missing = [key for key in FINGERPRINT_KEYS if key not in summary]
            if missing:
                problems.append(f"summary lacks {missing}")
                continue
            for key in FINGERPRINT_KEYS:
                fingerprint[key] = summary[key]
            for key in ("baseline_energy", "counter_energy"):
                Fraction(summary[key])  # both energies must print as exact fractions
            trials += int(summary["trials"])
            if "--trace" in argv:
                lines = Path(argv[argv.index("--trace") + 1]).read_text().splitlines()
                events = int(summary["proposed_total_msb_bits"]) + int(summary["m_in_use"])
                if lines[:1] != text.splitlines()[:1] or len(lines) - 2 != events:
                    problems.append(
                        f"trace has {len(lines) - 2} event rows, summary implies {events}"
                    )
        elif command == "audit":
            cases = argv[argv.index("--cases") + 1]
            if not text.startswith(f"audit ok: {cases} cases"):
                problems.append(f"audit printed {text[:200]!r}")
            checked = audit_trial_count(argv)
            fingerprint["audit_cases"] = int(cases)
            fingerprint["audit_trials_checked"] = checked
            trials += checked
        else:
            data = text.encode()
            if data != golden[command]:
                problems.append(f"{command} output differs from out/{GOLDEN_FILES[command]}")
            fingerprint[f"{command}_sha256"] = hashlib.sha256(data).hexdigest()
    return problems, fingerprint, trials


def run_calls(cli, argvs):
    """Run the op's CLI calls; returns (wall seconds, exit codes, stdout texts, error)."""
    codes, outputs, error = [], [], None
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    codes.append(cli.main(argv))
                outputs.append(out.getvalue())
    except Exception:  # an op that raises is a failed op, not a dead benchmark
        error = traceback.format_exc(limit=4)
    return time.perf_counter() - start, codes, outputs, error


def ring8_golden_check(cli, scratch: Path, golden: dict[str, bytes]) -> list[str]:
    summary, trace = scratch / "ring8_summary.txt", scratch / "ring8_trace.csv"
    argv = [
        "run",
        "--config",
        str(ROOT / "scenarios" / "maxcut-ring8.scenario"),
        "--out",
        str(summary),
        "--trace",
        str(trace),
        "--quiet",
    ]
    _, codes, _, error = run_calls(cli, [argv])
    if error is not None:
        return [error]
    problems = [f"ring-8 run exited {code}" for code in codes if code != 0]
    for key, path in (("ring8_summary", summary), ("ring8_trace", trace)):
        if not path.is_file() or path.read_bytes() != golden[key]:
            problems.append(f"ring-8 {path.name} differs from out/{GOLDEN_FILES[key]}")
    return problems


def environment(seed: int) -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_cli():
    """Import ``cryoqaoa.cli`` from this checkout; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import cryoqaoa.cli as cli

    elapsed = time.perf_counter() - start
    location = Path(cli.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise SystemExit(f"cryoqaoa imported from {location}, not from {SRC}")
    return cli, elapsed


def load_golden() -> dict[str, bytes]:
    return {key: (GOLDEN / name).read_bytes() for key, name in GOLDEN_FILES.items()}


def run_loop(cli, args, tracer, golden, reference, seeds, budget, scratch):
    """Run ops for ``seeds`` (an iterator) until ``budget`` seconds pass."""
    ops = []
    start = time.perf_counter()
    for op_seed in seeds:
        argvs = op_argvs(args.workload, args.smoke, op_seed, scratch)
        if tracer is not None:
            tracer.begin_op(op_seed)
        wall, codes, outputs, error = run_calls(cli, argvs)
        layers = tracer.end_op() if tracer is not None and error is None else None
        problems, fingerprint, trials = [error], {}, 0
        if error is None:
            try:
                problems, fingerprint, trials = check_op(argvs, codes, outputs, scratch, golden)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output could not be checked: {exc!r}"]
        expected = reference.get(str(op_seed))
        if expected is not None and fingerprint != expected:
            problems.append(f"fingerprint differs from bench/fingerprints.json: {fingerprint}")
        ops.append(
            {
                "seed": op_seed,
                "wall_s": wall,
                "ok": not problems,
                "problems": problems,
                "fingerprint": fingerprint,
                "fingerprint_checked": expected is not None,
                "trials": trials,
                "output_bytes": sum(len(text.encode()) for text in outputs)
                + sum(path.stat().st_size for path in scratch.glob("trace.csv")),
                "layers": layers,
            }
        )
        elapsed = time.perf_counter() - start
        if elapsed + wall / 2 >= budget:
            break
    return ops


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-fingerprints", type=int, metavar="K")
    args = parser.parse_args(argv)

    cli, import_s = import_cli()
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": import_s}))
        return 0
    if args.record_fingerprints is not None:
        return record_fingerprints(cli, args.record_fingerprints)
    if args.workload is None or args.out is None:
        parser.error("--workload and --out are required")

    golden = load_golden()
    reference = {}
    if not args.smoke:
        reference = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    scratch = Path(tempfile.mkdtemp(prefix="op-", dir=args.out.parent))
    try:
        golden_problems = ring8_golden_check(cli, scratch, golden)
        record = {
            "workload": args.workload,
            "smoke": args.smoke,
            "commands": WORKLOADS[args.workload]["smoke" if args.smoke else "full"],
            "environment": environment(args.seed),
            "import_s": import_s,
            "golden_problems": golden_problems,
        }
        # Untraced loop first.  With --trace 1 it gets 45 % of the budget
        # and the traced loop then repeats the same op seeds, so the two
        # loops time identical work and together take about --seconds.
        budget = args.seconds * 0.45 if args.trace else args.seconds
        untraced = run_loop(
            cli, args, None, golden, reference, itertools.count(args.seed), budget, scratch
        )
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["ops"] = untraced
        if args.trace:
            sys.path.insert(0, str(BENCH))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            seeds = [op["seed"] for op in untraced]
            record["traced_ops"] = run_loop(
                cli, args, tracer, golden, reference, iter(seeds), float("inf"), scratch
            )
            record["bindings"] = tracer.bindings
            spans_path = args.out.with_suffix(".spans.jsonl")
            with spans_path.open("w") as handle:
                handle.write(
                    json.dumps(["op", "id", "parent", "function", "layer", "start", "end", "self"])
                    + "\n"
                )
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
            record["spans_file"] = spans_path.name
        args.out.write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def record_fingerprints(cli, count: int) -> int:
    golden = load_golden()
    table: dict[str, dict[str, object]] = {}
    scratch = Path(tempfile.mkdtemp(prefix="fingerprints-", dir=BENCH))
    try:
        for workload in WORKLOADS:
            table[workload] = {}
            for op_seed in range(count):
                argvs = op_argvs(workload, False, op_seed, scratch)
                wall, codes, outputs, error = run_calls(cli, argvs)
                if error is not None:
                    raise SystemExit(error)
                problems, fingerprint, _ = check_op(argvs, codes, outputs, scratch, golden)
                if problems:
                    raise SystemExit(f"{workload} seed {op_seed}: {problems}")
                table[workload][str(op_seed)] = fingerprint
                print(f"{workload} seed {op_seed}: {wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
