"""The benchmark's `run` ops at full size reproduce their stored fingerprints.

The workloads, their argv, the summary parser and the fingerprint keys are
read from ``bench/worker.py``, so these are the benchmark's own ops.
"""

import json
import types
from pathlib import Path

import pytest

from cryoqaoa.cli import build_parser, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_worker():
    """``bench/worker.py`` as a module, compiled in memory so that nothing is
    written under ``bench/``."""
    path = BENCH / "worker.py"
    module = types.ModuleType("bench_worker")
    module.__file__ = str(path)
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


worker = _load_worker()
FINGERPRINTS = json.loads((BENCH / "fingerprints.json").read_text())


# Every stored exact-ring16 seed, so that a rounding change in the
# statevector that moves a draw fails here; two synthetic seeds.
OPS = [("exact-ring16", seed) for seed in range(48)] + [
    ("synthetic-path750", seed) for seed in (0, 1)
]


@pytest.mark.parametrize("workload, op_seed", OPS)
def test_run_op_matches_stored_fingerprint(capsys, tmp_path, workload, op_seed):
    (argv,) = worker.op_argvs(workload, False, op_seed, tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    summary = worker.parse_summary(out)
    assert summary["energies_equal"] == "true"
    fingerprint = {key: summary[key] for key in worker.FINGERPRINT_KEYS}
    assert fingerprint == FINGERPRINTS[workload][str(op_seed)]
    if "--trace" in argv:
        lines = Path(argv[argv.index("--trace") + 1]).read_text().splitlines()
        assert lines[0] == out.splitlines()[0]
        events = int(summary["proposed_total_msb_bits"]) + int(summary["m_in_use"])
        assert len(lines) - 2 == events


def test_audit_sweeps_argv_parse(tmp_path):
    for argv in worker.op_argvs("audit-sweeps", False, 0, tmp_path):
        build_parser().parse_args(argv)
