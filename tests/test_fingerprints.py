"""The benchmark's `run` ops at full size reproduce their stored fingerprints.

The workloads, their argv, the summary parser and the fingerprint keys are
read from ``bench/worker.py``, so these are the benchmark's own ops.
"""

import json
import types
from pathlib import Path

import numpy as np
import pytest

from cryoqaoa.cli import build_parser, main
from cryoqaoa.counters import run_proposed
from cryoqaoa.ising import worstcase_instance

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


# Every stored seed of both workloads: a rounding change in the statevector
# that moves a draw, or a synthetic draw out of stream order, fails here.
OPS = [
    (workload, seed) for workload in ("exact-ring16", "synthetic-path750") for seed in range(48)
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


@pytest.mark.parametrize("op_seed", [0, 1])
def test_synthetic_trace_equals_ledger_events(capsys, tmp_path, op_seed):
    # the benchmark's path:750 op streams 30 chunks, drawn one ahead
    (argv,) = worker.op_argvs("synthetic-path750", False, op_seed, tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    summary = worker.parse_summary(out)
    t, b = int(summary["trials"]), int(summary["counter_bits"])
    assert t == 10_000 and "--marginal" not in argv
    # the trials of one whole draw, independent of the chunked source that `run` uses
    trials = (np.random.default_rng(op_seed).random((t, 750)) < 0.5).view(np.uint8)
    inst = worstcase_instance(750)
    trial, entry, msb, bits = run_proposed(inst, trials, b).flushes
    names = [f"{i}-{j}" for i, j in inst.entries]
    rows = [out.splitlines()[0], "trial,bits_sent,entry_id,event"]
    rows += [
        f"{r},{bits[r - 1]},{names[k]},msb{v}"
        for r, k, v in zip(trial.tolist(), entry.tolist(), msb.tolist())
    ]
    rows += [f"{t},{b},{name},readout" for name in names]
    trace = Path(argv[argv.index("--trace") + 1]).read_bytes()
    assert trace == "".join(row + "\n" for row in rows).encode()


@pytest.mark.parametrize("op_seed", [0, 3, 11])
def test_audit_trial_count_replays_the_checked_trials(capsys, monkeypatch, op_seed):
    # the benchmark reports `audit.trials_checked` from its own replay of the case draws
    from cryoqaoa import audit

    real = audit.check_case
    checked = []

    def counted(instance, trials, *args, **kwargs):
        checked.append(len(trials))
        return real(instance, trials, *args, **kwargs)

    monkeypatch.setattr(audit, "check_case", counted)
    argv = ["audit", "--cases", "200", "--seed", str(op_seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "audit ok: 200 cases, no violations\n"
    assert len(checked) == 200
    assert sum(checked) == worker.audit_trial_count(argv)
