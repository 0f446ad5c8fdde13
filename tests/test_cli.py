import errno
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cryoqaoa
import cryoqaoa.audit as audit_mod
import cryoqaoa.cli as cli
import cryoqaoa.ising as ising_mod
import cryoqaoa.qaoa as qaoa_mod
from cryoqaoa import power
from cryoqaoa.cli import build_parser, main
from cryoqaoa.config import ScenarioConfig, load_scenario
from cryoqaoa.counters import Flushes, Ledger
from cryoqaoa.ising import (
    CHUNK_CELLS,
    IsingInstance,
    make_instance,
    pack_trials,
    row_chunks,
    trial_chunks,
)
from cryoqaoa.qaoa import _drawn_ahead, synthetic_chunks, synthetic_trials
from cryoqaoa.timing import DEFAULT_TIMINGS, per_qubit_circuit_time_ns

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if the command draws a trial or starts the audit."""

    def forbidden(*args, **kwargs):
        raise AssertionError("called before the command was refused")

    monkeypatch.setattr(qaoa_mod, "synthetic_chunks", forbidden)
    monkeypatch.setattr(qaoa_mod, "prepare_state", forbidden)
    monkeypatch.setattr(audit_mod, "run_audit", forbidden)


def summary_dict(out):
    values = {}
    for line in out.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        values[key] = value
    return values


class TestRun:
    def test_bundled_ring8_scenario(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--config", str(SCENARIO_DIR / "maxcut-ring8.scenario")
        )
        assert code == 0
        values = summary_dict(out)
        assert values["energies_equal"] == "true"
        assert values["counter_energy"] == values["baseline_energy"]
        # ring: M = N, so the rate ratio is exactly 2^(1-b) with b=4
        assert float(values["reduction_ratio"]) == 0.125

    def test_missing_instance_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "--instance", "no/such/file.instance")
        assert code == 2
        assert "no/such/file.instance" in err

    def test_seed_repeatable_byte_identical(self, capsys, tmp_path):
        args = ("run", "--generator", "ring:6", "--trials", "200", "--seed", "7")
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main([*args, "--out", str(out_a), "--quiet"]) == 0
        assert main([*args, "--out", str(out_b), "--quiet"]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_flag_overrides_config_key(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "--config",
            str(SCENARIO_DIR / "maxcut-ring8.scenario"),
            "--trials",
            "64",
            "--counter-bits",
            "3",
        )
        assert code == 0
        values = summary_dict(out)
        assert values["trials"] == "64"
        assert values["counter_bits"] == "3"

    def test_synthetic_source_for_large_n(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--generator", "path:40", "--trials", "120", "--seed", "1"
        )
        assert code == 0
        values = summary_dict(out)
        assert values["n_qubits"] == "40"
        assert values["energies_equal"] == "true"

    def test_trace_csv(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--generator",
            "ring:4",
            "--trials",
            "32",
            "--counter-bits",
            "3",
            "--trace",
            str(trace),
            "--quiet",
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "trial,bits_sent,entry_id,event"
        assert any(",readout" in line for line in lines)
        assert any(",msb" in line for line in lines)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--trials", "100", "--counter-bits", "40"),
            ("--trials", "1000", "--overhead-budget", "0.002"),
        ],
        ids=["explicit-too-wide", "auto-clamped-to-2"],
    )
    def test_width_over_budget_reported_infeasible(self, capsys, flags):
        code, out, _ = run_cli(capsys, "run", "--generator", "ring:8", *flags)
        assert code == 0
        assert summary_dict(out)["counter_bits_feasible"] == "false"

    @pytest.mark.parametrize("width", ["1006", "1016", "2000", str(10**20), "file:2000"])
    def test_over_wide_counter_bits_exit_2_before_any_trial(
        self, capsys, tmp_path, no_draw, width
    ):
        # ring:4 has t_QC = 760 ns, so b = 1005 is the widest finite collection window
        argv = ["run", "--generator", "ring:4", "--trials", "10", "--counter-bits", width]
        if width.startswith("file:"):
            width = width.removeprefix("file:")
            path = tmp_path / "wide.scenario"
            path.write_text(f"generator = ring:4\ntrials = 10\ncounter_bits = {width}\n")
            argv = ["run", "--config", str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: counter_bits={width} is too wide: its collection window "
            "b*2^(b-1)*t_QC overflows a float at t_QC = 760.0 ns\n"
        )

    def test_trial_count_beyond_float_range_exits_2(self, capsys, no_draw):
        # the auto width for T = 1e400 is 1315 bits, whose collection window overflows
        code, out, err = run_cli(capsys, "run", "--generator", "ring:4", "--trials", "1e400")
        assert (code, out) == (2, "")
        assert err == (
            "error: counter_bits=1315 is too wide: its collection window "
            "b*2^(b-1)*t_QC overflows a float at t_QC = 760.0 ns\n"
        )

    def test_widest_finite_counter_bits_still_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--generator", "ring:4", "--trials", "10", "--counter-bits", "1005"
        )
        assert code == 0
        assert summary_dict(out)["t_c_ns"] == "1.3094692386701936e+308"

    def test_out_of_range_pair_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("n = 4\n[pairs]\n0 1 = 1\n1 9 = 2\n")
        code, _, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2
        assert err == f"error: {path}:4: pair (1, 9) out of range [0, 4)\n"

    @pytest.mark.parametrize(
        "terms, repeat",
        [
            ("[pairs]\n0 1 = 1\n0 1 = 5\n", "pair (0, 1)"),
            ("[pairs]\n0 1 = 1\n1 0 = 5\n", "pair (1, 0)"),
            ("[linear]\n0 = 1\n0 = 5\n", "linear index 0"),
        ],
        ids=["pair", "reversed-pair", "linear"],
    )
    def test_repeated_term_exits_2_naming_both_lines(self, capsys, tmp_path, terms, repeat):
        path = tmp_path / "bad.instance"
        path.write_text("n = 2\n" + terms)
        code, out, err = run_cli(capsys, "run", "--instance", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:4: {repeat} repeats line 3\n"

    def test_non_finite_coefficient_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("n = 2\n[pairs]\n0 1 = nan\n")
        code, _, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2
        assert "bad.instance:3" in err

    @pytest.mark.parametrize(
        "spec, terms",
        [
            ("complete:1000000", 499999500000),
            ("ring:10000000000", 10000000000),
            ("path:10000000000", 9999999999),
        ],
    )
    def test_generator_beyond_memory_exits_2(self, capsys, spec, terms):
        code, _, err = run_cli(capsys, "run", "--generator", spec)
        assert code == 2
        assert f"error: generator {spec!r} with {terms} pair terms needs about " in err

    def test_statevector_beyond_memory_exits_2(self, capsys):
        argv = ("run", "--generator", "ring:40", "--source", "exact", "--statevector-limit", "40")
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: simulating 2^40 amplitudes of 40 qubits needs about ")
        assert "bytes, more than physical memory (" in err

    def test_float_tally_error_exits_1(self, capsys, monkeypatch, tmp_path):
        import cryoqaoa.counters as counters

        # one extra hit on the 1e-8 term moves the energy by 1e-10
        path = tmp_path / "tiny.instance"
        path.write_text("n = 3\n[linear]\n0 = 0.75\n2 = 1e-8\n[pairs]\n0 1 = -1.5\n")
        real = counters.Ledger.collect

        def bumped(self):
            totals = real(self)
            totals[2] += 1
            return totals

        monkeypatch.setattr(counters.Ledger, "collect", bumped)
        code, out, err = run_cli(
            capsys,
            "run",
            "--instance",
            str(path),
            "--source",
            "exact",
            "--trials",
            "100",
            "--seed",
            "1",
        )
        assert code == 1
        assert summary_dict(out)["energies_equal"] == "false"
        assert "invariant violation" in err

    def test_zero_float_coefficient_keeps_energies_exact(self, capsys, tmp_path):
        path = tmp_path / "mixed.instance"
        path.write_text("n = 3\n[linear]\n2 = 3\n1 = 0.0\n[pairs]\n1 2 = -2\n0 1 = 1\n")
        code, out, _ = run_cli(
            capsys, "run", "--instance", str(path), "--trials", "3000", "--seed", "4"
        )
        assert code == 0
        values = summary_dict(out)
        assert values["baseline_energy"] == values["counter_energy"]
        assert "/" in values["baseline_energy"]
        assert values["energies_equal"] == "true"

    def test_impossible_ledger_transfer_exits_1(self, capsys, monkeypatch):
        # a popcount that counts every hit bit twice: the ledger derives MSBs of 2
        real = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda a: 2 * real(a))
        code, _, err = run_cli(
            capsys, "run", "--generator", "ring:4", "--trials", "64", "--counter-bits", "3"
        )
        assert code == 1
        assert "invariant violation: derived MSB" in err

    def test_and_for_xor_pair_rule_exits_1(self, capsys, monkeypatch):
        # the ledger's pairs hit where both qubits are set; the baseline counts
        # pairs without the ledger's rule, so the energies differ
        import cryoqaoa.counters as counters

        def and_hits(q, singles, pairs):
            return np.concatenate((q[singles], q[pairs[:, 0]] & q[pairs[:, 1]]))

        monkeypatch.setattr(counters, "packed_hits", and_hits)
        code, out, err = run_cli(
            capsys, "run", "--generator", "ring:8", "--trials", "1000", "--seed", "7"
        )
        assert code == 1
        assert summary_dict(out)["energies_equal"] == "false"
        assert "invariant violation" in err

    def test_failed_run_leaves_no_trace(self, capsys, monkeypatch, tmp_path):
        real = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda a: 2 * real(a))
        trace = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys,
            "run",
            "--generator",
            "ring:4",
            "--trials",
            "64",
            "--counter-bits",
            "3",
            "--trace",
            str(trace),
        )
        assert code == 1
        assert "invariant violation: derived MSB" in err
        assert list(tmp_path.iterdir()) == []

    def test_trace_rows_match_ledger_events(self, capsys, tmp_path):
        from cryoqaoa.counters import run_proposed
        from cryoqaoa.ising import worstcase_instance

        # path:40 at T = 10000 is streamed in two row chunks
        t, b = 10_000, 5
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--generator",
            "path:40",
            "--source",
            "synthetic",
            "--marginal",
            "0.3",
            "--trials",
            str(t),
            "--counter-bits",
            str(b),
            "--seed",
            "12",
            "--trace",
            str(trace),
            "--quiet",
        )
        assert code == 0
        assert t * 40 > CHUNK_CELLS
        inst = worstcase_instance(40)
        trial, entry, msb, bits = run_proposed(inst, _whole_draw(0.3, t, 40, 12), b).flushes
        names = [f"{i}-{j}" for i, j in inst.entries]
        expected = [
            f"{r},{bits[r - 1]},{names[k]},msb{v}"
            for r, k, v in zip(trial.tolist(), entry.tolist(), msb.tolist())
        ]
        expected += [f"{t},{b},{name},readout" for name in names]
        assert trace.read_text().splitlines()[2:] == expected

    def test_failed_synthetic_run_joins_its_worker(self, capsys, monkeypatch, tmp_path):
        # the ledger fails on the first of several chunks while the worker
        # draws the second; the run still ends with the worker joined
        real = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda a: 2 * real(a))
        trace = tmp_path / "trace.csv"
        code, _, err = run_cli(
            capsys,
            "run",
            "--generator",
            "path:750",
            "--source",
            "synthetic",
            "--trials",
            "2000",
            "--counter-bits",
            "3",
            "--trace",
            str(trace),
        )
        assert code == 1
        assert "invariant violation: derived MSB" in err
        assert list(tmp_path.iterdir()) == []
        assert not [t for t in threading.enumerate() if t.name == "cryoqaoa-draw"]

    def test_streamed_run_memory_is_bounded(self, tmp_path):
        # the (T, N) matrix alone would take 150 MB
        trace = tmp_path / "trace.csv"
        child = (
            "import resource, sys\n"
            "from cryoqaoa.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(f'maxrss_kb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}')\n"
            "sys.exit(code)\n"
        )
        src = str(Path(cryoqaoa.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        argv = ["run", "--generator", "path:750", "--source", "synthetic", "--trials", "200000"]
        # Linux carries the spawning process's peak RSS into a child's
        # ru_maxrss across exec, so the run starts from a small relay process.
        relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        result = subprocess.run(
            [sys.executable, "-c", relay, sys.executable, "-c", child, *argv]
            + ["--trace", str(trace), "--quiet"],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        values = summary_dict(result.stdout)
        assert int(values["maxrss_kb"]) < 100 * 1024
        assert values["energies_equal"] == "true"
        events = int(values["proposed_total_msb_bits"]) + int(values["m_in_use"])
        with trace.open() as handle:
            assert sum(1 for _ in handle) - 2 == events

    def test_config_comment_records_resolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--generator", "ring:4", "--trials", "16", "--seed", "3"
        )
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("# config:")
        assert "trials=16" in first
        assert "seed=3" in first


# One valid, non-default value per `run` key
RUN_KEY_VALUES = {
    "trials": "64",
    "layers": "2",
    "parallelism": "2",
    "param_bits": "8",
    "counter_bits": "3",
    "overhead_budget": "0.1",
    "source": "synthetic",
    "marginal": "0.25",
    "optimize_steps": "2",
    "statevector_limit": "3",
    "seed": "5",
}

# Values each key's parser refuses
BAD_RUN_VALUES = [
    ("trials", "0"),
    ("trials", "soon"),
    ("layers", "0"),
    ("parallelism", "0"),
    ("parallelism", "some"),
    ("param_bits", "0"),
    ("param_bits", "-3"),
    ("counter_bits", "1"),
    ("overhead_budget", "0"),
    ("overhead_budget", "inf"),
    ("source", "bogus"),
    ("marginal", "1.5"),
    ("marginal", "nan"),
    ("optimize_steps", "-1"),
    ("seed", "-1"),
    ("statevector_limit", "-3"),
]

# Each integer `run` key in decimal or exponent notation, and the plain value it equals
INTEGRAL_NOTATION = [
    ("trials", "6.4e1", "64"),
    ("trials", "1e5", "100000"),
    ("trials", "100000.0", "100000"),
    ("layers", "2.0", "2"),
    ("parallelism", "0.2e1", "2"),
    ("param_bits", "8e0", "8"),
    ("counter_bits", "3.00", "3"),
    ("optimize_steps", "2E0", "2"),
    ("statevector_limit", "3.0", "3"),
    ("seed", "5e0", "5"),
]

# The rule each integer option states when it refuses a value
INTEGER_RULES = {
    "trials": "an integer >= 1",
    "layers": "an integer >= 1",
    "parallelism": "'full' or an integer >= 1",
    "param_bits": "an integer >= 1",
    "counter_bits": "'auto' or an integer >= 2",
    "optimize_steps": "an integer >= 0",
    "statevector_limit": "an integer >= 1",
    "seed": "an integer >= 0",
}

# Scenario keys that have no `run` flag, with a value their parser refuses.
BAD_FILE_VALUES = [
    ("gammas", "nan"),
    ("gammas", "0.5, inf"),
    ("betas", "inf"),
    ("t_rx_ns", "nan"),
    ("t_reset_ns", "inf"),
    ("t_meas_ns", "-1"),
]


def flag(key):
    return "--" + key.replace("_", "-")


def _oracle_rows(flushes, first, names):
    """The trace rows of one chunk by the per-row string formula."""
    tails = [f",{name},msb{msb}\n" for name in names for msb in (0, 1)]
    heads = [f"{trial},{bits}" for trial, bits in enumerate(flushes.bits.tolist(), first + 1)]
    rows = zip((flushes.trial - 1 - first).tolist(), (2 * flushes.entry + flushes.msb).tolist())
    return "".join([heads[i] + tails[k] for i, k in rows]).encode()


def _fed_chunks(instance, width_b, chunks):
    """(flushes, first trial) of every chunk fed to a fresh ledger."""
    ledger = Ledger(instance, width_b)
    for z in chunks:
        flushes = ledger.feed(pack_trials(z), len(z))
        yield flushes, ledger.trial_count - len(z)


class TestRunScenario:
    """``run_scenario`` called without argparse returns what ``run`` prints."""

    @pytest.mark.parametrize(
        "config, argv, traced",
        [
            (
                load_scenario(SCENARIO_DIR / "maxcut-ring8.scenario"),
                ["--config", str(SCENARIO_DIR / "maxcut-ring8.scenario")],
                True,
            ),
            (
                ScenarioConfig(generator="path:40", source="synthetic"),
                ["--generator", "path:40", "--source", "synthetic"],
                True,
            ),
            (
                ScenarioConfig(generator="ring:8", source="exact", optimize_steps=4),
                ["--generator", "ring:8", "--source", "exact", "--optimize-steps", "4"],
                False,
            ),
        ],
        ids=["ring8-scenario", "path40-synthetic", "ring8-optimized"],
    )
    def test_summary_equals_cli_text(self, capsys, tmp_path, config, argv, traced):
        library_trace, cli_trace = tmp_path / "library.csv", tmp_path / "cli.csv"
        summary = cli.run_scenario(config, str(library_trace) if traced else None)
        if traced:
            argv = [*argv, "--trace", str(cli_trace)]
        code, out, _ = run_cli(capsys, "run", "--quiet", *argv)
        assert code == 0
        assert type(summary) is dict
        assert [(key, cli._fmt(value)) for key, value in summary.items()] == list(
            summary_dict(out).items()
        )
        assert library_trace.exists() == cli_trace.exists() == traced
        if traced:
            assert library_trace.read_bytes() == cli_trace.read_bytes()

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig(),
            ScenarioConfig(instance=str(SCENARIO_DIR / "ring8.instance"), generator="ring:4"),
        ],
        ids=["neither", "both"],
    )
    def test_config_without_one_source_raises_before_any_draw(self, no_draw, config):
        with pytest.raises(ValueError, match="exactly one of 'instance' and 'generator'"):
            cli.run_scenario(config)

    def test_unwritable_trace_raises_naming_it_before_any_build(
        self, no_draw, monkeypatch, tmp_path
    ):
        def forbidden(spec):
            raise AssertionError("built an instance before checking the trace path")

        monkeypatch.setattr(cli, "make_instance", forbidden)
        trace = tmp_path / "missing" / "t.csv"
        message = f"{trace}: {trace.parent} is not an existing directory"
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.run_scenario(ScenarioConfig(generator="ring:4", trials=10), str(trace))
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path} is a directory")):
            cli.run_scenario(ScenarioConfig(generator="ring:4", trials=10), str(tmp_path))

    def test_readme_library_example_runs(self, monkeypatch):
        section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        assert "run_scenario(" in code
        monkeypatch.chdir(ROOT)
        exec(compile(code, "README.md", "exec"), {})


class TestFlushRows:
    """``cli._flush_rows`` against the per-row string formula it replaced."""

    @pytest.mark.parametrize(
        "spec, width_b, t, one_chunk",
        [
            ("path:750", 64, 100, False),  # no flush slot in the chunk
            ("ring:4", 5, 300, False),  # M = 4 < W = 16: most trials send no bit
            ("ring:4", 2, 12_000, True),  # trials 9->10 ... 9999->10000 in one chunk
            ("path:750+linear", 2, 700, False),  # single and pair ids, both MSBs
            ("complete:30", 3, 3001, False),
        ],
    )
    def test_rows_equal_string_formula(self, spec, width_b, t, one_chunk):
        if spec == "path:750+linear":
            path = make_instance("path:750")
            instance = replace(path, linear=dict.fromkeys(range(750), 1))
        else:
            instance = make_instance(spec)
        n = instance.n_qubits
        z = synthetic_trials([0.5] * n, t, seed=7)
        chunks = [z] if one_chunk else trial_chunks(z, n)
        names = [cli._entry_id_str(e) for e in Ledger(instance, width_b).entry_order]
        tails = cli._row_tails(names)
        flushed, sent = set(), set()
        for flushes, first in _fed_chunks(instance, width_b, chunks):
            assert cli._flush_rows(flushes, first, tails) == _oracle_rows(flushes, first, names)
            flushed.update(names[e] for e in flushes.entry.tolist())
            sent.update(flushes.msb.tolist())
        if width_b == 64:
            assert not flushed
        if one_chunk:
            assert t > 10_000 and t * n <= CHUNK_CELLS
        if width_b == 2:
            assert sent == {0, 1}
        if spec == "path:750+linear":
            assert {"7", "748-749"} <= flushed

    def test_rows_of_hand_made_slots(self):
        # trial numbers across every power of ten up to 10^5, bit counts up to 3
        # digits, and a zero-bit trial that no row names
        first = 99_990
        bits = np.array([0, 1, 12, 123, 7, 0, 9, 10, 99, 100, 5, 1000, 3])
        trial = np.array([2, 2, 3, 4, 5, 7, 8, 9, 10, 10, 11, 12, 13]) + first
        entry = np.arange(len(trial)) % 3
        msb = np.arange(len(trial)) % 2
        flushes = Flushes(trial, entry, msb, bits)
        names = ["7", "748-749", "0"]
        expected = _oracle_rows(flushes, first, names)
        assert cli._flush_rows(flushes, first, cli._row_tails(names)) == expected
        assert b"99992,1,7,msb0\n" in expected and b"\n100000,100,0,msb0\n" in expected

    @pytest.mark.parametrize("values", [[0], [0, 9, 10, 99, 100, 12345], [10**12, 1]])
    def test_digits_print_like_str(self, values):
        table = cli._digits(np.array(values, dtype=np.int64))
        assert [row.tobytes().strip(b"\0").decode() for row in table] == list(map(str, values))
        assert table.shape[1] == len(str(max(values)))


def _whole_draw(p, t, n, seed):
    """The synthetic source's trials as one whole (t, n) draw, the oracle
    of its chunks."""
    return (np.random.default_rng(seed).random((t, n)) < p).view(np.uint8)


class _CountingDraw:
    """A draw for ``qaoa._drawn_ahead`` that counts its calls and can raise
    on one: the Bernoulli(p) rows of one generator stream, drawn as
    ``synthetic_chunks`` draws them.  The caller counts the chunks it has
    taken in ``taken``."""

    def __init__(self, seed, p=0.5, fail_at=None):
        self.rng = np.random.default_rng(seed)
        self.p = p
        self.calls = 0
        self.taken = 0
        self.fail_at = fail_at

    def __call__(self, out, uniforms):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError(f"chunk {self.calls} failed")
        u = self.rng.random(out=uniforms[: out.size].reshape(out.shape))
        return np.less(u, self.p, out=out).view(np.uint8)


def _draw_workers():
    return [thread for thread in threading.enumerate() if thread.name == "cryoqaoa-draw"]


class TestDrawnAhead:
    """The synthetic source of ``run`` (``qaoa.synthetic_chunks``): one
    worker draws one chunk ahead; ``qaoa._drawn_ahead`` is its seam."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, when the hand-over between the caller and
        the worker deadlocks: the alarm interrupts the caller's wait."""

        def expire(signum, frame):
            raise TimeoutError("no chunk within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize(
        "n, t",
        [(750, 1), (750, 1003), (40, 10_000), (5, 77)]
        + [(n, t) for n in (1, 5, 750) for t in (7, 344, 345, 1000, 10_000)],
    )
    def test_chunks_equal_serial_draw(self, n, t):
        drawn = list(synthetic_chunks([0.3] * n, t, 9))
        whole = _whole_draw(0.3, t, n, 9)
        assert [len(c) for c in drawn] == [stop - start for start, stop in row_chunks(t, n)]
        assert all(c.dtype == np.uint8 for c in drawn)
        assert np.array_equal(np.concatenate(drawn), whole)
        assert not _draw_workers()

    def test_never_more_than_one_chunk_ahead(self):
        n, t = 750, 3000  # 9 chunks
        draw = _CountingDraw(1)
        for _ in _drawn_ahead(draw, t, n):
            draw.taken += 1
            time.sleep(0.005)  # time for a worker that ran ahead to do so
            assert draw.calls <= draw.taken + 1
        assert draw.calls == draw.taken == 9
        assert not _draw_workers()

    def test_early_close_joins_worker(self):
        n, t = 750, 3000
        draw = _CountingDraw(1)
        chunks = _drawn_ahead(draw, t, n)
        for _ in range(2):
            next(chunks)
            draw.taken += 1
        assert len(_draw_workers()) == 1
        chunks.close()
        assert not _draw_workers()
        assert draw.calls <= 3

    def test_concurrent_passes_under_frequent_switches(self):
        # four passes at once, each with its own worker: eight threads on
        # fewer cores, switching every microsecond
        n, t = 750, 3440  # 10 chunks
        whole = _whole_draw(0.4, t, n, 5)
        results = {}

        def run_pass(k):
            draw = _CountingDraw(5, p=0.4)
            chunks, ahead = [], 0
            for chunk in _drawn_ahead(draw, t, n):
                draw.taken += 1
                ahead = max(ahead, draw.calls - draw.taken)
                chunks.append(chunk)
            results[k] = (np.concatenate(chunks), draw.calls, draw.taken, ahead)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            passes = [threading.Thread(target=run_pass, args=(k,)) for k in range(4)]
            for thread in passes:
                thread.start()
            for thread in passes:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in passes)
        assert sorted(results) == [0, 1, 2, 3]
        for trials, calls, taken, ahead in results.values():
            assert np.array_equal(trials, whole)
            assert calls == taken == 10 and ahead <= 1

    def test_draw_error_surfaces_with_worker_joined(self):
        n, t = 750, 3000
        draw = _CountingDraw(1, fail_at=3)
        chunks = _drawn_ahead(draw, t, n)
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            for _ in chunks:
                draw.taken += 1
        assert not _draw_workers()
        assert draw.taken == 2 and draw.calls == 3

    @pytest.mark.parametrize(
        "marginals, t", [([1.5], 5), ([0.5, -0.1], 5), ([0.5, np.nan], 5), ([], 5), ([0.5], 0)]
    )
    def test_bad_draw_raises_before_a_thread_starts(self, marginals, t):
        with pytest.raises(ValueError):
            synthetic_chunks(marginals, t, 0)
        assert not _draw_workers()


class TestRunKeys:
    def test_every_run_key_covered(self):
        assert set(RUN_KEY_VALUES) == set(cli._RUN_KEYS)

    @pytest.mark.parametrize("key", sorted(RUN_KEY_VALUES))
    def test_flag_and_file_line_resolve_alike(self, capsys, tmp_path, key):
        value = RUN_KEY_VALUES[key]
        path = tmp_path / "s.scenario"
        path.write_text(f"generator = ring:4\n{key} = {value}\n")
        code_file, out_file, _ = run_cli(capsys, "run", "--config", str(path))
        code_flag, out_flag, _ = run_cli(capsys, "run", "--generator", "ring:4", flag(key), value)
        assert code_file == code_flag == 0
        assert out_file == out_flag
        assert f" {key}={value}" in out_flag.splitlines()[0]

    @pytest.mark.parametrize("source", ["synthetic", "exact"])
    @pytest.mark.parametrize("key, value", BAD_RUN_VALUES)
    def test_bad_flag_value_exits_2_naming_flag(self, capsys, source, key, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--generator", "ring:6", "--source", source, flag(key), value])
        assert exc.value.code == 2
        assert f"argument {flag(key)}: " in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["synthetic", "exact"])
    @pytest.mark.parametrize("key, value", BAD_RUN_VALUES)
    def test_bad_file_value_exits_2_naming_line_and_key(
        self, capsys, tmp_path, source, key, value
    ):
        path = tmp_path / "s.scenario"
        path.write_text(f"generator = ring:6\nsource = {source}\n{key} = {value}\n")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert f"s.scenario:3: bad value for {key!r}" in err

    @pytest.mark.parametrize("source", ["synthetic", "exact"])
    @pytest.mark.parametrize("key, value", BAD_FILE_VALUES)
    def test_bad_file_only_value_exits_2_naming_line_and_key(
        self, capsys, tmp_path, source, key, value
    ):
        path = tmp_path / "s.scenario"
        path.write_text(f"generator = ring:6\nsource = {source}\n{key} = {value}\n")
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert (code, out) == (2, "")
        assert f"s.scenario:3: bad value for {key!r}: must be a finite number" in err


class TestIntegers:
    """One integer rule for every integer key, flag and grid value."""

    @pytest.mark.parametrize("key, text, plain", INTEGRAL_NOTATION)
    def test_integral_notation_resolves_like_plain(self, capsys, tmp_path, key, text, plain):
        expected = run_cli(capsys, "run", "--generator", "ring:4", flag(key), plain)
        assert expected[0] == 0
        path = tmp_path / "s.scenario"
        path.write_text(f"generator = ring:4\n{key} = {text}\n")
        assert run_cli(capsys, "run", "--config", str(path)) == expected
        assert run_cli(capsys, "run", "--generator", "ring:4", flag(key), text) == expected

    @pytest.mark.parametrize(
        "text, value",
        [("12345678901234567891", 12345678901234567891), ("1e23", 10**23)],
    )
    def test_t_list_converted_exactly(self, capsys, text, value):
        code, out, _ = run_cli(capsys, "fig5a", "--t-list", text, "--r-grid", "0.05")
        assert code == 0
        assert out.splitlines()[2].split(",")[0] == str(value)

    @pytest.mark.parametrize("text", ["1.5", "nan", "inf", "-inf", "1e4300", "1" + "0" * 4300])
    @pytest.mark.parametrize("key", sorted(INTEGER_RULES))
    def test_non_integer_refused_with_the_rule(self, capsys, tmp_path, key, text):
        rule = f"must be {INTEGER_RULES[key]}, got {text}"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--generator", "ring:4", f"{flag(key)}={text}"])
        assert exc.value.code == 2
        assert f"argument {flag(key)}: {rule}\n" in capsys.readouterr().err
        path = tmp_path / "s.scenario"
        path.write_text(f"generator = ring:4\n{key} = {text}\n")
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert (code, out, err) == (2, "", f"error: {path}:2: bad value for {key!r}: {rule}\n")

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (["fig5a", "--n-qubits", "1.5"], "an integer >= 1"),
            (["fig5b", "--b-policy", "2.5"], "'log2' or an integer >= 2"),
            (["audit", "--cases", "nan"], "an integer >= 0"),
            (["audit", "--seed", "1e-3"], "an integer >= 0"),
        ],
    )
    def test_other_integer_flags_state_the_rule(self, capsys, argv, rule):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        expected = f"argument {argv[1]}: must be {rule}, got {argv[2]}\n"
        assert capsys.readouterr().err.endswith(expected)


# Commands with an output path, "{path}" marking it
WRITING_COMMANDS = [
    ["fig5a", "--out", "{path}"],
    ["fig5b", "--out", "{path}"],
    ["run", "--generator", "ring:4", "--out", "{path}"],
    ["run", "--generator", "ring:4", "--trace", "{path}"],
    ["run", "--generator", "path:40", "--source", "synthetic", "--trace", "{path}"],
    ["audit", "--cases", "25", "--seed", "11", "--inject", "drop-msb", "--counterexample", "{path}"],
]


class TestOutputPaths:
    @pytest.mark.parametrize("where", ["missing-directory", "parent-is-a-file", "directory"])
    @pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=" ".join)
    def test_unwritable_path_exits_2_before_any_draw(
        self, capsys, tmp_path, no_draw, argv, where
    ):
        (tmp_path / "file").write_text("")
        path = {
            "missing-directory": tmp_path / "missing" / "x.txt",
            "parent-is-a-file": tmp_path / "file" / "x.txt",
            "directory": tmp_path,
        }[where]
        argv = [str(path) if arg == "{path}" else arg for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[argv.index(str(path)) - 1]
        assert f"argument {flag}: {path}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (WRITING_COMMANDS[0], 0),
            (WRITING_COMMANDS[-1], 5),
            (WRITING_COMMANDS[1], 103),  # fig5b's 3 heading lines and 100 rows
            (WRITING_COMMANDS[2], 10),
        ],
        ids=["fig5a", "audit", "fig5b", "run"],
    )
    def test_write_error_exits_2(self, capsys, monkeypatch, tmp_path, argv, lines):
        # the disk fills after ``lines`` lines; no partial file is left behind
        real = cli._replace_on_success

        @contextmanager
        def filling(path):
            with real(path) as handle:
                yield None if handle is None else _FillsAfter(handle, lines)

        monkeypatch.setattr(cli, "_replace_on_success", filling)
        argv = [str(tmp_path / "x.txt") if arg == "{path}" else arg for arg in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.splitlines()[-1] == "error: [Errno 28] No space left on device"
        assert list(tmp_path.iterdir()) == []


class _FillsAfter:
    """A binary file whose disk fills once ``lines`` lines are written."""

    def __init__(self, handle, lines):
        self.handle, self.left = handle, lines

    def writelines(self, lines):
        for line in lines:
            if self.left == 0:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.handle.write(line)
            self.left -= 1


class _Unreachable:
    """Stands in for what a refused call must not reach: calling it or
    reading any of its attributes fails."""

    def __call__(self, *args, **kwargs):
        raise AssertionError("reached before the refusal")

    __getattr__ = __call__


@pytest.mark.parametrize(
    "call, module, name, needed",
    [
        (
            lambda: make_instance("complete:4"),
            ising_mod,
            "complete_instance",
            6 * ising_mod.GENERATOR_BYTES_PER_TERM,
        ),
        (
            lambda: qaoa_mod.prepare_state(IsingInstance(9), qaoa_mod.QaoaParams((0.1,), (0.2,))),
            qaoa_mod,
            "np",
            qaoa_mod.STATEVECTOR_BYTES_PER_AMPLITUDE << 9,
        ),
        (
            lambda: cli.cmd_fig5b(cli._parser().parse_args(["fig5b", "--n-max", "1002"])),
            power,
            "system_comparison",
            1001 * power.SWEEP_BYTES_PER_N,
        ),
        (
            lambda: audit_mod.run_audit(cases=3, t_max=101),
            audit_mod,
            "random_instance",
            3636 * audit_mod.CASE_BYTES_PER_CELL,
        ),
    ],
    ids=["make_instance", "prepare_state", "fig5b", "run_audit"],
)
def test_every_memory_guard_reads_the_one_seam(monkeypatch, call, module, name, needed):
    # only ising.physical_memory is patched; each guard refuses before it allocates
    monkeypatch.setattr(ising_mod, "physical_memory", lambda: 1000)
    monkeypatch.setattr(module, name, _Unreachable())
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value).endswith(
        f" needs about {needed} bytes, more than physical memory (1000 bytes)"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fig5a", "--config", "x"],
        ["fig5b", "--config", "x"],
        ["audit", "--config", "x"],
        ["audit", "--out", "x"],
    ],
)
def test_unread_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fig5a", "--n-qubits", "-5"], "--n-qubits"),
        (["fig5a", "--n-qubits", "0"], "--n-qubits"),
        (["fig5b", "--n-min", "1"], "--n-min"),
        (["fig5b", "--n-max", "0"], "--n-max"),
        (["fig5b", "--n-min", "10", "--n-max", "5"], "--n-max"),
        (["fig5b", "--b-policy", "1"], "--b-policy"),
        (["fig5b", "--b-policy", "log3"], "--b-policy"),
        (["audit", "--cases", "-5"], "--cases"),
        (["audit", "--n-max", "0"], "--n-max"),
        (["audit", "--t-max", "0"], "--t-max"),
        (["audit", "--b-min", "1"], "--b-min"),
        (["audit", "--b-max", "1"], "--b-max"),
        (["audit", "--b-min", "5", "--b-max", "4"], "--b-max"),
        (["audit", "--seed", "-1", "--cases", "1"], "--seed"),
        (["fig5a", "--seed", "-1"], "--seed"),
        (["fig5b", "--seed", "-1"], "--seed"),
        (["fig5a", "--t-list", "0"], "--t-list"),
        (["fig5a", "--t-list", "1.5"], "--t-list"),
        (["fig5a", "--t-list", "1e3,inf"], "--t-list"),
        (["fig5a", "--r-grid", "-1"], "--r-grid"),
        (["fig5a", "--r-grid", "0.05 nan"], "--r-grid"),
        (["fig5a", "--r-grid", "inf"], "--r-grid"),
        (["fig5b", "--n-min", "3037000500", "--n-max", "3037000500"], "--n-max"),
        # run_audit's own guard names its parameters
        (["audit", "--cases", "1", "--t-max", "100000000000000"], "t_max"),
        (["audit", "--cases", "0", "--n-max", "1000000000"], "n_max"),
    ],
)
def test_bad_option_exits_2_naming_flag(capsys, argv, flag):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err


class TestFig5a:
    def test_default_rows_contain_reference_points(self, capsys):
        code, out, _ = run_cli(capsys, "fig5a")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "T,r,b,reduction_ratio,overhead_factor,bw_meas_bps,bw_proposed_bps"
        rows = [line.split(",") for line in lines[2:]]
        by_key = {(r[0], r[1]): r for r in rows}
        assert by_key[("1000", "0.05")][2] == "4"
        assert float(by_key[("1000", "0.05")][3]) == 0.125
        assert by_key[("10000000", "0.05")][2] == "15"
        assert 1 - float(by_key[("10000000", "0.05")][3]) >= 0.9999

    def test_trial_count_beyond_float_range(self, capsys):
        # T = 1e400 does not fit a float; the budget comparison stays exact
        code, out, err = run_cli(capsys, "fig5a", "--t-list", "1e400", "--r-grid", "0.05")
        assert (code, err) == (0, "")
        row = out.splitlines()[2].split(",")
        assert row[:3] == [str(10**400), "0.05", "1315"]

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fig5a", "--t-list", "1000", "--r-grid", "0.05")
        assert code == 0
        assert len(out.splitlines()) == 3  # comment, header, one row

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fig5a", "--t-list", "", "--r-grid", "0.05")
        assert code == 2
        assert "--t-list: needs at least one value" in err

    def test_write_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "fig5a.csv"
        code, _, _ = run_cli(capsys, "fig5a", "--out", str(out_path), "--quiet")
        assert code == 0
        assert out_path.read_text().startswith("# config:")


class TestFig5b:
    def test_crossover_reported(self, capsys):
        code, out, _ = run_cli(capsys, "fig5b", "--n-max", "1024")
        assert code == 0
        assert "# crossover_n = 751" in out

    def test_single_row_range(self, capsys):
        code, out, _ = run_cli(capsys, "fig5b", "--n-min", "100", "--n-max", "100")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert len(lines) == 2  # header + one row

    def test_fixed_width_policy_scales_inversely(self, capsys):
        code, out, _ = run_cli(
            capsys, "fig5b", "--n-min", "64", "--n-max", "128", "--b-policy", "3"
        )
        assert code == 0
        rows = {
            int(line.split(",")[0]): line.split(",")
            for line in out.splitlines()
            if not line.startswith("#") and not line.startswith("N,")
        }
        # bw_proposed = (N-1)/(4 * t_qc): ratios across N track (N-1)
        ratio = float(rows[128][2]) / float(rows[64][2])
        assert ratio == pytest.approx(127 / 63, rel=1e-12)

    def test_header_columns(self, capsys):
        code, out, _ = run_cli(capsys, "fig5b", "--n-min", "2", "--n-max", "4")
        assert code == 0
        header = [l for l in out.splitlines() if l.startswith("N,")][0]
        assert header == (
            "N,bw_baseline_bps,bw_proposed_bps,cables_baseline,"
            "cables_proposed,power_baseline_mw,power_proposed_mw"
        )

    @pytest.mark.parametrize("b_policy", ["log2", "3", "7"])
    @pytest.mark.parametrize(
        "n_min, n_max", [(2, 1100), (700, 800), (2040, 2060), (65530, 66100)]
    )
    def test_output_equals_per_n_loop(self, capsys, tmp_path, n_min, n_max, b_policy):
        # the ranges cross powers of two, the crossover and 512-row blocks
        argv = ["fig5b", "--n-min", str(n_min), "--n-max", str(n_max), "--b-policy", b_policy]
        expected = _fig5b_oracle(n_min, n_max, b_policy)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, expected)
        path = tmp_path / "fig5b.csv"
        assert main(argv + ["--out", str(path), "--quiet"]) == 0
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("n_max, bound", [(4096, 1e6), (65536, 12e6)])
    def test_sweep_peak_is_its_columns(self, fig5b_peaks, n_max, bound):
        # the per-N loop peaked at 54.8 MB at n_max 65536, on its row objects
        # and the joined file
        assert fig5b_peaks[n_max] < bound

    def test_sweep_peak_within_guard_estimate(self, fig5b_peaks):
        # the guard of cmd_fig5b prices a qubit count at this many bytes
        assert fig5b_peaks[65536] / 65535 <= power.SWEEP_BYTES_PER_N

    def test_sweep_beyond_memory_refused_before_allocating(self, capsys, monkeypatch):
        monkeypatch.setattr(ising_mod, "physical_memory", lambda: power.SWEEP_BYTES_PER_N * 1000)
        assert run_cli(capsys, "fig5b", "--n-max", "1001")[0] == 0  # 1000 qubit counts fit

        def swept(*args, **kwargs):
            raise AssertionError("the sweep was allocated")

        monkeypatch.setattr(power, "system_comparison", swept)
        code, out, err = run_cli(capsys, "fig5b", "--n-max", "1002")
        assert (code, out) == (2, "")
        assert "--n-max 1002: a sweep of 1001 qubit counts needs about 100100 bytes" in err


@pytest.fixture(scope="module")
def fig5b_peaks(tmp_path_factory):
    """tracemalloc's peak over ``fig5b --n-max K --out PATH``, by K."""
    path = tmp_path_factory.mktemp("fig5b") / "f.csv"
    peaks = {}
    for n_max in (4096, 65536):
        tracemalloc.start()
        try:
            assert main(["fig5b", "--n-max", str(n_max), "--out", str(path), "--quiet"]) == 0
            peaks[n_max] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(f"fig5b peak bytes by n_max: {peaks}")
    return peaks


def _fig5b_oracle(n_min, n_max, b_policy):
    """``fig5b``'s output by the per-N loop that it used to run: scalar
    formulas, one row tuple per N, the lines joined at the end."""
    t_qc = per_qubit_circuit_time_ns(DEFAULT_TIMINGS)
    cable, sfq = power.DEFAULT_CABLE, power.DEFAULT_SFQ
    per_cable = cable.heat_inflow_mw + cable.amp_power_mw
    rows, crossover = [], None
    for n in range(n_min, n_max + 1):
        bw_base = n / t_qc * 1e9
        cables_base = max(1, math.ceil(bw_base / cable.capacity_bps - 1e-12))
        b = max((n - 1).bit_length() if b_policy == "log2" else int(b_policy), 2)
        bw_prop = (n - 1) / ((1 << (b - 1)) * t_qc) * 1e9
        cables_prop = max(1, math.ceil(bw_prop / cable.capacity_bps - 1e-12))
        entry_w = (sfq.i_fixed_a + b * sfq.i_per_bit_a) * sfq.freq_hz * sfq.phi0_wb * 2
        total_prop = cables_prop * per_cable + n * (n + 1) // 2 * entry_w * 1e3
        total_base = cables_base * per_cable
        rows.append((n, bw_base, bw_prop, cables_base, cables_prop, total_base, total_prop))
        if crossover is None and total_prop < total_base:
            crossover = n
    lines = [
        f"# config: n_min={n_min} n_max={n_max} b_policy={b_policy} "
        "timings=paper-v1 cable=default sfq=default",
        f"# crossover_n = {crossover}",
        "N,bw_baseline_bps,bw_proposed_bps,cables_baseline,"
        "cables_proposed,power_baseline_mw,power_proposed_mw",
    ]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


class TestMain:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            for argv in (["fig5b", "--n-max", "8"], ["fig5a", "--t-list", "1e3"], ["fig5b"]):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_command_looked_up_at_call_time(self, capsys, monkeypatch):
        assert main(["fig5a", "--t-list", "1e3"]) == 0  # the parser exists before the patch
        seen = []
        monkeypatch.setattr(cli, "cmd_fig5a", lambda args: seen.append(args.t_list) or 7)
        assert main(["fig5a", "--t-list", "1e4"]) == 7
        assert seen == ["1e4"]


class TestAudit:
    def test_clean_run_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--cases", "25", "--seed", "11")
        assert code == 0
        assert "no violations" in out

    def test_injected_fault_exits_1_with_trial_index(self, capsys, tmp_path):
        dump = tmp_path / "cex.txt"
        code, _, err = run_cli(
            capsys,
            "audit",
            "--cases",
            "25",
            "--seed",
            "11",
            "--inject",
            "drop-msb",
            "--counterexample",
            str(dump),
        )
        assert code == 1
        assert "at trial" in err
        assert err.splitlines()[0] == (
            "invariant violation [reconstruction] at trial 7: "
            "entry 0: warm+cold = 1, direct tally = 5"
        )
        text = dump.read_text()
        assert "divergence_trial =" in text
        assert "[trials]" in text

    @pytest.mark.parametrize(
        "skew, message",
        [
            ("bit-log entry changed", "at trial 3: trial 3: ledger sent 2 bits, bank 1"),
            ("event dropped", "at trial 38: flush 11: ledger None, bank (39, 2, 0)"),
            ("bit-log entry added", "at trial 41: trial 41: ledger sent 0 bits, bank None"),
        ],
        ids=["bit-log-entry-changed", "event-dropped", "bit-log-entry-added"],
    )
    def test_diverging_ledger_named_with_its_trial(
        self, capsys, monkeypatch, tmp_path, skew, message
    ):
        import cryoqaoa.audit as audit

        real = audit.run_proposed

        def skewed(*args, **kwargs):
            result = real(*args, **kwargs)
            trial, entry, msb, bits = result.flushes
            if skew == "event dropped":
                trial, entry, msb = trial[:-1], entry[:-1], msb[:-1]
            elif skew == "bit-log entry added":
                bits = np.append(bits, 0)
            else:
                bits = bits.copy()
                bits[min(3, len(bits) - 1)] += 1
            return replace(result, flushes=Flushes(trial, entry, msb, bits))

        monkeypatch.setattr(audit, "run_proposed", skewed)
        dump = tmp_path / "cex.txt"
        code, _, err = run_cli(
            capsys, "audit", "--cases", "5", "--seed", "2", "--counterexample", str(dump)
        )
        assert code == 1
        assert err.splitlines()[0] == f"invariant violation [ledger] {message}"
        assert "kind = ledger" in dump.read_text()

    def test_total_msb_bits_checked_against_the_bank(self, capsys, monkeypatch, tmp_path):
        # T*M // W rounded up: the log is right, only the printed count is off
        rounded_up = property(lambda self: -(-self.trial_count * self.m_in_use // self.window))
        monkeypatch.setattr(Ledger, "total_msb_bits", rounded_up)
        code, _, err = run_cli(
            capsys, "audit", "--cases", "5", "--seed", "2", "--counterexample", str(tmp_path / "c")
        )
        assert code == 1
        assert err.splitlines()[0] == (
            "invariant violation [ledger] at trial 40: "
            "proposed_total_msb_bits = 13, bank 12"
        )

    def test_peak_bits_per_trial_checked_against_the_bank(self, capsys, monkeypatch, tmp_path):
        real = Ledger.feed

        def one_too_many(ledger, q, rows):
            flushes = real(ledger, q, rows)
            ledger.peak_bits_per_trial = int(flushes.bits.max()) + 1
            return flushes

        monkeypatch.setattr(Ledger, "feed", one_too_many)
        code, _, err = run_cli(
            capsys, "audit", "--cases", "5", "--seed", "2", "--counterexample", str(tmp_path / "c")
        )
        assert code == 1
        assert err.splitlines()[0] == (
            "invariant violation [ledger] at trial 40: "
            "proposed_peak_bits_per_trial = 2, bank 1"
        )

    def test_each_case_packs_its_trials_once(self, monkeypatch):
        import cryoqaoa.audit as audit
        import cryoqaoa.counters as counters
        import cryoqaoa.ising as ising

        calls = []
        real = ising.pack_trials

        def counted(z):
            calls.append(len(z))
            return real(z)

        for module in (ising, counters, audit):
            if hasattr(module, "pack_trials"):
                monkeypatch.setattr(module, "pack_trials", counted)
        inst = make_instance("path:40")
        trials = np.random.default_rng(3).integers(0, 2, size=(10_000, 40))
        assert audit.check_case(inst, trials, 4) is None
        assert calls == [stop - start for start, stop in row_chunks(10_000, 40)]
        assert len(calls) == 2

    def test_case_beyond_memory_refused_before_the_first_draw(self, capsys, monkeypatch):
        import cryoqaoa.audit as audit

        # default --n-max 8: a case holds up to 36 entries per trial
        memory = audit.CASE_BYTES_PER_CELL * 36 * 100
        monkeypatch.setattr(ising_mod, "physical_memory", lambda: memory)
        assert run_cli(capsys, "audit", "--cases", "3", "--t-max", "100")[0] == 0

        def drawn(*args):
            raise AssertionError("a case was drawn")

        monkeypatch.setattr(audit, "random_instance", drawn)
        code, out, err = run_cli(capsys, "audit", "--cases", "3", "--t-max", "101")
        assert (code, out) == (2, "")
        assert err == (
            f"error: t_max 101 at n_max 8: a case of up to 3636 trial-entry cells needs about "
            f"{3636 * audit.CASE_BYTES_PER_CELL} bytes, more than physical memory ({memory} bytes)\n"
        )

    def test_exhaustive_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--cases", "0", "--n-max", "2", "--exhaustive"
        )
        assert code == 0


class TestConfigFile:
    def test_load_scenario_values(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text(
            "generator = ring:6\ntrials = 50\ncounter_bits = 5\n"
            "gammas = 0.1, 0.2\nbetas = 0.3 0.4\nparallelism = 3\n"
        )
        config = load_scenario(path)
        assert config.generator == "ring:6"
        assert config.trials == 50
        assert config.counter_bits == 5
        assert config.gammas == (0.1, 0.2)
        assert config.betas == (0.3, 0.4)
        assert config.parallelism == 3

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\nbogus = 1\n")
        with pytest.raises(ValueError, match=r"s\.scenario:2.*bogus"):
            load_scenario(path)

    def test_repeated_key_reports_both_lines(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\ntrials = 100\n\ntrials = 200\n")
        code, out, err = run_cli(capsys, "run", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:4: 'trials' repeats line 2\n"

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("trials = soon\n")
        with pytest.raises(ValueError, match=r"s\.scenario:1.*trials"):
            load_scenario(path)

    def test_validate_requires_source_of_instance(self):
        with pytest.raises(ValueError, match="instance"):
            ScenarioConfig().validate()

    def test_empty_angle_list_reports_line(self, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\nsource = synthetic\ngammas =\n")
        with pytest.raises(ValueError, match=r"s\.scenario:3: bad value for 'gammas'"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("gammas = 0.1, 0.2\nbetas = 0.3\n", "same length"),
            pytest.param(
                f"instance = {SCENARIO_DIR / 'ring8.instance'}\n", "exactly one of", id="both"
            ),
        ],
    )
    def test_cross_key_rule_via_cli_exits_2(self, capsys, tmp_path, lines, message):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\nsource = synthetic\n" + lines)
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["--generator", "ring:4"], "ring-4"),
            (["--instance", str(SCENARIO_DIR / "ring8.instance")], "ring-8"),
        ],
        ids=["generator", "instance"],
    )
    def test_flag_replaces_both_source_keys(self, capsys, tmp_path, argv, label):
        path = tmp_path / "s.scenario"
        path.write_text(f"instance = {SCENARIO_DIR / 'ring8.instance'}\ngenerator = ring:6\n")
        code, out, _ = run_cli(capsys, "run", "--config", str(path), "--trials", "10", *argv)
        assert code == 0
        assert summary_dict(out)["label"] == label

    def test_unknown_timings_preset_reports_line(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\nsource = synthetic\ntimings = paper-v9\n")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert err == (
            f"error: {path}:3: bad value for 'timings': "
            "unknown timings preset 'paper-v9'; choose from ['paper-v1']\n"
        )

    def test_relative_instance_path_resolves_against_config(self, tmp_path):
        inst = tmp_path / "tiny.instance"
        inst.write_text("n = 2\n[pairs]\n0 1 = -1\n")
        scenario = tmp_path / "s.scenario"
        scenario.write_text("instance = tiny.instance\n")
        config = load_scenario(scenario)
        assert config.instance_path() == tmp_path / "tiny.instance"

    def test_bad_config_via_cli_exits_2(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\ntrials = -4\n")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "trials" in err
