import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cryoqaoa
import cryoqaoa.cli as cli
from cryoqaoa.cli import main
from cryoqaoa.config import ScenarioConfig, load_scenario
from cryoqaoa.ising import make_instance

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_non_finite_coefficient_exits_2_with_line(self, capsys, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("n = 2\n[pairs]\n0 1 = nan\n")
        code, _, err = run_cli(capsys, "run", "--instance", str(path))
        assert code == 2
        assert "bad.instance:3" in err

    def test_trial_matrix_beyond_memory_exits_2(self, capsys):
        # the optimizer holds T // 10 trials of each evaluation at once
        code, _, err = run_cli(
            capsys,
            "run",
            "--generator",
            "ring:8",
            "--source",
            "exact",
            "--trials",
            "100000000000000",
            "--optimize-steps",
            "1",
        )
        assert code == 2
        assert "T/10=10000000000000" in err and "N=8" in err

    def test_memory_guard_covers_only_the_optimizer_sample(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "physical_memory", lambda: 1000)
        # 1000 x 40 trial bytes requested, streamed in chunks: not refused
        config = ScenarioConfig(generator="path:40", source="synthetic", trials=1000)
        assert inspect.isgenerator(cli._build_trials(config, make_instance("path:40")))
        synthetic = ("run", "--generator", "path:40", "--source", "synthetic", "--trials", "1000")
        assert run_cli(capsys, *synthetic)[0] == 0
        exact = ("run", "--generator", "ring:8", "--source", "exact", "--trials", "2000")
        assert run_cli(capsys, *exact)[0] == 0
        # with the optimizer, 200 x 8 bytes in one sample: refused
        code, _, err = run_cli(capsys, *exact, "--optimize-steps", "2")
        assert code == 2
        assert "T/10=200 x N=8" in err and "(1000 bytes)" in err

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
        assert f"has {terms} pair terms" in err

    def test_float_tally_error_exits_1(self, capsys, monkeypatch, tmp_path):
        import cryoqaoa.counters as counters

        # one extra hit on the 1e-8 term moves the energy by 1e-10
        path = tmp_path / "tiny.instance"
        path.write_text("n = 3\n[linear]\n0 = 0.75\n2 = 1e-8\n[pairs]\n0 1 = -1.5\n")
        real = counters.Ledger.collect

        def bumped(self):
            collection = real(self)
            collection.totals[2] += 1
            return collection

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
        import cryoqaoa.cli as cli

        def and_hits(q, singles, pairs):
            return np.concatenate((q[singles], q[pairs[:, 0]] & q[pairs[:, 1]]))

        monkeypatch.setattr(cli, "packed_hits", and_hits)
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
        from cryoqaoa.ising import CHUNK_CELLS, worstcase_instance
        from cryoqaoa.qaoa import synthetic_trials

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
        proposed = run_proposed(inst, synthetic_trials([0.3] * 40, t, 12), b)
        expected = [
            f"{trial},{proposed.bits_log[trial - 1]},{i}-{j},msb{msb}"
            for trial, (i, j), msb in proposed.flush_events
        ]
        expected += [f"{t},{b},{i}-{j},readout" for i, j in proposed.totals]
        assert trace.read_text().splitlines()[2:] == expected

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
]


def flag(key):
    return "--" + key.replace("_", "-")


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

    def test_single_point_grid(self, capsys):
        code, out, _ = run_cli(capsys, "fig5a", "--t-list", "1000", "--r-grid", "0.05")
        assert code == 0
        assert len(out.splitlines()) == 3  # comment, header, one row

    def test_empty_grid_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fig5a", "--t-list", "", "--r-grid", "0.05")
        assert code == 2
        assert "empty" in err

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

    def test_diverging_ledger_named_with_its_trial(self, capsys, monkeypatch, tmp_path):
        import dataclasses

        import cryoqaoa.audit as audit

        real = audit.run_proposed

        def skewed(*args, **kwargs):
            result = real(*args, **kwargs)
            log = list(result.bits_log)
            k = min(3, len(log) - 1)
            log[k] += 1
            return dataclasses.replace(result, bits_log=tuple(log))

        monkeypatch.setattr(audit, "run_proposed", skewed)
        dump = tmp_path / "cex.txt"
        code, _, err = run_cli(
            capsys, "audit", "--cases", "5", "--seed", "2", "--counterexample", str(dump)
        )
        assert code == 1
        assert "invariant violation [ledger] at trial 3: trial 3: ledger sent 2 bits" in err

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
            ("timings = paper-v9\n", "unknown timings preset"),
        ],
    )
    def test_cross_key_rule_via_cli_exits_2(self, capsys, tmp_path, lines, message):
        path = tmp_path / "s.scenario"
        path.write_text("generator = ring:6\nsource = synthetic\n" + lines)
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert message in err

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
