from pathlib import Path

import pytest

from cryoqaoa.cli import main
from cryoqaoa.config import ScenarioConfig, load_scenario

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

    def test_config_comment_records_resolution(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--generator", "ring:4", "--trials", "16", "--seed", "3"
        )
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("# config:")
        assert "trials=16" in first
        assert "seed=3" in first


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
        text = dump.read_text()
        assert "divergence_trial =" in text
        assert "[trials]" in text

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
