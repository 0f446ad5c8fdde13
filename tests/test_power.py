import math
from pathlib import Path

import numpy as np
import pytest

from cryoqaoa.bandwidth import clamp_width
from cryoqaoa.cli import _fmt
from cryoqaoa.power import (
    DEFAULT_CABLE,
    DEFAULT_SFQ,
    MAX_SWEEP_N,
    CableSpec,
    SfqPowerSpec,
    cable_power,
    counter_power_per_entry_w,
    link_power,
    system_comparison,
    total_counter_power_w,
)
from cryoqaoa.timing import DEFAULT_TIMINGS, per_qubit_circuit_time_ns

ROOT = Path(__file__).resolve().parent.parent


class TestCablePower:
    def test_two_and_a_half_gbps_needs_three_cables(self):
        n_cables, _ = cable_power(2.5e9)
        assert n_cables == 3

    def test_three_cables_dissipation(self):
        _, power_mw = cable_power(2.5e9)
        assert power_mw == pytest.approx(3 * (1.0 + 10.5))

    def test_zero_bandwidth_keeps_one_cable(self):
        assert cable_power(0.0) == (1, 11.5)

    def test_exact_capacity_multiple_not_overcounted(self):
        n_cables, _ = cable_power(1e9)
        assert n_cables == 1
        n_cables, _ = cable_power(2e9)
        assert n_cables == 2

    def test_just_above_capacity_adds_cable(self):
        n_cables, _ = cable_power(1e9 * 751 / 750)
        assert n_cables == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            cable_power(-1.0)

    @pytest.mark.parametrize("bw", [math.nan, math.inf])
    def test_non_finite_rejected(self, bw):
        with pytest.raises(ValueError, match="finite"):
            cable_power(bw)


class TestCounterPower:
    def test_affine_form_b3(self):
        assert counter_power_per_entry_w(3) * 1e12 == pytest.approx(45.93, rel=1e-9)

    def test_affine_form_b10(self):
        assert counter_power_per_entry_w(10) * 1e12 == pytest.approx(113.9, rel=1e-9)

    def test_affine_match_over_width_range(self):
        for b in range(1, 21):
            expected_pw = 9.71 * b + 16.8
            actual_pw = counter_power_per_entry_w(b) * 1e12
            assert abs(actual_pw - expected_pw) / expected_pw < 0.005

    def test_default_currents_back_solved(self):
        # invert P = I*f*phi0*2 at the defaults
        scale = 2 * DEFAULT_SFQ.freq_hz * DEFAULT_SFQ.phi0_wb
        assert DEFAULT_SFQ.i_per_bit_a == pytest.approx(1.765e-3, rel=1e-3)
        assert DEFAULT_SFQ.i_fixed_a == pytest.approx(3.054e-3, rel=1e-3)
        assert counter_power_per_entry_w(5) == pytest.approx(
            (DEFAULT_SFQ.i_fixed_a + 5 * DEFAULT_SFQ.i_per_bit_a) * scale
        )

    def test_width_validated(self):
        with pytest.raises(ValueError, match="width"):
            counter_power_per_entry_w(0)

    def test_total_n1000_b10(self):
        total = total_counter_power_w(1000, 10)
        assert total == pytest.approx(500500 * 113.9e-12, rel=1e-9)
        assert total == pytest.approx(57e-6, rel=2e-2)  # tens of microwatts

    def test_single_qubit_single_entry(self):
        assert total_counter_power_w(1, 4) == counter_power_per_entry_w(4)

    def test_quadratic_scaling(self):
        ratio = total_counter_power_w(2000, 8) / total_counter_power_w(1000, 8)
        assert ratio == pytest.approx(4, rel=1e-2)


class TestSystemComparison:
    def test_crossover_at_751(self):
        comparison = system_comparison(range(2, 1200))
        assert comparison.crossover_n == 751

    def test_below_crossover_counter_overhead_only(self):
        comparison = system_comparison([100])
        baseline, proposed = comparison.baseline, comparison.proposed
        assert baseline.n_cables[0] == proposed.n_cables[0] == 1
        assert proposed.total_mw[0] > baseline.total_mw[0]
        assert proposed.total_mw[0] - baseline.total_mw[0] == pytest.approx(
            proposed.counter_power_w[0] * 1e3
        )

    def test_baseline_power_is_non_decreasing_step_function(self):
        comparison = system_comparison(range(2, 3000))
        totals = comparison.baseline.total_mw.tolist()
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        levels = sorted(set(totals))
        assert levels == [11.5 * k for k in range(1, len(levels) + 1)]

    def test_baseline_steps_at_capacity_multiples(self):
        t_qc = per_qubit_circuit_time_ns(DEFAULT_TIMINGS)
        baseline = system_comparison(range(2, 3000)).baseline
        for n, n_cables in zip(baseline.n_qubits.tolist(), baseline.n_cables.tolist()):
            expected = max(1, math.ceil(n / t_qc - 1e-9))
            assert n_cables == expected

    def test_proposed_single_cable_far_out(self):
        comparison = system_comparison([10**4, 10**5, 10**6])
        assert comparison.proposed.n_cables.tolist() == [1, 1, 1]

    def test_log_width_rate_bounded(self):
        # b = ceil(log2 N), M = N-1: between 1 and 2 bits per circuit time
        t_qc_s = per_qubit_circuit_time_ns(DEFAULT_TIMINGS) * 1e-9
        comparison = system_comparison([4, 5, 64, 65, 1024, 1025, 10**6])
        for bw in comparison.proposed.bw_required_bps.tolist():
            bits_per_exec = bw * t_qc_s
            assert 1 <= bits_per_exec < 2

    def test_fixed_width_policy(self):
        comparison = system_comparison([64, 128], b_policy=3)
        assert comparison.proposed.counter_bits == 3
        n64, n128 = comparison.proposed.bw_required_bps.tolist()
        assert n128 / n64 == pytest.approx(127 / 63, rel=1e-12)

    def test_free_cables_never_beaten(self):
        # without cable dissipation the counters are pure overhead
        free = CableSpec(heat_inflow_mw=0.0, amp_power_mw=0.0, capacity_bps=1e9)
        comparison = system_comparison(range(2, 2000, 13), cable=free)
        assert comparison.crossover_n is None
        assert np.all(comparison.proposed.total_mw >= comparison.baseline.total_mw)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            system_comparison([1])

    def test_entry_count_stays_exact_up_to_the_int64_bound(self):
        # N(N+1) of MAX_SWEEP_N still fits an int64, so the array sweep
        # matches the scalar call, which counts entries with Python ints
        n = MAX_SWEEP_N
        comparison = system_comparison([n])
        scalar = link_power(n, n - 1, (n - 1).bit_length(), 750)
        assert _rows(comparison.baseline, 1) == [_fields(scalar[0])]
        assert _rows(comparison.proposed, 1) == [_fields(scalar[1])]
        with pytest.raises(ValueError, match=f"n <= {MAX_SWEEP_N}, got {n + 1}"):
            system_comparison([2, n + 1])

    def test_width_beyond_float_range_rejected(self):
        # 2^(b-1) * 750 ns is a finite float up to b = 1015
        wide = system_comparison([2, 3], b_policy=1015).proposed
        assert wide.bw_required_bps.tolist() == [
            link_power(n, n - 1, 1015, 750)[1].bw_required_bps for n in (2, 3)
        ]
        with pytest.raises(ValueError, match="counter width 1016 is too wide"):
            system_comparison([2, 3], b_policy=1016)


REPORT_FIELDS = (
    "n_qubits",
    "bw_required_bps",
    "n_cables",
    "cable_power_mw",
    "counter_power_w",
    "total_mw",
    "counter_bits",
)


def _fields(report):
    """A scalar report's field values, each with its type."""
    return [(type(v), v) for v in (getattr(report, name) for name in REPORT_FIELDS)]


def _rows(report, length):
    """``_fields`` of each element of a report over ``length`` qubit counts;
    a scalar field applies to every element."""
    columns = [
        value.tolist() if isinstance(value, np.ndarray) else [value] * length
        for value in (getattr(report, name) for name in REPORT_FIELDS)
    ]
    return [[(type(v), v) for v in row] for row in zip(*columns)]


# fig5b rows around the powers of two and the crossover at 751
FIG5B_ROWS = (2, 3, 4, 5, 750, 751, 752, 1025, 4096)


class TestLinkPower:
    @pytest.mark.parametrize("n", FIG5B_ROWS)
    def test_scalar_call_reproduces_fig5b_row(self, n):
        b = clamp_width((n - 1).bit_length())
        baseline, proposed = link_power(n, n - 1, b, 750.0)
        fields = (
            baseline.n_qubits,
            baseline.bw_required_bps,
            proposed.bw_required_bps,
            baseline.n_cables,
            proposed.n_cables,
            baseline.total_mw,
            proposed.total_mw,
        )
        # plain numbers: a numpy scalar would print as np.float64(...)
        assert [type(v) for v in fields] == [int, float, float, int, int, float, float]
        rows = (ROOT / "out" / "fig5b_power.csv").read_text().splitlines()[3:]
        assert ",".join(map(_fmt, fields)) == rows[n - 2]

    @pytest.mark.parametrize("b", ["log2", 2, 3, 7])
    def test_array_call_equals_scalar_calls(self, b):
        n = np.concatenate((np.arange(2, 1100), [2047, 2048, 2049, 4095, 4096, 4097, 10**6]))
        widths = clamp_width(np.frexp(n - 1)[1].astype(np.int64)) if b == "log2" else b
        baseline, proposed = link_power(n, n - 1, widths, 750)
        rows = zip(n.tolist(), _rows(baseline, len(n)), _rows(proposed, len(n)))
        for n_i, base_row, prop_row in rows:
            b_i = clamp_width((n_i - 1).bit_length()) if b == "log2" else b
            scalar_base, scalar_prop = link_power(n_i, n_i - 1, b_i, 750)
            assert base_row == _fields(scalar_base)
            assert prop_row == _fields(scalar_prop)

    def test_validation_is_elementwise(self):
        with pytest.raises(ValueError, match="counter width must be >= 2, got 1"):
            link_power(np.array([4, 5]), np.array([3, 4]), np.array([2, 1]), 750)
        with pytest.raises(ValueError, match="counters in use must be >= 1, got 0"):
            link_power(np.array([4, 5]), np.array([3, 0]), 3, 750)
        with pytest.raises(ValueError, match="qubit count must be >= 1, got 0"):
            total_counter_power_w(np.array([3, 0]), 3)
        with pytest.raises(ValueError, match="non-negative"):
            cable_power(np.array([1e9, -1.0]))


def test_log_width_rate_bounded_vectorized_sample():
    """Spot-check the O(1)-rate window over a dense range with numpy."""
    n = np.arange(4, 200_001)
    b = np.frexp(n - 1)[1]  # ceil(log2 n) for n >= 2, exactly
    bits_per_exec = (n - 1) / np.exp2(b - 1)
    assert bits_per_exec.min() >= 1.0
    assert bits_per_exec.max() < 2.0
