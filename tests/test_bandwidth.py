import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from cryoqaoa.bandwidth import (
    ChosenB,
    asymptotic_reduction_ratio,
    bandwidth_report,
    bw_inst_bps,
    bw_meas_bps,
    bw_msb_bps,
    bw_non_msb_bps,
    choose_b,
    min_collection_time_ns,
    overhead_factor,
    resolve_width,
    staircase_sweep,
)
from cryoqaoa.timing import DEFAULT_TIMINGS, ExecutionProfile, GateTimings, circuit_time_ns


def shape(n, s, c, l, p):
    return ExecutionProfile(n_qubits=n, s=s, c=c, layers=l, parallelism=p)


class TestInstructionBandwidth:
    def test_single_layer_full_parallelism(self):
        # 2*b_p/(t_reset+t_init) independent of N when P=N
        value = bw_inst_bps(shape(100, 0, 99, l=1, p=100), DEFAULT_TIMINGS, b_p=32)
        assert value == pytest.approx(2 * 32 / 110e-9)

    def test_zero_parameter_width(self):
        assert bw_inst_bps(shape(4, 0, 3, 1, 4), DEFAULT_TIMINGS, b_p=0) == 0

    def test_many_layers_approach_per_layer_deadline(self):
        # layers much shorter than the reset+init window: the inter-layer
        # deadline binds and tends to 2*P*b_p/t_L as L grows
        t_l = 10 * 10  # S=0, C=0, N=10, t_rx=10
        value = bw_inst_bps(shape(10, 0, 0, l=10**6, p=10), DEFAULT_TIMINGS, b_p=32)
        assert value == pytest.approx(2 * 10 * 32 / (t_l * 1e-9), rel=1e-5)

    def test_layer_count_validated(self):
        with pytest.raises(ValueError, match="layers"):
            bw_inst_bps(shape(2, 0, 1, 0, 2), DEFAULT_TIMINGS, 32)


class TestMeasurementBandwidth:
    def test_one_bit_per_second(self):
        slow = GateTimings(0, 0, 0, 0, 0, 1e9)  # 1 s measurement
        assert bw_meas_bps(1, circuit_time_ns(slow, 0, 0, 1, l=0, p=1)) == pytest.approx(1.0)

    def test_doubling_parallelism_doubles_rate(self):
        one = bw_meas_bps(10, circuit_time_ns(DEFAULT_TIMINGS, 0, 9, 10, 1, 1))
        two = bw_meas_bps(10, circuit_time_ns(DEFAULT_TIMINGS, 0, 9, 10, 1, 2))
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_zero_circuit_time_rejected(self):
        zero = GateTimings(0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="positive"):
            bw_meas_bps(4, circuit_time_ns(zero, 0, 0, 4, 1, 4))


class TestMsbBandwidth:
    def test_small_example(self):
        # M=4 bits every 2 executions of 1 us
        assert bw_msb_bps(4, 2, t_qc_ns=1000.0) == pytest.approx(2e6)

    def test_increment_halves(self):
        for b in range(2, 12):
            assert bw_msb_bps(7, b + 1, 750.0) == bw_msb_bps(7, b, 750.0) / 2

    def test_log_width_caps_rate(self):
        # b = ceil(log2 N), M = N-1: at most 2 bits per circuit time
        for n in (4, 100, 1024, 10**6):
            b = (n - 1).bit_length()
            rate = bw_msb_bps(n - 1, b, 750.0)
            assert rate <= 2 / 750e-9

    def test_width_validated(self):
        with pytest.raises(ValueError, match="width"):
            bw_msb_bps(4, 1, 750.0)


class TestNonMsbBandwidth:
    def test_small_example(self):
        assert bw_non_msb_bps(10, 3, t_c_ns=1000.0) == pytest.approx(30e6)

    def test_minimal_window_ties_msb_rate(self):
        b, m, t_qc = 5, 33, 750.0
        t_c = min_collection_time_ns(b, t_qc)
        assert bw_non_msb_bps(m, b, t_c) == pytest.approx(bw_msb_bps(m, b, t_qc), rel=1e-12)

    def test_window_is_b_times_msb_period(self):
        for b in (2, 5, 64, 70, 1000, 1005):
            assert min_collection_time_ns(b, 760.0) == b * (1 << (b - 1)) * 760.0

    def test_long_window_vanishes(self):
        assert bw_non_msb_bps(10, 3, 1e18) == pytest.approx(0, abs=1e-3)

    def test_window_validated(self):
        with pytest.raises(ValueError, match="positive"):
            bw_non_msb_bps(10, 3, 0)


class TestChooseB:
    def test_known_points(self):
        assert choose_b(1000, 0.05) == ChosenB(4, True)
        assert choose_b(10**7, 0.05) == ChosenB(15, True)

    def test_integer_boundary(self):
        # 2*r*T = 65: 4*16 = 64 < 65 but 5*32 = 160 >= 65
        assert choose_b(10, 3.25) == ChosenB(4, True)

    def test_infeasible_clamps_to_one(self):
        assert choose_b(10, 0.01) == ChosenB(1, False)

    def test_validation(self):
        with pytest.raises(ValueError, match="trial count"):
            choose_b(0, 0.1)
        for r in (0, -1, math.inf, math.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                choose_b(100, r)

    @given(st.integers(1, 10**8), st.floats(1e-6, 10))
    def test_definition(self, t, r):
        b, feasible = choose_b(t, r)
        if feasible:
            assert b * 2**b < 2 * r * t
        assert (b + 1) * 2 ** (b + 1) >= 2 * r * t or not feasible

    @given(st.integers(1, 10**7), st.floats(1e-6, 1))
    def test_monotone_in_t_and_r(self, t, r):
        b = choose_b(t, r).b
        assert choose_b(t + max(1, t // 10), r).b >= b
        assert choose_b(t, r * 1.5).b >= b


class TestReductionRatio:
    def test_matches_rate_quotient(self):
        n, m, b = 100, 99, 4
        t_qc = circuit_time_ns(DEFAULT_TIMINGS, 0, n - 1, n, 1, n)
        quotient = bw_msb_bps(m, b, t_qc) / bw_meas_bps(n, t_qc)
        report = bandwidth_report(shape(n, 0, m, 1, n), DEFAULT_TIMINGS, 32, 1000, b)
        assert report.reduction_ratio == pytest.approx(quotient, rel=1e-12)
        assert report.reduction_ratio == pytest.approx(m / (n * 2 ** (b - 1)), rel=1e-12)

    def test_asymptotic_values(self):
        assert asymptotic_reduction_ratio(4) == 0.125  # 87.5% reduction
        assert 1 - asymptotic_reduction_ratio(15) == pytest.approx(0.99993896484375)


class TestOverheadFactor:
    def test_known_point(self):
        assert overhead_factor(1000, 4) == pytest.approx(1.032)

    def test_budget_boundary_exact(self):
        # b*2^(b-1) = r*T realizes exactly 1+r
        assert overhead_factor(3200, 4) == 1 + 0.01

    def test_vanishes_for_large_t(self):
        assert overhead_factor(10**15, 1) == pytest.approx(1.0)


def test_measurement_dominates_instruction_transfer_at_scale():
    """At P=N the instruction rate is N-independent while measurement grows
    linearly, so measurement dominates beyond roughly
    2*b_p*t_qc/(t_reset+t_init) qubits (about 14*b_p at default timings)."""
    for n in (1024, 2048, 4096):
        meas = bw_meas_bps(n, circuit_time_ns(DEFAULT_TIMINGS, 0, n - 1, n, 1, n))
        for b_p in (1, 8, 16, 32, 64):
            assert bw_inst_bps(shape(n, 0, n - 1, 1, n), DEFAULT_TIMINGS, b_p) < meas
    # below that scale wide parameters can still dominate
    n = 128
    meas = bw_meas_bps(n, circuit_time_ns(DEFAULT_TIMINGS, 0, n - 1, n, 1, n))
    assert bw_inst_bps(shape(n, 0, n - 1, 1, n), DEFAULT_TIMINGS, 64) > meas
    assert bw_inst_bps(shape(n, 0, n - 1, 1, n), DEFAULT_TIMINGS, 8) < meas


class TestStaircaseSweep:
    def test_known_rows(self):
        rows = staircase_sweep([1000, 10**7], [0.05])
        by_t = {row.trials: row for row in rows}
        assert by_t[1000].b == 4
        assert by_t[1000].reduction_ratio == 0.125
        assert by_t[10**7].b == 15
        assert 1 - by_t[10**7].reduction_ratio >= 0.9999

    def test_staircase_shape(self):
        r_grid = [0.001 * k for k in range(1, 400)]
        rows = staircase_sweep([10**4], r_grid)
        ratios = [row.reduction_ratio for row in rows]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))  # non-increasing in r
        assert len(set(ratios)) < len(ratios)  # piecewise constant plateaus

    def test_infeasible_budget_flagged(self):
        (row,) = staircase_sweep([10], [0.001])
        assert row.b == 1 and not row.feasible

    def test_single_point(self):
        assert len(staircase_sweep([1000], [0.05])) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            staircase_sweep([], [0.05])

    def test_proposed_rate_consistent(self):
        (row,) = staircase_sweep([1000], [0.05], n=750)
        assert row.bw_meas_bps == pytest.approx(1e9)
        assert row.bw_proposed_bps == pytest.approx(row.bw_meas_bps * row.reduction_ratio)


class TestResolveWidth:
    def test_auto_width_from_budget(self):
        assert resolve_width("auto", 1000, 0.05, 750.0) == ChosenB(4, True)

    def test_explicit_width_checked_against_budget(self):
        assert resolve_width(4, 1000, 0.05, 750.0) == ChosenB(4, True)
        assert resolve_width(40, 100, 0.05, 750.0) == ChosenB(40, False)

    def test_auto_width_clamped_to_two_is_infeasible(self):
        # the budget only admits b = 1, which is too narrow to stream an MSB
        assert choose_b(1000, 0.002) == ChosenB(1, True)
        assert resolve_width("auto", 1000, 0.002, 750.0) == ChosenB(2, False)


class TestBandwidthReport:
    def test_proposed_is_max_of_streams(self):
        report = bandwidth_report(shape(8, 0, 7, 1, 8), DEFAULT_TIMINGS, 32, 1000, 4)
        assert report.bw_proposed_bps == max(report.bw_msb_bps, report.bw_non_msb_bps)
        assert report.reduction_ratio == report.bw_proposed_bps / report.bw_meas_bps

    def test_default_window_ties(self):
        report = bandwidth_report(shape(8, 0, 7, 1, 8), DEFAULT_TIMINGS, 32, 1000, 4)
        assert report.bw_proposed_bps == pytest.approx(report.bw_msb_bps, rel=1e-12)

    def test_three_layers_below_full_parallelism_by_hand(self):
        # N = 8, S = 2, C = 1, L = 3, P = 4 at paper-v1 timings, b_p = 32, T = 1000, b = 4:
        # t_layer = 2*10 + 2*1*130 + 8*10 = 360 ns, t_QC = (8*490 + 3*360)/4 = 1250 ns
        report = bandwidth_report(shape(8, 2, 1, 3, 4), DEFAULT_TIMINGS, 32, 1000, 4)
        hand = {
            # the last layer's deadline, 2*P*L*b_p / ((L-1)*t_layer), binds over the first's,
            # 2*P*b_p / (N*(t_reset + t_init)) = 2*4*32 / (8*110 ns)
            "bw_inst_bps": 2 * 4 * 3 * 32 / (2 * 360e-9),
            "bw_meas_bps": 8 / 1250e-9,
            "bw_msb_bps": 3 / (8 * 1250e-9),
            "bw_non_msb_bps": 4 * 3 / (4 * 8 * 1250e-9),
            "bw_proposed_bps": 3 / (8 * 1250e-9),
            "reduction_ratio": 3 / 64,
            "overhead_factor": 1.032,
            "t_c_ns": 4 * 8 * 1250,
        }
        assert dataclasses.asdict(report) == pytest.approx(hand, rel=1e-12)
