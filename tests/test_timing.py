import math

import pytest
from hypothesis import given, strategies as st

from cryoqaoa.timing import (
    DEFAULT_TIMINGS,
    ExecutionProfile,
    GateTimings,
    PRESETS,
    circuit_time_ns,
    layer_time_ns,
    per_qubit_circuit_time_ns,
)


def test_preset_registered():
    assert PRESETS["paper-v1"] == GateTimings(100, 10, 10, 10, 60, 380)


def test_entangling_block_duration():
    assert DEFAULT_TIMINGS.t_ent_ns == 130  # CNOT + Rz + CNOT


def test_negative_duration_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        GateTimings(-1, 10, 10, 10, 60, 380)


class TestLayerTime:
    def test_single_mixer_only(self):
        t = GateTimings(0, 0, 10, 0, 0, 0)
        assert layer_time_ns(t, s=0, c=0, n=1) == 10

    def test_all_zero(self):
        t = GateTimings(0, 0, 0, 0, 0, 0)
        assert layer_time_ns(t, 3, 5, 8) == 0

    def test_per_qubit_share_approaches_constant(self):
        # S=0, C=N-1: t_L/N -> 2*t_ent + t_rx = 270 ns as N grows
        n = 10**6
        share = layer_time_ns(DEFAULT_TIMINGS, 0, n - 1, n) / n
        assert share == pytest.approx(270, abs=0.01)

    def test_direct_formula(self):
        assert layer_time_ns(DEFAULT_TIMINGS, 2, 3, 4) == 2 * 10 + 2 * 3 * 130 + 4 * 10


class TestCircuitTime:
    def test_overhead_only(self):
        # no layers: N*(reset+init+meas)/P at full parallelism
        assert circuit_time_ns(DEFAULT_TIMINGS, 0, 0, 64, l=0, p=64) == 490

    def test_doubling_parallelism_halves(self):
        slow = circuit_time_ns(DEFAULT_TIMINGS, 0, 9, 10, 1, 1)
        fast = circuit_time_ns(DEFAULT_TIMINGS, 0, 9, 10, 1, 2)
        assert slow == pytest.approx(2 * fast, rel=1e-12)

    def test_zero_parallelism_rejected(self):
        with pytest.raises(ValueError, match="parallelism"):
            circuit_time_ns(DEFAULT_TIMINGS, 0, 0, 4, 1, 0)

    def test_worst_case_at_n_1024(self):
        # (1024*110 + t_L + 1024*380) / 1024 with t_L = 2*1023*130 + 1024*10;
        # the division by a power of two is exact in binary floating point
        value = circuit_time_ns(DEFAULT_TIMINGS, 0, 1023, 1024, 1, 1024)
        assert value == 777980 / 1024 == 759.74609375

    def test_serial_equals_n_times_parallel(self):
        for n in (3, 7, 64):
            serial = circuit_time_ns(DEFAULT_TIMINGS, 0, n - 1, n, 1, 1)
            parallel = circuit_time_ns(DEFAULT_TIMINGS, 0, n - 1, n, 1, n)
            assert serial == pytest.approx(n * parallel, rel=1e-12)


def test_per_qubit_estimate_is_750():
    assert per_qubit_circuit_time_ns(DEFAULT_TIMINGS) == 750


def test_per_qubit_estimate_near_exact_formula():
    # the per-qubit accounting drops the mixer rotation: about 1.3% below
    # the exact worst-case formula at large N
    exact = circuit_time_ns(DEFAULT_TIMINGS, 0, 1023, 1024, 1, 1024)
    estimate = per_qubit_circuit_time_ns(DEFAULT_TIMINGS)
    assert abs(exact - estimate) / estimate < 0.02


durations = st.floats(min_value=0, max_value=1e4)


@given(
    st.tuples(durations, durations, durations, durations, durations, durations),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(1, 50),
    st.integers(0, 4),
)
def test_monotone_in_every_duration(base, s, c, n, l):
    timings = GateTimings(*base)
    p = 1
    reference = circuit_time_ns(timings, s, c, n, l, p)
    for field in (
        "t_reset_ns",
        "t_init_ns",
        "t_rx_ns",
        "t_rz_ns",
        "t_cnot_ns",
        "t_meas_ns",
    ):
        bumped = GateTimings(**{**timings.__dict__, field: getattr(timings, field) + 1})
        assert circuit_time_ns(bumped, s, c, n, l, p) >= reference


@given(st.integers(0, 20), st.integers(0, 20), st.integers(1, 40), st.integers(0, 5))
def test_monotone_in_shape(s, c, n, l):
    ref = circuit_time_ns(DEFAULT_TIMINGS, s, c, n, l, 1)
    assert circuit_time_ns(DEFAULT_TIMINGS, s + 1, c, n, l, 1) >= ref
    assert circuit_time_ns(DEFAULT_TIMINGS, s, c + 1, n, l, 1) >= ref
    assert circuit_time_ns(DEFAULT_TIMINGS, s, c, n + 1, l, 1) >= ref
    assert circuit_time_ns(DEFAULT_TIMINGS, s, c, n, l + 1, 1) >= ref
    assert circuit_time_ns(DEFAULT_TIMINGS, s, c, n, l, 2) <= ref


class TestExecutionProfile:
    def test_worst_case_shape(self):
        profile = ExecutionProfile(n_qubits=16, s=0, c=15, layers=1, parallelism=16)
        assert (profile.s, profile.c, profile.parallelism) == (0, 15, 16)
        assert profile.circuit_time_ns(DEFAULT_TIMINGS) == circuit_time_ns(
            DEFAULT_TIMINGS, 0, 15, 16, 1, 16
        )

    def test_parallelism_bounds(self):
        with pytest.raises(ValueError, match="parallelism"):
            ExecutionProfile(4, 0, 3, 1, 5)
        with pytest.raises(ValueError, match="parallelism"):
            ExecutionProfile(4, 0, 3, 1, 0)

    def test_layer_time_delegates(self):
        profile = ExecutionProfile(8, 2, 7, 3, 4)
        assert profile.layer_time_ns(DEFAULT_TIMINGS) == layer_time_ns(
            DEFAULT_TIMINGS, 2, 7, 8
        )
