"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-4 pin the analytical models to their reference points; 5-7 are
the correctness core: the split-counter readout must reproduce the
directly sampled energy bit-exactly under randomized and bounded-exhaustive
workloads, with the stated smoothing and readout guarantees.  Criterion 8
sanity-checks the statevector engine feeding the pipeline.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from cryoqaoa.bandwidth import asymptotic_reduction_ratio, choose_b
from cryoqaoa.counters import run_proposed
from cryoqaoa.ising import IsingInstance, maxcut_instance, sampled_energy
from cryoqaoa.power import system_comparison
from cryoqaoa.qaoa import (
    QaoaParams,
    optimize,
    prepare_state,
    sample,
)
from cryoqaoa.timing import (
    DEFAULT_TIMINGS,
    circuit_time_ns,
    per_qubit_circuit_time_ns,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        return wrapper

    return decorate


@criterion(1, "canonical worst-case circuit time is 750 ns, exact formula within 2%")
def test_criterion_1_circuit_time_preset():
    assert per_qubit_circuit_time_ns(DEFAULT_TIMINGS) == 750
    exact = circuit_time_ns(DEFAULT_TIMINGS, s=0, c=1023, n=1024, l=1, p=1024)
    assert abs(exact - 750) / 750 <= 0.02


@criterion(2, "width choice and reduction reproduce the (T, r) reference points")
def test_criterion_2_staircase_reference_points():
    b_small, feasible_small = choose_b(10**3, 0.05)
    assert (b_small, feasible_small) == (4, True)
    assert 1 - asymptotic_reduction_ratio(4) == 0.875  # 87.5% exactly

    b_large, feasible_large = choose_b(10**7, 0.05)
    assert (b_large, feasible_large) == (15, True)
    reduction_pct = (1 - asymptotic_reduction_ratio(15)) * 100
    assert abs(reduction_pct - 99.993) <= 0.002


@criterion(3, "power crossover at 751 qubits (tolerance 1)")
def test_criterion_3_power_crossover():
    comparison = system_comparison(range(2, 4097))
    assert comparison.crossover_n is not None
    assert abs(comparison.crossover_n - 751) <= 1


@criterion(4, "log-width counters hold 1..3 bits per execution up to 10^6 qubits")
def test_criterion_4_constant_bandwidth():
    t_qc_s = per_qubit_circuit_time_ns(DEFAULT_TIMINGS) * 1e-9
    n = np.arange(4, 1_000_001, dtype=np.int64)
    b = np.frexp(n - 1)[1]  # ceil(log2 n), exact integer arithmetic
    bits_per_exec = (n - 1) / np.exp2(b - 1)
    rates = bits_per_exec / t_qc_s
    assert rates.min() >= 1 / t_qc_s
    assert rates.max() <= 3 / t_qc_s

    # baseline readout grows linearly: slope 1/t_qc per qubit
    for n_point in (100, 10_000, 1_000_000):
        baseline_bps = n_point / t_qc_s
        assert baseline_bps * t_qc_s == pytest.approx(n_point, rel=1e-12)
    slope = (2_000_000 / t_qc_s - 1_000_000 / t_qc_s) / 1_000_000
    assert slope == pytest.approx(1 / t_qc_s, rel=1e-12)


def _random_case(rng):
    n = int(rng.integers(1, 13))
    linear = {
        i: int(rng.integers(-5, 6)) for i in range(n) if rng.random() < 0.5
    }
    pairs = {
        (i, j): int(rng.integers(-5, 6))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    }
    instance = IsingInstance(n, linear, pairs)
    t = int(rng.integers(1, 501))
    trials = [tuple(int(v) for v in row) for row in rng.integers(0, 2, size=(t, n))]
    b = int(rng.integers(2, 9))
    return instance, trials, b


@pytest.fixture(scope="module")
def randomized_suite():
    """1000 randomized counter runs shared by criteria 5 and 6."""
    rng = np.random.default_rng(20250810)
    cases = []
    for _ in range(1000):
        instance, trials, b = _random_case(rng)
        result = run_proposed(instance, trials, width_b=b)
        direct = sampled_energy(instance, trials)
        cases.append((instance, trials, b, result, direct))
    return cases


@criterion(5, "counter energy equals sampled energy exactly (randomized + exhaustive)")
def test_criterion_5_exactness(randomized_suite):
    for instance, trials, b, result, direct in randomized_suite:
        assert isinstance(result.energy, Fraction)
        assert result.energy == direct

    # bounded-exhaustive: every coefficient pattern in {-1,0,1} for N <= 3,
    # cycling trials over all bitstrings, T = 1..8 (odd T included), b = 2
    for n in (1, 2, 3):
        slots = [(i,) for i in range(n)] + [
            (i, j) for i in range(n) for j in range(i + 1, n)
        ]
        strings = [tuple((k >> i) & 1 for i in range(n)) for k in range(1 << n)]
        for coeffs in itertools.product((-1, 0, 1), repeat=len(slots)):
            linear = {s[0]: c for s, c in zip(slots, coeffs) if len(s) == 1}
            pairs = {s: c for s, c in zip(slots, coeffs) if len(s) == 2}
            instance = IsingInstance(n, linear, pairs)
            for t in range(1, 9):
                trials = [strings[k % len(strings)] for k in range(t)]
                result = run_proposed(instance, trials, width_b=2)
                assert result.energy == sampled_energy(instance, trials)

    # and every trial sequence outright, for generic small instances
    one = IsingInstance(1, linear={0: 2})
    for t in range(1, 9):
        for draw in itertools.product(range(2), repeat=t):
            trials = [(bit,) for bit in draw]
            result = run_proposed(one, trials, width_b=2)
            assert result.energy == sampled_energy(one, trials)
    two = IsingInstance(2, linear={0: 2, 1: -3}, pairs={(0, 1): 5})
    strings2 = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for t in range(1, 5):
        for draw in itertools.product(range(4), repeat=t):
            trials = [strings2[k] for k in draw]
            result = run_proposed(two, trials, width_b=2)
            assert result.energy == sampled_energy(two, trials)


@criterion(6, "per-trial sends bounded by ceil(M/2^(b-1)); every window carries M bits")
def test_criterion_6_smoothing(randomized_suite):
    for instance, trials, b, result, _ in randomized_suite:
        m = result.m_in_use
        window = 1 << (b - 1)
        if m:
            assert result.peak_bits_per_trial <= math.ceil(m / window)
        prefix = [0]
        for bits in result.bits_log:
            prefix.append(prefix[-1] + bits)
        for start in range(len(trials) - window + 1):
            assert prefix[start + window] - prefix[start] == m


@criterion(7, "readout pulse stream round-trips every value for widths 2..16")
def test_criterion_7_readout_round_trip():
    from cryoqaoa.counters import CounterEntry, readout_entry

    for b in range(2, 17):
        size = 1 << b
        for v in range(size):
            event = readout_entry(CounterEntry(b, v))
            assert event.pulse_count == size - v
            assert event.recovered_value == v


@criterion(8, "statevector norms, sampling distribution, and 2-node optimum")
def test_criterion_8_engine_sanity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        layers = int(rng.integers(1, 4))
        linear = {i: float(rng.normal()) for i in range(n) if rng.random() < 0.5}
        pairs = {
            (i, j): float(rng.normal())
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        }
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, layers)),
            tuple(rng.uniform(0, 2 * math.pi, layers)),
        )
        state = prepare_state(IsingInstance(n, linear, pairs), params)
        assert abs(np.linalg.norm(state) - 1) < 1e-10

    for n, seed in ((2, 21), (3, 22), (4, 23)):
        edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
        instance = maxcut_instance(edges, n)
        state = prepare_state(instance, QaoaParams((0.9,), (0.55,)))
        t = 100_000
        draws = sample(state, t, seed=seed)
        index = draws.astype(np.int64) @ (1 << np.arange(n))  # qubit i is bit i
        observed = np.bincount(index, minlength=1 << n).astype(float)
        expected = np.abs(state) ** 2
        keep = expected * t > 1e-9
        expected_counts = expected[keep] * observed[keep].sum() / expected[keep].sum()
        assert stats.chisquare(observed[keep], expected_counts).pvalue > 1e-3

    edge = maxcut_instance([(0, 1)], 2)
    _, trace = optimize(edge, QaoaParams((0.0,), (0.0,)), 100, 70, seed=3)
    assert trace[-1].best_energy == -1.0
