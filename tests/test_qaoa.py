import functools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import cryoqaoa
import cryoqaoa.ising as ising
import cryoqaoa.qaoa as qaoa
from cryoqaoa.cli import main
from cryoqaoa.ising import (
    CHUNK_CELLS,
    IsingInstance,
    cost,
    maxcut_instance,
    phase_costs,
    ring_instance,
    sampled_energy,
)
from cryoqaoa.qaoa import (
    STATEVECTOR_BYTES_PER_AMPLITUDE,
    QaoaParams,
    optimize,
    prepare_state,
    sample,
    sample_chunks,
    synthetic_trials,
)

EDGE = maxcut_instance([(0, 1)], 2)


def basis_indices(bits):
    """Basis index of every trial row: qubit i is bit i."""
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1]))


def assert_trials(bits, expected):
    assert bits.dtype == np.uint8
    assert bits.shape == np.shape(expected)
    assert np.array_equal(bits, expected)


class TestParams:
    def test_layer_count(self):
        assert QaoaParams((0.1, 0.2), (0.3, 0.4)).n_layers == 2

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            QaoaParams((0.1,), (0.2, 0.3))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            QaoaParams((), ())


class TestPrepareState:
    def test_zero_angles_give_uniform_state(self):
        state = prepare_state(EDGE, QaoaParams((0.0,), (0.0,)))
        assert np.allclose(state, 0.5)

    def test_single_qubit_phase(self):
        inst = IsingInstance(1, linear={0: 1})
        state = prepare_state(inst, QaoaParams((math.pi,), (0.0,)))
        r = 1 / math.sqrt(2)
        assert state[0] == pytest.approx(r)
        assert state[1] == pytest.approx(-r)  # exp(-i*pi) on the z=1 state

    def test_phase_only_keeps_magnitudes_uniform(self):
        inst = maxcut_instance([(0, 1), (1, 2), (0, 2)], 3)
        state = prepare_state(inst, QaoaParams((0.7, 1.3), (0.0, 0.0)))
        assert np.allclose(np.abs(state), 2.0 ** (-1.5))

    def test_capacity_limit(self):
        inst = IsingInstance(5)
        with pytest.raises(ValueError, match="limit"):
            prepare_state(inst, QaoaParams((0.1,), (0.2,)), max_qubits=4)

    def test_state_beyond_memory_refused_before_allocating(self, monkeypatch):
        monkeypatch.setattr(ising, "physical_memory", lambda: STATEVECTOR_BYTES_PER_AMPLITUDE * 511)
        params = QaoaParams((0.1,), (0.2,))
        prepare_state(IsingInstance(8), params)  # 256 amplitudes fit
        for call in (
            lambda: prepare_state(IsingInstance(9), params),
            lambda: optimize(IsingInstance(9), params, 10, 1, seed=0),
        ):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == (
                "simulating 2^9 amplitudes of 9 qubits needs about 32768 bytes, "
                "more than physical memory (32704 bytes)"
            )

    @pytest.mark.parametrize("stage", ["prepare_state", "optimize"])
    def test_peak_within_statevector_guard_estimate(self, stage):
        inst = ring_instance(16)
        params = QaoaParams((0.5,), (0.25,))
        tracemalloc.start()
        try:
            if stage == "prepare_state":
                prepare_state(inst, params)
            else:
                optimize(inst, params, trials_per_step=100, steps=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= STATEVECTOR_BYTES_PER_AMPLITUDE << 16

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            linear = {i: float(rng.normal()) for i in range(n) if rng.random() < 0.5}
            pairs = {
                (i, j): float(rng.normal())
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            }
            layers = int(rng.integers(1, 4))
            params = QaoaParams(
                tuple(rng.uniform(0, 2 * math.pi, layers)),
                tuple(rng.uniform(0, 2 * math.pi, layers)),
            )
            state = prepare_state(IsingInstance(n, linear, pairs), params)
            assert abs(np.linalg.norm(state) - 1) < 1e-10


def random_instance(n, kind, seed):
    """Every qubit has a linear term and about half the pairs are present;
    "float" coefficients give as many cost levels as amplitudes."""
    rng = np.random.default_rng(seed)
    draw = {
        "integer": lambda: int(rng.integers(-3, 4)),
        "fraction": lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
        "float": lambda: float(rng.normal()),
    }[kind]
    linear = {i: draw() for i in range(n)}
    pairs = {(i, j): draw() for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
    return IsingInstance(n, linear, pairs)


def dense_oracle_state(instance, params):
    """The circuit as dense 2^N x 2^N matrices: diag(exp(-i*gamma*C)), then
    the Kronecker product of R_x(beta) over all N qubits."""
    n = instance.n_qubits
    costs = [
        float(cost(instance, tuple((k >> i) & 1 for i in range(n)))) for k in range(1 << n)
    ]
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    for gamma, beta in zip(params.gammas, params.betas):
        c, s = math.cos(beta), -1j * math.sin(beta)
        mixer = functools.reduce(np.kron, [np.array([[c, s], [s, c]])] * n)
        state = mixer @ (np.diag(np.exp(-1j * gamma * np.array(costs))) @ state)
    return state


class TestDenseOracle:
    @pytest.mark.parametrize("kind", ["integer", "fraction", "float"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_prepare_state_matches_dense_matrices(self, n, kind):
        # n = 1..9 covers mixer blocks of 1, 2 and 3 qubits after whole
        # 4-qubit blocks; the layer count cycles through 1, 2 and 3
        instance = random_instance(n, kind, seed=n)
        rng = np.random.default_rng(100 + n)
        layers = 1 + n % 3
        params = QaoaParams(
            tuple(rng.uniform(0, 2 * math.pi, layers)), tuple(rng.uniform(0, math.pi, layers))
        )
        state = prepare_state(instance, params)
        assert np.max(np.abs(state - dense_oracle_state(instance, params))) < 1e-12

    @pytest.mark.parametrize("kind", ["integer", "fraction", "float"])
    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_level_table_rebuilds_phase_costs(self, n, kind):
        instance = random_instance(n, kind, seed=n)
        levels, index = instance.phase_levels
        assert index.dtype == np.intp
        assert np.all(np.diff(levels) > 0)
        assert np.array_equal(levels[index], phase_costs(instance))
        if kind == "float":
            assert len(levels) == 1 << n


class TestPhaseCosts:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_integer_costs_equal_cost_of_each_bitstring(self, n):
        # a zero linear and a zero pair coefficient, whatever the draw
        base = random_instance(n, "integer", seed=n)
        pairs = {**base.pairs, (0, n - 1): 0} if n > 1 else {}
        instance = IsingInstance(n, {**base.linear, n - 1: 0}, pairs)
        costs = phase_costs(instance)
        assert costs.shape == (1 << n,)
        for k in range(1 << n):
            z = tuple((k >> i) & 1 for i in range(n))
            assert costs[k] == float(cost(instance, z))

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_float_costs_equal_a_per_term_loop_in_dict_order(self, n):
        instance = random_instance(n, "float", seed=50 + n)
        k = np.arange(1 << n)
        expected = np.zeros(1 << n)
        for i, coeff in instance.linear.items():
            expected += coeff * ((k >> i) & 1)
        for (i, j), coeff in instance.pairs.items():
            expected += coeff * (((k >> i) ^ (k >> j)) & 1)
        assert np.array_equal(phase_costs(instance), expected)

    def test_exact_run_builds_one_level_table(self, capsys, monkeypatch):
        calls = []

        def counting(instance):
            calls.append(instance.n_qubits)
            return phase_costs(instance)

        monkeypatch.setattr(ising, "phase_costs", counting)
        argv = "run --generator ring:8 --source exact --trials 400 --optimize-steps 3"
        assert main(argv.split()) == 0
        assert "energies_equal=true" in capsys.readouterr().out
        assert calls == [8]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 20])
def test_index_bits_are_shift_and_mask_bits(n):
    rng = np.random.default_rng(n)
    draws = rng.integers(0, 1 << n, size=1000, dtype=np.intp)
    draws[:2] = 0, (1 << n) - 1
    expected = ((draws[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    assert_trials(qaoa._index_bits(draws.copy(), n), expected)


# Minor page faults of one ``optimize`` call on ring:14, in a fresh process.
FAULTS_SCRIPT = """
import resource, sys
from cryoqaoa.ising import ring_instance
from cryoqaoa.qaoa import QaoaParams, optimize
instance, params = ring_instance(14), QaoaParams((0.5,), (0.25,))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
optimize(instance, params, trials_per_step=100, steps=int(sys.argv[1]), seed=0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def optimize_minor_faults(steps):
    src = str(Path(cryoqaoa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT, str(steps)],
        env=env, capture_output=True, text=True, check=True,
    )
    return int(proc.stdout)


def test_optimizer_reuses_its_buffers_across_evaluations():
    # 22 more evaluations may fault in fewer pages than one 2^14 complex
    # state buffer (256 kB, 64 pages of 4 kB)
    assert optimize_minor_faults(24) - optimize_minor_faults(2) < 64


def test_bit_index_round_trip():
    for k in range(16):
        state = np.zeros(16, dtype=complex)
        state[k] = 1.0
        assert basis_indices(sample(state, 1, seed=0)).tolist() == [k]
    state = np.zeros(8, dtype=complex)
    state[1] = 1.0
    assert sample(state, 1, seed=0).tolist() == [[1, 0, 0]]  # qubit 0 is the low bit


class TestSample:
    def test_basis_state_always_drawn(self):
        state = np.zeros(8, dtype=complex)
        state[5] = 1.0
        assert_trials(sample(state, 20, seed=4), [(1, 0, 1)] * 20)

    def test_same_seed_same_sequence(self):
        state = prepare_state(EDGE, QaoaParams((0.4,), (0.9,)))
        assert_trials(sample(state, 50, seed=7), sample(state, 50, seed=7))

    def test_different_seed_differs(self):
        state = prepare_state(EDGE, QaoaParams((0.4,), (0.9,)))
        draws = sample(state, 50, seed=7)
        assert draws.dtype == np.uint8 and draws.shape == (50, 2)
        assert not np.array_equal(draws, sample(state, 50, seed=8))

    def test_uniform_frequencies_within_five_sigma(self):
        n, t = 3, 100_000
        state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
        draws = sample(state, t, seed=123)
        assert draws.dtype == np.uint8 and draws.shape == (t, n)
        p = 1 / (1 << n)
        sigma = math.sqrt(p * (1 - p) / t)
        counts = np.bincount(basis_indices(draws), minlength=1 << n)
        for k in range(1 << n):
            assert abs(counts[k] / t - p) < 5 * sigma

    def test_chi_square_against_amplitudes(self):
        inst = maxcut_instance([(0, 1), (1, 2), (2, 3), (0, 3)], 4)
        state = prepare_state(inst, QaoaParams((0.8,), (0.6,)))
        t = 100_000
        draws = sample(state, t, seed=99)
        observed = np.bincount(basis_indices(draws), minlength=16).astype(float)
        expected = np.abs(state) ** 2 * t
        keep = expected > 1e-9  # chi-square undefined on zero-probability cells
        result = stats.chisquare(observed[keep], expected[keep] * observed[keep].sum() / expected[keep].sum())
        assert result.pvalue > 1e-3

    def test_chunked_draws_equal_one_whole_draw(self):
        # four qubits at T = 150000 span three row chunks
        n, t = 4, 150_000
        state = prepare_state(
            maxcut_instance([(0, 1), (1, 2), (2, 3)], n), QaoaParams((0.8,), (0.6,))
        )
        chunks = list(sample_chunks(state, t, seed=41))
        assert len(chunks) == 3
        assert all(chunk.size <= CHUNK_CELLS for chunk in chunks)
        cum = np.cumsum(np.abs(state) ** 2)
        cum /= cum[-1]
        cum[-1] = 1.0
        whole = np.searchsorted(cum, np.random.default_rng(41).random(t), side="right")
        expected = ((whole[:, None] >> np.arange(n)) & 1).astype(np.uint8)
        assert_trials(np.concatenate(chunks), expected)
        assert_trials(sample(state, t, seed=41), expected)

    def test_trial_count_validated(self):
        with pytest.raises(ValueError, match="trial count"):
            sample(np.array([1.0 + 0j]), 0, seed=1)


class TestSynthetic:
    def test_all_zero_marginals(self):
        assert_trials(synthetic_trials([0.0] * 4, 10, seed=0), [(0, 0, 0, 0)] * 10)

    def test_all_one_marginals(self):
        assert_trials(synthetic_trials([1.0] * 3, 5, seed=0), [(1, 1, 1)] * 5)

    def test_half_marginals_within_five_sigma(self):
        n, t = 64, 10_000
        trials = synthetic_trials([0.5] * n, t, seed=17)
        sigma = math.sqrt(0.25 / t)
        means = np.mean(trials, axis=0)
        assert np.all(np.abs(means - 0.5) < 5 * sigma)

    def test_deterministic(self):
        assert_trials(
            synthetic_trials([0.3, 0.7], 20, seed=5), synthetic_trials([0.3, 0.7], 20, seed=5)
        )

    def test_chunked_draws_equal_one_whole_draw(self):
        # path:40 at T = 10000 spans two row chunks
        n, t = 40, 10_000
        assert t * n > CHUNK_CELLS
        p = np.linspace(0.05, 0.95, n)
        whole = np.random.default_rng(31).random((t, n)) < p
        assert_trials(synthetic_trials(p, t, seed=31), whole.astype(np.uint8))

    def test_marginal_range_validated(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            synthetic_trials([1.5], 5, seed=0)


class TestTrialStream:
    """Both trial sources draw a deterministic (T, N) uint8 bit array."""

    def test_synthetic_stream_draws(self):
        assert_trials(synthetic_trials((0.0, 1.0), 6, seed=2), [(0, 1)] * 6)

    def test_exact_stream_draws(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        assert_trials(sample(state, 3, seed=0), [(0, 1)] * 3)


class TestOptimize:
    def test_zero_steps_returns_initial(self):
        initial = QaoaParams((0.2,), (0.1,))
        params, trace = optimize(EDGE, initial, trials_per_step=20, steps=0, seed=0)
        assert params == initial
        assert len(trace) == 1

    def test_deterministic_given_seed(self):
        initial = QaoaParams((0.0,), (0.0,))
        _, trace_a = optimize(EDGE, initial, 50, 20, seed=13)
        _, trace_b = optimize(EDGE, initial, 50, 20, seed=13)
        assert [(s.energy, s.best_energy) for s in trace_a] == [
            (s.energy, s.best_energy) for s in trace_b
        ]

    def test_best_so_far_non_increasing(self):
        _, trace = optimize(EDGE, QaoaParams((0.0,), (0.0,)), 30, 40, seed=2)
        best = [s.best_energy for s in trace]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_two_node_maxcut_reaches_optimum(self):
        # the coarse grid contains an exact solution of the single-edge
        # landscape, where every sample lands on a cut string
        _, trace = optimize(EDGE, QaoaParams((0.0,), (0.0,)), 100, 70, seed=3)
        assert trace[-1].best_energy == -1.0

    def test_energy_is_sampled_energy_of_the_same_draw(self):
        # 100000 ring:8 trials span four row chunks of the stream
        inst, initial = ring_instance(8), QaoaParams((0.4,), (0.3,))
        _, trace = optimize(inst, initial, trials_per_step=100_000, steps=0, seed=5)
        trials = sample(prepare_state(inst, initial), 100_000, np.random.SeedSequence((5, 0)))
        assert trace[0].energy == float(sampled_energy(inst, trials))

    def test_streams_its_samples(self):
        # one evaluation's (T, N) sample would take 8 MB
        inst = ring_instance(8)
        tracemalloc.start()
        try:
            optimize(inst, QaoaParams((0.4,), (0.3,)), trials_per_step=1_000_000, steps=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_grid_oracle_confirms_attainable_optimum(self):
        # exhaustive scan: expected cost min over the same grid is -1
        best = 0.0
        for gi in range(8):
            for bi in range(8):
                params = QaoaParams((gi * math.pi / 4,), (bi * math.pi / 8,))
                probs = np.abs(prepare_state(EDGE, params)) ** 2
                energy = sum(
                    probs[k] * cost(EDGE, ((k >> 0) & 1, (k >> 1) & 1)) for k in range(4)
                )
                best = min(best, energy)
        assert best == pytest.approx(-1.0, abs=1e-12)
