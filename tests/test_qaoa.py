import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cryoqaoa.ising import CHUNK_CELLS, IsingInstance, cost, maxcut_instance
from cryoqaoa.qaoa import (
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
