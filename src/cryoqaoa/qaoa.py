"""Exact statevector simulation of the alternating-operator circuit.

Basis convention: qubit i is bit i of the amplitude index (little-endian),
so bitstring tuples index positionally, z[i] = qubit i.  The phase
separator applies exp(-i*gamma*cost(z)) per basis state with the classical
cost; the mixer applies exp(-i*beta*X) on every qubit.  Sampling uses
inverse-CDF draws on the raw PCG64 uniform stream, which numpy keeps
stream-stable across platforms.

Also provides a Bernoulli bitstring source for communication studies at
qubit counts far beyond statevector reach, and a derivative-free parameter
search (coarse grid, then coordinate refinement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ising import IsingInstance, cost, sampled_energy

DEFAULT_MAX_QUBITS = 16


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles plus the wire width of one parameter word."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]
    param_bitwidth: int = 32

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas):
            raise ValueError(
                f"gammas ({len(self.gammas)}) and betas ({len(self.betas)}) differ in length"
            )
        if len(self.gammas) < 1:
            raise ValueError("need at least one layer")
        if self.param_bitwidth < 1:
            raise ValueError(f"param_bitwidth must be >= 1, got {self.param_bitwidth}")

    @property
    def n_layers(self) -> int:
        return len(self.gammas)


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> i) & 1 for i in range(n))


def bits_to_index(z: Sequence[int]) -> int:
    index = 0
    for i, bit in enumerate(z):
        if bit:
            index |= 1 << i
    return index


def phase_costs(instance: IsingInstance) -> np.ndarray:
    """Classical cost of every basis state, as a 2^N vector."""
    n = instance.n_qubits
    idx = np.arange(1 << n, dtype=np.int64)
    costs = np.zeros(1 << n)
    for i, coeff in instance.linear.items():
        if coeff != 0:
            costs += float(coeff) * ((idx >> i) & 1)
    for (i, j), coeff in instance.pairs.items():
        if coeff != 0:
            costs += float(coeff) * (((idx >> i) ^ (idx >> j)) & 1)
    return costs


def _apply_mixer(state: np.ndarray, qubit: int, beta: float, n: int) -> None:
    """In-place exp(-i*beta*X) on one qubit."""
    c = math.cos(beta)
    s = -1j * math.sin(beta)
    view = state.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    a0 = view[:, 0, :].copy()
    view[:, 0, :] = c * a0 + s * view[:, 1, :]
    view[:, 1, :] = c * view[:, 1, :] + s * a0


def prepare_state(
    instance: IsingInstance,
    params: QaoaParams,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Evolve |+>^N through L alternating phase/mixer layers.

    Returns the 2^N complex amplitude vector; unitarity keeps the norm at 1
    to within accumulated rounding (~1e-15 per operation).
    """
    n = instance.n_qubits
    if n > max_qubits:
        raise ValueError(
            f"{n} qubits needs 2^{n} amplitudes; statevector limit is {max_qubits}"
        )
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    costs = phase_costs(instance)
    for gamma, beta in zip(params.gammas, params.betas):
        state *= np.exp(-1j * gamma * costs)
        for q in range(n):
            _apply_mixer(state, q, beta, n)
    return state


def sample(
    state: np.ndarray, t: int, seed: int | np.random.SeedSequence
) -> list[tuple[int, ...]]:
    """Draw t independent bitstrings from |amplitude|^2, deterministically."""
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    size = len(state)
    n = (size - 1).bit_length()
    if 1 << n != size:
        raise ValueError(f"statevector length {size} is not a power of two")
    probs = np.abs(np.asarray(state)) ** 2
    cum = np.cumsum(probs)
    cum /= cum[-1]
    cum[-1] = 1.0
    uniforms = np.random.default_rng(seed).random(t)
    draws = np.searchsorted(cum, uniforms, side="right")
    draws = np.minimum(draws, size - 1)
    return [index_to_bits(int(d), n) for d in draws]


def synthetic_trials(
    marginals: Sequence[float], t: int, seed: int | np.random.SeedSequence
) -> list[tuple[int, ...]]:
    """Deterministic Bernoulli bitstrings with the given per-qubit one-rates."""
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    p = np.asarray(marginals, dtype=float)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError("marginals must be a nonempty 1-D sequence")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("marginals must lie in [0, 1]")
    uniforms = np.random.default_rng(seed).random((t, len(p)))
    bits = uniforms < p
    return [tuple(int(b) for b in row) for row in bits]


@dataclass(frozen=True)
class OptStep:
    step: int
    params: QaoaParams
    energy: float
    best_energy: float


def _grid_candidates(l: int, bitwidth: int) -> list[QaoaParams]:
    # 8x8 coarse grid, broadcast to all layers; includes the exact optima of
    # small max-cut landscapes (multiples of pi/4 and pi/8).
    out = []
    for gi in range(8):
        for bi in range(8):
            gamma = gi * math.pi / 4
            beta = bi * math.pi / 8
            out.append(QaoaParams((gamma,) * l, (beta,) * l, bitwidth))
    return out


def optimize(
    instance: IsingInstance,
    initial: QaoaParams,
    trials_per_step: int,
    steps: int,
    seed: int,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> tuple[QaoaParams, list[OptStep]]:
    """Derivative-free search over (gammas, betas) by sampled energy.

    Evaluates the initial point, then up to ``steps`` candidates: first a
    coarse grid, then +/- coordinate moves with shrinking step size around
    the incumbent.  Each evaluation samples ``trials_per_step`` bitstrings
    with its own deterministic substream of ``seed``.  The best-so-far
    column of the returned trace is non-increasing.
    """
    if trials_per_step < 1:
        raise ValueError(f"trials_per_step must be >= 1, got {trials_per_step}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    eval_count = 0

    def evaluate(params: QaoaParams) -> float:
        nonlocal eval_count
        state = prepare_state(instance, params, max_qubits)
        trials = sample(state, trials_per_step, np.random.SeedSequence((seed, eval_count)))
        eval_count += 1
        return float(sampled_energy(instance, trials))

    best_params = initial
    best_energy = evaluate(initial)
    trace = [OptStep(0, initial, best_energy, best_energy)]
    if steps == 0:
        return initial, trace

    l = initial.n_layers
    candidates = iter(_grid_candidates(l, initial.param_bitwidth))
    step_size = math.pi / 8
    coord = 0
    sign = 1
    for k in range(1, steps + 1):
        params = next(candidates, None)
        if params is None:
            gammas = list(best_params.gammas)
            betas = list(best_params.betas)
            if coord < l:
                gammas[coord] += sign * step_size
            else:
                betas[coord - l] += sign * step_size
            params = QaoaParams(tuple(gammas), tuple(betas), initial.param_bitwidth)
            if sign == 1:
                sign = -1
            else:
                sign = 1
                coord += 1
                if coord == 2 * l:
                    coord = 0
                    step_size /= 2
        energy = evaluate(params)
        if energy < best_energy:
            best_energy = energy
            best_params = params
        trace.append(OptStep(k, params, energy, best_energy))
    return best_params, trace
