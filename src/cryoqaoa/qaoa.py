"""Exact statevector simulation of the alternating-operator circuit.

Basis convention: qubit i is bit i of the amplitude index (little-endian).
Both trial sources draw a (T, N) uint8 array: row t is trial t and
column i is qubit i, so a row z has z[i] = qubit i.  ``sample_chunks`` and
``synthetic_chunks`` yield it in the row chunks of ``ising.row_chunks``,
so a consumer never holds all T rows; ``sample`` and ``synthetic_trials``
return it whole.  The phase separator applies exp(-i*gamma*cost(z)) per
basis state with the classical cost: it exponentiates the distinct costs
(``phase_levels``) and gathers the result per amplitude.  The mixer applies
exp(-i*beta*X) on every qubit, as one matrix product per block of up to
``MIXER_BLOCK_QUBITS`` qubits.  Sampling uses inverse-CDF draws on the raw
PCG64 uniform stream, which numpy keeps stream-stable across platforms;
each chunk's uniforms are searched in sorted order, which draws the same
indices.

Also provides a Bernoulli bitstring source for communication studies at
qubit counts far beyond statevector reach, and a derivative-free parameter
search (coarse grid, then coordinate refinement).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .ising import IsingInstance, chunked_energy, physical_memory, row_chunks

DEFAULT_MAX_QUBITS = 16

# Peak bytes per amplitude while ``prepare_state`` or ``optimize`` runs, by
# tracemalloc (numpy 2.4, 64-bit): state and scratch at 16 B each plus the
# level index at 8 B, and per distinct cost level 8 B for the level and 16 B
# for its phase.  That is 40 B in the limit when the levels are few, as on
# ring:16 (40.4 B) and ring:14 (41.4 B), and 64 B when every amplitude has
# its own level, as on an instance with random float coefficients (66.1 B
# on 16 qubits, of which about 130 kB is a fixed numpy cast buffer).
STATEVECTOR_BYTES_PER_AMPLITUDE = 64

# Qubits per mixer block: a 16x16 matmul per block was fastest on ring:16
# (2, 3, 4, 5 and 8 qubits measured).
MIXER_BLOCK_QUBITS = 4


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles of the phase separator and the mixer."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.gammas) != len(self.betas):
            raise ValueError(
                f"gammas ({len(self.gammas)}) and betas ({len(self.betas)}) differ in length"
            )
        if len(self.gammas) < 1:
            raise ValueError("need at least one layer")

    @property
    def n_layers(self) -> int:
        return len(self.gammas)


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


def phase_levels(instance: IsingInstance) -> tuple[np.ndarray, np.ndarray]:
    """The distinct basis-state costs, ascending, and the ``intp`` index of
    every basis state's cost among them: ``levels[index]`` is ``phase_costs``.

    An integer instance on N qubits has O(N^2) levels, so each layer's phase
    separator takes one complex ``exp`` per level, not per amplitude.
    ``np.unique`` is not used: its first call imports ``numpy.ma``, about
    1.7 MB of resident memory.
    """
    costs = phase_costs(instance)
    levels = np.sort(costs)
    levels = levels[np.append(True, levels[1:] != levels[:-1])]
    return levels, np.searchsorted(levels, costs)


def prepare_state(
    instance: IsingInstance,
    params: QaoaParams,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Evolve |+>^N through L alternating phase/mixer layers.

    Returns the 2^N complex amplitude vector; unitarity keeps the norm at 1
    to within accumulated rounding (~1e-15 per operation).
    """
    _check_statevector(instance, max_qubits)
    return _evolve(*phase_levels(instance), params)


def _check_statevector(instance: IsingInstance, max_qubits: int) -> None:
    n = instance.n_qubits
    if n > max_qubits:
        raise ValueError(
            f"{n} qubits needs 2^{n} amplitudes; statevector limit is {max_qubits}"
        )
    needed, memory = STATEVECTOR_BYTES_PER_AMPLITUDE << n, physical_memory()
    if needed > memory:
        raise ValueError(
            f"{n} qubits needs 2^{n} amplitudes, about {needed} bytes to simulate, "
            f"more than physical memory ({memory} bytes)"
        )


def _evolve(levels: np.ndarray, index: np.ndarray, params: QaoaParams) -> np.ndarray:
    """The circuit of ``prepare_state`` on the level table of ``phase_levels``.

    The mixer runs on blocks of up to ``MIXER_BLOCK_QUBITS`` qubits: one
    ``matmul`` of the block's Kronecker power of R_x(beta) over the state
    viewed as (high, 2^k, low), written to the scratch vector, which then
    becomes the state.  A block keeps numpy's inner loops at least 2^k
    amplitudes wide, where one qubit at a time on qubits 1-3 runs loops of
    2-8.
    """
    n = len(index).bit_length() - 1
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    scratch = np.empty_like(state)
    phases = np.empty(len(levels), dtype=complex)
    lows = range(0, n, MIXER_BLOCK_QUBITS)
    blocks = [(low, min(MIXER_BLOCK_QUBITS, n - low)) for low in lows]
    for gamma, beta in zip(params.gammas, params.betas):
        np.exp(np.multiply(-1j * gamma, levels, out=phases), out=phases)
        # mode="clip" writes straight into scratch; the default mode copies it
        state *= np.take(phases, index, out=scratch, mode="clip")
        c, s = math.cos(beta), -1j * math.sin(beta)
        rx = np.array([[c, s], [s, c]])
        for low, k in blocks:
            op = functools.reduce(np.kron, [rx] * k)
            shape = (-1, 1 << k, 1 << low)
            np.matmul(op, state.reshape(shape), out=scratch.reshape(shape))
            state, scratch = scratch, state
    return state


def sample_chunks(
    state: np.ndarray, t: int, seed: int | np.random.SeedSequence
) -> Iterator[np.ndarray]:
    """Draw t independent bitstrings from |amplitude|^2, deterministically.

    Yields (rows, N) uint8 arrays of consecutive trials, in the row chunks
    of ``row_chunks``; column i is bit i of the drawn index.  The
    uniforms of each chunk continue one generator stream, so the rows equal
    those of one whole draw.
    """
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
    rng = np.random.default_rng(seed)
    return (
        _index_bits(_inverse_cdf(cum, rng.random(stop - start)), n)
        for start, stop in row_chunks(t, n)
    )


def _inverse_cdf(cum: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, uniforms, side="right")``, found in ascending
    order of the uniforms and scattered back to their places.

    Each index depends only on its own uniform, so the result is the same;
    ascending keys let each search start where the last one ended, which
    halves the search time on a 2^16 table.
    """
    order = np.argsort(uniforms)
    draws = np.empty(len(uniforms), dtype=np.intp)
    draws[order] = np.searchsorted(cum, uniforms[order], side="right")
    return draws


def _index_bits(draws: np.ndarray, n: int) -> np.ndarray:
    """Drawn basis indices as rows of n bits; column i is bit i."""
    np.minimum(draws, (1 << n) - 1, out=draws)
    bits = np.empty((len(draws), n), dtype=np.uint8)
    for i in range(n):
        bits[:, i] = (draws >> i) & 1
    return bits


def sample(state: np.ndarray, t: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """All t trials of ``sample_chunks`` as one (t, N) uint8 array."""
    return np.concatenate(list(sample_chunks(state, t, seed)))


def synthetic_chunks(
    marginals: Sequence[float], t: int, seed: int | np.random.SeedSequence
) -> Iterator[np.ndarray]:
    """Deterministic Bernoulli bitstrings with the given per-qubit one-rates.

    Yields (rows, N) uint8 arrays of consecutive trials, in the row chunks
    of ``row_chunks``.  The uniforms are drawn chunk by chunk, which
    consumes the generator stream exactly as one (t, N) draw would.
    """
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    p = np.asarray(marginals, dtype=float)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError("marginals must be a nonempty 1-D sequence")
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("marginals must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    return (
        np.less(rng.random((stop - start, len(p))), p).view(np.uint8)
        for start, stop in row_chunks(t, len(p))
    )


def synthetic_trials(
    marginals: Sequence[float], t: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """All t trials of ``synthetic_chunks`` as one (t, N) uint8 array."""
    return np.concatenate(list(synthetic_chunks(marginals, t, seed)))


@dataclass(frozen=True)
class OptStep:
    step: int
    params: QaoaParams
    energy: float
    best_energy: float


def _grid_candidates(l: int) -> list[QaoaParams]:
    # 8x8 coarse grid, broadcast to all layers; includes the exact optima of
    # small max-cut landscapes (multiples of pi/4 and pi/8).
    out = []
    for gi in range(8):
        for bi in range(8):
            gamma = gi * math.pi / 4
            beta = bi * math.pi / 8
            out.append(QaoaParams((gamma,) * l, (beta,) * l))
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
    the incumbent.  Each evaluation streams ``trials_per_step`` bitstrings
    of its own deterministic substream of ``seed`` into ``chunked_energy``;
    the level table of ``phase_levels`` is built once for all evaluations.
    The best-so-far column of the returned trace is non-increasing.
    """
    if trials_per_step < 1:
        raise ValueError(f"trials_per_step must be >= 1, got {trials_per_step}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    _check_statevector(instance, max_qubits)
    levels, index = phase_levels(instance)
    eval_count = 0

    def evaluate(params: QaoaParams) -> float:
        nonlocal eval_count
        state = _evolve(levels, index, params)
        chunks = sample_chunks(state, trials_per_step, np.random.SeedSequence((seed, eval_count)))
        eval_count += 1
        return float(chunked_energy(instance, chunks))

    best_params = initial
    best_energy = evaluate(initial)
    trace = [OptStep(0, initial, best_energy, best_energy)]
    if steps == 0:
        return initial, trace

    l = initial.n_layers
    candidates = iter(_grid_candidates(l))
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
            params = QaoaParams(tuple(gammas), tuple(betas))
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
