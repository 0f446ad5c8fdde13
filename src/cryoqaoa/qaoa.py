"""Exact statevector simulation of the alternating-operator circuit.

Basis convention: qubit i is bit i of the amplitude index (little-endian).
Both trial sources draw a (T, N) uint8 array: row t is trial t and
column i is qubit i, so a row z has z[i] = qubit i.  ``sample_chunks`` and
``synthetic_chunks`` yield it in the row chunks of ``ising.row_chunks``,
so a consumer never holds all T rows; ``sample`` and ``synthetic_trials``
return it whole.  The phase separator applies exp(-i*gamma*cost(z)) per
basis state with the classical cost: it exponentiates the distinct costs
(``IsingInstance.phase_levels``, built once per instance) and gathers the
result per amplitude.  The mixer applies exp(-i*beta*X) on every qubit, as
one 2-D matrix product per block of up to ``MIXER_BLOCK_QUBITS`` qubits.
``optimize`` evolves every evaluation in one set of 2^N buffers.  Sampling
uses inverse-CDF draws on the raw PCG64 uniform stream, which numpy keeps
stream-stable across platforms; each chunk's uniforms are searched in
sorted order, which draws the same indices.

Also provides a Bernoulli bitstring source for communication studies at
qubit counts far beyond statevector reach, and a derivative-free parameter
search (coarse grid, then coordinate refinement).  ``synthetic_chunks``
draws each chunk one ahead on a worker thread, from one generator stream
in the serial order.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from _queue import SimpleQueue  # queue.SimpleQueue, without importing queue
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .ising import IsingInstance, chunked_energy, physical_memory, row_chunks

DEFAULT_MAX_QUBITS = 16

# Peak bytes per amplitude while ``prepare_state`` or ``optimize`` runs, by
# tracemalloc (numpy 2.4, 64-bit): state and scratch at 16 B each plus the
# level index at 8 B, and per distinct cost level 8 B for the level and 16 B
# for its phase.  The optimizer's CDF (8 B) lives in the idle half of the
# state/scratch pair, so it adds nothing.  That is 40 B in the limit when
# the levels are few, as on ring:16 (40.3 B to prepare, 40.6 B to optimize)
# and ring:14 (41.1 and 42.0 B), and 64 B when every amplitude has its own
# level, as on an instance with random float coefficients (66.0 and 66.3 B
# on 16 qubits, of which about 130 kB is a fixed numpy cast buffer).
STATEVECTOR_BYTES_PER_AMPLITUDE = 64

# Qubits per mixer block: a 16x16 matmul per block was fastest on ring:16
# (2, 3, 4, 5 and 8 qubits measured; 2-5 again with one 2-D product per
# block).
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


def prepare_state(
    instance: IsingInstance,
    params: QaoaParams,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> np.ndarray:
    """Evolve |+>^N through L alternating phase/mixer layers.

    Returns the 2^N complex amplitude vector, a new array the caller owns;
    unitarity keeps the norm at 1 to within accumulated rounding (~1e-15
    per operation).
    """
    _check_statevector(instance, max_qubits)
    state, scratch = (np.empty(1 << instance.n_qubits, complex) for _ in range(2))
    return _evolve(*instance.phase_levels, params, state, scratch)


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


def _evolve(
    levels: np.ndarray,
    index: np.ndarray,
    params: QaoaParams,
    state: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """The circuit of ``prepare_state`` on the level table of
    ``IsingInstance.phase_levels``, evolved in the two 2^N complex buffers
    ``state`` and ``scratch``; returns the one that holds the result.

    Layer 1 gathers the phases, scaled by the |+>^N amplitude, straight
    into ``state``.  The mixer runs on blocks of up to
    ``MIXER_BLOCK_QUBITS`` qubits, with the block's Kronecker power of
    R_x(beta) built once per layer and block size.  Each block is one 2-D
    ``matmul``: the state viewed as (2^k, rest), transposed, times op.T,
    written to the other buffer as (rest, 2^k).  That mixes the top k
    qubits of the index and rotates them to the bottom, so after blocks
    that sum to N qubits every qubit is mixed once and back in place.
    One 16x16 product over 2^N amplitudes per block keeps BLAS busy;
    products batched over the middle qubits took about 20 % longer.
    """
    n = len(index).bit_length() - 1
    phases = np.empty(len(levels), dtype=complex)
    blocks = [min(MIXER_BLOCK_QUBITS, n - low) for low in range(0, n, MIXER_BLOCK_QUBITS)]
    for layer, (gamma, beta) in enumerate(zip(params.gammas, params.betas)):
        np.exp(np.multiply(-1j * gamma, levels, out=phases), out=phases)
        # mode="clip" writes straight into the output; the default mode copies it
        if layer == 0:
            phases *= 2.0 ** (-n / 2)
            np.take(phases, index, out=state, mode="clip")
        else:
            state *= np.take(phases, index, out=scratch, mode="clip")
        c, s = math.cos(beta), -1j * math.sin(beta)
        rx = np.array([[c, s], [s, c]])
        ops = {k: functools.reduce(np.kron, [rx] * k) for k in set(blocks)}
        for k in blocks:
            # the top k qubits, mixed, become the bottom k
            np.matmul(state.reshape(1 << k, -1).T, ops[k].T, out=scratch.reshape(-1, 1 << k))
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
    if 1 << (size - 1).bit_length() != size:
        raise ValueError(f"statevector length {size} is not a power of two")
    return _draw_chunks(_cdf(state, np.empty(size)), t, seed)


def _cdf(state: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The cumulative sum of |amplitude|^2, normalized to end at exactly 1,
    written into the float buffer ``out``."""
    np.abs(state, out=out)
    np.square(out, out=out)
    np.cumsum(out, out=out)
    out /= out[-1]
    out[-1] = 1.0
    return out


def _draw_chunks(
    cum: np.ndarray, t: int, seed: int | np.random.SeedSequence
) -> Iterator[np.ndarray]:
    """The row chunks of t trials drawn by inverse CDF from ``cum``."""
    n = (len(cum) - 1).bit_length()
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
    """Drawn basis indices as rows of n bits; column i is bit i.

    One ``unpackbits`` of each index's little-endian bytes.
    """
    np.minimum(draws, (1 << n) - 1, out=draws)
    draws = draws.astype("<i8", copy=False)
    return np.unpackbits(
        draws.view(np.uint8).reshape(len(draws), 8), axis=1, count=n, bitorder="little"
    )


def sample(state: np.ndarray, t: int, seed: int | np.random.SeedSequence) -> np.ndarray:
    """All t trials of ``sample_chunks`` as one (t, N) uint8 array."""
    return np.concatenate(list(sample_chunks(state, t, seed)))


def synthetic_chunks(
    marginals: Sequence[float], t: int, seed: int | np.random.SeedSequence
) -> Iterator[np.ndarray]:
    """Deterministic Bernoulli bitstrings with the given per-qubit one-rates:
    the (rows, N) uint8 chunks of ``row_chunks`` of one whole draw
    ``default_rng(seed).random((t, N)) < marginals``, each drawn one chunk
    ahead on a worker thread (``_drawn_ahead``)."""
    p = np.asarray(marginals, dtype=float)
    if p.ndim != 1 or len(p) < 1:
        raise ValueError("marginals must be a nonempty 1-D sequence")
    if not np.all((p >= 0) & (p <= 1)):  # NaN too
        raise ValueError("marginals must lie in [0, 1]")
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    rng = np.random.default_rng(seed)

    def draw(out: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        u = rng.random(out=uniforms[: out.size].reshape(out.shape))
        return np.less(u, p, out=out).view(np.uint8)

    return _drawn_ahead(draw, t, len(p))


def _drawn_ahead(
    draw: Callable[[np.ndarray, np.ndarray], np.ndarray], t: int, n: int
) -> Iterator[np.ndarray]:
    """The ``row_chunks`` of t >= 1 trials of n qubits, each drawn on one
    worker thread while the caller works on the chunk before.

    ``draw(out, uniforms)`` fills the (rows, n) bool array ``out`` with the
    next rows of its stream, using float scratch, and returns it as uint8.
    The worker gets chunk k+1's array only once chunk k is handed over, so
    it is never more than one chunk ahead.  What ``draw`` raises reaches
    the caller in place of its chunk.  The worker is joined at the end, on
    an error and on an early close.  The caller's thread allocates every
    array: glibc keeps a thread's freed blocks in that thread's own malloc
    arena, and chunks allocated on the worker cost about 2 MB of peak RSS.
    """
    todo, done = SimpleQueue(), SimpleQueue()  # arrays to fill; chunks
    sizes = (stop - start for start, stop in row_chunks(t, n))
    first = next(sizes)
    todo.put(np.empty((first, n), dtype=bool))
    uniforms = np.empty(first * n)  # the first chunk is the largest

    def work() -> None:
        while (out := todo.get()) is not None:  # None stops the worker
            try:
                done.put(draw(out, uniforms))
            except BaseException as exc:  # raised again by the caller
                done.put(exc)

    worker = threading.Thread(target=work, name="cryoqaoa-draw")
    worker.start()
    try:
        for rows in itertools.chain(sizes, [0]):
            chunk = done.get()
            if isinstance(chunk, BaseException):
                raise chunk
            if rows:
                todo.put(np.empty((rows, n), dtype=bool))
            yield chunk
    finally:
        todo.put(None)
        worker.join()


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
    of its own deterministic substream of ``seed`` into ``chunked_energy``.
    Every evaluation evolves in the same two 2^N complex buffers,
    allocated once per call, on the instance's one level table, and builds
    its CDF in the buffer that does not hold the result; so the peak stays
    that of ``prepare_state``.
    The best-so-far column of the returned trace is non-increasing.
    """
    if trials_per_step < 1:
        raise ValueError(f"trials_per_step must be >= 1, got {trials_per_step}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")

    _check_statevector(instance, max_qubits)
    levels, index = instance.phase_levels
    size = 1 << instance.n_qubits
    state, scratch = (np.empty(size, complex) for _ in range(2))
    eval_count = 0

    def evaluate(params: QaoaParams) -> float:
        nonlocal eval_count
        evolved = _evolve(levels, index, params, state, scratch)
        # the CDF goes in the first half of the buffer the result is not in
        idle = scratch if evolved is state else state
        cum = _cdf(evolved, idle.view(float)[:size])
        chunks = _draw_chunks(cum, trials_per_step, np.random.SeedSequence((seed, eval_count)))
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
