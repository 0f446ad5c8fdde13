"""Analytical execution-time model for the alternating-layer circuit.

All durations are in nanoseconds.  A layer applies S single-qubit Z
rotations, C entangling blocks (CNOT-Rz-CNOT), and N X rotations; circuit
time divides the serial gate count by the one-qubit parallelism P
(two-qubit parallelism P/2 is folded into the 2C coefficient).
"""

from __future__ import annotations

from dataclasses import dataclass

_NS_PER_S = 1e9


@dataclass(frozen=True)
class GateTimings:
    """Per-gate durations in nanoseconds."""

    t_reset_ns: float
    t_init_ns: float
    t_rx_ns: float
    t_rz_ns: float
    t_cnot_ns: float
    t_meas_ns: float

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def t_ent_ns(self) -> float:
        """Entangling block: CNOT, Rz, CNOT."""
        return 2 * self.t_cnot_ns + self.t_rz_ns


DEFAULT_TIMINGS = GateTimings(
    t_reset_ns=100, t_init_ns=10, t_rx_ns=10, t_rz_ns=10, t_cnot_ns=60, t_meas_ns=380
)

PRESETS: dict[str, GateTimings] = {"paper-v1": DEFAULT_TIMINGS}


def layer_time_ns(timings: GateTimings, s: int, c: int, n: int) -> float:
    """Serial gate time of one layer: S*t_rz + 2C*t_ent + N*t_rx."""
    return s * timings.t_rz_ns + 2 * c * timings.t_ent_ns + n * timings.t_rx_ns


def circuit_time_ns(
    timings: GateTimings, s: int, c: int, n: int, l: int, p: int
) -> float:
    """Whole-circuit time: (N*(reset+init+meas) + L*layer) / P."""
    if p < 1:
        raise ValueError(f"parallelism must be >= 1, got {p}")
    serial = (
        n * (timings.t_reset_ns + timings.t_init_ns + timings.t_meas_ns)
        + l * layer_time_ns(timings, s, c, n)
    )
    return serial / p

def per_qubit_circuit_time_ns(timings: GateTimings) -> float:
    """Canonical per-qubit estimate of the fully parallel worst-case circuit.

    Counts reset + init + two entangling blocks + measurement per qubit,
    dropping the mixer rotation and the (N-1)/N factor on entangling blocks.
    At the default timings this is exactly 750 ns; the exact formula in
    ``circuit_time_ns`` at finite N is about 1% higher (~760 ns as N grows).
    """
    return timings.t_reset_ns + timings.t_init_ns + 2 * timings.t_ent_ns + timings.t_meas_ns


@dataclass(frozen=True)
class ExecutionProfile:
    """Problem shape plus parallelism, enough to price a circuit execution."""

    n_qubits: int
    s: int
    c: int
    layers: int
    parallelism: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if self.s < 0 or self.c < 0 or self.layers < 1:
            raise ValueError("term counts must be non-negative and layers >= 1")
        if not 1 <= self.parallelism <= self.n_qubits:
            raise ValueError(
                f"parallelism must be in [1, {self.n_qubits}], got {self.parallelism}"
            )

    def layer_time_ns(self, timings: GateTimings) -> float:
        return layer_time_ns(timings, self.s, self.c, self.n_qubits)

    def circuit_time_ns(self, timings: GateTimings) -> float:
        return circuit_time_ns(
            timings, self.s, self.c, self.n_qubits, self.layers, self.parallelism
        )
