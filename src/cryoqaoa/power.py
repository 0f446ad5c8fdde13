"""Cable heat/peripheral power versus cold-side counter power.

Dissipation of the link between room temperature and the 4-K stage is the
per-cable heat inflow plus amplifier draw, times the cable count needed to
carry the required bandwidth.  The counter bank adds an energy-efficient
SFQ entry per provisioned slot whose dynamic power is
bias_current * frequency * flux_quantum * 2; at the default calibration
this is (9.71*b + 16.8) pW per b-bit entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bandwidth import bw_meas_bps, bw_msb_bps, clamp_width
from .timing import DEFAULT_TIMINGS, per_qubit_circuit_time_ns

# Absorbs float rounding when a bandwidth lands exactly on a capacity
# multiple; far below the smallest physical increment of interest.
_CAPACITY_SLACK = 1e-12

_DEFAULT_FREQ_HZ = 1.33e6
_DEFAULT_PHI0_WB = 2.068e-15
_DEFAULT_SCALE = 2 * _DEFAULT_FREQ_HZ * _DEFAULT_PHI0_WB  # watts per ampere


@dataclass(frozen=True)
class CableSpec:
    """Per-cable dissipation and capacity of the 300 K to 4 K link."""

    heat_inflow_mw: float = 1.0
    amp_power_mw: float = 10.5
    capacity_bps: float = 1e9

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError(f"capacity_bps must be positive, got {self.capacity_bps}")
        if self.heat_inflow_mw < 0 or self.amp_power_mw < 0:
            raise ValueError("per-cable dissipation must be non-negative")

    @property
    def power_per_cable_mw(self) -> float:
        return self.heat_inflow_mw + self.amp_power_mw


DEFAULT_CABLE = CableSpec()


@dataclass(frozen=True)
class SfqPowerSpec:
    """Energy-efficient SFQ counter power parameters.

    Per-entry bias current is affine in the width: I(b) = i_fixed + b *
    i_per_bit.  The default currents are back-solved so that the default
    frequency and flux quantum give (9.71*b + 16.8) pW per entry.
    """

    phi0_wb: float = _DEFAULT_PHI0_WB
    freq_hz: float = _DEFAULT_FREQ_HZ
    i_fixed_a: float = 16.8e-12 / _DEFAULT_SCALE
    i_per_bit_a: float = 9.71e-12 / _DEFAULT_SCALE

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


DEFAULT_SFQ = SfqPowerSpec()


def cable_power(bw_bps: float, spec: CableSpec = DEFAULT_CABLE) -> tuple[int, float]:
    """Cables needed for a bandwidth and their total dissipation in mW.

    At least one cable: the control link must exist even at zero rate.
    """
    if bw_bps < 0:
        raise ValueError(f"bandwidth must be non-negative, got {bw_bps}")
    n_cables = max(1, math.ceil(bw_bps / spec.capacity_bps - _CAPACITY_SLACK))
    return n_cables, n_cables * spec.power_per_cable_mw


def counter_power_per_entry_w(b: int, spec: SfqPowerSpec = DEFAULT_SFQ) -> float:
    """Dynamic power of one b-bit entry: I(b) * f * phi0 * 2."""
    if b < 1:
        raise ValueError(f"counter width must be >= 1, got {b}")
    bias_current = spec.i_fixed_a + b * spec.i_per_bit_a
    return bias_current * spec.freq_hz * spec.phi0_wb * 2


def total_counter_power_w(n: int, b: int, spec: SfqPowerSpec = DEFAULT_SFQ) -> float:
    """All N(N+1)/2 provisioned entries draw bias power, used or not."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return n * (n + 1) // 2 * counter_power_per_entry_w(b, spec)


@dataclass(frozen=True)
class PowerReport:
    n_qubits: int
    bw_required_bps: float
    n_cables: int
    cable_power_mw: float
    counter_power_w: float
    total_mw: float
    counter_bits: int | None = None


@dataclass(frozen=True)
class SystemComparison:
    rows: tuple[tuple[PowerReport, PowerReport], ...]
    crossover_n: int | None


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def system_comparison(
    n_range: Sequence[int],
    cable: CableSpec = DEFAULT_CABLE,
    sfq: SfqPowerSpec = DEFAULT_SFQ,
    b_policy: int | str = "log2",
) -> SystemComparison:
    """Baseline versus counter-based dissipation over a qubit-count sweep.

    Worst-case shape throughout (fully parallel, M = N-1 counters in use
    for bandwidth, all N(N+1)/2 entries powered).  The timebase is the
    canonical paper-v1 per-qubit circuit time (750 ns).  ``b_policy`` is a
    fixed width or "log2" for ceil(log2 N), clamped to at least 2.
    Crossover is the first N where the proposed total drops below baseline.
    """
    t_qc_ns = per_qubit_circuit_time_ns(DEFAULT_TIMINGS)
    rows = []
    crossover = None
    for n in n_range:
        if n < 2:
            raise ValueError(f"comparison needs n >= 2, got {n}")
        bw_base = bw_meas_bps(n, t_qc_ns)
        cables_base, cable_mw_base = cable_power(bw_base, cable)
        baseline = PowerReport(
            n_qubits=n,
            bw_required_bps=bw_base,
            n_cables=cables_base,
            cable_power_mw=cable_mw_base,
            counter_power_w=0.0,
            total_mw=cable_mw_base,
        )
        b = clamp_width(_ceil_log2(n) if b_policy == "log2" else int(b_policy))
        bw_prop = bw_msb_bps(n - 1, b, t_qc_ns)
        cables_prop, cable_mw_prop = cable_power(bw_prop, cable)
        counter_w = total_counter_power_w(n, b, sfq)
        proposed = PowerReport(
            n_qubits=n,
            bw_required_bps=bw_prop,
            n_cables=cables_prop,
            cable_power_mw=cable_mw_prop,
            counter_power_w=counter_w,
            total_mw=cable_mw_prop + counter_w * 1e3,
            counter_bits=b,
        )
        rows.append((baseline, proposed))
        if crossover is None and proposed.total_mw < baseline.total_mw:
            crossover = n
    return SystemComparison(rows=tuple(rows), crossover_n=crossover)
