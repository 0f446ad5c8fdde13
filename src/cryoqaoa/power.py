"""Cable heat/peripheral power versus cold-side counter power.

Dissipation of the link between room temperature and the 4-K stage is the
per-cable heat inflow plus amplifier draw, times the cable count needed to
carry the required bandwidth.  The counter bank adds an energy-efficient
SFQ entry per provisioned slot whose dynamic power is
bias_current * frequency * flux_quantum * 2; at the default calibration
this is (9.71*b + 16.8) pW per b-bit entry.

``link_power`` is the one place that prices a link, baseline against
counters.  It and the formulas it is built from are array-valued: given
numpy arrays over a qubit-count axis they return arrays over that axis,
with the same float operations as for scalars, and given scalars they
return plain numbers.  ``system_comparison`` prices a whole sweep in one
call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bandwidth import _plain, bw_meas_bps, bw_msb_bps, clamp_width
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


def cable_power(
    bw_bps: float | np.ndarray, spec: CableSpec = DEFAULT_CABLE
) -> tuple[int | np.ndarray, float | np.ndarray]:
    """Cables needed for a bandwidth and their total dissipation in mW.

    At least one cable: the control link must exist even at zero rate.
    """
    if not np.all(np.isfinite(bw_bps) & (bw_bps >= 0)):
        raise ValueError(f"bandwidth must be finite and non-negative, got {bw_bps}")
    ceil = np.ceil(bw_bps / spec.capacity_bps - _CAPACITY_SLACK)
    n_cables = _plain(np.maximum(ceil, 1).astype(np.int64))
    return n_cables, n_cables * spec.power_per_cable_mw


def counter_power_per_entry_w(
    b: int | np.ndarray, spec: SfqPowerSpec = DEFAULT_SFQ
) -> float | np.ndarray:
    """Dynamic power of one b-bit entry: I(b) * f * phi0 * 2."""
    if np.any(b < 1):
        raise ValueError(f"counter width must be >= 1, got {np.min(b)}")
    bias_current = spec.i_fixed_a + b * spec.i_per_bit_a
    return bias_current * spec.freq_hz * spec.phi0_wb * 2


def total_counter_power_w(
    n: int | np.ndarray, b: int | np.ndarray, spec: SfqPowerSpec = DEFAULT_SFQ
) -> float | np.ndarray:
    """All N(N+1)/2 provisioned entries draw bias power, used or not."""
    if np.any(n < 1):
        raise ValueError(f"qubit count must be >= 1, got {np.min(n)}")
    return n * (n + 1) // 2 * counter_power_per_entry_w(b, spec)


@dataclass(frozen=True)
class PowerReport:
    """One side of a link; each field is an array over the qubit counts
    when ``link_power`` was given arrays."""

    n_qubits: int | np.ndarray
    bw_required_bps: float | np.ndarray
    n_cables: int | np.ndarray
    cable_power_mw: float | np.ndarray
    counter_power_w: float | np.ndarray
    total_mw: float | np.ndarray
    counter_bits: int | np.ndarray | None = None


def link_power(
    n: int | np.ndarray,
    m: int | np.ndarray,
    b: int | np.ndarray,
    t_qc_ns: float,
    cable: CableSpec = DEFAULT_CABLE,
    sfq: SfqPowerSpec = DEFAULT_SFQ,
) -> tuple[PowerReport, PowerReport]:
    """The baseline and the proposed link of N qubits at circuit time t_QC.

    The baseline reads out N bits per circuit execution.  The proposed link
    streams the MSBs of the M counters in use, b bits wide, and powers all
    N(N+1)/2 provisioned entries.  ``n``, ``m`` and ``b`` may be arrays
    over one axis of qubit counts, a scalar among them applying to all;
    the baseline's counter power is 0.0 either way.
    """
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
    bw_prop = bw_msb_bps(m, b, t_qc_ns)
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
    return baseline, proposed


@dataclass(frozen=True)
class SystemComparison:
    """The ``link_power`` pair over a sweep, and the first N at which the
    proposed total drops below the baseline (None if it never does)."""

    baseline: PowerReport
    proposed: PowerReport
    crossover_n: int | None


# Peak bytes per qubit count while ``fig5b`` sweeps, by tracemalloc (numpy
# 2.4, 64-bit): 96.0 B with the log2 width policy and 80.3 B with a fixed
# width, at n_max 65536 to 1e6.  The columns of the sweep take 80 B of it.
# About 0.27 MB more is fixed (the ``cli`` row blocks), which is most of
# the peak below a few thousand qubit counts.
SWEEP_BYTES_PER_N = 100

# The largest N whose N(N+1) fits in an int64, so a sweep counts the
# provisioned entries exactly.
MAX_SWEEP_N = 3_037_000_499


def system_comparison(
    n_range: Sequence[int] | np.ndarray,
    cable: CableSpec = DEFAULT_CABLE,
    sfq: SfqPowerSpec = DEFAULT_SFQ,
    b_policy: int | str = "log2",
) -> SystemComparison:
    """Baseline versus counter-based dissipation over a qubit-count sweep.

    Worst-case shape throughout (fully parallel, M = N-1 counters in use
    for bandwidth, all N(N+1)/2 entries powered).  The timebase is the
    canonical paper-v1 per-qubit circuit time (750 ns).  ``b_policy`` is a
    fixed width or "log2" for ceil(log2 N), clamped to at least 2.  The
    report fields are arrays over ``n_range``.
    """
    t_qc_ns = per_qubit_circuit_time_ns(DEFAULT_TIMINGS)
    n = np.asarray(n_range, dtype=np.int64)
    if np.any(n < 2):
        raise ValueError(f"comparison needs n >= 2, got {n[n < 2][0]}")
    if np.any(n > MAX_SWEEP_N):
        raise ValueError(f"comparison needs n <= {MAX_SWEEP_N}, got {n[n > MAX_SWEEP_N][0]}")
    if b_policy != "log2" and int(b_policy) - 1 > math.log2(sys.float_info.max / t_qc_ns):
        raise ValueError(
            f"counter width {b_policy} is too wide: its MSB period of 2^{int(b_policy) - 1} "
            "circuit times overflows a float"
        )
    # the frexp exponent of N - 1 is ceil(log2 N), exactly for N <= 2^53
    b = clamp_width(np.frexp(n - 1)[1].astype(np.int64) if b_policy == "log2" else int(b_policy))
    baseline, proposed = link_power(n, n - 1, b, t_qc_ns, cable, sfq)
    below = proposed.total_mw < baseline.total_mw
    crossover = int(n[below.argmax()]) if below.any() else None
    return SystemComparison(baseline, proposed, crossover)
