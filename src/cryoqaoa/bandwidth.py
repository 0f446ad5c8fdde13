"""Inter-temperature bandwidth requirements, baseline and counter-based.

The baseline streams N measurement bits per circuit execution.  The
counter-based readout streams one MSB per in-use counter entry every
2^(b-1) trials, then collects the remaining b bits per entry once at the
end over a collection window t_C.  All rates are bits per second;
durations are nanoseconds.  ``bw_meas_bps``, ``bw_msb_bps`` and
``clamp_width`` are array-valued: given numpy arrays they compute element
by element with the same float operations, so ``power.link_power`` prices
a whole qubit-count sweep in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .timing import (
    _NS_PER_S,
    GateTimings,
    DEFAULT_TIMINGS,
    circuit_time_ns,
    layer_time_ns,
    per_qubit_circuit_time_ns,
)


def bw_inst_bps(
    timings: GateTimings, s: int, c: int, n: int, l: int, p: int, b_p: int
) -> float:
    """Peak rate needed to deliver the 2*l*b_p parameter bits of layer l
    before that layer starts.

    For a single layer only the pre-circuit deadline exists; for more, the
    binding deadline is either the first or the last layer.
    """
    if l < 1:
        raise ValueError(f"layers must be >= 1, got {l}")
    deadline_ns = n * (timings.t_reset_ns + timings.t_init_ns)
    if deadline_ns <= 0:
        raise ValueError("reset+init window must be positive")
    first = 2 * p * b_p / deadline_ns * _NS_PER_S
    if l == 1:
        return first
    t_l = layer_time_ns(timings, s, c, n)
    if t_l <= 0:
        raise ValueError("layer time must be positive for multi-layer transfers")
    last = 2 * p * l * b_p / ((l - 1) * t_l) * _NS_PER_S
    return max(first, last)


def bw_meas_bps(n: int | np.ndarray, t_qc_ns: float) -> float | np.ndarray:
    """Baseline readout rate: N bits per circuit execution."""
    if t_qc_ns <= 0:
        raise ValueError("circuit time must be positive")
    return n / t_qc_ns * _NS_PER_S


def bw_msb_bps(
    m: int | np.ndarray, b: int | np.ndarray, t_qc_ns: float
) -> float | np.ndarray:
    """MSB stream rate: M bits per 2^(b-1) circuit executions."""
    if np.any(b < 2):
        raise ValueError(f"counter width must be >= 2, got {np.min(b)}")
    if np.any(m < 1):
        raise ValueError(f"counters in use must be >= 1, got {np.min(m)}")
    if t_qc_ns <= 0:
        raise ValueError("circuit time must be positive")
    return m / ((1 << (b - 1)) * t_qc_ns) * _NS_PER_S


def bw_non_msb_bps(m: int, b: int, t_c_ns: float) -> float:
    """End-of-run residual collection rate: b*M bits over t_C."""
    if t_c_ns <= 0:
        raise ValueError(f"collection time must be positive, got {t_c_ns}")
    return b * m / t_c_ns * _NS_PER_S


def min_collection_time_ns(b: int, t_qc_ns: float) -> float:
    """Smallest t_C keeping the collection rate at or below the MSB rate:
    b * 2^(b-1) * t_QC.  Raises ValueError when it exceeds the float range."""
    try:
        return math.ldexp(b * t_qc_ns, b - 1)
    except OverflowError:
        raise ValueError(
            f"counter_bits={b} is too wide: its collection window b*2^(b-1)*t_QC "
            f"overflows a float at t_QC = {t_qc_ns} ns"
        ) from None


class ChosenB(NamedTuple):
    b: int
    feasible: bool


def _fits_budget(b: int, t: int, r: float) -> bool:
    """End-of-run collection of b-bit counters fits the overhead budget:
    b * 2^b < 2*r*T."""
    return b * (1 << b) < 2 * r * t


def choose_b(t: int, r: float) -> ChosenB:
    """Largest counter width that fits the overhead budget.

    Returns b=1 with ``feasible=False`` when no width fits.
    """
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"overhead fraction must be finite and positive, got {r}")
    if not _fits_budget(1, t, r):
        return ChosenB(1, False)
    b = 1
    while _fits_budget(b + 1, t, r):
        b += 1
    return ChosenB(b, True)


def clamp_width(b: int | np.ndarray) -> int | np.ndarray:
    """Narrowest usable counter is 2 bits: the MSB must be distinct from
    the payload bits.  An int stays an int."""
    return _plain(np.maximum(b, 2))


def _plain(value):
    """A numpy scalar as the Python number it holds; arrays pass through."""
    return value.item() if isinstance(value, np.generic) else value


def resolve_width(counter_bits: int | str, t: int, r: float, t_qc_ns: float) -> ChosenB:
    """Counter width for a run and whether it fits the overhead budget.

    ``counter_bits`` is an explicit width or "auto" for the widest width
    that fits.  Feasibility is judged on the width actually used, so an
    auto width clamped up to 2 can be infeasible.  A width whose collection
    window overflows a float at circuit time ``t_qc_ns`` raises ValueError.
    """
    b = choose_b(t, r).b if counter_bits == "auto" else counter_bits
    min_collection_time_ns(b, t_qc_ns)  # before numpy sees a width beyond int64
    b = clamp_width(b)
    return ChosenB(b, _fits_budget(b, t, r))


def asymptotic_reduction_ratio(b: int) -> float:
    """Worst-case (M = N-1) ratio in the large-N limit: 2^(1-b)."""
    if b < 1:
        raise ValueError(f"counter width must be >= 1, got {b}")
    return 2.0 ** (1 - b)


def overhead_factor(t: int, b: int) -> float:
    """Execution-time growth: (T + b*2^(b-1)) / T."""
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    return 1 + b * (1 << (b - 1)) / t


@dataclass(frozen=True)
class SweepRow:
    trials: int
    overhead_budget: float
    b: int
    feasible: bool
    reduction_ratio: float
    overhead_factor: float
    bw_meas_bps: float
    bw_proposed_bps: float


def staircase_sweep(
    t_values: Sequence[int], r_grid: Sequence[float], n: int = 750
) -> list[SweepRow]:
    """Tabulate chosen width and bandwidth ratio over (T, r) grids.

    The ratio column is the large-N worst-case value 2^(1-b), so it is a
    staircase in r (b is an integer).  Absolute rates use the canonical
    paper-v1 per-qubit circuit time (750 ns) at the given qubit count.
    """
    if not t_values or not r_grid:
        raise ValueError("sweep grids must be nonempty")
    bw_meas = bw_meas_bps(n, per_qubit_circuit_time_ns(DEFAULT_TIMINGS))
    rows = []
    for t in t_values:
        for r in r_grid:
            b, feasible = choose_b(t, r)
            ratio = asymptotic_reduction_ratio(b)
            rows.append(
                SweepRow(
                    trials=t,
                    overhead_budget=r,
                    b=b,
                    feasible=feasible,
                    reduction_ratio=ratio,
                    overhead_factor=overhead_factor(t, b),
                    bw_meas_bps=bw_meas,
                    bw_proposed_bps=bw_meas * ratio,
                )
            )
    return rows


@dataclass(frozen=True)
class BandwidthReport:
    """All rates for one scenario at a resolved counter width, in ``run``'s order."""

    bw_inst_bps: float
    bw_meas_bps: float
    bw_msb_bps: float
    bw_non_msb_bps: float
    bw_proposed_bps: float
    reduction_ratio: float
    overhead_factor: float
    t_c_ns: float


def bandwidth_report(
    timings: GateTimings,
    s: int,
    c: int,
    n: int,
    l: int,
    p: int,
    b_p: int,
    trials: int,
    b: int,
) -> BandwidthReport:
    """Assemble the full rate picture for one scenario at width ``b``.

    The S + C counters the instance uses are collected over the minimal
    smoothing window, so the residual collection rate ties the MSB rate.
    """
    m = s + c
    t_qc = circuit_time_ns(timings, s, c, n, l, p)
    t_c_ns = min_collection_time_ns(b, t_qc)
    meas = bw_meas_bps(n, t_qc)
    if m >= 1:
        msb = bw_msb_bps(m, b, t_qc)
        non_msb = bw_non_msb_bps(m, b, t_c_ns)
    else:
        msb = 0.0
        non_msb = 0.0
    proposed = max(msb, non_msb)
    return BandwidthReport(
        bw_inst_bps=bw_inst_bps(timings, s, c, n, l, p, b_p),
        bw_meas_bps=meas,
        bw_msb_bps=msb,
        bw_non_msb_bps=non_msb,
        bw_proposed_bps=proposed,
        reduction_ratio=proposed / meas,
        overhead_factor=overhead_factor(trials, b),
        t_c_ns=t_c_ns,
    )
