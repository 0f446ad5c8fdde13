"""Bit-exact behavioral model of the cold-side counter bank.

One b-bit entry exists per tracked qubit (tallying measured ones) and per
tracked pair (tallying XOR disagreements).  During trials the most
significant bits are destructively read and streamed warm-side on a
round-robin schedule, where they accumulate as units of 2^(b-1) counts;
after the last trial the residual b bits of each entry are read out as a
pulse stream through a shared bit-parallel counter.  The warm-side units
plus residual reconstruct every tally exactly, so the energy estimate
computed from counters equals the per-trial average of the cost function.

The schedule flushes a consecutive slice of entries per trial, sized so
that every entry is flushed exactly once in any window of 2^(b-1) trials
and every such window carries exactly M bits.  Entries increment at most
once per trial, so a flushed entry can reach at most 2^b - 1 before its
next flush: no carry is ever lost.

The model counts bits and trials only, not time: the schedule depends on
the trial index alone.  Rates, circuit times and the collection window
live in ``bandwidth``.

Both wire one entry per term of ``IsingInstance.entries``, and per-entry
totals are int64 arrays in that order.

Two implementations share these rules.  ``CounterBank`` steps one list of
cold values trial by trial; it is the reference model and the audit oracle,
and holds the fault hooks and, through ``readout``, the pulse stream.
``Ledger``, the production path, derives the same transfers and residuals
in closed form from each entry's running tally and never builds a bank.
It is fed the ``pack_trials`` rows of one chunk of trials at a time (trial
8j + k in bit k of byte j), and keeps only per-entry state.
``counter_pass`` is the one pass that feeds it: it packs each chunk once
for the ledger and the sampled energy, for ``run`` and for
``run_proposed``, which also logs every transfer.  Both transfer logs name
entries by position: ``Flushes`` arrays and the bank's ``log`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .ising import (
    BitString,
    Coeff,
    EntryId,
    IsingInstance,
    Trials,
    chunked_energy,
    hit_energy,
    packed_hits,
    sampled_energy,
    term_indices,
    trial_chunks,
)


@dataclass(frozen=True, slots=True)
class ReadoutEvent:
    """Residual readout of a value: 2^b - v pulses recover v."""

    pulse_count: int | np.ndarray
    recovered_value: int | np.ndarray


class Flushes(NamedTuple):
    """The transfer log of a chunk of trials or of a run, as int64 arrays.

    Slot k sends bit ``msb[k]`` of entry ``entry[k]`` (a position in
    ``IsingInstance.entries``) right after trial ``trial[k]``, counted from
    1 over the whole run; ``bits[i]`` is the number of bits sent after the
    i-th trial of the chunk or run.
    """

    trial: np.ndarray
    entry: np.ndarray
    msb: np.ndarray
    bits: np.ndarray


class RoomTempAccumulator:
    """Warm-side upper bits: one unit per received MSB, worth 2^(b-1) counts,
    seeded with 0 units per entry of ``entry_order`` in that order."""

    def __init__(self, entry_order: Iterable[EntryId] = ()) -> None:
        self.upper_counts: dict[EntryId, int] = dict.fromkeys(entry_order, 0)

    def add_unit(self, entry_id: EntryId) -> None:
        self.upper_counts[entry_id] = self.upper_counts.get(entry_id, 0) + 1


class CounterBank:
    """Cold-side entries for ``instance.entries`` plus the flush schedule state.

    ``values[k]`` is the b-bit cold value of entry ``entry_order[k]``, and
    ``log`` lists every transfer as (trial, entry position, msb).
    ``fault`` is a test hook: "drop-msb" silently discards the first set
    MSB instead of crediting the accumulator, modeling a lost transfer.
    """

    def __init__(self, instance: IsingInstance, width_b: int, fault: str | None = None) -> None:
        if width_b < 2:
            raise ValueError(f"counter width must be >= 2, got {width_b}")
        if fault not in (None, "drop-msb"):
            raise ValueError(f"unknown fault mode {fault!r}")
        self.n_qubits = instance.n_qubits
        self.width_b = width_b
        self.entry_order = instance.entries
        self.m_in_use = len(self.entry_order)
        self.flush_window = 1 << (width_b - 1)  # trials between flushes of one entry
        self.values: list[int] = [0] * self.m_in_use
        # the wiring: (position, qubit) and (position, qubit, qubit) of each entry
        singles, pairs = instance.terms
        self._qubit_wires = list(enumerate(singles))
        self._pair_wires = [(k, i, j) for k, (i, j) in enumerate(pairs, len(singles))]
        self.trial_index = 0
        self.fault = fault
        self._fault_pending = fault == "drop-msb"
        self._slots_issued = 0
        self._cursor = 0
        self.log: list[tuple[int, int, int]] = []

    def record_trial(self, z: BitString) -> None:
        """Apply one measured bitstring: +1 per set qubit entry, +1 per
        disagreeing pair entry.  Arithmetic is modular in [0, 2^b)."""
        if len(z) != self.n_qubits:
            raise ValueError(
                f"bitstring length {len(z)} does not match n_qubits {self.n_qubits}"
            )
        mask = (1 << self.width_b) - 1
        values = self.values
        for k, i in self._qubit_wires:
            if z[i]:
                values[k] = (values[k] + 1) & mask
        for k, i, j in self._pair_wires:
            if z[i] != z[j]:
                values[k] = (values[k] + 1) & mask
        self.trial_index += 1

    def flush_msbs(self, accumulator: RoomTempAccumulator) -> int:
        """Send this trial's round-robin slice of MSBs; returns bits sent.

        Slice sizes follow the even pacing (trial*M)//2^(b-1), never more
        than ceil(M / 2^(b-1)) per trial.  A set MSB is cleared and credited
        warm-side as one unit; an unset MSB still costs its send bit.
        """
        m = self.m_in_use
        half = self.flush_window
        if m == 0:
            return 0
        target = self.trial_index * m // half
        bits = target - self._slots_issued
        for _ in range(bits):
            k = self._cursor
            msb = int(self.values[k] >= half)
            if msb:
                self.values[k] -= half
                if self._fault_pending:
                    self._fault_pending = False
                else:
                    accumulator.add_unit(self.entry_order[k])
            self.log.append((self.trial_index, k, msb))
            self._cursor = (k + 1) % m
        self._slots_issued = target
        return bits


def readout(width_b: int, value: int | np.ndarray) -> ReadoutEvent:
    """Drain a b-bit value through the read-out line.

    Clocking the register from value v until it overflows emits 2^b - v
    pulses; the shared bit-parallel counter recovers v from the pulse
    count.  v = 0 emits a full 2^b pulses.  An int gives ints, an array of
    values gives arrays.
    """
    size = 1 << width_b
    pulse_count = size - value
    return ReadoutEvent(pulse_count=pulse_count, recovered_value=size - pulse_count)


def collect_non_msbs(bank: CounterBank, accumulator: RoomTempAccumulator) -> np.ndarray:
    """Read every in-use entry sequentially through ``readout``, clear it,
    and reconstruct its tally: an int64 array in entry order, warm-side
    units * 2^(b-1) + residual value of each entry."""
    units, half = accumulator.upper_counts, bank.flush_window
    totals = [
        units.get(e, 0) * half + readout(bank.width_b, v).recovered_value
        for e, v in zip(bank.entry_order, bank.values)
    ]
    bank.values[:] = [0] * bank.m_in_use
    return np.array(totals, dtype=np.int64)


def counter_energy_estimate(instance: IsingInstance, totals: np.ndarray, t: int) -> Coeff:
    """Energy from counter tallies: (sum_i s_i*C_i + sum_ij c_ij*C_ij) / T.

    ``totals`` is an int64 array of one tally per entry of
    ``instance.entries``.  Exact Fraction for integer coefficients.  The
    sum is ``hit_energy``'s, so tallies equal to the hit counts give the
    sampled energy exactly, whatever the coefficient type.
    """
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    if len(totals) != len(instance.entries):
        raise ValueError(f"{len(totals)} counter totals for {len(instance.entries)} entries")
    return hit_energy(instance, totals, t)


@dataclass(frozen=True)
class BaselineRun:
    energy: Coeff
    bits_per_trial: int
    total_bits: int
    trial_count: int


def run_baseline(instance: IsingInstance, trials: Trials) -> BaselineRun:
    """Per-trial readout: every trial ships all N measurement bits warm-side."""
    energy = sampled_energy(instance, trials)
    n = instance.n_qubits
    return BaselineRun(
        energy=energy,
        bits_per_trial=n,
        total_bits=n * len(trials),
        trial_count=len(trials),
    )


@dataclass(frozen=True)
class ProposedRun:
    energy: Coeff  # from the counter tallies
    sampled_energy: Coeff  # of the same pass
    totals: np.ndarray  # int64, in entry order
    flushes: Flushes  # every transfer of the run
    peak_bits_per_trial: int
    total_msb_bits: int


class LedgerError(RuntimeError):
    """The closed-form ledger derived an impossible transfer."""


class Ledger:
    """Counter-bank transfers in closed form, fed one chunk of trials at a time.

    With W = 2^(b-1) and M entries, slot s flushes entry s mod M right after
    trial ceil((s+1)W/M), so trial t sends floor(tM/W) - floor((t-1)M/W)
    bits.  An entry is below W right after its own flush, so its warm units
    are then floor(C/W), C being its running tally; each MSB is the
    difference of two such floors.  The residual is the cold register's
    modular value (C(T) - units*W) mod 2^b, so an entry that overflowed
    between flushes breaks the energy identity instead of being repaired.
    Within a chunk, C comes from a cumulative popcount of the entry's
    ``packed_hits`` bytes, read only at flush trials.  Tallies and units are
    carried across chunks, so memory does not grow with the trial count.
    """

    def __init__(self, instance: IsingInstance, width_b: int) -> None:
        if width_b < 2:
            raise ValueError(f"counter width must be >= 2, got {width_b}")
        self.entry_order = instance.entries
        self.m_in_use = len(self.entry_order)
        self._singles, self._pairs = term_indices(instance)
        self.width_b = width_b
        self.window = 1 << (width_b - 1)
        self.trial_count = 0
        self.peak_bits_per_trial = 0
        self._tally = np.zeros(self.m_in_use, dtype=np.int64)
        self._units = np.zeros(self.m_in_use, dtype=np.int64)

    @property
    def total_msb_bits(self) -> int:
        return self.trial_count * self.m_in_use // self.window

    def feed(self, q: np.ndarray, rows: int) -> Flushes:
        """Advance over the next nonempty chunk of ``rows`` trials.

        ``q`` is the chunk's ``pack_trials`` output: one row per qubit, bit
        k of byte j set when trial 8j + k measured the qubit as 1.  A chunk
        has at most 2^31 - 1 rows.  Raises ``LedgerError`` on an MSB other
        than 0 or 1.
        """
        m, window = self.m_in_use, self.window
        packed = packed_hits(q, self._singles, self._pairs)  # one row per entry
        start, stop = self.trial_count, self.trial_count + rows
        # cum[e, j]: hits of entry e in the chunk's first 8j trials
        cum = np.zeros((m, packed.shape[1] + 1), dtype=np.int32)
        np.cumsum(np.bitwise_count(packed), axis=1, dtype=np.int32, out=cum[:, 1:])
        base, self._tally = self._tally, self._tally + cum[:, -1]
        self.trial_count = stop
        # a window above stop*M issues no slot; capping it keeps the int64 math in range
        bits = np.diff(np.arange(start, stop + 1, dtype=np.int64) * m // min(window, stop * m + 1))
        self.peak_bits_per_trial = max(self.peak_bits_per_trial, int(bits.max()))
        slots = np.arange(start * m // window, stop * m // window)
        if len(slots) == 0:
            return Flushes(slots, slots, slots, bits)
        entry = slots % m
        trial = ((slots + 1) * window + m - 1) // m
        # the tally after relative trial r: whole bytes, then the low r % 8
        # bits of byte r // 8 (any byte when r % 8 is 0, hence the clamp)
        r = trial - start
        byte = packed[entry, np.minimum(r >> 3, packed.shape[1] - 1)]
        low = np.bitwise_count(byte & ((1 << (r & 7)) - 1).astype(np.uint8))
        after = (base[entry] + cum[entry, r >> 3] + low) // window
        # the previous flush of slot s's entry is slot s - M
        before = np.concatenate((self._units[entry[:m]], after[: max(len(slots) - m, 0)]))
        msb = after - before
        bad = np.flatnonzero((msb < 0) | (msb > 1))
        if len(bad):
            k = int(bad[0])
            raise LedgerError(
                f"derived MSB {int(msb[k])} for entry {self.entry_order[int(entry[k])]} "
                f"at trial {int(trial[k])}"
            )
        self._units[entry[-m:]] = after[-m:]
        return Flushes(trial, entry, msb, bits)

    def collect(self) -> np.ndarray:
        """Every entry's tally, an int64 array in entry order: units * W plus
        the residual (C - units*W) mod 2^b that ``readout`` recovers.
        units*W never exceeds C, an int64, so a window beyond int64 has 0
        units."""
        top = np.iinfo(np.int64).max
        upper = self._units * min(self.window, top)
        residual = (self._tally - upper) & min((1 << self.width_b) - 1, top)
        return upper + residual


def counter_pass(
    instance: IsingInstance,
    chunks: Iterable[np.ndarray],
    width_b: int,
    each: Callable[[Flushes, int], None] | None = None,
) -> tuple[Coeff, Ledger]:
    """The sampled energy of a nonempty pass of (rows, N) uint8 trial chunks
    (``chunked_energy``) and a ``Ledger`` fed its packed rows.  ``each``, if
    given, gets every chunk's transfers and the trial count before it."""
    ledger = Ledger(instance, width_b)

    def feed(q: np.ndarray, rows: int) -> None:
        flushes = ledger.feed(q, rows)
        if each is not None:
            each(flushes, ledger.trial_count - rows)

    return chunked_energy(instance, chunks, feed), ledger


def run_proposed(
    instance: IsingInstance,
    trials: Trials,
    width_b: int,
) -> ProposedRun:
    """``counter_pass`` over the ``trial_chunks`` of a nonempty trial array,
    joining its chunks' transfers into one log, then collect and estimate."""
    parts: list[Flushes] = []
    chunks = trial_chunks(trials, instance.n_qubits)
    sampled, ledger = counter_pass(instance, chunks, width_b, lambda f, _: parts.append(f))
    totals = ledger.collect()
    return ProposedRun(
        energy=counter_energy_estimate(instance, totals, ledger.trial_count),
        sampled_energy=sampled,
        totals=totals,
        flushes=Flushes(*map(np.concatenate, zip(*parts))),
        peak_bits_per_trial=ledger.peak_bits_per_trial,
        total_msb_bits=ledger.total_msb_bits,
    )
