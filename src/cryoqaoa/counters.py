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

Two implementations share these rules.  ``CounterBank`` steps the entries
trial by trial; it is the reference model and the audit oracle, and holds
the fault hooks.  ``Ledger``, the production path, derives the same
transfers in closed form from each entry's running tally and never builds
a bank.  It is fed the ``packed_hits`` of one chunk of trials at a time,
one row of bytes per entry with 8 trials per byte (trial 8j + k in bit k
of byte j), and keeps only per-entry state, so ``run`` streams its trials
through it in bounded memory; ``run_proposed`` feeds it a whole trial
array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .ising import (
    BitString,
    Coeff,
    IsingInstance,
    Trials,
    hit_energy,
    pack_trials,
    packed_hits,
    row_chunks,
    sampled_energy,
    term_indices,
    trial_array,
)

EntryId = int | tuple[int, int]


@dataclass(slots=True)
class CounterEntry:
    """A b-bit cold-side counter value."""

    width_b: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.width_b < 2:
            raise ValueError(f"counter width must be >= 2, got {self.width_b}")
        if not 0 <= self.value < (1 << self.width_b):
            raise ValueError(f"value {self.value} out of range for {self.width_b} bits")


@dataclass(frozen=True, slots=True)
class ReadoutEvent:
    """Residual readout of one entry: 2^b - v pulses recover v."""

    entry_id: EntryId | None
    pulse_count: int
    recovered_value: int


class RoomTempAccumulator:
    """Warm-side upper bits: one unit per received MSB, worth 2^(b-1) counts."""

    def __init__(self) -> None:
        self.upper_counts: dict[EntryId, int] = {}

    def add_unit(self, entry_id: EntryId) -> None:
        self.upper_counts[entry_id] = self.upper_counts.get(entry_id, 0) + 1


class CounterBank:
    """Cold-side entries for the in-use terms plus the flush schedule state.

    ``fault`` is a test hook: "drop-msb" silently discards the first set
    MSB instead of crediting the accumulator, modeling a lost transfer.
    """

    def __init__(
        self,
        n_qubits: int,
        width_b: int,
        active_singles: Iterable[int] = (),
        active_pairs: Iterable[tuple[int, int]] = (),
        fault: str | None = None,
    ) -> None:
        if width_b < 2:
            raise ValueError(f"counter width must be >= 2, got {width_b}")
        if fault not in (None, "drop-msb"):
            raise ValueError(f"unknown fault mode {fault!r}")
        self.n_qubits = n_qubits
        self.width_b = width_b
        singles = sorted(set(active_singles))
        pairs = sorted({(i, j) if i < j else (j, i) for i, j in active_pairs})
        for i in singles:
            if not 0 <= i < n_qubits:
                raise ValueError(f"single index {i} out of range [0, {n_qubits})")
        for i, j in pairs:
            if i == j:
                raise ValueError(f"pair ({i}, {j}) is a self-loop")
            if not 0 <= i < n_qubits or not 0 <= j < n_qubits:
                raise ValueError(f"pair ({i}, {j}) out of range [0, {n_qubits})")
        self.entry_order: list[EntryId] = list(singles) + list(pairs)
        self.entries: dict[EntryId, CounterEntry] = {
            e: CounterEntry(width_b) for e in self.entry_order
        }
        self.trial_index = 0
        self.fault = fault
        self._fault_pending = fault == "drop-msb"
        self._slots_issued = 0
        self._cursor = 0
        # When set to a list, flush_msbs appends (trial, entry_id, msb_bit).
        self.event_log: list[tuple[int, EntryId, int]] | None = None

    @classmethod
    def for_instance(
        cls, instance: IsingInstance, width_b: int, fault: str | None = None
    ) -> "CounterBank":
        """Wire one entry per term of ``instance.terms``."""
        return cls(instance.n_qubits, width_b, *instance.terms, fault=fault)

    @property
    def m_in_use(self) -> int:
        return len(self.entry_order)

    @property
    def flush_window(self) -> int:
        """Trials between flushes of the same entry: 2^(b-1)."""
        return 1 << (self.width_b - 1)

    def record_trial(self, z: BitString) -> None:
        """Apply one measured bitstring: +1 per set qubit entry, +1 per
        disagreeing pair entry.  Arithmetic is modular in [0, 2^b)."""
        if len(z) != self.n_qubits:
            raise ValueError(
                f"bitstring length {len(z)} does not match n_qubits {self.n_qubits}"
            )
        mask = (1 << self.width_b) - 1
        entries = self.entries
        for e in self.entry_order:
            if isinstance(e, tuple):
                hit = z[e[0]] != z[e[1]]
            else:
                hit = bool(z[e])
            if hit:
                entry = entries[e]
                entry.value = (entry.value + 1) & mask
        self.trial_index += 1

    def flush_msbs(self, accumulator: RoomTempAccumulator) -> int:
        """Send this trial's round-robin slice of MSBs; returns bits sent.

        Slice sizes follow the even pacing (trial*M)//2^(b-1), never more
        than ceil(M / 2^(b-1)) per trial.  A set MSB is cleared and credited
        warm-side as one unit; an unset MSB still costs its send bit.
        """
        m = self.m_in_use
        window = self.flush_window
        if m == 0:
            return 0
        target = self.trial_index * m // window
        bits = target - self._slots_issued
        half = window
        for _ in range(bits):
            e = self.entry_order[self._cursor]
            entry = self.entries[e]
            msb = int(entry.value >= half)
            if msb:
                entry.value -= half
                if self._fault_pending:
                    self._fault_pending = False
                else:
                    accumulator.add_unit(e)
            if self.event_log is not None:
                self.event_log.append((self.trial_index, e, msb))
            self._cursor = (self._cursor + 1) % m
        self._slots_issued = target
        return bits


def readout_entry(entry: CounterEntry, entry_id: EntryId | None = None) -> ReadoutEvent:
    """Drain one entry through the read-out line.

    Clocking the entry from value v until it overflows emits 2^b - v
    pulses; the shared bit-parallel counter recovers v from the pulse
    count.  v = 0 emits a full 2^b pulses.  The entry is left cleared.
    """
    size = 1 << entry.width_b
    pulse_count = size - entry.value
    entry.value = 0
    return ReadoutEvent(
        entry_id=entry_id,
        pulse_count=pulse_count,
        recovered_value=size - pulse_count,
    )


@dataclass(frozen=True)
class CollectionResult:
    totals: dict[EntryId, int]
    events: tuple[ReadoutEvent, ...]


def collect_non_msbs(bank: CounterBank, accumulator: RoomTempAccumulator) -> CollectionResult:
    """Read every in-use entry sequentially and reconstruct its tally.

    totals[e] = warm-side units * 2^(b-1) + residual value.
    """
    half = bank.flush_window
    totals: dict[EntryId, int] = {}
    events = []
    for e in bank.entry_order:
        event = readout_entry(bank.entries[e], e)
        events.append(event)
        totals[e] = accumulator.upper_counts.get(e, 0) * half + event.recovered_value
    return CollectionResult(totals=totals, events=tuple(events))


def counter_energy_estimate(
    instance: IsingInstance, totals: dict[EntryId, int], t: int
) -> Coeff:
    """Energy from counter tallies: (sum_i s_i*C_i + sum_ij c_ij*C_ij) / T.

    Exact Fraction for integer coefficients.  Every nonzero coefficient
    must have a tally.  The sum is ``hit_energy``'s, so tallies equal to
    the hit counts give the sampled energy exactly, whatever the
    coefficient type.
    """
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    singles, pairs = instance.terms
    try:
        counts = [totals[e] for e in (*singles, *pairs)]
    except KeyError as exc:
        raise ValueError(f"no counter total for term {exc.args[0]}") from None
    return hit_energy(instance, np.array(counts, dtype=np.int64), t)


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
    energy: Coeff | None
    totals: dict[EntryId, int]
    bits_log: tuple[int, ...]
    peak_bits_per_trial: int
    total_msb_bits: int
    collection: CollectionResult
    width_b: int
    m_in_use: int
    trial_count: int
    flush_events: tuple[tuple[int, EntryId, int], ...]


class LedgerError(RuntimeError):
    """The closed-form ledger derived an impossible transfer."""


@dataclass(frozen=True)
class Flushes:
    """The MSB transfers of one chunk of trials, as parallel arrays.

    Slot k sends bit ``msb[k]`` of entry ``entry[k]`` (a position in the
    ledger's entry order) right after trial ``trial[k]``, counted from 1
    over the whole run; ``bits[i]`` is the number of bits sent after the
    chunk's i-th trial.
    """

    trial: np.ndarray
    entry: np.ndarray
    msb: np.ndarray
    bits: np.ndarray


class Ledger:
    """Counter-bank transfers in closed form, fed one chunk of trials at a time.

    With W = 2^(b-1) and M entries, slot s flushes entry s mod M right after
    trial ceil((s+1)W/M), so trial t sends floor(tM/W) - floor((t-1)M/W)
    bits.  An entry is below W right after its own flush, so its warm units
    are then floor(C/W), C being its running tally; each MSB is the
    difference of two such floors.  The residual is the cold register's
    modular value (C(T) - units*W) mod 2^b, so an entry that overflowed
    between flushes breaks the energy identity instead of being repaired.
    Within a chunk, C comes from a cumulative popcount per hit byte, read
    only at flush trials.  Tallies and units are carried across chunks, so
    memory does not grow with the trial count.
    """

    def __init__(self, instance: IsingInstance, width_b: int) -> None:
        if width_b < 2:
            raise ValueError(f"counter width must be >= 2, got {width_b}")
        self.entry_order: list[EntryId] = [*instance.terms[0], *instance.terms[1]]
        self.width_b = width_b
        self.window = 1 << (width_b - 1)
        self.trial_count = 0
        self.peak_bits_per_trial = 0
        self._tally = np.zeros(self.m_in_use, dtype=np.int64)
        self._units = np.zeros(self.m_in_use, dtype=np.int64)

    @property
    def m_in_use(self) -> int:
        return len(self.entry_order)

    @property
    def total_msb_bits(self) -> int:
        return self.trial_count * self.m_in_use // self.window

    def feed(self, packed: np.ndarray, rows: int) -> Flushes:
        """Advance over the next nonempty chunk of ``rows`` trials.

        ``packed`` is the chunk's ``packed_hits``: one row per entry in
        entry order, bit k of byte j set when trial 8j + k hit the entry.
        A chunk has at most 2^31 - 1 rows.  Raises ``LedgerError`` on an
        MSB other than 0 or 1.
        """
        m, window = self.m_in_use, self.window
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

    def collect(self) -> CollectionResult:
        """Read every entry's residual and reconstruct its tally."""
        size = 1 << self.width_b
        window = self.window
        totals: dict[EntryId, int] = {}
        events = []
        for e, count, unit in zip(self.entry_order, self._tally.tolist(), self._units.tolist()):
            event = readout_entry(CounterEntry(self.width_b, (count - unit * window) % size), e)
            events.append(event)
            totals[e] = unit * window + event.recovered_value
        return CollectionResult(totals=totals, events=tuple(events))


def run_proposed(
    instance: IsingInstance,
    trials: Trials,
    width_b: int,
) -> ProposedRun:
    """Counter-bank transfers over all trials, fed to a ``Ledger`` in row
    chunks, then collect and estimate."""
    ledger = Ledger(instance, width_b)
    entry_order = ledger.entry_order
    z = trial_array(trials, instance.n_qubits)
    singles, pairs = term_indices(instance)
    bits_log: list[int] = []
    events: list[tuple[int, EntryId, int]] = []
    for start, stop in row_chunks(len(z), max(instance.n_qubits, ledger.m_in_use)):
        q = pack_trials(z[start:stop])
        flushes = ledger.feed(packed_hits(q, singles, pairs), stop - start)
        bits_log += flushes.bits.tolist()
        entries = [entry_order[e] for e in flushes.entry.tolist()]
        events.extend(zip(flushes.trial.tolist(), entries, flushes.msb.tolist()))
    collection = ledger.collect()
    t = ledger.trial_count
    return ProposedRun(
        energy=counter_energy_estimate(instance, collection.totals, t) if t > 0 else None,
        totals=collection.totals,
        bits_log=tuple(bits_log),
        peak_bits_per_trial=ledger.peak_bits_per_trial,
        total_msb_bits=ledger.total_msb_bits,
        collection=collection,
        width_b=width_b,
        m_in_use=ledger.m_in_use,
        trial_count=t,
        flush_events=tuple(events),
    )
