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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .ising import BitString, Coeff, IsingInstance, sampled_energy

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
        self.received_bits_log: list[int] = []

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
        """Wire one entry per nonzero coefficient of the instance."""
        return cls(
            n_qubits=instance.n_qubits,
            width_b=width_b,
            active_singles=[i for i, v in instance.linear.items() if v != 0],
            active_pairs=[p for p, v in instance.pairs.items() if v != 0],
            fault=fault,
        )

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
            accumulator.received_bits_log.append(0)
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
        accumulator.received_bits_log.append(bits)
        return bits

    def step(self, z: BitString, accumulator: RoomTempAccumulator) -> int:
        """Record one trial and run its flush slice; returns bits sent."""
        self.record_trial(z)
        return self.flush_msbs(accumulator)


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
    must have a tally.
    """
    if t < 1:
        raise ValueError(f"trial count must be >= 1, got {t}")
    acc: Coeff = 0
    for i, coeff in instance.linear.items():
        if coeff == 0:
            continue
        if i not in totals:
            raise ValueError(f"no counter total for linear term {i}")
        acc = acc + coeff * totals[i]
    for pair, coeff in instance.pairs.items():
        if coeff == 0:
            continue
        if pair not in totals:
            raise ValueError(f"no counter total for pair term {pair}")
        acc = acc + coeff * totals[pair]
    if isinstance(acc, int):
        return Fraction(acc, t)
    return acc / t


@dataclass(frozen=True)
class BaselineRun:
    energy: Coeff
    bits_per_trial: int
    total_bits: int
    trial_count: int


def run_baseline(instance: IsingInstance, trials: Sequence[BitString]) -> BaselineRun:
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
    flush_events: tuple[tuple[int, EntryId, int], ...] | None = None


def run_proposed(
    instance: IsingInstance,
    trials: Sequence[BitString],
    width_b: int,
    log_events: bool = False,
) -> ProposedRun:
    """Drive the counter bank over all trials, then collect and estimate."""
    bank = CounterBank.for_instance(instance, width_b)
    if log_events:
        bank.event_log = []
    accumulator = RoomTempAccumulator()
    for z in trials:
        bank.step(z, accumulator)
    collection = collect_non_msbs(bank, accumulator)
    energy = None
    if len(trials) > 0:
        energy = counter_energy_estimate(instance, collection.totals, len(trials))
    bits_log = tuple(accumulator.received_bits_log)
    return ProposedRun(
        energy=energy,
        totals=collection.totals,
        bits_log=bits_log,
        peak_bits_per_trial=max(bits_log, default=0),
        total_msb_bits=sum(bits_log),
        collection=collection,
        width_b=width_b,
        m_in_use=bank.m_in_use,
        trial_count=len(trials),
        flush_events=tuple(bank.event_log) if bank.event_log is not None else None,
    )
