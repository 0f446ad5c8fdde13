"""Randomized and bounded-exhaustive invariant checks for the counter path.

Each case drives a counter bank trial by trial next to an independent
plain-dict tally and checks, at every trial boundary:

  * reconstruction: warm units * 2^(b-1) + cold value == true tally,
  * smoothing: bits sent this trial <= ceil(M / 2^(b-1)),

then at the end: every sliding 2^(b-1)-trial window carried exactly M
bits, collected totals match the tally, the counter energy equals the
directly sampled energy exactly, and readout round-trips.  The first
failing trial is reported and the failing prefix is kept as the
counterexample (checks are per-trial, so the prefix up to the divergence
is already minimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .counters import (
    CounterBank,
    CounterEntry,
    RoomTempAccumulator,
    collect_non_msbs,
    counter_energy_estimate,
    readout_entry,
)
from .ising import BitString, IsingInstance, format_bits, sampled_energy


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    message: str
    trial_index: int | None
    instance: IsingInstance
    trials: tuple[tuple[int, ...], ...]
    width_b: int


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    cases_run: int
    violation: AuditViolation | None


def _entry_hit(entry_id, z: BitString) -> int:
    if isinstance(entry_id, tuple):
        return int(z[entry_id[0]] != z[entry_id[1]])
    return int(bool(z[entry_id]))


def check_case(
    instance: IsingInstance,
    trials: Sequence[tuple[int, ...]],
    width_b: int,
    fault: str | None = None,
) -> AuditViolation | None:
    """Run one instance/trial-set case against all invariants."""

    def violation(kind: str, message: str, trial: int | None) -> AuditViolation:
        return AuditViolation(
            kind=kind,
            message=message,
            trial_index=trial,
            instance=instance,
            trials=tuple(tuple(z) for z in trials),
            width_b=width_b,
        )

    bank = CounterBank.for_instance(instance, width_b, fault=fault)
    accumulator = RoomTempAccumulator()
    tally = {e: 0 for e in bank.entry_order}
    window = bank.flush_window
    m = bank.m_in_use
    max_slice = -(-m // window)
    bits_log: list[int] = []

    for t_idx, z in enumerate(trials):
        bank.record_trial(z)
        for e in tally:
            tally[e] += _entry_hit(e, z)
        bits = bank.flush_msbs(accumulator)
        bits_log.append(bits)
        if bits > max_slice:
            return violation(
                "smoothing",
                f"trial {t_idx} sent {bits} bits, above ceil(M/2^(b-1)) = {max_slice}",
                t_idx,
            )
        for e, expected in tally.items():
            got = accumulator.upper_counts.get(e, 0) * window + bank.entries[e].value
            if got != expected:
                return violation(
                    "reconstruction",
                    f"entry {e}: warm+cold = {got}, direct tally = {expected}",
                    t_idx,
                )

    if m > 0 and len(trials) >= window:
        for start in range(len(trials) - window + 1):
            sent = sum(bits_log[start : start + window])
            if sent != m:
                return violation(
                    "window",
                    f"window starting at trial {start} carried {sent} bits, expected M = {m}",
                    start,
                )

    collection = collect_non_msbs(bank, accumulator)
    for e, expected in tally.items():
        if collection.totals[e] != expected:
            return violation(
                "collection",
                f"entry {e}: collected {collection.totals[e]}, direct tally = {expected}",
                len(trials) - 1 if trials else None,
            )

    if len(trials) > 0:
        counter_energy = counter_energy_estimate(instance, collection.totals, len(trials))
        direct_energy = sampled_energy(instance, trials)
        if counter_energy != direct_energy:
            return violation(
                "energy",
                f"counter estimate {counter_energy} != sampled energy {direct_energy}",
                len(trials) - 1,
            )
    return None


def check_readout_roundtrip(b_values: Sequence[int]) -> AuditViolation | None:
    for b in b_values:
        for v in range(1 << b):
            event = readout_entry(CounterEntry(b, v))
            if event.recovered_value != v or event.pulse_count != (1 << b) - v:
                inst = IsingInstance(1)
                return AuditViolation(
                    kind="readout",
                    message=f"b={b}, v={v}: recovered {event.recovered_value} "
                    f"from {event.pulse_count} pulses",
                    trial_index=None,
                    instance=inst,
                    trials=(),
                    width_b=b,
                )
    return None


def random_instance(rng: np.random.Generator, n_max: int) -> IsingInstance:
    n = int(rng.integers(1, n_max + 1))
    linear = {}
    for i in range(n):
        if rng.random() < 0.5:
            linear[i] = int(rng.integers(-5, 6))
    pairs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                pairs[(i, j)] = int(rng.integers(-5, 6))
    return IsingInstance(n_qubits=n, linear=linear, pairs=pairs, label="audit-random")


def random_trials(
    rng: np.random.Generator, n: int, t_max: int
) -> list[tuple[int, ...]]:
    t = int(rng.integers(1, t_max + 1))
    bits = rng.integers(0, 2, size=(t, n))
    return [tuple(int(b) for b in row) for row in bits]


def cyclic_trials(n: int, t: int) -> list[tuple[int, ...]]:
    """Deterministic trials cycling through all 2^n bitstrings in order."""
    return [tuple((k >> i) & 1 for i in range(n)) for k in (j % (1 << n) for j in range(t))]


def _exhaustive_instances(n: int):
    """Every presence pattern of terms, coefficient 1 when present.

    Both energy paths are linear in each coefficient, so indicator
    coefficients decide equality for all coefficient values.
    """
    slots = [(i,) for i in range(n)] + [
        (i, j) for i in range(n) for j in range(i + 1, n)
    ]
    for mask in range(1 << len(slots)):
        linear = {}
        pairs = {}
        for k, slot in enumerate(slots):
            if mask >> k & 1:
                if len(slot) == 1:
                    linear[slot[0]] = 1
                else:
                    pairs[slot] = 1
        yield IsingInstance(n_qubits=n, linear=linear, pairs=pairs, label="audit-exhaustive")


def run_audit(
    cases: int = 200,
    n_max: int = 8,
    t_max: int = 200,
    b_min: int = 2,
    b_max: int = 8,
    seed: int = 0,
    exhaustive: bool = False,
    inject: str | None = None,
) -> AuditResult:
    """Run the invariant suite; stops at the first violation."""
    rng = np.random.default_rng(seed)
    cases_run = 0

    violation = check_readout_roundtrip(range(2, 17))
    if violation is not None:
        return AuditResult(False, cases_run, violation)

    if exhaustive:
        for n in range(1, min(n_max, 4) + 1):
            for instance in _exhaustive_instances(n):
                for t in range(1, 9):
                    cases_run += 1
                    violation = check_case(instance, cyclic_trials(n, t), 2, fault=inject)
                    if violation is not None:
                        return AuditResult(False, cases_run, violation)

    for _ in range(cases):
        instance = random_instance(rng, n_max)
        trials = random_trials(rng, instance.n_qubits, t_max)
        width_b = int(rng.integers(b_min, b_max + 1))
        cases_run += 1
        violation = check_case(instance, trials, width_b, fault=inject)
        if violation is not None:
            return AuditResult(False, cases_run, violation)

    if inject is not None:
        # A lossy fault that survives the whole suite undetected is itself
        # an audit failure; fault-injection runs must never pass silently.
        return AuditResult(
            False,
            cases_run,
            AuditViolation(
                kind="fault-undetected",
                message=f"injected fault {inject!r} was not detected in {cases_run} cases",
                trial_index=None,
                instance=IsingInstance(1),
                trials=(),
                width_b=b_min,
            ),
        )
    return AuditResult(True, cases_run, None)


def write_counterexample(path: str | Path, violation: AuditViolation) -> None:
    """Dump the minimal failing prefix in re-runnable form."""
    lines = [
        f"kind = {violation.kind}",
        f"message = {violation.message}",
        f"divergence_trial = {violation.trial_index}",
        f"counter_bits = {violation.width_b}",
        f"n = {violation.instance.n_qubits}",
        "[linear]",
    ]
    for i in sorted(violation.instance.linear):
        lines.append(f"{i} = {violation.instance.linear[i]}")
    lines.append("[pairs]")
    for i, j in sorted(violation.instance.pairs):
        lines.append(f"{i} {j} = {violation.instance.pairs[(i, j)]}")
    lines.append("[trials]")
    end = len(violation.trials)
    if violation.trial_index is not None:
        end = min(end, violation.trial_index + 1)
    for z in violation.trials[:end]:
        lines.append(format_bits(z))
    Path(path).write_text("\n".join(lines) + "\n")
