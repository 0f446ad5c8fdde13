"""Randomized and bounded-exhaustive invariant checks for the counter path.

Each case steps a counter bank trial by trial, keeping what it sent and
held after each trial, and finds with one array comparison against an
independent running tally (a cumulative sum of the audit's own unpacked
hit rule, sharing only the term order with the packed production path)
the first trial boundary that breaks

  * smoothing: bits sent this trial <= ceil(M / 2^(b-1)) (reported first),
  * reconstruction: warm units * 2^(b-1) + cold value == true tally,

then at the end: every sliding 2^(b-1)-trial window carried exactly M
bits, collected totals (int64 arrays in ``IsingInstance.entries`` order)
match the tally, and readout round-trips.  The production pass
(``counters.counter_pass``, through ``run_proposed``) runs on the case's
trial array as ``run`` runs it: its sampled energy must equal the bank's
counter energy exactly, and its ledger must reproduce the bank's transfer
log (as ``counters.Flushes`` arrays), totals, total and peak bits.  The
first failing trial is reported and the failing prefix is kept as the
counterexample (checks are per-trial, so the prefix up to the divergence
is already minimal); past the end of a shorter log counts as a divergence.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .counters import (
    CounterBank,
    RoomTempAccumulator,
    collect_non_msbs,
    counter_energy_estimate,
    readout,
    run_proposed,
)
from .ising import IsingInstance, Trials, format_bits, require_memory, term_indices, trial_array


# Peak bytes of one case per trial per entry of the densest instance on n
# qubits (n + n(n-1)/2 entries), trial draw included, by tracemalloc (CPython
# 3.11, numpy 2.4, T = 20000, b = 2, which flushes most): 220 B at n = 1,
# where the per-trial rows dominate, 105 B at n = 8 and 101 B at n = 16.
CASE_BYTES_PER_CELL = 240


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    message: str
    trial_index: int | None
    instance: IsingInstance
    trials: Trials
    width_b: int


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    cases_run: int
    violation: AuditViolation | None


def _entry_hits(instance: IsingInstance, z: np.ndarray) -> np.ndarray:
    """(T, M) hit matrix of a (T, N) trial array, one column per entry of
    ``instance.entries``: a qubit entry is hit where its bit is set, a pair
    entry where its two bits differ."""
    singles, pairs = term_indices(instance)
    return np.concatenate((z[:, singles] != 0, z[:, pairs[:, 0]] != z[:, pairs[:, 1]]), axis=1)


def check_case(
    instance: IsingInstance,
    trials: Trials,
    width_b: int,
    fault: str | None = None,
) -> AuditViolation | None:
    """Run one instance and nonempty trial array against all invariants."""
    z = trial_array(trials, instance.n_qubits)
    if len(z) == 0:
        raise ValueError("trials must be nonempty")
    rows = z.tolist()
    # violation(kind, message, trial_index)
    violation = functools.partial(AuditViolation, instance=instance, trials=z, width_b=width_b)
    bank = CounterBank(instance, width_b, fault=fault)
    accumulator = RoomTempAccumulator(bank.entry_order)
    entry_order, window, m = bank.entry_order, bank.flush_window, bank.m_in_use
    max_slice = -(-m // window)
    # tallies[t, k]: the direct tally of entry k after trials 0..t
    tallies = np.cumsum(_entry_hits(instance, z), axis=0)
    bits, cold, warm = [], [], []  # after each trial: bits sent, cold values, warm units
    units = accumulator.upper_counts.values()
    for row in rows:
        bank.record_trial(row)
        bits.append(bank.flush_msbs(accumulator))
        cold += bank.values
        warm += units
    cold, warm = (np.array(log, dtype=np.int64).reshape(len(rows), m) for log in (cold, warm))

    # tallies are at most T, so a window above T stands in as T + 1 and fits int64
    off = warm * min(window, len(rows) + 1) + cold != tallies
    failed = np.flatnonzero((np.array(bits) > max_slice) | off.any(axis=1))
    if len(failed):
        t_idx = int(failed[0])
        if bits[t_idx] > max_slice:  # a trial that fails both reports smoothing
            return violation(
                "smoothing",
                f"trial {t_idx} sent {bits[t_idx]} bits, above ceil(M/2^(b-1)) = {max_slice}",
                t_idx,
            )
        k = int(np.flatnonzero(off[t_idx])[0])
        ours = int(warm[t_idx, k]) * window + int(cold[t_idx, k])
        return violation(
            "reconstruction",
            f"entry {entry_order[k]}: warm+cold = {ours}, direct tally = {tallies[t_idx, k]}",
            t_idx,
        )

    if m > 0 and len(rows) >= window:
        prefix = np.cumsum([0, *bits])
        bad = np.flatnonzero(prefix[window:] - prefix[:-window] != m)
        if len(bad):
            start = int(bad[0])
            sent = int(prefix[start + window] - prefix[start])
            return violation(
                "window",
                f"window starting at trial {start} carried {sent} bits, expected M = {m}",
                start,
            )

    last = len(rows) - 1
    collected, expected = collect_non_msbs(bank, accumulator), tallies[-1]
    if len(off := np.flatnonzero(collected != expected)):
        k = int(off[0])
        message = f"entry {entry_order[k]}: collected {collected[k]}, direct tally = {expected[k]}"
        return violation("collection", message, last)

    # the production pass: one packing per chunk for the sampled energy and the ledger
    ledger = run_proposed(instance, z, width_b)
    counter_energy = counter_energy_estimate(instance, collected, len(rows))
    if counter_energy != ledger.sampled_energy:
        return violation(
            "energy",
            f"counter estimate {counter_energy} != sampled energy {ledger.sampled_energy}",
            last,
        )

    ours = ledger.flushes
    if mismatch := _first_difference(ours.bits, np.array(bits)):
        k, a, b = mismatch
        return violation("ledger", f"trial {k}: ledger sent {a} bits, bank {b}", k)
    # the bank's (trial, entry position, msb) rows against the ledger's columns
    bank_log = np.fromiter(itertools.chain.from_iterable(bank.log), np.int64).reshape(-1, 3)
    if mismatch := _first_difference(np.column_stack(ours[:3]), bank_log):
        k, *found = mismatch
        a, b = (None if r is None else (r[0], entry_order[r[1]], r[2]) for r in found)
        trial = min(r[0] for r in found if r is not None) - 1
        return violation("ledger", f"flush {k}: ledger {a}, bank {b}", trial)
    if not np.array_equal(ledger.totals, collected):
        message = f"ledger totals {ledger.totals} != bank totals {collected}"
        return violation("ledger", message, last)
    for name, count, bank_count in (
        ("proposed_total_msb_bits", ledger.total_msb_bits, len(bank_log)),
        ("proposed_peak_bits_per_trial", ledger.peak_bits_per_trial, max(bits)),
    ):
        if count != bank_count:
            return violation("ledger", f"{name} = {count}, bank {bank_count}", last)
    return None


def _first_difference(ours: np.ndarray, theirs: np.ndarray) -> tuple[int, Any, Any] | None:
    """The first row where two logs differ and both rows there as Python ints,
    None past the end of the shorter log (a difference); None if equal."""
    if np.array_equal(ours, theirs):
        return None
    n = min(len(ours), len(theirs))
    differs = ours[:n] != theirs[:n]
    if differs.ndim > 1:
        differs = differs.any(axis=1)
    k = int(np.flatnonzero(np.append(differs, len(ours) != len(theirs)))[0])
    return k, *(log[k].tolist() if k < len(log) else None for log in (ours, theirs))


def check_readout_roundtrip(b_values: Sequence[int]) -> AuditViolation | None:
    """Every value v of each width b must come back from 2^b - v pulses."""
    for b in b_values:
        # 4096 values per readout call: all 2^16 at once add 2 MB to an audit's peak RSS
        for start in range(0, 1 << b, 4096):
            values = np.arange(start, min(start + 4096, 1 << b))
            event = readout(b, values)
            bad = (event.recovered_value != values) | (event.pulse_count != (1 << b) - values)
            if bad.any():
                k = int(np.flatnonzero(bad)[0])
                return AuditViolation(
                    kind="readout",
                    message=f"b={b}, v={values[k]}: recovered {event.recovered_value[k]} "
                    f"from {event.pulse_count[k]} pulses",
                    trial_index=None,
                    instance=IsingInstance(1),
                    trials=(),
                    width_b=b,
                )
    return None


def random_instance(rng: np.random.Generator, n_max: int) -> IsingInstance:
    n = int(rng.integers(1, n_max + 1))
    # each draw decides a term, then draws its coefficient
    linear = {i: int(rng.integers(-5, 6)) for i in range(n) if rng.random() < 0.5}
    pairs = {
        pair: int(rng.integers(-5, 6))
        for pair in itertools.combinations(range(n), 2)
        if rng.random() < 0.4
    }
    return IsingInstance(n_qubits=n, linear=linear, pairs=pairs, label="audit-random")


def random_trials(rng: np.random.Generator, n: int, t_max: int) -> np.ndarray:
    """A (T, n) array of uniform random bits, 1 <= T <= t_max."""
    t = int(rng.integers(1, t_max + 1))
    return rng.integers(0, 2, size=(t, n))


def cyclic_trials(n: int, t: int) -> np.ndarray:
    """A (t, n) array of trials cycling through all 2^n bitstrings in order."""
    return np.arange(t)[:, None] % (1 << n) >> np.arange(n) & 1


def _exhaustive_instances(n: int):
    """Every presence pattern of terms, coefficient 1 when present.

    Both energy paths are linear in each coefficient, so indicator
    coefficients decide equality for all coefficient values.
    """
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << (n + len(pairs))):
        yield IsingInstance(
            n_qubits=n,
            linear={i: 1 for i in range(n) if mask >> i & 1},
            pairs={pair: 1 for k, pair in enumerate(pairs, n) if mask >> k & 1},
            label="audit-exhaustive",
        )


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
    """Run the invariant suite; stops at the first violation.  A suite whose
    largest random case would not fit in physical memory is refused first."""
    cells = t_max * (n_max + n_max * (n_max - 1) // 2)
    require_memory(
        cells * CASE_BYTES_PER_CELL,
        f"t_max {t_max} at n_max {n_max}: a case of up to {cells} trial-entry cells",
    )
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


def counterexample_lines(violation: AuditViolation) -> list[str]:
    """The minimal failing prefix in re-runnable form, one line each."""
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
    end = None if violation.trial_index is None else violation.trial_index + 1
    for z in violation.trials[:end]:
        lines.append(format_bits(z))
    return lines
