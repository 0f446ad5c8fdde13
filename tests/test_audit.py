"""The audit's reports: pinned at a known injected fault, and the order in
which the per-trial smoothing and reconstruction checks report."""

import itertools
import tracemalloc

import numpy as np
import pytest

from cryoqaoa.audit import CASE_BYTES_PER_CELL, check_case, counterexample_lines, run_audit
from cryoqaoa.counters import CounterBank, RoomTempAccumulator
from cryoqaoa.ising import IsingInstance

DROP_MSB_SEED_11 = b"""\
kind = reconstruction
message = entry 0: warm+cold = 1, direct tally = 5
divergence_trial = 7
counter_bits = 3
n = 2
[linear]
0 = -4
[pairs]
0 1 = 0
[trials]
01
10
10
11
11
10
01
01
"""


def test_dropped_msb_report_pinned():
    result = run_audit(cases=25, seed=11, inject="drop-msb")
    violation = result.violation
    assert (result.ok, result.cases_run) == (False, 1)
    assert (violation.kind, violation.trial_index) == ("reconstruction", 7)
    assert violation.message == "entry 0: warm+cold = 1, direct tally = 5"
    lines = counterexample_lines(violation)
    assert "".join(f"{line}\n" for line in lines).encode() == DROP_MSB_SEED_11


@pytest.mark.parametrize(
    "extra_bit_at, withheld_at, expected",
    [
        (3, 6, ("smoothing", 3, "trial 3 sent 2 bits, above ceil(M/2^(b-1)) = 1")),
        (6, 3, ("reconstruction", 3, "entry 1: warm+cold = 2, direct tally = 4")),
        (5, 5, ("smoothing", 5, "trial 5 sent 2 bits, above ceil(M/2^(b-1)) = 1")),
    ],
    ids=["smoothing-first", "reconstruction-first", "same-trial-reports-smoothing"],
)
def test_first_failing_trial_reported(monkeypatch, extra_bit_at, withheld_at, expected):
    # M = 2 always-hit entries at b = 2: one slot per trial, ceil(M/W) = 1,
    # and from trial 1 on every flushed MSB is set and credits one unit
    real = CounterBank.flush_msbs

    def faulty(bank, accumulator):
        trial = bank.trial_index - 1
        sent = real(bank, RoomTempAccumulator() if trial == withheld_at else accumulator)
        return sent + (trial == extra_bit_at)

    monkeypatch.setattr(CounterBank, "flush_msbs", faulty)
    instance = IsingInstance(2, linear={0: 1, 1: 1})
    violation = check_case(instance, [(1, 1)] * 12, 2)
    assert (violation.kind, violation.trial_index, violation.message) == expected


@pytest.mark.parametrize("width_b, wrong", [(14, 9000), (16, (1 << 16) - 1)])
def test_readout_roundtrip_names_the_wrong_value(monkeypatch, width_b, wrong):
    import cryoqaoa.audit as audit
    from cryoqaoa.counters import ReadoutEvent

    real = audit.readout

    def off_by_one_at(b, values):
        event = real(b, values)
        if b != width_b:
            return event
        return ReadoutEvent(event.pulse_count, event.recovered_value + (values == wrong))

    assert audit.check_readout_roundtrip(range(2, 17)) is None
    monkeypatch.setattr(audit, "readout", off_by_one_at)
    violation = audit.check_readout_roundtrip(range(2, 17))
    assert (violation.kind, violation.width_b) == ("readout", width_b)
    pulses = (1 << width_b) - wrong
    assert violation.message == (
        f"b={width_b}, v={wrong}: recovered {wrong + 1} from {pulses} pulses"
    )


@pytest.mark.parametrize("width_b", [62, 63, 64, 70])
def test_widths_beyond_int64_check_clean(width_b):
    # 2^(b-1) itself leaves int64 from b = 65; the trial-boundary check stays exact
    instance = IsingInstance(3, linear={0: 1}, pairs={(0, 2): -1, (1, 2): 2})
    assert check_case(instance, [(1, 0, 1), (0, 1, 1), (1, 1, 0)] * 5, width_b) is None


@pytest.mark.parametrize("n", [1, 8])
def test_case_peak_within_guard_estimate(n):
    # the guard of run_audit prices a trial of one entry of the densest
    # instance at CASE_BYTES_PER_CELL; b = 2 flushes the most
    pairs = dict.fromkeys(itertools.combinations(range(n), 2), 1)
    inst = IsingInstance(n, linear=dict.fromkeys(range(n), 1), pairs=pairs)
    t = 2000
    rng = np.random.default_rng(0)  # imports numpy.random, which is not per cell
    tracemalloc.start()
    try:
        trials = rng.integers(0, 2, size=(t, n))
        assert check_case(inst, trials, 2) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"audit case peak bytes per cell at n = {n}: {peak / (t * inst.terms_in_use):.1f}")
    assert peak <= CASE_BYTES_PER_CELL * t * inst.terms_in_use
