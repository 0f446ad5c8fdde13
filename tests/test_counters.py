import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cryoqaoa.counters import (
    CounterBank,
    CounterEntry,
    Ledger,
    RoomTempAccumulator,
    collect_non_msbs,
    counter_energy_estimate,
    readout_entry,
    run_baseline,
    run_proposed,
)
from cryoqaoa.ising import (
    CHUNK_CELLS,
    IsingInstance,
    hit_energy,
    pack_trials,
    packed_hits,
    sampled_energy,
    term_counts,
    term_indices,
    worstcase_instance,
)
from cryoqaoa.qaoa import synthetic_trials


def direct_tallies(instance, trials):
    """Independent oracle: per-term tallies by plain iteration."""
    tallies = {}
    for i, v in instance.linear.items():
        if v != 0:
            tallies[i] = sum(1 for z in trials if z[i])
    for (i, j), v in instance.pairs.items():
        if v != 0:
            tallies[(i, j)] = sum(1 for z in trials if z[i] != z[j])
    return tallies


def drive_bank(instance, trials, b):
    """Reference run: step a CounterBank trial by trial, then collect."""
    bank = CounterBank.for_instance(instance, b)
    bank.event_log = []
    acc = RoomTempAccumulator()
    bits_log = []
    for z in trials:
        bank.record_trial(z)
        bits_log.append(bank.flush_msbs(acc))
    collection = collect_non_msbs(bank, acc)
    return tuple(bits_log), tuple(bank.event_log), collection


def assert_ledger_matches_bank(instance, trials, b):
    result = run_proposed(instance, trials, width_b=b)
    bits_log, events, collection = drive_bank(instance, trials, b)
    assert result.bits_log == bits_log
    assert result.flush_events == events
    assert result.totals == collection.totals
    assert result.collection.events == collection.events


class TestCounterEntry:
    def test_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            CounterEntry(3, 8)
        with pytest.raises(ValueError, match="width"):
            CounterEntry(1)

    def test_holds_value(self):
        assert CounterEntry(3, 7).value == 7


class TestBankConstruction:
    def test_entry_order_and_counts(self):
        bank = CounterBank(4, 3, active_singles=[2, 0], active_pairs=[(3, 1), (0, 1)])
        assert bank.entry_order == [0, 2, (0, 1), (1, 3)]
        assert bank.m_in_use == 4

    def test_from_instance_skips_zero_coefficients(self):
        inst = IsingInstance(3, linear={0: 0, 1: 2}, pairs={(0, 1): -1, (1, 2): 0})
        bank = CounterBank.for_instance(inst, 4)
        assert bank.entry_order == [1, (0, 1)]

    def test_validation(self):
        with pytest.raises(ValueError, match="width"):
            CounterBank(2, 1, active_singles=[0])
        with pytest.raises(ValueError, match="out of range"):
            CounterBank(2, 2, active_singles=[2])
        with pytest.raises(ValueError, match="self-loop"):
            CounterBank(2, 2, active_pairs=[(1, 1)])
        with pytest.raises(ValueError, match="fault"):
            CounterBank(2, 2, fault="bitflip")


class TestRecordTrial:
    def test_all_zero_bitstring_changes_nothing(self):
        bank = CounterBank(3, 3, active_singles=[0, 1], active_pairs=[(0, 2)])
        bank.record_trial((0, 0, 0))
        assert all(e.value == 0 for e in bank.entries.values())
        assert bank.trial_index == 1

    def test_pair_counts_disagreement(self):
        bank = CounterBank(2, 3, active_pairs=[(0, 1)])
        bank.record_trial((1, 0))
        assert bank.entries[(0, 1)].value == 1
        bank.record_trial((1, 1))
        assert bank.entries[(0, 1)].value == 1

    def test_length_mismatch(self):
        bank = CounterBank(3, 3, active_singles=[0])
        with pytest.raises(ValueError, match="length"):
            bank.record_trial((0, 1))

    def test_random_tallies_match_oracle(self):
        rng = np.random.default_rng(42)
        inst = IsingInstance(
            6,
            linear={0: 1, 2: 1, 5: 1},
            pairs={(0, 1): 1, (1, 2): 1, (3, 4): 1, (4, 5): 1},
        )
        trials = [tuple(int(b) for b in rng.integers(0, 2, 6)) for _ in range(300)]
        result = run_proposed(inst, trials, width_b=4)
        assert result.totals == direct_tallies(inst, trials)


class TestFlush:
    def test_set_msb_cleared_and_credited(self):
        bank = CounterBank(2, 3, active_pairs=[(0, 1)])
        bank.entries[(0, 1)].value = 7
        bank.trial_index = 4  # this entry's flush slot (window = 4)
        acc = RoomTempAccumulator()
        bits = bank.flush_msbs(acc)
        assert bits == 1
        assert bank.entries[(0, 1)].value == 3
        assert acc.upper_counts[(0, 1)] == 1  # one unit worth 4 counts

    def test_clear_msb_sends_zero_bit(self):
        bank = CounterBank(2, 3, active_pairs=[(0, 1)])
        bank.entries[(0, 1)].value = 2
        bank.trial_index = 4
        acc = RoomTempAccumulator()
        assert bank.flush_msbs(acc) == 1
        assert bank.entries[(0, 1)].value == 2
        assert acc.upper_counts == {}

    def test_window_carries_exactly_m_bits(self):
        # M = 5 entries, b = 3: every 4-trial window moves exactly 5 bits
        inst = IsingInstance(5, linear={i: 1 for i in range(5)})
        trials = [(1, 1, 1, 1, 1)] * 32
        result = run_proposed(inst, trials, width_b=3)
        window = 4
        for start in range(len(trials) - window + 1):
            assert sum(result.bits_log[start : start + window]) == 5
        assert result.peak_bits_per_trial <= math.ceil(5 / window)

    def test_idempotent_within_a_boundary(self):
        bank = CounterBank(2, 2, active_singles=[0, 1])
        acc = RoomTempAccumulator()
        bank.record_trial((1, 1))
        first = bank.flush_msbs(acc)
        second = bank.flush_msbs(acc)
        assert second == 0
        assert first == 1  # M=2, window=2: one slot per trial


class TestReadout:
    def test_known_values(self):
        event = readout_entry(CounterEntry(3, 5))
        assert event.pulse_count == 3
        assert event.recovered_value == 5

    def test_max_value_single_pulse(self):
        event = readout_entry(CounterEntry(4, 15))
        assert event.pulse_count == 1

    def test_zero_emits_full_stream(self):
        event = readout_entry(CounterEntry(3, 0))
        assert event.pulse_count == 8
        assert event.recovered_value == 0

    def test_entry_left_cleared(self):
        entry = CounterEntry(5, 17)
        readout_entry(entry)
        assert entry.value == 0

    @pytest.mark.parametrize("b", range(2, 13))
    def test_round_trip_exhaustive(self, b):
        for v in range(1 << b):
            assert readout_entry(CounterEntry(b, v)).recovered_value == v

    @pytest.mark.parametrize("b", range(13, 21))
    def test_round_trip_wide(self, b):
        rng = np.random.default_rng(b)
        values = {0, 1, (1 << b) - 1, 1 << (b - 1)}
        values.update(int(v) for v in rng.integers(0, 1 << b, 64))
        for v in values:
            assert readout_entry(CounterEntry(b, v)).recovered_value == v


class TestCollection:
    def test_no_trials_all_zero(self):
        bank = CounterBank(3, 3, active_singles=[0, 1, 2])
        result = collect_non_msbs(bank, RoomTempAccumulator())
        assert set(result.totals.values()) == {0}

    def test_path_instance_matches_oracle(self):
        inst = worstcase_instance(5)
        trials = synthetic_trials([0.3, 0.7, 0.5, 0.2, 0.9], 200, seed=11)
        result = run_proposed(inst, trials, width_b=3)
        assert result.totals == direct_tallies(inst, trials)

    def test_always_hit_entry_flushes_clean(self):
        # incremented every trial, T a multiple of the window: residual 0
        inst = IsingInstance(1, linear={0: 1})
        b, k = 4, 9
        t = (1 << (b - 1)) * k
        result = run_proposed(inst, [(1,)] * t, width_b=b)
        assert result.totals[0] == t
        assert result.collection.events[0].recovered_value == 0


class TestEnergyEstimate:
    def test_zero_totals(self):
        inst = IsingInstance(3, pairs={(0, 1): 1, (1, 2): 1, (0, 2): 1})
        totals = {(0, 1): 0, (1, 2): 0, (0, 2): 0}
        assert counter_energy_estimate(inst, totals, 10) == 0

    def test_triangle_example(self):
        inst = IsingInstance(3, pairs={(0, 1): 1, (1, 2): 1, (0, 2): 1})
        trials = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
        result = run_proposed(inst, trials, width_b=2)
        assert result.energy == Fraction(3, 2)
        assert result.energy == sampled_energy(inst, trials)

    def test_missing_entry_rejected(self):
        inst = IsingInstance(2, pairs={(0, 1): 3})
        with pytest.raises(ValueError, match="no counter total"):
            counter_energy_estimate(inst, {}, 5)

    def test_trial_count_validated(self):
        inst = IsingInstance(2, pairs={(0, 1): 3})
        with pytest.raises(ValueError, match="trial count"):
            counter_energy_estimate(inst, {(0, 1): 0}, 0)


class TestBaseline:
    def test_bit_ledger(self):
        inst = worstcase_instance(8)
        trials = synthetic_trials([0.5] * 8, 100, seed=0)
        result = run_baseline(inst, trials)
        assert result.bits_per_trial == 8
        assert result.total_bits == 800

    def test_energy_is_sampled_energy(self):
        inst = worstcase_instance(4)
        trials = synthetic_trials([0.5] * 4, 50, seed=1)
        assert run_baseline(inst, trials).energy == sampled_energy(inst, trials)


@st.composite
def instance_and_trials(draw):
    n = draw(st.integers(1, 7))
    linear = {
        i: draw(st.integers(-5, 5)) for i in range(n) if draw(st.booleans())
    }
    pairs = {
        (i, j): draw(st.integers(-5, 5))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    t = draw(st.integers(1, 60))
    trials = [
        tuple(draw(st.integers(0, 1)) for _ in range(n)) for _ in range(t)
    ]
    b = draw(st.integers(2, 6))
    return IsingInstance(n, linear, pairs), trials, b


@given(instance_and_trials())
@settings(max_examples=60, deadline=None)
def test_counter_estimate_equals_sampled_energy(case):
    instance, trials, b = case
    result = run_proposed(instance, trials, width_b=b)
    assert result.energy == sampled_energy(instance, trials)


@given(instance_and_trials())
@settings(max_examples=60, deadline=None)
def test_reconstruction_exact_at_every_trial(case):
    """Warm units * 2^(b-1) + cold value equals the true tally throughout."""
    instance, trials, b = case
    bank = CounterBank.for_instance(instance, b)
    acc = RoomTempAccumulator()
    tally = {e: 0 for e in bank.entry_order}
    window = bank.flush_window
    for z in trials:
        bank.record_trial(z)
        bank.flush_msbs(acc)
        for e in tally:
            if isinstance(e, tuple):
                tally[e] += int(z[e[0]] != z[e[1]])
            else:
                tally[e] += int(bool(z[e]))
        for e, expected in tally.items():
            cold = bank.entries[e].value
            assert cold < (1 << b)
            assert acc.upper_counts.get(e, 0) * window + cold == expected


@given(instance_and_trials())
@settings(max_examples=60, deadline=None)
def test_smoothing_bounds(case):
    instance, trials, b = case
    result = run_proposed(instance, trials, width_b=b)
    m = result.m_in_use
    window = 1 << (b - 1)
    assert result.peak_bits_per_trial <= math.ceil(m / window) if m else True
    for start in range(len(trials) - window + 1):
        assert sum(result.bits_log[start : start + window]) == m


def test_windowed_peak_rate_matches_reduction_ratio():
    """The worst window moves M bits per 2^(b-1) executions, i.e. exactly
    the baseline peak rate times the reduction ratio."""
    inst = worstcase_instance(9)
    trials = synthetic_trials([0.5] * 9, 400, seed=3)
    b = 4
    t_qc_ns = 750.0
    result = run_proposed(inst, trials, width_b=b)
    window = 1 << (b - 1)
    peak_window_bits = max(
        sum(result.bits_log[s : s + window])
        for s in range(len(trials) - window + 1)
    )
    proposed_peak_bps = peak_window_bits / (window * t_qc_ns) * 1e9
    baseline_peak_bps = inst.n_qubits / t_qc_ns * 1e9
    ratio = result.m_in_use / (inst.n_qubits * window)
    assert proposed_peak_bps <= baseline_peak_bps * ratio * (1 + 1e-9)


def test_uneven_slice_sizes_still_cover_every_entry():
    # M = 5, window = 4: slices alternate 1 and 2 entries per trial
    inst = IsingInstance(5, linear={i: 1 for i in range(5)})
    result = run_proposed(inst, [(1, 0, 1, 1, 0)] * 40, width_b=3)
    assert set(result.bits_log) == {1, 2}
    assert result.totals == direct_tallies(inst, [(1, 0, 1, 1, 0)] * 40)


def test_trial_count_not_divisible_by_window():
    inst = worstcase_instance(6)
    trials = synthetic_trials([0.6] * 6, 101, seed=9)  # 101 = 12*8 + 5
    result = run_proposed(inst, trials, width_b=4)
    assert result.totals == direct_tallies(inst, trials)
    assert result.energy == sampled_energy(inst, trials)


def test_dropped_msb_breaks_reconstruction():
    from cryoqaoa.audit import check_case

    inst = IsingInstance(2, pairs={(0, 1): 1})
    trials = [(1, 0)] * 12
    assert check_case(inst, trials, 3) is None
    violation = check_case(inst, trials, 3, fault="drop-msb")
    assert violation is not None
    assert violation.kind == "reconstruction"
    assert violation.trial_index is not None


def test_event_log_records_flushes():
    inst = IsingInstance(2, pairs={(0, 1): 1})
    result = run_proposed(inst, [(1, 0)] * 8, width_b=3)
    # M=1, window=4: flush slots at trials 4 and 8, both with MSB set
    assert [(t, msb) for t, _, msb in result.flush_events] == [(4, 1), (8, 1)]


@given(instance_and_trials())
@settings(max_examples=60, deadline=None)
def test_entry_below_half_after_its_own_flush(case):
    instance, trials, b = case
    bank = CounterBank.for_instance(instance, b)
    bank.event_log = []
    acc = RoomTempAccumulator()
    half = bank.flush_window
    for z in trials:
        seen = len(bank.event_log)
        bank.record_trial(z)
        bank.flush_msbs(acc)
        for _, entry_id, _ in bank.event_log[seen:]:
            assert bank.entries[entry_id].value < half


@given(instance_and_trials())
@settings(max_examples=60, deadline=None)
def test_ledger_equals_bank_driven_per_trial(case):
    instance, trials, b = case
    assert_ledger_matches_bank(instance, trials, b)


@pytest.mark.parametrize("b", [2, 5, 9])
def test_ledger_across_chunk_boundary(b):
    # path:40 at T = 10000 spans two row chunks of the ledger
    inst = worstcase_instance(40)
    trials = synthetic_trials(np.linspace(0.1, 0.9, 40), 10_000, seed=b)
    assert len(trials) * inst.terms_in_use > CHUNK_CELLS
    assert_ledger_matches_bank(inst, trials, b)
    assert run_proposed(inst, trials, width_b=b).energy == sampled_energy(inst, trials)


@pytest.mark.parametrize("b", [2, 5, 9])
def test_ledger_fed_uneven_chunks_matches_whole_array(b):
    inst = worstcase_instance(40)
    trials = synthetic_trials(np.linspace(0.1, 0.9, 40), 10_000, seed=b)
    whole = run_proposed(inst, trials, width_b=b)
    ledger = Ledger(inst, b)
    singles, pairs = term_indices(inst)
    counts = np.zeros(len(singles) + len(pairs), dtype=np.int64)
    bits_log, events = [], []
    for rows in np.split(trials, [1, 334]):
        q = pack_trials(rows)
        counts += term_counts(q, singles, pairs)
        flushes = ledger.feed(packed_hits(q, singles, pairs), len(rows))
        bits_log += flushes.bits.tolist()
        entries = [ledger.entry_order[e] for e in flushes.entry.tolist()]
        events += zip(flushes.trial.tolist(), entries, flushes.msb.tolist())
    totals = ledger.collect().totals
    assert tuple(bits_log) == whole.bits_log
    assert tuple(events) == whole.flush_events
    assert totals == whole.totals
    assert (ledger.peak_bits_per_trial, ledger.total_msb_bits) == (
        whole.peak_bits_per_trial,
        whole.total_msb_bits,
    )
    assert counter_energy_estimate(inst, totals, len(trials)) == whole.energy
    assert hit_energy(inst, counts, len(trials)) == sampled_energy(inst, trials)


def test_ledger_entries_follow_sorted_terms_not_dict_order():
    # terms given unsorted and with zero coefficients: the hit columns and the
    # entries are both the sorted nonzero terms
    inst = IsingInstance(4, linear={3: 1, 0: 0, 1: 2}, pairs={(2, 3): -1, (0, 1): 0, (0, 2): 3})
    trials = synthetic_trials([0.2, 0.5, 0.7, 0.4], 300, seed=3)
    assert_ledger_matches_bank(inst, trials, 3)
    assert run_proposed(inst, trials, width_b=3).energy == sampled_energy(inst, trials)


def test_ledger_accepts_rows_and_arrays_alike():
    inst = IsingInstance(3, linear={1: 2}, pairs={(0, 2): -1})
    rows = [(1, 0, 1), (0, 1, 1), (1, 1, 0)]
    a = run_proposed(inst, rows, width_b=2)
    b = run_proposed(inst, np.array(rows, dtype=np.uint8), width_b=2)
    assert (a.bits_log, a.flush_events, a.totals) == (b.bits_log, b.flush_events, b.totals)
    with pytest.raises(ValueError, match="n_qubits"):
        run_proposed(inst, [(1, 0)], width_b=2)


def test_ledger_width_beyond_int64():
    # 2^(b-1) far above T*M: no MSB is ever streamed, every tally is residual
    inst = IsingInstance(3, linear={0: 1}, pairs={(1, 2): -2})
    trials = [(1, 0, 1), (1, 1, 1), (0, 1, 0)]
    assert_ledger_matches_bank(inst, trials, 70)
    assert run_proposed(inst, trials, width_b=70).bits_log == (0, 0, 0)
