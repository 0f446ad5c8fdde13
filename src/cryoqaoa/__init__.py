"""Desk-scale models of inter-temperature communication for counter-based
cryogenic QAOA readout: cost/energy evaluation, statevector sampling,
timing and bandwidth formulas, a bit-exact counter-bank simulator, and
cable/SFQ power budgets."""

from .ising import (
    IsingInstance,
    cost,
    sampled_energy,
    maxcut_instance,
    worstcase_instance,
    ring_instance,
    complete_instance,
    load_instance,
)
from .qaoa import QaoaParams, prepare_state, sample, synthetic_trials, optimize
from .timing import (
    GateTimings,
    ExecutionProfile,
    DEFAULT_TIMINGS,
    PRESETS,
    layer_time_ns,
    circuit_time_ns,
    per_qubit_circuit_time_ns,
)
from .bandwidth import (
    BandwidthReport,
    bandwidth_report,
    bw_inst_bps,
    bw_meas_bps,
    bw_msb_bps,
    bw_non_msb_bps,
    choose_b,
    resolve_width,
    asymptotic_reduction_ratio,
    overhead_factor,
    min_collection_time_ns,
    staircase_sweep,
)
from .counters import (
    CounterBank,
    RoomTempAccumulator,
    ReadoutEvent,
    readout,
    collect_non_msbs,
    counter_energy_estimate,
    run_baseline,
    run_proposed,
)
from .power import (
    CableSpec,
    SfqPowerSpec,
    PowerReport,
    cable_power,
    counter_power_per_entry_w,
    total_counter_power_w,
    link_power,
    system_comparison,
)

__version__ = "0.1.0"
