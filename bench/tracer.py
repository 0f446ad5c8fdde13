"""Span tracer that wraps cryoqaoa functions from outside the package.

``Tracer.install`` replaces every binding of each traced function: its home
module, every ``cryoqaoa`` module that imported it by name (``counters``,
``qaoa`` and ``audit`` do ``from .ising import sampled_energy``; ``cli``
does ``from .ising import make_instance, load_instance``), the package
namespace, and for methods the class attribute.  Patching only the home
module would silently miss the calls made through those other names.

Most functions become spans: name, start, end and the span that was open
when they were called.  ``CounterBank.record_trial`` and ``flush_msbs`` run
once per trial, so they are aggregated into a call count plus busy time
instead; their busy time is still charged as child time of the enclosing
span.  A span's self time is its duration minus the time of its children,
so the self times of one op add up to the time spent inside
``cryoqaoa.cli.main``.

Functions that run per trial or per bitstring inside a traced function
(``cost``, ``index_to_bits``, ``readout_entry``, ``add_unit``) are not
wrapped; their time is self time of the caller.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict


def _count_trials(tracer, args, kwargs, result):
    tracer.counts["qaoa.trials_drawn"] += len(result)


def _count_baseline(tracer, args, kwargs, result):
    tracer.counts["counters.baseline_bits"] += result.total_bits


def _count_flush(tracer, args, kwargs, result):
    tracer.counts["counters.msb_bits"] += result
    accumulator = args[1]  # flush_msbs(self, accumulator)
    tracer.accumulators[id(accumulator)] = accumulator


def _count_collection(tracer, args, kwargs, result):
    bank = args[0]
    tracer.counts["counters.collection_bits"] += bank.width_b * bank.m_in_use


def _count_case(tracer, args, kwargs, result):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    tracer.counts["audit.cases"] += 1
    tracer.counts["audit.trials_checked"] += len(trials)


# (home module, attribute, layer, aggregated, hook).  A layer's self-time
# metric is the layer name plus "_s".
TARGETS = (
    ("cryoqaoa.ising", "make_instance", "ising.build", False, None),
    ("cryoqaoa.ising", "load_instance", "ising.build", False, None),
    ("cryoqaoa.ising", "sampled_energy", "ising.sampled_energy", False, None),
    ("cryoqaoa.qaoa", "prepare_state", "qaoa.prepare_state", False, None),
    ("cryoqaoa.qaoa", "sample", "qaoa.sample", False, _count_trials),
    ("cryoqaoa.qaoa", "synthetic_trials", "qaoa.synthetic_trials", False, _count_trials),
    ("cryoqaoa.qaoa", "optimize", "qaoa.optimize", False, None),
    ("cryoqaoa.timing", "layer_time_ns", "timing.self", False, None),
    ("cryoqaoa.timing", "circuit_time_ns", "timing.self", False, None),
    ("cryoqaoa.timing", "per_qubit_circuit_time_ns", "timing.self", False, None),
    ("cryoqaoa.timing", "ExecutionProfile.layer_time_ns", "timing.self", False, None),
    ("cryoqaoa.timing", "ExecutionProfile.circuit_time_ns", "timing.self", False, None),
    ("cryoqaoa.bandwidth", "bandwidth_report", "bandwidth.report", False, None),
    ("cryoqaoa.bandwidth", "staircase_sweep", "bandwidth.staircase_sweep", False, None),
    ("cryoqaoa.counters", "run_baseline", "counters.run_baseline", False, _count_baseline),
    ("cryoqaoa.counters", "run_proposed", "counters.run_proposed", False, None),
    ("cryoqaoa.counters", "CounterBank.record_trial", "counters.record_trial", True, None),
    ("cryoqaoa.counters", "CounterBank.flush_msbs", "counters.flush_msbs", True, _count_flush),
    ("cryoqaoa.counters", "collect_non_msbs", "counters.collect", False, _count_collection),
    ("cryoqaoa.counters", "counter_energy_estimate", "counters.estimate", False, None),
    ("cryoqaoa.power", "system_comparison", "power.system_comparison", False, None),
    ("cryoqaoa.audit", "run_audit", "audit.run_audit", False, None),
    ("cryoqaoa.audit", "check_case", "audit.check_case", False, _count_case),
    ("cryoqaoa.cli", "main", "cli.self", False, None),
    ("cryoqaoa.cli", "cmd_run", "cli.self", False, None),
    ("cryoqaoa.cli", "cmd_fig5a", "cli.self", False, None),
    ("cryoqaoa.cli", "cmd_fig5b", "cli.self", False, None),
    ("cryoqaoa.cli", "cmd_audit", "cli.self", False, None),
    ("cryoqaoa.cli", "_emit", "cli.emit", False, None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _, _ in TARGETS))
COUNTS = (
    "qaoa.trials_drawn",
    "counters.record_trial.calls",
    "counters.msb_bits",
    "counters.msb_units",
    "counters.collection_bits",
    "counters.baseline_bits",
    "audit.cases",
    "audit.trials_checked",
)


class Tracer:
    """Collects spans and aggregates for one op at a time.

    Call ``install`` once after ``cryoqaoa.cli`` is imported, then bracket
    each op with ``begin_op`` / ``end_op``.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, function, layer, start, end, self)
        self.bindings: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [id, start, child time]
        self._ids = itertools.count(1)
        self._busy: defaultdict[str, float] = defaultdict(float)
        self._calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.accumulators: dict[int, object] = {}  # warm-side accumulators seen this op
        self._op = -1
        self._op_start = 0

    def _span(self, function, layer, fn, hook):
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [next(ids), clock(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                spans.append(
                    (self._op, frame[0], parent, function, layer, frame[1], end, duration - frame[2])
                )
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _aggregate(self, layer, fn, hook):
        stack, busy, calls, clock = self._stack, self._busy, self._calls, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            duration = clock() - start
            busy[layer] += duration
            calls[layer] += 1
            if stack:
                stack[-1][2] += duration
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target; raise if one is left unwrapped."""
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "cryoqaoa" or name.startswith("cryoqaoa."))
        ]
        originals = []
        for home, attribute, layer, aggregated, hook in TARGETS:
            owner = sys.modules[home]
            class_name, _, name = attribute.rpartition(".")
            holder = getattr(owner, class_name) if class_name else owner
            original = vars(holder)[name]
            if aggregated:
                wrapper = self._aggregate(layer, original, hook)
            else:
                wrapper = self._span(f"{home}.{attribute}", layer, original, hook)
            count = 0
            if class_name:
                setattr(holder, name, wrapper)
                count += 1
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        count += 1
            self.bindings[f"{home}.{attribute}"] = count
            originals.append((f"{home}.{attribute}", original))
        for label, original in originals:
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        raise RuntimeError(f"{module.__name__}.{key} still binds unwrapped {label}")
                    if isinstance(value, type) and any(v is original for v in vars(value).values()):
                        raise RuntimeError(f"{module.__name__}.{key} still binds unwrapped {label}")

    def begin_op(self, op: int) -> None:
        self._op = op
        self._op_start = len(self.spans)
        self._stack.clear()
        self._busy.clear()
        self._calls.clear()
        self.counts.clear()
        self.accumulators.clear()

    def end_op(self) -> dict[str, float]:
        """Per-layer self times and counts of the op since ``begin_op``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at the end of an op")
        values: dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS}
        values.update({name: 0 for name in COUNTS})
        spans = self.spans[self._op_start :]
        negative = 0
        for span in spans:
            values[f"{span[4]}_s"] += span[7]
            negative += span[7] < 0
        for layer, busy in self._busy.items():
            values[f"{layer}_s"] += busy
        values.update(self.counts)
        values["counters.record_trial.calls"] = self._calls["counters.record_trial"]
        values["counters.msb_units"] = sum(
            sum(acc.upper_counts.values()) for acc in self.accumulators.values()
        )
        bits = values["counters.msb_bits"]
        values["counters.msb_useful_frac"] = values["counters.msb_units"] / bits if bits else 0.0
        values["trace.attributed_s"] = sum(values[f"{layer}_s"] for layer in LAYERS)
        values["trace.spans"] = len(spans)
        values["trace.negative_self_spans"] = negative
        self.accumulators.clear()
        return values
