"""Command-line front end.

Subcommands:
  run    end-to-end scenario: sample trials, drive baseline and counter
         readout, report energies, bits, and bandwidths
  fig5a  staircase sweep of counter width / bandwidth ratio over (T, r)
  fig5b  baseline-vs-proposed power sweep over qubit counts, with crossover
  audit  randomized invariant suite with optional fault injection

Exit codes: 0 ok, 1 invariant violation, 2 usage or config error.
Every CSV starts with a comment line recording the resolved configuration,
then a header row; output is byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator, Sequence, TextIO

import numpy as np

from . import audit as audit_mod
from . import bandwidth, counters, power, qaoa
from .config import _PARSERS, ScenarioConfig, load_scenario, resolved_items
from .ising import (
    IsingInstance,
    hit_energy,
    load_instance,
    make_instance,
    pack_trials,
    packed_hits,
    physical_memory,
    term_counts,
    term_indices,
)
from .timing import ExecutionProfile


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(lines: Sequence[str], out: str | None, quiet: bool) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        if not quiet:
            print(f"wrote {out}")


def _csv_lines(comment: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    lines = [comment, ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def _entry_id_str(entry_id) -> str:
    if isinstance(entry_id, tuple):
        return f"{entry_id[0]}-{entry_id[1]}"
    return str(entry_id)


def _resolve_instance(config: ScenarioConfig) -> IsingInstance:
    path = config.instance_path()
    if path is not None:
        if not path.exists():
            raise FileNotFoundError(f"instance file not found: {path}")
        return load_instance(path)
    assert config.generator is not None
    return make_instance(config.generator)


def _build_trials(config: ScenarioConfig, instance: IsingInstance) -> Iterator[np.ndarray]:
    """Row chunks of the run's (T, N) uint8 trial matrix, drawn lazily.

    The run holds one chunk of ``ising.row_chunks`` at a time.  The one
    allocation that grows with T is the optimizer's (T // 10, N) sample per
    evaluation, so an exact source with ``optimize_steps > 0`` is refused
    before it starts when that sample exceeds physical memory.
    """
    n = instance.n_qubits
    source = config.source
    if source == "auto":
        source = "exact" if n <= config.statevector_limit else "synthetic"
    if source == "synthetic":
        return qaoa.synthetic_chunks((config.marginal,) * n, config.trials, config.seed)
    params = qaoa.QaoaParams(config.gammas, config.betas)
    if config.optimize_steps > 0:
        per_step = max(1, config.trials // 10)
        memory = physical_memory()
        if per_step * n > memory:
            raise ValueError(
                f"the optimizer's T/10={per_step} x N={n} sample needs {per_step * n} bytes, "
                f"more than physical memory ({memory} bytes)"
            )
        params, _ = qaoa.optimize(
            instance,
            params,
            trials_per_step=per_step,
            steps=config.optimize_steps,
            seed=config.seed,
            max_qubits=config.statevector_limit,
        )
    state = qaoa.prepare_state(instance, params, max_qubits=config.statevector_limit)
    return qaoa.sample_chunks(state, config.trials, config.seed)


def cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.config) if args.config else ScenarioConfig()
    flags = {key: getattr(args, key) for key in _RUN_KEYS}
    config = replace(config, **{key: v for key, v in flags.items() if v is not None})
    if args.instance is not None:
        config = replace(config, instance=args.instance, generator=None, base_dir=".")
    elif args.generator is not None:
        config = replace(config, generator=args.generator, instance=None)
    config.validate()
    instance = _resolve_instance(config)
    n = instance.n_qubits
    p = n if config.parallelism == "full" else int(config.parallelism)
    profile = ExecutionProfile(
        n_qubits=n, s=instance.s_count, c=instance.c_count, layers=config.layers, parallelism=p
    )
    timings = config.gate_timings()
    t_qc_ns = profile.circuit_time_ns(timings)

    width_b, feasible = bandwidth.resolve_width(
        config.counter_bits, config.trials, config.overhead_budget
    )

    config_comment = "# config: " + " ".join(
        f"{k}={_fmt(v)}" for k, v in resolved_items(config)
    )
    chunks = _build_trials(config, instance)
    singles, pairs = term_indices(instance)
    counts = np.zeros(len(singles) + len(pairs), dtype=np.int64)
    ledger = counters.Ledger(instance, width_b)
    names = [_entry_id_str(e) for e in ledger.entry_order]
    tails = [f",{name},msb{msb}\n" for name in names for msb in (0, 1)]
    with _replace_on_success(args.trace) as trace:
        if trace is not None:
            trace.write(f"{config_comment}\ntrial,bits_sent,entry_id,event\n")
        for z in chunks:
            first = ledger.trial_count
            q = pack_trials(z)
            counts += term_counts(q, singles, pairs)
            flushes = ledger.feed(packed_hits(q, singles, pairs), len(z))
            if trace is not None:
                trace.write(_flush_rows(flushes, first, tails))
        t = ledger.trial_count
        if trace is not None:
            trace.writelines(f"{t},{width_b},{name},readout\n" for name in names)

    baseline_energy = hit_energy(instance, counts, t)
    counter_energy = counters.counter_energy_estimate(instance, ledger.collect().totals, t)
    energies_equal = baseline_energy == counter_energy
    report = bandwidth.bandwidth_report(
        timings,
        instance.s_count,
        instance.c_count,
        n,
        config.layers,
        p,
        config.param_bits,
        config.trials,
        width_b,
    )

    lines = [
        config_comment,
        f"label={instance.label}",
        f"n_qubits={n}",
        f"s_terms={instance.s_count}",
        f"c_terms={instance.c_count}",
        f"m_in_use={instance.terms_in_use}",
        f"trials={t}",
        f"counter_bits={width_b}",
        f"counter_bits_feasible={_fmt(feasible)}",
        f"baseline_energy={baseline_energy}",
        f"counter_energy={counter_energy}",
        f"baseline_energy_float={_fmt(float(baseline_energy))}",
        f"counter_energy_float={_fmt(float(counter_energy))}",
        f"energies_equal={_fmt(energies_equal)}",
        f"t_layer_ns={_fmt(profile.layer_time_ns(timings))}",
        f"t_qc_ns={_fmt(t_qc_ns)}",
        f"bw_inst_bps={_fmt(report.bw_inst_bps)}",
        f"bw_meas_bps={_fmt(report.bw_meas_bps)}",
        f"bw_msb_bps={_fmt(report.bw_msb_bps)}",
        f"bw_non_msb_bps={_fmt(report.bw_non_msb_bps)}",
        f"bw_proposed_bps={_fmt(report.bw_proposed_bps)}",
        f"reduction_ratio={_fmt(report.reduction_ratio)}",
        f"overhead_factor={_fmt(report.overhead_factor)}",
        f"t_c_ns={_fmt(report.t_c_ns)}",
        f"baseline_bits_per_trial={n}",
        f"baseline_total_bits={n * t}",
        f"proposed_peak_bits_per_trial={ledger.peak_bits_per_trial}",
        f"proposed_avg_bits_per_trial={_fmt(ledger.total_msb_bits / t)}",
        f"proposed_total_msb_bits={ledger.total_msb_bits}",
        f"collection_bits={width_b * ledger.m_in_use}",
    ]
    _emit(lines, args.out, args.quiet)
    if args.trace is not None and not args.quiet:
        print(f"wrote {args.trace}")

    if not energies_equal:
        print("invariant violation: counter energy differs from baseline", file=sys.stderr)
        return 1
    return 0


@contextmanager
def _replace_on_success(path: str | None) -> Iterator[TextIO | None]:
    """A text file that appears at ``path`` only if the block completes.

    It is written as a sibling temporary file and renamed at the end, so a
    run that fails midway leaves no partial file behind.  Yields None when
    ``path`` is None.
    """
    if path is None:
        yield None
        return
    partial = Path(f"{path}.tmp")
    try:
        with partial.open("w") as handle:
            yield handle
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)


def _flush_rows(flushes: counters.Flushes, first: int, tails: Sequence[str]) -> str:
    """Trace rows of one chunk's MSB transfers, which follow trial ``first``.

    ``tails[2e + msb]`` ends the row of entry e sending ``msb``.
    """
    heads = [f"{trial},{bits}" for trial, bits in enumerate(flushes.bits.tolist(), first + 1)]
    rows = zip((flushes.trial - 1 - first).tolist(), (2 * flushes.entry + flushes.msb).tolist())
    return "".join([heads[i] + tails[k] for i, k in rows])


def _parse_grid(text: str, kind) -> list:
    items = [part for part in text.replace(",", " ").split() if part]
    return [kind(part) for part in items]


def cmd_fig5a(args: argparse.Namespace) -> int:
    t_values = _parse_grid(args.t_list, lambda s: int(float(s)))
    r_grid = _parse_grid(args.r_grid, float)
    if not t_values or not r_grid:
        raise ValueError("empty sweep grid")
    rows = bandwidth.staircase_sweep(t_values, r_grid, n=args.n_qubits)
    comment = (
        f"# config: n_qubits={args.n_qubits} timings=paper-v1 "
        f"t_list={args.t_list} r_grid={args.r_grid}"
    )
    header = ["T", "r", "b", "reduction_ratio", "overhead_factor", "bw_meas_bps", "bw_proposed_bps"]
    table = [
        (
            row.trials,
            row.overhead_budget,
            row.b,
            row.reduction_ratio,
            row.overhead_factor,
            row.bw_meas_bps,
            row.bw_proposed_bps,
        )
        for row in rows
    ]
    _emit(_csv_lines(comment, header, table), args.out, args.quiet)
    return 0


def cmd_fig5b(args: argparse.Namespace) -> int:
    if args.n_max < args.n_min:
        raise ValueError(f"n_max {args.n_max} below n_min {args.n_min}")
    b_policy: int | str = args.b_policy
    if b_policy != "log2":
        b_policy = int(b_policy)
    comparison = power.system_comparison(
        range(args.n_min, args.n_max + 1), b_policy=b_policy
    )
    comment = (
        f"# config: n_min={args.n_min} n_max={args.n_max} b_policy={args.b_policy} "
        f"timings=paper-v1 cable=default sfq=default"
    )
    crossover_line = f"# crossover_n = {comparison.crossover_n}"
    header = [
        "N",
        "bw_baseline_bps",
        "bw_proposed_bps",
        "cables_baseline",
        "cables_proposed",
        "power_baseline_mw",
        "power_proposed_mw",
    ]
    table = [
        (
            base.n_qubits,
            base.bw_required_bps,
            prop.bw_required_bps,
            base.n_cables,
            prop.n_cables,
            base.total_mw,
            prop.total_mw,
        )
        for base, prop in comparison.rows
    ]
    lines = _csv_lines(comment, header, table)
    lines.insert(1, crossover_line)
    _emit(lines, args.out, args.quiet)
    if not args.quiet and args.out is not None:
        print(f"crossover_n = {comparison.crossover_n}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    result = audit_mod.run_audit(
        cases=args.cases,
        n_max=args.n_max,
        t_max=args.t_max,
        b_min=args.b_min,
        b_max=args.b_max,
        seed=args.seed if args.seed is not None else 0,
        exhaustive=args.exhaustive,
        inject=args.inject,
    )
    if result.ok:
        if not args.quiet:
            print(f"audit ok: {result.cases_run} cases, no violations")
        return 0
    violation = result.violation
    assert violation is not None
    print(
        f"invariant violation [{violation.kind}] at trial "
        f"{violation.trial_index}: {violation.message}",
        file=sys.stderr,
    )
    dump = args.counterexample or "audit-counterexample.txt"
    audit_mod.write_counterexample(dump, violation)
    print(f"counterexample written to {dump}", file=sys.stderr)
    return 1


# The scenario keys that `run` also takes as flags: --trials, --param-bits, ...
_RUN_KEYS = (
    "trials", "layers", "parallelism", "param_bits", "counter_bits", "overhead_budget",
    "source", "marginal", "optimize_steps", "statevector_limit", "seed",
)


def _key_type(key: str):
    """The key's config parser as an argparse ``type`` that keeps its message."""
    parse = _PARSERS[key]

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    output = argparse.ArgumentParser(add_help=False, parents=[quiet])
    output.add_argument("--out", help="write primary output to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="override the RNG seed")

    parser = argparse.ArgumentParser(
        prog="cryoqaoa",
        description="Bandwidth and power models for counter-based cryogenic QAOA readout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[output], help="end-to-end scenario run")
    p_run.add_argument("--config", help="scenario config file")
    p_run.add_argument("--instance", help="instance file path")
    p_run.add_argument("--generator", help="instance generator, e.g. ring:8")
    for key in _RUN_KEYS:
        p_run.add_argument("--" + key.replace("_", "-"), dest=key, type=_key_type(key))
    p_run.add_argument("--trace", help="write per-event transfer CSV to this path")
    p_run.set_defaults(func=cmd_run)

    # fig5a and fig5b ignore --seed; they take it so every call may end with one
    p_a = sub.add_parser("fig5a", parents=[output, seeded], help="bandwidth staircase sweep CSV")
    p_a.add_argument("--t-list", default="1e3,1e4,1e5,1e6,1e7")
    p_a.add_argument("--r-grid", default="0.001,0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5")
    p_a.add_argument("--n-qubits", dest="n_qubits", type=int, default=750)
    p_a.set_defaults(func=cmd_fig5a)

    p_b = sub.add_parser("fig5b", parents=[output, seeded], help="power comparison sweep CSV")
    p_b.add_argument("--n-min", dest="n_min", type=int, default=2)
    p_b.add_argument("--n-max", dest="n_max", type=int, default=4096)
    p_b.add_argument("--b-policy", dest="b_policy", default="log2")
    p_b.set_defaults(func=cmd_fig5b)

    p_audit = sub.add_parser("audit", parents=[quiet, seeded], help="invariant suite")
    p_audit.add_argument("--cases", type=int, default=200)
    p_audit.add_argument("--n-max", dest="n_max", type=int, default=8)
    p_audit.add_argument("--t-max", dest="t_max", type=int, default=200)
    p_audit.add_argument("--b-min", dest="b_min", type=int, default=2)
    p_audit.add_argument("--b-max", dest="b_max", type=int, default=8)
    p_audit.add_argument("--exhaustive", action="store_true")
    p_audit.add_argument("--inject", choices=["drop-msb"])
    p_audit.add_argument("--counterexample", help="violation dump path")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except counters.LedgerError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
