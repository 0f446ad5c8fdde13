"""Command-line front end.

Subcommands:
  run    end-to-end scenario: one pass of sampled trials gives the baseline
         energy and the counter readout; reports energies, bits, bandwidths
  fig5a  staircase sweep of counter width / bandwidth ratio over (T, r)
  fig5b  baseline-vs-proposed power sweep over qubit counts, with crossover
  audit  randomized invariant suite with optional fault injection

Exit codes: 0 ok, 1 invariant violation, 2 usage, config or file error.
Every CSV starts with a comment line recording the resolved configuration,
then a header row; output is byte-stable for a fixed seed.

``run`` is one call of ``run_scenario``, which builds the instance its
config names and returns the summary as a dict for ``cmd_run`` to format.
It streams its trials in row chunks through ``counters.counter_pass``,
which packs each chunk once for the sampled energy and the ledger.  The
synthetic source (``qaoa.synthetic_chunks``) draws chunk k+1 on a worker
thread while the pass packs, counts, feeds the ledger and traces chunk k.
The ``--trace`` rows of a chunk are formatted together as one byte table.

Output is written line by line as it is produced, and a file only through
``_replace_on_success``, so it appears once it is complete.  ``fig5b``
prices its whole sweep in one ``power.system_comparison`` call, whose
report fields are numpy columns, and formats the CSV rows from those
columns a block of ``_BLOCK_ROWS`` rows at a time: it holds the Python
objects of one block at most, and never the whole file.  ``main`` builds
the argument parser on its first call and keeps it; it dispatches to
``cmd_<command>`` by name at each call.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import closing, contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import audit as audit_mod
from . import bandwidth, counters, power, qaoa
from .config import (
    _PARSERS,
    ScenarioConfig,
    _int_at_least,
    _list_of,
    _positive_float,
    load_scenario,
    resolved_items,
)
from .ising import load_instance, make_instance, require_memory
from .timing import ExecutionProfile


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@contextmanager
def _replace_on_success(path: str | None) -> Iterator[BinaryIO | None]:
    """A binary file that appears at ``path`` only if the block completes;
    the one way the package writes a file.

    It is written as a sibling temporary file and renamed at the end, so a
    run that fails midway leaves no partial file behind.  Yields None when
    ``path`` is None.
    """
    if path is None:
        yield None
        return
    partial = Path(f"{path}.tmp")
    try:
        with partial.open("wb") as handle:
            yield handle
        partial.replace(path)
    finally:
        partial.unlink(missing_ok=True)


def _emit(lines: Iterable[str], out: str | None, quiet: bool) -> None:
    """Write each line to stdout as it is produced, or to ``out`` through
    ``_replace_on_success``, so the file appears only once it is whole."""
    if out is None:
        sys.stdout.writelines(f"{line}\n" for line in lines)
        return
    with _replace_on_success(out) as handle:
        handle.writelines(f"{line}\n".encode() for line in lines)
    if not quiet:
        print(f"wrote {out}")


def _csv_lines(
    comments: Sequence[str], header: Sequence[str], rows: Iterable[Sequence[Any]]
) -> Iterator[str]:
    yield from comments
    yield ",".join(header)
    for row in rows:
        yield ",".join(map(_fmt, row))


# Rows converted to Python numbers at a time by ``_column_rows``.
_BLOCK_ROWS = 512


def _column_rows(columns: Sequence[np.ndarray]) -> Iterator[tuple]:
    """The rows of equal-length numpy columns as tuples of Python numbers,
    converted ``_BLOCK_ROWS`` rows at a time."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield from zip(*(column[start : start + _BLOCK_ROWS].tolist() for column in columns))


def _entry_id_str(entry_id) -> str:
    if isinstance(entry_id, tuple):
        return f"{entry_id[0]}-{entry_id[1]}"
    return str(entry_id)


def _config_line(config: ScenarioConfig) -> str:
    """The ``# config:`` line that heads the summary and the trace."""
    return "# config: " + " ".join(f"{k}={_fmt(v)}" for k, v in resolved_items(config))


def run_scenario(config: ScenarioConfig, trace: str | None = None) -> dict[str, Any]:
    """Run one scenario point; its summary, keys in the order ``run`` prints.

    The config and the ``trace`` path are checked, and the instance built
    (from its file or its generator), before any trial is drawn.  One
    ``counters.counter_pass`` over lazily drawn trial chunks gives both
    energies.  The ``--trace`` CSV, if asked for, appears once it completes.
    """
    config.validate()
    if trace is not None:
        _output_path(trace)
    path = config.instance_path()
    instance = make_instance(config.generator) if path is None else load_instance(path)
    n = instance.n_qubits
    p = n if config.parallelism == "full" else int(config.parallelism)
    profile = ExecutionProfile(
        n_qubits=n, s=instance.s_count, c=instance.c_count, layers=config.layers, parallelism=p
    )
    timings = config.gate_timings()
    t_qc_ns = profile.circuit_time_ns(timings)
    width_b, feasible = bandwidth.resolve_width(
        config.counter_bits, config.trials, config.overhead_budget, t_qc_ns
    )

    if config.source == "synthetic" or (config.source == "auto" and n > config.statevector_limit):
        chunks = qaoa.synthetic_chunks((config.marginal,) * n, config.trials, config.seed)
    else:
        params = qaoa.QaoaParams(config.gammas, config.betas)
        if config.optimize_steps > 0:
            params, _ = qaoa.optimize(
                instance,
                params,
                trials_per_step=max(1, config.trials // 10),
                steps=config.optimize_steps,
                seed=config.seed,
                max_qubits=config.statevector_limit,
            )
        state = qaoa.prepare_state(instance, params, max_qubits=config.statevector_limit)
        chunks = qaoa.sample_chunks(state, config.trials, config.seed)

    with _replace_on_success(trace) as handle, closing(chunks):
        if handle is not None:
            names = [_entry_id_str(e) for e in instance.entries]
            tails = _row_tails(names)
            handle.write(f"{_config_line(config)}\ntrial,bits_sent,entry_id,event\n".encode())

        def write_rows(flushes: counters.Flushes, first: int) -> None:
            handle.write(_flush_rows(flushes, first, tails))

        baseline_energy, ledger = counters.counter_pass(
            instance, chunks, width_b, None if handle is None else write_rows
        )
        t = ledger.trial_count
        if handle is not None:
            handle.write("".join(f"{t},{width_b},{name},readout\n" for name in names).encode())

    counter_energy = counters.counter_energy_estimate(instance, ledger.collect(), t)
    report = bandwidth.bandwidth_report(profile, timings, config.param_bits, config.trials, width_b)
    return {
        "label": instance.label,
        "n_qubits": n,
        "s_terms": instance.s_count,
        "c_terms": instance.c_count,
        "m_in_use": instance.terms_in_use,
        "trials": t,
        "counter_bits": width_b,
        "counter_bits_feasible": feasible,
        "baseline_energy": baseline_energy,
        "counter_energy": counter_energy,
        "baseline_energy_float": float(baseline_energy),
        "counter_energy_float": float(counter_energy),
        "energies_equal": baseline_energy == counter_energy,
        "t_layer_ns": profile.layer_time_ns(timings),
        "t_qc_ns": t_qc_ns,
        **asdict(report),
        "baseline_bits_per_trial": n,
        "baseline_total_bits": n * t,
        "proposed_peak_bits_per_trial": ledger.peak_bits_per_trial,
        "proposed_avg_bits_per_trial": ledger.total_msb_bits / t,
        "proposed_total_msb_bits": ledger.total_msb_bits,
        "collection_bits": width_b * ledger.m_in_use,
    }


def cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.config) if args.config else ScenarioConfig()
    flags = {key: getattr(args, key) for key in _RUN_KEYS}
    config = replace(config, **{key: v for key, v in flags.items() if v is not None})
    if args.instance is not None:
        config = replace(config, instance=args.instance, generator=None, base_dir=".")
    elif args.generator is not None:
        config = replace(config, generator=args.generator, instance=None)
    summary = run_scenario(config, args.trace)
    lines = [_config_line(config), *(f"{key}={_fmt(value)}" for key, value in summary.items())]
    _emit(lines, args.out, args.quiet)
    if args.trace is not None and not args.quiet:
        print(f"wrote {args.trace}")

    if not summary["energies_equal"]:
        print("invariant violation: counter energy differs from baseline", file=sys.stderr)
        return 1
    return 0


def _row_tails(names: Sequence[str]) -> np.ndarray:
    """The trace row ends ``,{name},msb{0|1}\\n`` of every entry name, as a
    (2M, width) uint8 table padded with zero bytes; row 2e + msb ends the
    row of entry e sending ``msb``."""
    tails = [f",{name},msb{msb}\n".encode() for name in names for msb in (0, 1)]
    width = max(map(len, tails), default=1)
    return np.array(tails, dtype=f"S{width}").view(np.uint8).reshape(len(tails), width)


def _digits(values: np.ndarray) -> np.ndarray:
    """Nonnegative integers in decimal, one per row of a uint8 table as
    wide as the largest, each right-aligned after zero pad bytes."""
    width = len(str(int(values.max()))) if len(values) else 1
    table = values[:, None] // 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = np.where(table > 0, table % 10 + ord("0"), 0).astype(np.uint8)
    digits[:, -1] = table[:, -1] % 10 + ord("0")  # 0 prints as one digit
    return digits


def _flush_rows(flushes: counters.Flushes, first: int, tails: np.ndarray) -> bytes:
    """Trace rows of one chunk's MSB transfers, which follow trial ``first``.

    ``heads[i]`` starts the rows of the chunk's i-th trial, ``{trial},{bits}``,
    and ``tails[2e + msb]`` (``_row_tails``) ends the row of entry e sending
    ``msb``.  The rows are the lines of one fixed-width byte table, whose
    zero pad bytes are then dropped.
    """
    trials = np.arange(first + 1, first + 1 + len(flushes.bits))
    comma = np.full((len(trials), 1), ord(","), dtype=np.uint8)
    heads = np.concatenate((_digits(trials), comma, _digits(flushes.bits)), axis=1)
    # np.take gathers rows about 3 times faster than fancy indexing
    rows = np.concatenate(
        (
            np.take(heads, flushes.trial - 1 - first, axis=0),
            np.take(tails, 2 * flushes.entry + flushes.msb, axis=0),
        ),
        axis=1,
    )
    return rows.tobytes().replace(b"\0", b"")


def _parse_grid(text: str, parse, flag: str) -> tuple:
    try:
        return _list_of(parse)(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_fig5a(args: argparse.Namespace) -> int:
    # parsed here, not by argparse, so the comment line keeps the text as given
    t_values = _parse_grid(args.t_list, _int_at_least(1), "--t-list")
    r_grid = _parse_grid(args.r_grid, _positive_float, "--r-grid")
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
    _emit(_csv_lines([comment], header, table), args.out, args.quiet)
    return 0


def cmd_fig5b(args: argparse.Namespace) -> int:
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max {args.n_max} below --n-min {args.n_min}")
    if args.n_max > power.MAX_SWEEP_N:
        raise ValueError(f"--n-max {args.n_max} above {power.MAX_SWEEP_N}")
    # before np.arange, so a refused sweep allocates nothing
    count = args.n_max - args.n_min + 1
    require_memory(
        count * power.SWEEP_BYTES_PER_N, f"--n-max {args.n_max}: a sweep of {count} qubit counts"
    )
    comparison = power.system_comparison(
        np.arange(args.n_min, args.n_max + 1), b_policy=args.b_policy
    )
    comments = (
        f"# config: n_min={args.n_min} n_max={args.n_max} b_policy={args.b_policy} "
        f"timings=paper-v1 cable=default sfq=default",
        f"# crossover_n = {comparison.crossover_n}",
    )
    header = [
        "N",
        "bw_baseline_bps",
        "bw_proposed_bps",
        "cables_baseline",
        "cables_proposed",
        "power_baseline_mw",
        "power_proposed_mw",
    ]
    base, prop = comparison.baseline, comparison.proposed
    columns = (
        base.n_qubits,
        base.bw_required_bps,
        prop.bw_required_bps,
        base.n_cables,
        prop.n_cables,
        base.total_mw,
        prop.total_mw,
    )
    _emit(_csv_lines(comments, header, _column_rows(columns)), args.out, args.quiet)
    if not args.quiet and args.out is not None:
        print(f"crossover_n = {comparison.crossover_n}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    if args.b_max < args.b_min:
        raise ValueError(f"--b-max {args.b_max} below --b-min {args.b_min}")
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
    _emit(audit_mod.counterexample_lines(violation), dump, quiet=True)
    print(f"counterexample written to {dump}", file=sys.stderr)
    return 1


# The scenario keys that `run` also takes as flags: --trials, --param-bits, ...
_RUN_KEYS = (
    "trials", "layers", "parallelism", "param_bits", "counter_bits", "overhead_budget",
    "source", "marginal", "optimize_steps", "statevector_limit", "seed",
)


def _arg_type(parse):
    """A config parser as an argparse ``type`` that keeps its message."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _output_path(text: str) -> str:
    """A path to write, checked before the command starts: a file name
    in an existing directory."""
    path = Path(text)
    if path.is_dir():
        raise ValueError(f"{text} is a directory, not a file")
    if not path.parent.is_dir():
        raise ValueError(f"{text}: {path.parent} is not an existing directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    def at_least(low: int, word: str | None = None):
        return _arg_type(_int_at_least(low, word))

    written = _arg_type(_output_path)

    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    output = argparse.ArgumentParser(add_help=False, parents=[quiet])
    output.add_argument("--out", type=written, help="write primary output to this path")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=at_least(0), help="override the RNG seed")

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
        p_run.add_argument("--" + key.replace("_", "-"), dest=key, type=_arg_type(_PARSERS[key]))
    p_run.add_argument("--trace", type=written, help="write per-event transfer CSV to this path")

    # fig5a and fig5b ignore --seed; they take it so every call may end with one
    p_a = sub.add_parser("fig5a", parents=[output, seeded], help="bandwidth staircase sweep CSV")
    p_a.add_argument("--t-list", default="1e3,1e4,1e5,1e6,1e7")
    p_a.add_argument("--r-grid", default="0.001,0.002,0.005,0.01,0.02,0.05,0.1,0.2,0.5")
    p_a.add_argument("--n-qubits", dest="n_qubits", type=at_least(1), default=750)

    p_b = sub.add_parser("fig5b", parents=[output, seeded], help="power comparison sweep CSV")
    p_b.add_argument("--n-min", dest="n_min", type=at_least(2), default=2)
    p_b.add_argument("--n-max", dest="n_max", type=at_least(2), default=4096)
    p_b.add_argument("--b-policy", dest="b_policy", type=at_least(2, "log2"), default="log2")

    p_audit = sub.add_parser("audit", parents=[quiet, seeded], help="invariant suite")
    p_audit.add_argument("--cases", type=at_least(0), default=200)
    p_audit.add_argument("--n-max", dest="n_max", type=at_least(1), default=8)
    p_audit.add_argument("--t-max", dest="t_max", type=at_least(1), default=200)
    p_audit.add_argument("--b-min", dest="b_min", type=at_least(2), default=2)
    p_audit.add_argument("--b-max", dest="b_max", type=at_least(2), default=8)
    p_audit.add_argument("--exhaustive", action="store_true")
    p_audit.add_argument("--inject", choices=["drop-msb"])
    p_audit.add_argument("--counterexample", type=written, help="violation dump path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # by name, so a wrapped cmd_* is the one run
    try:
        return command(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except counters.LedgerError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
