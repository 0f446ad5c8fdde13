"""Scenario configuration: flat key = value files plus CLI overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from .timing import GateTimings, PRESETS


def _int_at_least(low: int, word: str | None = None) -> Callable[[str], int | str]:
    """Parser of an integer >= ``low``, or of the literal ``word`` if given."""
    rule = f"{word!r} or an integer >= {low}" if word else f"an integer >= {low}"

    def parse(text: str) -> int | str:
        if text == word:
            return text
        value = int(text)
        if value < low:
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return parse


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise ValueError(f"must be a finite number >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"must be a finite number > 0, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:
        raise ValueError(f"must be in [0, 1], got {value}")
    return value


def _source(text: str) -> str:
    if text not in ("auto", "exact", "synthetic"):
        raise ValueError(f"must be auto, exact, or synthetic, got {text!r}")
    return text


def _timings(text: str) -> str:
    if text not in PRESETS:
        raise ValueError(f"unknown timings preset {text!r}; choose from {sorted(PRESETS)}")
    return text


def _count(text: str) -> int:
    """An integer >= 1, also in float notation such as ``1e3``."""
    number = float(text)
    if not (number.is_integer() and number >= 1):
        raise ValueError(f"must be an integer >= 1, got {text}")
    return int(number)


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Parser of a nonempty comma- or space-separated list of ``parse`` values."""

    def parse_list(text: str) -> tuple:
        values = tuple(parse(part) for part in text.replace(",", " ").split())
        if not values:
            raise ValueError("needs at least one value")
        return values

    return parse_list


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one end-to-end run needs, with documented defaults."""

    instance: str | None = None
    generator: str | None = None
    timings: str = "paper-v1"
    t_reset_ns: float | None = None
    t_init_ns: float | None = None
    t_rx_ns: float | None = None
    t_rz_ns: float | None = None
    t_cnot_ns: float | None = None
    t_meas_ns: float | None = None
    trials: int = 1000
    layers: int = 1
    parallelism: int | str = "full"
    param_bits: int = 32
    counter_bits: int | str = "auto"
    overhead_budget: float = 0.05
    source: str = "auto"
    marginal: float = 0.5
    gammas: tuple[float, ...] = (0.5,)
    betas: tuple[float, ...] = (0.25,)
    optimize_steps: int = 0
    seed: int = 0
    statevector_limit: int = 16
    base_dir: str = "."

    def gate_timings(self) -> GateTimings:
        base = PRESETS[self.timings]
        overrides = {
            name: getattr(self, name)
            for name in (
                "t_reset_ns",
                "t_init_ns",
                "t_rx_ns",
                "t_rz_ns",
                "t_cnot_ns",
                "t_meas_ns",
            )
            if getattr(self, name) is not None
        }
        return replace(base, **overrides) if overrides else base

    def validate(self) -> None:
        """The rules that tie keys together; each key's own range is checked
        by its parser in ``_PARSERS``."""
        if (self.instance is None) == (self.generator is None):
            raise ValueError("config needs exactly one of 'instance' and 'generator'")
        if len(self.gammas) != len(self.betas):
            raise ValueError("gammas and betas must have the same length")

    def instance_path(self) -> Path | None:
        if self.instance is None:
            return None
        path = Path(self.instance)
        if not path.is_absolute():
            path = Path(self.base_dir) / path
        return path


# The one rule per key: text to value, range checked.  Scenario files and
# the `run` flags both parse through it.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "instance": str,
    "generator": str,
    "timings": _timings,
    "t_reset_ns": _nonnegative_float,
    "t_init_ns": _nonnegative_float,
    "t_rx_ns": _nonnegative_float,
    "t_rz_ns": _nonnegative_float,
    "t_cnot_ns": _nonnegative_float,
    "t_meas_ns": _nonnegative_float,
    "trials": _int_at_least(1),
    "layers": _int_at_least(1),
    "parallelism": _int_at_least(1, "full"),
    "param_bits": _int_at_least(1),
    "counter_bits": _int_at_least(2, "auto"),
    "overhead_budget": _positive_float,
    "source": _source,
    "marginal": _fraction,
    "gammas": _list_of(_finite_float),
    "betas": _list_of(_finite_float),
    "optimize_steps": _int_at_least(0),
    "seed": _int_at_least(0),
    "statevector_limit": _int_at_least(1),
}


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a scenario file; errors carry the file, line, and field."""
    path = Path(path)
    values: dict[str, Any] = {"base_dir": str(path.parent)}
    key_lines: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        first = key_lines.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"{path}:{lineno}: {key!r} repeats line {first}")
    return ScenarioConfig(**values)


def resolved_items(config: ScenarioConfig) -> list[tuple[str, Any]]:
    """Stable key order for the CSV/summary config comment."""
    out = []
    for f in sorted(fields(config), key=lambda f: f.name):
        if f.name == "base_dir":
            continue
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(repr(v) for v in value)
        out.append((f.name, value))
    return out
