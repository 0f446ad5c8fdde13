"""Ising-form problem instances and classical cost evaluation.

An instance is a set of linear coefficients ``s_i`` over qubit indices and
pairwise coefficients ``c_ij`` over unordered index pairs.  The cost of a
measured bitstring ``z`` is

    cost(z) = sum_i s_i * z_i  +  sum_{i<j} c_ij * (z_i XOR z_j)

Coefficients keep their exact type: integers and ``Fraction`` values flow
through cost sums unchanged, so averaged energies can be compared exactly
against counter-based reconstructions.  Max-cut graphs map each edge to
``c_ij = -1`` so that minimizing the cost maximizes the cut.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

Coeff = int | float | Fraction
BitString = Sequence[int]


@dataclass(frozen=True)
class IsingInstance:
    """A classical combinatorial problem in Ising (binary) form.

    ``linear`` maps qubit index to s_i, ``pairs`` maps the canonical pair
    (i, j) with i < j to c_ij.  Pairs given reversed are canonicalized; a
    duplicate pair replaces the earlier coefficient with a warning.
    """

    n_qubits: int
    linear: dict[int, Coeff] = field(default_factory=dict)
    pairs: dict[tuple[int, int], Coeff] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        for i in self.linear:
            if not 0 <= i < self.n_qubits:
                raise ValueError(f"linear index {i} out of range [0, {self.n_qubits})")
        canonical: dict[tuple[int, int], Coeff] = {}
        for (i, j), coeff in self.pairs.items():
            if i == j:
                raise ValueError(f"pair ({i}, {j}) is a self-loop")
            if not (0 <= i < self.n_qubits and 0 <= j < self.n_qubits):
                raise ValueError(f"pair ({i}, {j}) out of range [0, {self.n_qubits})")
            key = (i, j) if i < j else (j, i)
            if key in canonical:
                warnings.warn(f"duplicate pair {key}: replacing coefficient", stacklevel=3)
            canonical[key] = coeff
        object.__setattr__(self, "pairs", canonical)

    @property
    def s_count(self) -> int:
        """Number of nonzero linear terms (the S of the timing model)."""
        return sum(1 for v in self.linear.values() if v != 0)

    @property
    def c_count(self) -> int:
        """Number of nonzero pair terms (the C of the timing model)."""
        return sum(1 for v in self.pairs.values() if v != 0)

    @property
    def terms_in_use(self) -> int:
        """Counters needed to tally this instance: S + C."""
        return self.s_count + self.c_count


def cost(instance: IsingInstance, z: BitString) -> Coeff:
    """Evaluate the classical cost of one measured bitstring.

    Exact for int/Fraction coefficients; each unordered pair counted once.
    """
    if len(z) != instance.n_qubits:
        raise ValueError(
            f"bitstring length {len(z)} does not match n_qubits {instance.n_qubits}"
        )
    total: Coeff = 0
    for i, coeff in instance.linear.items():
        if z[i]:
            total = total + coeff
    for (i, j), coeff in instance.pairs.items():
        if z[i] != z[j]:
            total = total + coeff
    return total


def sampled_energy(instance: IsingInstance, trials: Sequence[BitString]) -> Coeff:
    """Average cost over a nonempty trial sequence.

    Integer-coefficient instances yield an exact ``Fraction``.
    """
    if len(trials) == 0:
        raise ValueError("trials must be nonempty")
    total: Coeff = 0
    for z in trials:
        total = total + cost(instance, z)
    if isinstance(total, int):
        return Fraction(total, len(trials))
    return total / len(trials)


def maxcut_instance(edges: Iterable[tuple[int, int]], n: int) -> IsingInstance:
    """Max-cut instance over ``edges``: c_ij = -1 per edge, no linear terms."""
    pairs: dict[tuple[int, int], Coeff] = {}
    for i, j in edges:
        if i == j:
            raise ValueError(f"self-loop edge ({i}, {j}) not allowed")
        key = (i, j) if i < j else (j, i)
        if key in pairs:
            warnings.warn(f"duplicate edge {key}: replacing coefficient", stacklevel=2)
        pairs[key] = -1
    return IsingInstance(n_qubits=n, pairs=pairs, label=f"maxcut-{n}")


def worstcase_instance(n: int) -> IsingInstance:
    """Densest bandwidth-relevant shape per qubit count: a path graph.

    Connected, exactly N-1 pair terms, zero linear terms.
    """
    if n < 2:
        raise ValueError(f"worst-case instance needs n >= 2, got {n}")
    inst = maxcut_instance([(i, i + 1) for i in range(n - 1)], n)
    return IsingInstance(n_qubits=n, pairs=inst.pairs, label=f"path-{n}")


def ring_instance(n: int) -> IsingInstance:
    """Max-cut on a cycle of n nodes (n edges)."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    inst = maxcut_instance(edges, n)
    return IsingInstance(n_qubits=n, pairs=inst.pairs, label=f"ring-{n}")


def complete_instance(n: int) -> IsingInstance:
    """Max-cut on the complete graph K_n."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    inst = maxcut_instance(edges, n)
    return IsingInstance(n_qubits=n, pairs=inst.pairs, label=f"complete-{n}")


def make_instance(spec: str) -> IsingInstance:
    """Build a generator instance from a "name:n" spec, e.g. "ring:8"."""
    name, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"generator spec {spec!r} needs a size, e.g. 'ring:8'")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"generator size {arg!r} is not an integer") from None
    generators = {
        "ring": ring_instance,
        "path": worstcase_instance,
        "worstcase": worstcase_instance,
        "complete": complete_instance,
    }
    if name not in generators:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(generators)}")
    return generators[name](n)


def format_bits(z: BitString) -> str:
    return "".join(str(int(b)) for b in z)


def _parse_coeff(text: str) -> Coeff:
    """Numeric literal parser preserving exactness: int, then p/q, then float."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if "/" in text:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse coefficient {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"coefficient {text!r} is not finite")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def load_instance(path: str | Path) -> IsingInstance:
    """Read an instance file.

    Format: ``n = N`` (and optional ``label``) before any section, then
    ``[linear]`` with ``i = s_i`` lines and ``[pairs]`` with ``i j = c_ij``
    lines.  ``#`` starts a comment.
    """
    path = Path(path)
    n: int | None = None
    label = ""
    linear: dict[int, Coeff] = {}
    pairs: dict[tuple[int, int], Coeff] = {}
    section = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("linear", "pairs"):
                    raise ValueError(f"unknown section [{section}]")
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if section is None:
                if key == "n":
                    n = _parse_int(value, "qubit count")
                elif key == "label":
                    label = value
                else:
                    raise ValueError(f"unknown top-level key {key!r}")
            elif section == "linear":
                linear[_parse_int(key, "linear index")] = _parse_coeff(value)
            else:
                fields = key.split()
                if len(fields) != 2:
                    raise ValueError(f"pair key must be 'i j', got {key!r}")
                i, j = (_parse_int(f, "pair index") for f in fields)
                pairs[(i, j)] = _parse_coeff(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        raise ValueError(f"{path}: missing required 'n = N' line")
    try:
        return IsingInstance(n_qubits=n, linear=linear, pairs=pairs, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_edgelist(path: str | Path, n: int | None = None) -> IsingInstance:
    """Import whitespace-separated ``i j`` edge lines as a max-cut instance.

    ``n`` defaults to one past the largest index seen.
    """
    path = Path(path)
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad edge indices {line!r}") from None
    if not edges and n is None:
        raise ValueError(f"{path}: empty edge list and no qubit count given")
    if n is None:
        n = max(max(i, j) for i, j in edges) + 1
    return maxcut_instance(edges, n)
