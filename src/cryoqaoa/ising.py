"""Ising-form problem instances and classical cost evaluation.

An instance is a set of linear coefficients ``s_i`` over qubit indices and
pairwise coefficients ``c_ij`` over unordered index pairs.  The cost of a
measured bitstring ``z`` is

    cost(z) = sum_i s_i * z_i  +  sum_{i<j} c_ij * (z_i XOR z_j)

Coefficients keep their exact type: integers and ``Fraction`` values flow
through cost sums unchanged, so averaged energies can be compared exactly
against counter-based reconstructions.  Max-cut graphs map each edge to
``c_ij = -1`` so that minimizing the cost maximizes the cut.

Trials are counted in ``row_chunks``, bit-packed along the trial axis:
``pack_trials`` gives one row of bytes per qubit, trial 8j + k in bit k of
byte j.  Two counts read the packed rows without sharing a hit rule.
``term_counts`` uses popcounts alone: a pair (i, j) is hit
n_i + n_j - 2 * n_ij times, from the ones of each qubit and of their AND;
``chunked_energy`` sums it into the sampled energy.  ``packed_hits``
derives each term's hit row (a pair's is the XOR of its two qubit rows)
for the counter ledger.  ``IsingInstance.entries`` is the one term order:
of the counter entries and their int64 totals, the hit rows and counts,
and the energy sums.

For the statevector simulation, ``phase_costs`` gives the cost of every
basis state at once, and ``IsingInstance.phase_levels`` caches its
distinct levels on the instance.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Coeff = int | float | Fraction
EntryId = int | tuple[int, int]  # a counter entry: a qubit index or a pair (i, j), i < j
BitString = Sequence[int]
Trials = np.ndarray | Sequence[BitString]

# Cells (rows x columns) per chunk when a trial matrix is processed in row
# chunks.
CHUNK_CELLS = 1 << 18


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
            _check_linear(i, self.n_qubits)
        canonical: dict[tuple[int, int], Coeff] = {}
        for (i, j), coeff in self.pairs.items():
            _check_pair(i, j, self.n_qubits)
            key = (i, j) if i < j else (j, i)
            if key in canonical:
                warnings.warn(f"duplicate pair {key}: replacing coefficient", stacklevel=3)
            canonical[key] = coeff
        object.__setattr__(self, "pairs", canonical)

    @cached_property
    def terms(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The terms with a nonzero coefficient, by kind: linear indices
        ascending, then pairs ascending.  ``entries`` is the two in one."""
        singles = tuple(sorted(i for i, v in self.linear.items() if v != 0))
        pairs = tuple(sorted(p for p, v in self.pairs.items() if v != 0))
        return singles, pairs

    @cached_property
    def entries(self) -> tuple[EntryId, ...]:
        """The one term order of the package, ``terms`` singles then pairs:
        of the counter entries and their totals, the ``packed_hits`` rows,
        the ``term_counts``, the ``--trace`` readout and the ``hit_energy`` sum."""
        singles, pairs = self.terms
        return (*singles, *pairs)

    @cached_property
    def phase_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct basis-state costs, ascending, and the ``intp`` index
        of every basis state's cost among them: ``levels[index]`` is
        ``phase_costs``.  Callers must not write to them.  (Marking them
        read-only would cost a copy of the index in every ``np.take``.)

        Built once per instance, so the optimizer and ``prepare_state`` of
        one run share it.  An integer instance on N qubits has O(N^2)
        levels, so each layer's phase separator takes one complex ``exp``
        per level, not per amplitude.  ``np.unique`` is not used: its first
        call imports ``numpy.ma``, about 1.7 MB of resident memory.
        """
        costs = phase_costs(self)
        levels = np.sort(costs)
        levels = levels[np.append(True, levels[1:] != levels[:-1])]
        index = np.searchsorted(levels, costs)
        return levels, index

    @property
    def s_count(self) -> int:
        """Number of nonzero linear terms (the S of the timing model)."""
        return len(self.terms[0])

    @property
    def c_count(self) -> int:
        """Number of nonzero pair terms (the C of the timing model)."""
        return len(self.terms[1])

    @property
    def terms_in_use(self) -> int:
        """Counters needed to tally this instance: S + C."""
        return self.s_count + self.c_count


def _check_linear(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise ValueError(f"linear index {i} out of range [0, {n})")


def _check_pair(i: int, j: int, n: int) -> None:
    if i == j:
        raise ValueError(f"pair ({i}, {j}) is a self-loop")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair ({i}, {j}) out of range [0, {n})")


def cost(instance: IsingInstance, z: BitString) -> Coeff:
    """Evaluate the classical cost of one measured bitstring.

    Exact for int/Fraction coefficients; each unordered pair counted once.
    Sums in the order of ``instance.terms``, so it equals the
    ``sampled_energy`` of that one trial for any coefficient type.
    """
    if len(z) != instance.n_qubits:
        raise ValueError(
            f"bitstring length {len(z)} does not match n_qubits {instance.n_qubits}"
        )
    singles, pairs = instance.terms
    total: Coeff = 0
    for i in singles:
        if z[i]:
            total = total + instance.linear[i]
    for i, j in pairs:
        if z[i] != z[j]:
            total = total + instance.pairs[(i, j)]
    return total


def phase_costs(instance: IsingInstance) -> np.ndarray:
    """Classical cost of every basis state, as a 2^N float vector; entry k
    is the cost of the bitstring whose bit i is qubit i.

    Each nonzero term, in dict order, adds its 2-entry (linear) or 2x2
    (pair) table to the costs viewed as a (2,)*N array, where qubit i is
    axis N-1-i.
    """
    n = instance.n_qubits
    costs = np.zeros(1 << n)
    view = costs.reshape((2,) * n)
    for i, coeff in instance.linear.items():
        if coeff != 0:
            shape = [1] * n
            shape[n - 1 - i] = 2
            view += (float(coeff) * np.array([0, 1])).reshape(shape)
    for (i, j), coeff in instance.pairs.items():
        if coeff != 0:
            shape = [1] * n
            shape[n - 1 - i] = shape[n - 1 - j] = 2
            view += (float(coeff) * np.array([[0, 1], [1, 0]])).reshape(shape)
    return costs


def trial_array(trials: Trials, n_qubits: int) -> np.ndarray:
    """Trials as a (T, N) uint8 array, row t = bitstring t, column i = qubit i.

    A uint8 array passes through without a copy; a sequence of rows is
    converted.
    """
    z = np.asarray(trials, dtype=np.uint8)
    if z.shape == (0,):
        z = z.reshape(0, n_qubits)
    if z.ndim != 2 or z.shape[1] != n_qubits:
        raise ValueError(
            f"trial rows of shape {z.shape[1:]} do not match n_qubits {n_qubits}"
        )
    return z


def row_chunks(t: int, width: int) -> Iterator[tuple[int, int]]:
    """(start, stop) row ranges over t rows of ``width`` cells each.

    Every step is a multiple of 8 rows, so only the last chunk can end in a
    partly filled ``pack_trials`` byte.  A chunk holds at most CHUNK_CELLS
    cells, except that it never has fewer than 8 rows: rows wider than
    CHUNK_CELLS / 8 cells come 8 at a time.
    """
    step = max(8, CHUNK_CELLS // max(width, 1) & ~7)
    for start in range(0, t, step):
        yield start, min(start + step, t)


def trial_chunks(trials: Trials, n_qubits: int) -> Iterator[np.ndarray]:
    """``trial_array`` rows in the ``row_chunks`` that the trial sources yield."""
    z = trial_array(trials, n_qubits)
    return (z[start:stop] for start, stop in row_chunks(*z.shape))


def term_indices(instance: IsingInstance) -> tuple[np.ndarray, np.ndarray]:
    """Qubit indices of ``instance.terms``, for ``packed_hits`` and ``term_counts``.

    The single indices, then a (C, 2) array of pairs, so the hit rows are
    the counter entries in their order.
    """
    singles, pairs = instance.terms
    return np.array(singles, dtype=np.intp), np.array(pairs, dtype=np.intp).reshape(-1, 2)


def pack_trials(z: np.ndarray) -> np.ndarray:
    """A chunk of trial rows packed qubit-major along the trial axis.

    Returns a (N, ceil(rows / 8)) uint8 array: bit k of byte j in row i is
    qubit i of trial 8j + k.  The pad bits of a last partial byte are 0.
    """
    return np.packbits(np.ascontiguousarray(z.T), axis=1, bitorder="little")


def packed_hits(q: np.ndarray, singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Hit rows of packed trials, one row per term, in ``pack_trials`` layout.

    ``q`` is the output of ``pack_trials``; ``singles`` holds qubit indices,
    hit where the qubit is set; ``pairs`` is a (C, 2) index array, hit
    where the two qubits differ (the XOR of their rows).
    """
    return np.concatenate((q[singles], q[pairs[:, 0]] ^ q[pairs[:, 1]]))


def term_counts(q: np.ndarray, singles: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Hit count of every term over packed trials, without the XOR rule.

    A single term counts the ones n_i of its qubit; a pair counts
    n_i + n_j - 2 * n_ij, n_ij being the trials where both qubits are set.
    This shares no hit derivation with ``packed_hits``, so the two check
    each other.
    """
    ones = np.bitwise_count(q).sum(axis=1, dtype=np.int64)
    i, j = pairs[:, 0], pairs[:, 1]
    both = np.bitwise_count(q[i] & q[j]).sum(axis=1, dtype=np.int64)
    return np.concatenate((ones[singles], ones[i] + ones[j] - 2 * both))


def hit_energy(instance: IsingInstance, counts: np.ndarray, t: int) -> Coeff:
    """Average cost of t trials from the hit count of every term.

    ``counts`` holds one count per entry of ``instance.entries``, in that
    order.  Sums coefficient * count with Python numbers in that order, so
    integer-coefficient instances yield an exact ``Fraction``, and two
    equal count vectors yield equal energies for any coefficient type.
    """
    coeffs = {**instance.linear, **instance.pairs}
    total: Coeff = 0
    for entry, count in zip(instance.entries, counts.tolist()):
        total = total + coeffs[entry] * count
    if isinstance(total, int):
        return Fraction(total, t)
    return total / t


def chunked_energy(
    instance: IsingInstance,
    chunks: Iterable[np.ndarray],
    each_packed: Callable[[np.ndarray, int], None] | None = None,
) -> Coeff:
    """Average cost over a nonempty pass of (rows, N) uint8 trial chunks.

    Packs each chunk once, counts the hits of every term with
    ``term_counts`` and weighs them with ``hit_energy``.  ``each_packed``,
    if given, gets every packed chunk too, so one pass can feed a ledger.
    """
    singles, pairs = term_indices(instance)
    counts = np.zeros(len(singles) + len(pairs), dtype=np.int64)
    t = 0
    for z in chunks:
        q = pack_trials(z)
        counts += term_counts(q, singles, pairs)
        t += len(z)
        if each_packed is not None:
            each_packed(q, len(z))
    if t == 0:
        raise ValueError("trials must be nonempty")
    return hit_energy(instance, counts, t)


def sampled_energy(instance: IsingInstance, trials: Trials) -> Coeff:
    """``chunked_energy`` of a nonempty 2-D bit array or sequence of rows."""
    return chunked_energy(instance, trial_chunks(trials, instance.n_qubits))


def maxcut_instance(edges: Iterable[tuple[int, int]], n: int) -> IsingInstance:
    """Max-cut instance over ``edges``: c_ij = -1 per edge, no linear terms."""
    pairs: dict[tuple[int, int], Coeff] = {}
    for edge in edges:
        if edge in pairs:
            warnings.warn(f"duplicate edge {edge}: replacing coefficient", stacklevel=2)
        pairs[edge] = -1
    return IsingInstance(n_qubits=n, pairs=pairs, label=f"maxcut-{n}")


def worstcase_instance(n: int) -> IsingInstance:
    """Densest bandwidth-relevant shape per qubit count: a path graph.

    Connected, exactly N-1 pair terms (c_ij = -1, as in max-cut), zero
    linear terms.
    """
    if n < 2:
        raise ValueError(f"worst-case instance needs n >= 2, got {n}")
    return IsingInstance(n, pairs={(i, i + 1): -1 for i in range(n - 1)}, label=f"path-{n}")


def ring_instance(n: int) -> IsingInstance:
    """Max-cut on a cycle of n nodes (n edges)."""
    if n < 3:
        raise ValueError(f"ring needs n >= 3, got {n}")
    return IsingInstance(n, pairs={(i, (i + 1) % n): -1 for i in range(n)}, label=f"ring-{n}")


def complete_instance(n: int) -> IsingInstance:
    """Max-cut on the complete graph K_n."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got {n}")
    pairs = {(i, j): -1 for i in range(n) for j in range(i + 1, n)}
    return IsingInstance(n, pairs=pairs, label=f"complete-{n}")


def physical_memory() -> int:
    """Bytes of physical memory, the bound of the size guards."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


# Peak bytes per pair term while a generator builds its instance, by
# tracemalloc (CPython 3.11, 64-bit): at most 326 B, on path and ring sizes
# just past a dict resize (e.g. path:349527); 300 B on path:200000 and
# 283 B on complete:600.
GENERATOR_BYTES_PER_TERM = 330


def make_instance(spec: str) -> IsingInstance:
    """Build a generator instance from a "name:n" spec, e.g. "ring:8".

    A spec whose pair terms would not fit in physical memory is refused
    before any is built.
    """
    name, _, arg = spec.partition(":")
    if not arg:
        raise ValueError(f"generator spec {spec!r} needs a size, e.g. 'ring:8'")
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"generator size {arg!r} is not an integer") from None
    generators = {  # builder, pair term count
        "ring": (ring_instance, n),
        "path": (worstcase_instance, n - 1),
        "worstcase": (worstcase_instance, n - 1),
        "complete": (complete_instance, n * (n - 1) // 2),
    }
    if name not in generators:
        raise ValueError(f"unknown generator {name!r}; choose from {sorted(generators)}")
    build, terms = generators[name]
    memory = physical_memory()
    if terms * GENERATOR_BYTES_PER_TERM > memory:
        raise ValueError(
            f"generator {spec!r} has {terms} pair terms, about "
            f"{terms * GENERATOR_BYTES_PER_TERM} bytes to build, "
            f"more than physical memory ({memory} bytes)"
        )
    return build(n)


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
    lines.  ``#`` starts a comment.  Errors name the file and the line.
    """
    path = Path(path)
    n: int | None = None
    label = ""
    linear: dict[int, Coeff] = {}
    pairs: dict[tuple[int, int], Coeff] = {}
    first_lines: dict[str | EntryId, int] = {}  # key or term -> its line; a pair as (min, max)
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
                if n is None:
                    raise ValueError(f"missing required 'n = N' line before [{section}]")
                continue
            if "=" not in line:
                raise ValueError(f"expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if section is None:
                if key == "n":
                    n = _parse_int(value, "qubit count")
                    if n < 1:
                        raise ValueError(f"qubit count must be >= 1, got {n}")
                elif key == "label":
                    label = value
                else:
                    raise ValueError(f"unknown top-level key {key!r}")
                name, entry = repr(key), key
            elif section == "linear":
                i = _parse_int(key, "linear index")
                _check_linear(i, n)
                linear[i] = _parse_coeff(value)
                name, entry = f"linear index {i}", i
            else:
                fields = key.split()
                if len(fields) != 2:
                    raise ValueError(f"pair key must be 'i j', got {key!r}")
                i, j = (_parse_int(f, "pair index") for f in fields)
                _check_pair(i, j, n)
                pairs[(i, j)] = _parse_coeff(value)
                name, entry = f"pair ({i}, {j})", (min(i, j), max(i, j))
            first = first_lines.setdefault(entry, lineno)
            if first != lineno:
                raise ValueError(f"{name} repeats line {first}")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if n is None:
        raise ValueError(f"{path}: missing required 'n = N' line")
    try:
        return IsingInstance(n_qubits=n, linear=linear, pairs=pairs, label=label)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
