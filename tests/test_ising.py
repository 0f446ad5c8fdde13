import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cryoqaoa.ising import (
    CHUNK_CELLS,
    GENERATOR_BYTES_PER_TERM,
    IsingInstance,
    complete_instance,
    cost,
    load_instance,
    make_instance,
    maxcut_instance,
    pack_trials,
    packed_hits,
    ring_instance,
    row_chunks,
    sampled_energy,
    term_counts,
    worstcase_instance,
)


TRIANGLE = IsingInstance(3, pairs={(0, 1): 1, (0, 2): 1, (1, 2): 1})


def brute_cut_count(edges, z):
    """Independent oracle: count edges whose endpoints disagree."""
    return sum(1 for i, j in edges if z[i] != z[j])


class TestCost:
    def test_triangle_no_cut(self):
        assert cost(TRIANGLE, (0, 0, 0)) == 0

    def test_triangle_two_cut_edges(self):
        # z=001 separates node 2 from nodes 0 and 1: edges (0,2) and (1,2) cut
        assert cost(TRIANGLE, (0, 0, 1)) == 2

    def test_linear_only(self):
        inst = IsingInstance(2, linear={0: 2, 1: -1})
        assert cost(inst, (1, 1)) == 1

    def test_matches_brute_force_on_all_triangle_bitstrings(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        for k in range(8):
            z = tuple((k >> i) & 1 for i in range(3))
            assert cost(TRIANGLE, z) == brute_cut_count(edges, z)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cost(TRIANGLE, (0, 1))

    def test_integer_coefficients_stay_exact(self):
        assert isinstance(cost(TRIANGLE, (1, 0, 1)), int)

    def test_fraction_coefficients_stay_exact(self):
        inst = IsingInstance(2, pairs={(0, 1): Fraction(1, 3)})
        assert cost(inst, (0, 1)) == Fraction(1, 3)


class TestSampledEnergy:
    def test_all_zero_trials(self):
        assert sampled_energy(TRIANGLE, [(0, 0, 0), (0, 0, 0)]) == 0

    def test_four_trials(self):
        trials = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
        assert sampled_energy(TRIANGLE, trials) == Fraction(3, 2)

    def test_constant_trials_average_to_cost(self):
        z = (1, 0, 1)
        assert sampled_energy(TRIANGLE, [z] * 7) == cost(TRIANGLE, z)

    def test_one_trial_equals_cost_for_float_coefficients(self):
        # float terms given unsorted: both sums run in the order of instance.terms
        inst = IsingInstance(
            6,
            linear={1: 0.1, 4: 0.7, 0: 0.7, 5: 0.7},
            pairs={(2, 4): -0.7, (1, 3): 0.1, (3, 4): -0.7, (0, 4): -0.7, (0, 2): 0.001},
        )
        z = (0, 1, 1, 0, 0, 1)
        assert sampled_energy(inst, [z]) == cost(inst, z)

    def test_empty_trials(self):
        with pytest.raises(ValueError, match="nonempty"):
            sampled_energy(TRIANGLE, [])

    def test_exact_fraction_for_integer_coefficients(self):
        energy = sampled_energy(TRIANGLE, [(0, 0, 1), (0, 0, 0), (0, 0, 0)])
        assert energy == Fraction(2, 3)


class TestGenerators:
    def test_path_of_two(self):
        inst = maxcut_instance([(0, 1)], 2)
        assert inst.n_qubits == 2 and inst.s_count == 0 and inst.c_count == 1

    def test_complete_k4(self):
        assert complete_instance(4).c_count == 6

    def test_ring5_optimum_by_enumeration(self):
        # best cut of a 5-cycle uses 4 edges; with c=-1 the minimum cost is -4
        inst = ring_instance(5)
        edges = list(inst.pairs)
        best = min(
            cost(inst, tuple((k >> i) & 1 for i in range(5))) for k in range(32)
        )
        best_oracle = -max(
            brute_cut_count(edges, tuple((k >> i) & 1 for i in range(5)))
            for k in range(32)
        )
        assert best == best_oracle == -4

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            maxcut_instance([(2, 2)], 4)

    def test_duplicate_edge_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            maxcut_instance([(0, 1), (1, 0)], 2)

    def test_worstcase_counts(self):
        inst = worstcase_instance(100)
        assert inst.c_count == 99
        assert inst.s_count == 0

    def test_worstcase_small(self):
        assert worstcase_instance(2).c_count == 1
        assert set(worstcase_instance(3).pairs) == {(0, 1), (1, 2)}

    def test_worstcase_too_small(self):
        with pytest.raises(ValueError, match="n >= 2"):
            worstcase_instance(1)

    @pytest.mark.parametrize("n", [2, 3, 7, 16])
    def test_worstcase_connected(self, n):
        # the pairs form the path 0-1-...-(n-1), which spans every qubit
        assert set(worstcase_instance(n).pairs) == {(i, i + 1) for i in range(n - 1)}

    def test_make_instance_specs(self):
        assert make_instance("ring:8").c_count == 8
        assert make_instance("path:5").c_count == 4
        assert make_instance("path:1e3") == make_instance("path:1000")
        with pytest.raises(ValueError, match="generator size must be an integer >= 1, got 1.5"):
            make_instance("ring:1.5")
        with pytest.raises(ValueError, match="unknown generator"):
            make_instance("torus:4")
        with pytest.raises(ValueError, match="size"):
            make_instance("ring")

    def test_generator_build_peak_within_guard_estimate(self):
        # the guard of make_instance prices a pair term at this many bytes
        tracemalloc.start()
        try:
            make_instance("path:200000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"peak bytes per pair: {peak / 199999:.1f}")
        assert peak / 199999 <= GENERATOR_BYTES_PER_TERM


class TestValidation:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            IsingInstance(2, linear={5: 1})
        with pytest.raises(ValueError, match=r"linear index 2 out of range \[0, 2\)"):
            IsingInstance(2, linear={2: 1})
        with pytest.raises(ValueError, match="out of range"):
            IsingInstance(2, pairs={(0, 3): 1})

    def test_self_loop(self):
        with pytest.raises(ValueError, match=r"pair \(1, 1\) is a self-loop"):
            IsingInstance(2, pairs={(1, 1): 1})

    def test_pairs_canonicalized(self):
        inst = IsingInstance(3, pairs={(2, 0): 5})
        assert inst.pairs == {(0, 2): 5}

    def test_duplicate_after_canonicalization_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            inst = IsingInstance(3, pairs={(0, 1): 1, (1, 0): 7})
        assert inst.pairs == {(0, 1): 7}

    def test_term_counts_ignore_zeros(self):
        inst = IsingInstance(3, linear={0: 0, 1: 2}, pairs={(0, 1): 0, (1, 2): -1})
        assert inst.s_count == 1
        assert inst.c_count == 1
        assert inst.terms_in_use == 2


@st.composite
def pair_instances(draw, max_n=6):
    """Instances with no linear terms and integer pair coefficients."""
    n = draw(st.integers(2, max_n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs)))
    coeffs = draw(
        st.lists(st.integers(-5, 5), min_size=len(chosen), max_size=len(chosen))
    )
    return IsingInstance(n, pairs=dict(zip(chosen, coeffs)))


@given(pair_instances(), st.data())
def test_global_label_swap_invariance(inst, data):
    """With no linear terms, z and its bitwise complement cost the same."""
    z = tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n_qubits))
    flipped = tuple(1 - b for b in z)
    assert cost(inst, z) == cost(inst, flipped)


@given(pair_instances(max_n=5), st.integers(1, 20), st.data())
def test_sampled_energy_is_exact_mean(inst, t, data):
    trials = [
        tuple(data.draw(st.integers(0, 1)) for _ in range(inst.n_qubits))
        for _ in range(t)
    ]
    total = sum(cost(inst, z) for z in trials)
    assert sampled_energy(inst, trials) == Fraction(total, t)


@pytest.mark.parametrize("kind", ["int", "float"])
def test_sampled_energy_across_chunks_matches_per_trial_cost(kind):
    # per-term counts over several row chunks against the per-trial loop
    rng = np.random.default_rng(12)
    n, t = 40, 10_000
    linear = {i: int(rng.integers(-5, 6)) for i in range(0, n, 3)}
    pairs = {(i, i + 1): int(rng.integers(-5, 6)) for i in range(n - 1)}
    if kind == "float":
        linear = {i: v * 0.37 for i, v in linear.items()}
        pairs = {p: v / 3.1 for p, v in pairs.items()}
    inst = IsingInstance(n, linear, pairs)
    trials = rng.integers(0, 2, size=(t, n)).astype(np.uint8)
    assert t * (len(linear) + len(pairs)) > CHUNK_CELLS
    direct = sum(cost(inst, z) for z in trials.tolist())
    energy = sampled_energy(inst, trials)
    if kind == "int":
        assert energy == Fraction(direct, t)
    else:
        # summed per term instead of per trial: equal to within rounding
        scale = sum(abs(v) for v in [*linear.values(), *pairs.values()])
        assert abs(energy - direct / t) <= 1e-12 * scale


@given(
    st.integers(1, 6),
    st.integers(1, 70),
    st.lists(st.integers(1, 69), max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_packed_hits_and_term_counts_match_unpacked_oracle(n, t, cuts, seed):
    # every single and pair term, over chunks cut at arbitrary rows
    z = np.random.default_rng(seed).integers(0, 2, size=(t, n)).astype(np.uint8)
    singles = np.arange(n)
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=np.intp)
    pairs = pairs.reshape(-1, 2)
    counts = np.zeros(n + len(pairs), dtype=np.int64)
    for rows in np.split(z, sorted({c for c in cuts if c < t})):
        direct = np.concatenate(
            (rows[:, singles] != 0, rows[:, pairs[:, 0]] != rows[:, pairs[:, 1]]), axis=1
        ).T
        q = pack_trials(rows)
        hits = packed_hits(q, singles, pairs)
        assert hits.shape == (len(direct), -(-len(rows) // 8))
        unpacked = np.unpackbits(hits, axis=1, count=len(rows), bitorder="little")
        assert np.array_equal(unpacked, direct)
        # the pad bits of the last byte are clear
        assert np.array_equal(np.bitwise_count(hits).sum(axis=1), direct.sum(axis=1))
        chunk_counts = term_counts(q, singles, pairs)
        assert np.array_equal(chunk_counts, direct.sum(axis=1))
        counts += chunk_counts
    whole = [*(z[:, i].sum() for i in singles), *((z[:, i] != z[:, j]).sum() for i, j in pairs)]
    assert counts.tolist() == whole


@pytest.mark.parametrize(
    "width", [1, 3, 40, 750, 1000, CHUNK_CELLS // 8, CHUNK_CELLS // 8 + 1, 2 * CHUNK_CELLS]
)
def test_row_chunk_steps_are_multiples_of_8(width):
    t = 3 * CHUNK_CELLS // width + 29
    chunks = list(row_chunks(t, width))
    assert chunks[0][0] == 0 and chunks[-1][1] == t
    assert all(stop == start for (_, stop), (start, _) in zip(chunks, chunks[1:]))
    sizes = [stop - start for start, stop in chunks]
    assert all(size == sizes[0] and size % 8 == 0 for size in sizes[:-1])
    # the largest multiple of 8 rows within CHUNK_CELLS, and never below 8
    assert sizes[0] * width <= CHUNK_CELLS or sizes[0] == 8
    assert (sizes[0] + 8) * width > CHUNK_CELLS


def test_sampled_energy_rejects_wrong_width():
    with pytest.raises(ValueError, match="n_qubits"):
        sampled_energy(TRIANGLE, np.zeros((4, 2), dtype=np.uint8))


class TestFiles:
    def test_load_mixed_coefficients(self, tmp_path):
        path = tmp_path / "mix.instance"
        path.write_text(
            "n = 4\nlabel = mix\n[linear]\n0 = 2\n3 = -1/2\n[pairs]\n0 1 = -1\n2 3 = 1.5\n"
        )
        assert load_instance(path) == IsingInstance(
            4,
            linear={0: 2, 3: Fraction(-1, 2)},
            pairs={(0, 1): -1, (2, 3): 1.5},
            label="mix",
        )
        # qubit counts and indices follow the one integer rule, as flags do
        path.write_text("n = 1e1\n[linear]\n2e0 = 1\n[pairs]\n0 1.0 = -1\n")
        assert load_instance(path) == IsingInstance(10, linear={2: 1}, pairs={(0, 1): -1})

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("n = 3\n[linear]\nnot-a-line\n", 3, "expected 'key = value', got 'not-a-line'"),
            ("n = x\n", 1, "qubit count must be an integer >= 1, got x"),
            ("n = 2\n[pairs]\n0 1 = abc\n", 3, "cannot parse coefficient 'abc'"),
            ("n = 2\n[pairs]\n0 1 = nan\n", 3, "coefficient 'nan' is not finite"),
            ("n = 2\n[linear]\n1 = -inf\n", 3, "coefficient '-inf' is not finite"),
            ("n = 4\n[pairs]\n0 1 = 1\n1 9 = 2\n", 4, "pair (1, 9) out of range [0, 4)"),
            ("n = 4\n[linear]\n0 = 1\n4 = 2\n", 4, "linear index 4 out of range [0, 4)"),
            ("n = 4\n[pairs]\n0 1 = 1\n2 2 = 2\n", 4, "pair (2, 2) is a self-loop"),
            ("[pairs]\n0 1 = 1\n", 1, "missing required 'n = N' line before [pairs]"),
            ("n = 0\n", 1, "qubit count must be an integer >= 1, got 0"),
            ("n = 0\n[linear]\n0 = 1\n", 1, "qubit count must be an integer >= 1, got 0"),
            ("# no qubits\nn = -2\n", 2, "qubit count must be an integer >= 1, got -2"),
            ("n = 2\nlabel = a\nn = 3\n", 3, "'n' repeats line 1"),
            ("n = 1.5\n", 1, "qubit count must be an integer >= 1, got 1.5"),
            ("n = 2\n[linear]\n-1 = 2\n", 3, "linear index must be an integer >= 0, got -1"),
            ("n = 3\n[pairs]\n0 1.5 = 1\n", 3, "pair index must be an integer >= 0, got 1.5"),
        ],
        ids=[
            "no-equals",
            "bad-n",
            "bad-coeff",
            "nan-coeff",
            "inf-coeff",
            "pair-out-of-range",
            "linear-out-of-range",
            "self-loop",
            "section-before-n",
            "zero-n",
            "zero-n-with-term",
            "negative-n",
            "repeated-n",
            "non-integral-n",
            "negative-linear-index",
            "non-integral-pair-index",
        ],
    )
    def test_parse_error_has_line_number(self, tmp_path, text, line, message):
        path = tmp_path / "bad.instance"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            load_instance(path)
        assert str(refused.value) == f"{path}:{line}: {message}"

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("n = 2\n[quadratic]\n")
        with pytest.raises(ValueError, match="unknown section"):
            load_instance(path)

    def test_missing_n(self, tmp_path):
        path = tmp_path / "bad.instance"
        path.write_text("[linear]\n0 = 1\n")
        with pytest.raises(ValueError, match="missing required 'n"):
            load_instance(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "ok.instance"
        path.write_text("# header\nn = 2\n\n[pairs]\n0 1 = -1  # edge\n")
        inst = load_instance(path)
        assert inst.pairs == {(0, 1): -1}
