import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrand import (
    BitMatrix,
    ConstantShift,
    GeneratorConfig,
    InsufficientInput,
    Kiss,
    OutputMap,
    binary_rank_test,
    chisq_cdf,
    frequency_test,
    generate,
    gf2_rank,
    permutation_test,
    random_latin_square,
    rank_class_probabilities,
    run_battery,
)
from qgrand.battery import TestResult as ChiSquareResult
from qgrand.battery import _FACTORIALS_4, BatteryEntry, _ranks, render_machine, render_report

# class probabilities for 31x31 and 32x32 random bit matrices, frozen from
# a high-precision evaluation of the product formula
RANK_CLASS_VALUES = (0.2887880951, 0.5775761902, 0.1283502644, 0.0052854503)


class TestChisqCdf:
    @pytest.mark.parametrize(
        "statistic,df,want,tol",
        [
            (118.974, 99, 0.916, 0.005),
            (155.881, 99, 0.999764, 0.0005),
            (92.638, 99, 0.339149, 0.005),
            (96.350, 99, 0.443277, 0.005),
        ],
    )
    def test_anchor_pairs(self, statistic, df, want, tol):
        assert abs(chisq_cdf(statistic, df) - want) <= tol

    @pytest.mark.parametrize("df", [1, 2, 5, 99, 255])
    def test_zero_statistic(self, df):
        assert chisq_cdf(0.0, df) == 0.0

    def test_matches_scipy(self):
        from scipy.special import gammainc

        for df in (1, 2, 3, 10, 99, 119, 255, 500, 1000, 5000, 20000):
            for statistic in (0.01, 0.5, 1.0, df / 2, df, 2 * df, 10 * df):
                assert abs(chisq_cdf(statistic, df) - gammainc(df / 2, statistic / 2)) < 1e-9

    def test_extreme_statistics(self):
        assert chisq_cdf(1e7, 3) == 1.0
        assert 0.0 <= chisq_cdf(1e-12, 255) < 1e-6

    @given(
        df=st.integers(1, 300),
        lo=st.floats(0, 500, allow_nan=False),
        delta=st.floats(0, 500, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_statistic(self, df, lo, delta):
        assert chisq_cdf(lo, df) <= chisq_cdf(lo + delta, df) + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chisq_cdf(-1.0, 3)
        with pytest.raises(ValueError):
            chisq_cdf(1.0, 0)

    @pytest.mark.parametrize("statistic", [math.nan, math.inf])
    def test_rejects_non_finite_statistic(self, statistic):
        with pytest.raises(ValueError):
            chisq_cdf(statistic, 3)


def naive_rank(grid):
    """Textbook GF(2) elimination on an explicit 0/1 grid."""
    m = [list(row) for row in grid]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(pivot_row, n_rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def permutation_index(values):
    """Scalar Lehmer index (0..119) of the ordering of a 5-tuple; on ties the
    earlier element counts as smaller."""
    index = 0
    for i in range(4):
        smaller_later = sum(1 for j in range(i + 1, 5) if values[j] < values[i])
        index += smaller_later * _FACTORIALS_4[i]
    return index


class TestGf2Rank:
    def test_identity_32(self):
        grid = [[1 if i == j else 0 for j in range(32)] for i in range(32)]
        assert gf2_rank(BitMatrix.from_grid(grid)) == 32

    def test_zero_31(self):
        grid = [[0] * 31 for _ in range(31)]
        assert gf2_rank(BitMatrix.from_grid(grid)) == 0

    def test_dependent_third_row(self):
        grid = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]  # row3 = row1 xor row2
        assert gf2_rank(BitMatrix.from_grid(grid)) == 2

    def test_agrees_with_naive_oracle_on_1000_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            grid = rng.integers(0, 2, size=(rows, cols)).tolist()
            assert gf2_rank(BitMatrix.from_grid(grid)) == naive_rank(grid)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12), cols=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant_under_transpose(self, seed, rows, cols):
        grid = np.random.default_rng(seed).integers(0, 2, size=(rows, cols)).tolist()
        assert gf2_rank(BitMatrix.from_grid(grid)) == gf2_rank(BitMatrix.from_grid(list(zip(*grid))))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(0, 3, ())
        with pytest.raises(ValueError):
            BitMatrix(2, 3, (1,))


def _word_grid(words, size):
    """Rows of a matrix given as `size`-bit words, as a 0/1 grid (MSB first)."""
    return [[(int(v) >> (size - 1 - j)) & 1 for j in range(size)] for v in words]


def _rank_stack(size, count, seed):
    """(count, size) word matrices: random ones, and ones with zero rows,
    duplicate rows, identity blocks and low rank."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 2**size, size=(count, size), dtype=np.uint64)
    for m in range(count):
        kind = m % 5
        if kind == 1:  # zero rows
            words[m, rng.choice(size, int(rng.integers(1, 4)), replace=False)] = 0
        elif kind == 2:  # duplicate rows
            src, dst = rng.choice(size, 2, replace=False)
            words[m, dst] = words[m, src]
        elif kind == 3:  # identity block over the first k rows, the rest zero
            k = int(rng.integers(0, size + 1))
            words[m] = 0
            words[m, :k] = [1 << (size - 1 - i) for i in range(k)]
        elif kind == 4:  # every row a combination of r basis rows
            basis = words[m, : int(rng.integers(1, 6))]
            mix = rng.integers(0, 2, size=(size, len(basis)))
            words[m] = [np.bitwise_xor.reduce(basis[row.astype(bool)], initial=0) for row in mix]
    return words.astype(np.uint32)


@pytest.fixture(scope="module")
def criterion_5_streams():
    """The 10 MB quasigroup and KISS streams of acceptance criterion 5."""
    config = GeneratorConfig(random_latin_square(256, 1), ConstantShift(7), OutputMap.BYTES)
    return {"qg": generate(config, 10_000_000), "kiss": Kiss(12345, 65435, 34221, 12345).next_bytes(10_000_000)}


class TestBatchedRanks:
    @pytest.mark.parametrize("size", [31, 32])
    def test_agrees_with_naive_oracle_on_a_stack(self, size):
        words = _rank_stack(size, 300, seed=size)
        ranks = _ranks(np.ascontiguousarray(words.T))
        assert ranks.tolist() == [naive_rank(_word_grid(row, size)) for row in words]
        assert len(set(ranks.tolist())) > 5  # the stack spans many ranks, not only full-ish

    @pytest.mark.parametrize("size", [31, 32])
    def test_zero_repeated_and_single_bit_rows(self, size):
        """Each row zero, one bit (the top and bottom bits included), a copy
        of an earlier row or random: pivots whose row is 0, the pivot itself
        or a multiple of it, on the batched and the Python-int path."""
        rng = np.random.default_rng(size + 100)
        words = np.zeros((200, size), dtype=np.uint32)
        words[1] = 1 << (size - 1)  # every row the top bit: rank 1
        words[2] = [1 << i for i in range(size)]  # the bottom bit first: full rank
        for m in range(3, 200):
            for i in range(size):
                kind = int(rng.integers(4))
                if kind == 1:
                    words[m, i] = 1 << int(rng.integers(size))
                elif kind == 2 and i:
                    words[m, i] = words[m, int(rng.integers(i))]
                elif kind == 3:
                    words[m, i] = int(rng.integers(2**size))
        want = [naive_rank(_word_grid(row, size)) for row in words]
        assert want[:3] == [0, 1, size]
        assert _ranks(np.ascontiguousarray(words.T)).tolist() == want
        assert [gf2_rank(BitMatrix.from_grid(_word_grid(row, size))) for row in words] == want

    def test_gf2_rank_wider_than_64_bits(self):
        rng = np.random.default_rng(70)
        grid = rng.integers(0, 2, size=(70, 100))
        grid[10:20] = grid[:10] ^ grid[20:30]  # rank at most 60
        grid = grid.tolist()
        want = naive_rank(grid)
        assert want == 60
        assert gf2_rank(BitMatrix.from_grid(grid)) == want

    # rank-class counts (full, full-1, full-2, rest) of the criterion-5
    # streams at 40000 matrices, from the per-matrix scalar eliminator
    @pytest.mark.parametrize("source,size,counts", [
        ("qg", 31, [11418, 23202, 5148, 232]),
        ("qg", 32, [11504, 23185, 5102, 209]),
        ("kiss", 31, [11706, 23019, 5080, 195]),
        ("kiss", 32, [11445, 23133, 5199, 223]),
    ])
    def test_criterion_5_stream_counts_pinned(self, criterion_5_streams, source, size, counts):
        result = binary_rank_test(criterion_5_streams[source], size, 40000)
        assert [obs for _, obs, _ in result.categories] == counts


class TestRankClassProbabilities:
    @pytest.mark.parametrize("n", [31, 32])
    def test_frozen_values_to_nine_decimals(self, n):
        got = rank_class_probabilities(n)
        for value, want in zip(got, RANK_CLASS_VALUES):
            assert abs(value - want) < 1e-9

    @pytest.mark.parametrize("n", [10, 16, 31, 32, 64, 100])
    def test_sums_to_one(self, n):
        full, m1, m2, rest = rank_class_probabilities(n)
        assert abs(full + m1 + m2 + rest - 1.0) < 1e-9
        assert all(p > 0 for p in (full, m1, m2, rest))

    def test_full_rank_probability_converges(self):
        p31 = rank_class_probabilities(31)[0]
        p32 = rank_class_probabilities(32)[0]
        assert abs(p31 - p32) < 1e-6

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            rank_class_probabilities(9)


@pytest.fixture(scope="module")
def rank_band_stacks():
    """Per size, 265 matrices' words as the rank test reads them (31x31 words
    carry a random low bit it must drop), and each matrix's rank class from
    naive_rank."""
    stacks = {}
    for size in (31, 32):
        words = _rank_stack(size, 265, seed=size + 7).astype(np.uint64)
        low = np.random.default_rng(size).integers(0, 2, size=words.shape, dtype=np.uint64) * (size == 31)
        data = (words << np.uint64(32 - size) | low).astype(">u4").tobytes()
        stacks[size] = data, [min(size - naive_rank(_word_grid(row, size)), 3) for row in words]
    return stacks


class TestBinaryRankTest:
    # the layout copies 264 matrices per band at 31x31 and 256 at 32x32
    @pytest.mark.parametrize("size", [31, 32])
    @pytest.mark.parametrize("n_matrices", [1, 255, 256, 257, 263, 264, 265])
    def test_counts_match_naive_ranks_across_band_edges(self, rank_band_stacks, size, n_matrices):
        data, classes = rank_band_stacks[size]
        result = binary_rank_test(data, size, n_matrices)
        assert [obs for _, obs, _ in result.categories] == np.bincount(classes[:n_matrices], minlength=4).tolist()

    def test_all_zero_input_is_extreme(self):
        data = bytes(2000 * 32 * 4)
        result = binary_rank_test(data, 32, 2000)
        by_label = {label: obs for label, obs, _ in result.categories}
        assert by_label["rest"] == 2000
        assert by_label["full"] == 0
        assert result.p_value > 0.9999999

    def test_insufficient_input(self):
        with pytest.raises(InsufficientInput) as exc:
            binary_rank_test(b"\x00" * 100, 31, 40000)
        assert exc.value.needed == 40000 * 31 * 4
        assert exc.value.got == 100

    @pytest.mark.parametrize("size", [31, 32])
    def test_kiss_stream_in_healthy_range(self, size):
        data = Kiss(12345, 65435, 34221, 12345).next_bytes(4000 * size * 4)
        result = binary_rank_test(data, size, 4000)
        assert result.degrees_of_freedom == 3
        assert 0.001 < result.p_value < 0.999
        assert sum(obs for _, obs, _ in result.categories) == 4000

    def test_matrix_count_must_be_positive(self):
        with pytest.raises(ValueError) as exc:
            binary_rank_test(bytes(4096), 32, 0)
        assert not isinstance(exc.value, InsufficientInput)

    def test_size_must_be_31_or_32(self):
        with pytest.raises(ValueError):
            binary_rank_test(bytes(10000), 30, 10)

    def test_31x31_uses_high_bits(self):
        # words whose low bit differs but high 31 bits match give equal matrices
        base = np.arange(1, 32, dtype=np.uint64) << 1
        a = (base).astype(">u4").tobytes()
        b = (base | 1).astype(">u4").tobytes()
        ra = binary_rank_test(a, 31, 1)
        rb = binary_rank_test(b, 31, 1)
        assert [c[1] for c in ra.categories] == [c[1] for c in rb.categories]


class TestPermutationIndex:
    def test_sorted_tuple_is_identity(self):
        assert permutation_index((10, 20, 30, 40, 50)) == 0

    def test_reversed_tuple_is_last(self):
        assert permutation_index((50, 40, 30, 20, 10)) == 119

    def test_all_equal_ties_resolve_to_identity(self):
        assert permutation_index((7, 7, 7, 7, 7)) == 0

    def test_bijection_over_distinct_tuples(self):
        import itertools

        seen = {permutation_index(p) for p in itertools.permutations((1, 2, 3, 4, 5))}
        assert seen == set(range(120))


class TestPermutationTest:
    def test_constant_input_collapses_to_one_class(self):
        data = (np.zeros(5 * 2000, dtype=np.uint32) + 7).astype(">u4").tobytes()
        result = permutation_test(data, 2000)
        assert result.p_value > 0.9999999
        assert result.categories[0][1] == 2000

    def test_vectorized_classes_match_scalar_index(self):
        # full 32-bit words almost never tie; words from {0, 1, 2} and {0, 1}
        # put the earlier-is-smaller tie rule to work on mixed tuples
        rng = np.random.default_rng(99)
        for high in (2**32, 3, 2):
            words = rng.integers(0, high, size=5 * 3000, dtype=np.uint64).astype(np.uint32)
            result = permutation_test(words.astype(">u4").tobytes(), 3000)
            want = np.zeros(120, dtype=int)
            for i in range(3000):
                want[permutation_index(words[5 * i : 5 * i + 5].tolist())] += 1
            assert [obs for _, obs, _ in result.categories] == want.tolist()

    def test_kiss_stream_in_healthy_range(self):
        data = Kiss(12345, 65435, 34221, 12345).next_bytes(50_000 * 20)
        result = permutation_test(data, 50_000)
        assert result.degrees_of_freedom == 119
        assert 0.001 < result.p_value < 0.999

    def test_insufficient_input(self):
        with pytest.raises(InsufficientInput):
            permutation_test(b"\x00" * 19, 1)

    def test_tuple_count_must_be_positive(self):
        with pytest.raises(ValueError) as exc:
            permutation_test(bytes(4096), 0)
        assert not isinstance(exc.value, InsufficientInput)


class TestFrequencyTest:
    def test_perfectly_uniform_input(self):
        data = bytes(range(256)) * 100
        result = frequency_test(data)
        assert result.statistic == 0.0
        assert result.p_value == 0.0

    def test_all_zero_input(self):
        result = frequency_test(bytes(25600))
        assert result.p_value > 0.9999999

    def test_insufficient_input(self):
        with pytest.raises(InsufficientInput) as exc:
            frequency_test(bytes(25599))
        assert exc.value.needed == 25600

    def test_kiss_stream_in_healthy_range(self):
        data = Kiss(12345, 65435, 34221, 12345).next_bytes(1_000_000)
        result = frequency_test(data)
        assert 0.001 < result.p_value < 0.999
        assert sum(obs for _, obs, _ in result.categories) == 1_000_000


class TestResultInvariants:
    def test_p_value_is_cdf_of_statistic_and_counts_sum(self):
        data = Kiss(1, 2, 3, 4).next_bytes(400_000)
        results = [
            frequency_test(data),
            permutation_test(data, 20_000),
            binary_rank_test(data, 31, 800),
            binary_rank_test(data, 32, 780),
        ]
        trials = [400_000, 20_000, 800, 780]
        for result, n in zip(results, trials):
            assert isinstance(result, ChiSquareResult)
            assert abs(result.p_value - chisq_cdf(result.statistic, result.degrees_of_freedom)) < 1e-12
            assert sum(obs for _, obs, _ in result.categories) == n

    def test_suspect_flag(self):
        healthy = ChiSquareResult("x", 1.0, 1, 0.5, [])
        low = ChiSquareResult("x", 1.0, 1, 0.0005, [])
        high = ChiSquareResult("x", 1.0, 1, 0.9999, [])
        assert not healthy.suspect
        assert low.suspect and high.suspect


class TestRunBattery:
    def test_two_sources_render_side_by_side(self):
        a = Kiss(1, 2, 3, 4).next_bytes(400_000)
        b = Kiss(5, 6, 7, 8).next_bytes(400_000)
        sink = io.StringIO()
        entries = run_battery({"alpha": a, "beta": b}, sink=sink)
        assert len(entries) == 8
        report = sink.getvalue()
        header = report.splitlines()[0]
        assert "alpha (p-value)" in header and "beta (p-value)" in header
        for name in ("frequency", "perm5", "rank_31x31", "rank_32x32"):
            assert name in report

    def test_single_source_single_column(self):
        data = Kiss(1, 2, 3, 4).next_bytes(400_000)
        entries = run_battery({"only": data})
        assert len(entries) == 4
        report = render_report(entries)
        assert report.splitlines()[0].count("(p-value)") == 1

    def test_auto_sizing_shrinks_to_input(self):
        data = Kiss(1, 2, 3, 4).next_bytes(400_000)
        entries = run_battery({"s": data})
        by_test = {e.test_name: e for e in entries}
        assert sum(o for _, o, _ in by_test["perm5"].result.categories) == 400_000 // 20
        assert sum(o for _, o, _ in by_test["rank_31x31"].result.categories) == 400_000 // 124

    def test_explicit_counts_are_strict(self):
        data = Kiss(1, 2, 3, 4).next_bytes(400_000)
        entries = run_battery({"s": data}, n_tuples=1_000_000)
        by_test = {e.test_name: e for e in entries}
        assert by_test["perm5"].error is not None
        assert by_test["perm5"].error.needed == 20_000_000

    def test_short_input_yields_insufficient_rows_not_abort(self):
        # 30000 bytes: enough for frequency and a floored permutation run,
        # not for the rank tests
        entries = run_battery({"short": bytes(30000)})
        by_test = {e.test_name: e for e in entries}
        assert by_test["frequency"].result is not None
        assert by_test["perm5"].result is not None
        assert by_test["rank_31x31"].error is not None
        assert by_test["rank_32x32"].error is not None
        report = render_report(entries)
        assert "insufficient input" in report

    def test_tiny_input_reports_every_test_insufficient(self):
        entries = run_battery({"tiny": bytes(100)})
        assert len(entries) == 4
        assert all(e.error is not None for e in entries)

    def test_working_memory_bounded_whatever_the_input_length(self):
        data = bytes(40_000_000)
        tracemalloc.start()
        try:
            run_battery({"z": data})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16_000_000

    @pytest.mark.parametrize("run,bound", [
        (frequency_test, 1_000_000),
        (lambda data: permutation_test(data, 1_000_000), 4_000_000),
        (lambda data: run_battery({"z": data}), 7_000_000),
    ], ids=["frequency", "perm5", "run_battery"])
    def test_count_temporaries_bounded(self, run, bound):
        # counts are taken a slice at a time, so no count widens a whole input
        data = bytes(40_000_000)
        tracemalloc.start()
        try:
            run(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, peak

    def test_criterion_5_machine_lines_pinned(self, criterion_5_streams):
        # the reproducibility contract: statistics and p-values to 6 decimals
        assert render_machine(run_battery(criterion_5_streams)).splitlines() == [
            "frequency\tqg\t258.335027\t255\t0.570062",
            "perm5\tqg\t105.534400\t119\t0.193663",
            "rank_31x31\tqg\t4.009040\t3\t0.739510",
            "rank_32x32\tqg\t0.713464\t3\t0.129967",
            "frequency\tkiss\t229.861581\t255\t0.130887",
            "perm5\tkiss\t132.173440\t119\t0.807066",
            "rank_31x31\tkiss\t4.214706\t3\t0.760806",
            "rank_32x32\tkiss\t2.478320\t3\t0.520778",
        ]

    def test_report_marks_a_missing_pair_with_a_dash(self):
        result = ChiSquareResult("frequency", 250.0, 255, 0.4, [])
        entries = [
            BatteryEntry("a", "frequency", result=result),
            BatteryEntry("a", "perm5", result=result),
            BatteryEntry("b", "frequency", result=result),
        ]
        perm5_row = render_report(entries).splitlines()[3]
        assert perm5_row.startswith("perm5") and perm5_row.endswith("| -")

    def test_input_is_sized_in_bytes_whatever_its_item_type(self):
        # the same 4 MB as bytes, uint8, uint16 and big-endian uint32 items: len() of an
        # array counts items, so sizing by it shrank the runs and put frequency at p = 1
        data = generate(GeneratorConfig(random_latin_square(256, seed=1), ConstantShift(7)), 4_000_000)
        views = [data, np.frombuffer(data, np.uint8), np.frombuffer(data, np.uint16), np.frombuffer(data, ">u4")]
        reports = [repr(run_battery({"qg": view})) for view in views]
        assert reports == [reports[0]] * 4 and "InsufficientInput" not in reports[0]

    def test_tests_read_bytes_whatever_the_item_type(self):
        data = Kiss(1, 2, 3, 4).next_bytes(200_000)
        wide = np.frombuffer(data, ">u4")
        assert repr(frequency_test(wide)) == repr(frequency_test(data))
        assert repr(permutation_test(wide, 10_000)) == repr(permutation_test(data, 10_000))
        assert repr(binary_rank_test(wide, 31, 1600)) == repr(binary_rank_test(data, 31, 1600))
        with pytest.raises(InsufficientInput) as exc:
            binary_rank_test(wide, 32, 2000)
        assert (exc.value.needed, exc.value.got) == (256_000, 200_000)

    def test_entry_with_an_error_survives_pickle(self):
        entries = run_battery({"tiny": bytes(100)})
        copies = pickle.loads(pickle.dumps(entries))
        assert render_machine(copies) == render_machine(entries)  # exceptions compare by identity
        assert [(type(c.error), vars(c.error)) for c in copies] == [(type(e.error), vars(e.error)) for e in entries]

    def test_machine_lines_format(self):
        data = Kiss(1, 2, 3, 4).next_bytes(400_000)
        entries = run_battery({"src": data})
        for line in render_machine(entries).splitlines():
            fields = line.split("\t")
            assert len(fields) == 5
            assert fields[1] == "src"
        # insufficient rows keep the five-field shape
        line = render_machine(run_battery({"tiny": bytes(100)})).splitlines()[0]
        assert line.split("\t")[2] == "NA"


class TestPValueUniformity:
    def test_frequency_p_values_look_uniform_over_200_segments(self):
        # Kolmogorov-Smirnov-style max-deviation check at the 0.001 level
        gen = Kiss(12345, 65435, 34221, 12345)
        p_values = sorted(frequency_test(gen.next_bytes(25600)).p_value for _ in range(200))
        n = len(p_values)
        deviation = max(
            max(abs((i + 1) / n - p), abs(p - i / n)) for i, p in enumerate(p_values)
        )
        critical = math.sqrt(-0.5 * math.log(0.001 / 2)) / math.sqrt(n)
        assert deviation < critical
