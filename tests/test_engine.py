import copy
import hashlib
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from qgrand import (
    ConstantShift,
    Engine,
    GeneratorConfig,
    OrderTooLargeForBytes,
    OutputMap,
    VariableShift,
    generate,
    random_latin_square,
    validate,
)
from qgrand.engine import blocks, transpose_rotate

from conftest import TABLE1, large_order_oracle
from oracle import oracle_blocks

# first cycle for the TABLE1 seed, frozen from the reference transcription
TABLE1_BLOCK0 = [
    5, 4, 4, 4, 1,
    2, 2, 5, 5, 1,
    2, 1, 3, 2, 1,
    2, 2, 2, 1, 2,
    5, 4, 2, 3, 3,
]


def pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def make_engine(grid, shift, output=OutputMap.SYMBOLS):
    return Engine(GeneratorConfig(validate(grid), shift, output))


class TestPhase1:
    def test_first_cycle_first_cells(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        eng.phase1()
        new = eng.gen_matrix.astype(int) + 1
        assert new[0, 0] == table1_square.lookup(2, 1) == 5
        assert new[0, 1] == table1_square.lookup(1, 5) == 4
        assert new[0].tolist() == [5, 4, 4, 4, 1]

    def test_first_cycle_full_matrix_matches_oracle(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        eng.phase1()
        flat = (eng.gen_matrix.astype(int) + 1).ravel().tolist()
        assert flat == oracle_blocks(TABLE1, ("const", 2), 1)[0] == TABLE1_BLOCK0

    def test_order_2_example(self):
        eng = make_engine([[1, 2], [2, 1]], ConstantShift(0))
        eng.phase1()
        assert (eng.gen_matrix.astype(int) + 1).ravel().tolist() == [2, 1, 2, 1]

    def test_clears_initialized_and_reads_snapshot(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        assert eng.initialized
        eng.phase1()
        assert not eng.initialized
        # second call must read the produced matrix, not the seed square
        first = eng.gen_matrix.copy()
        eng.phase1()
        assert not np.array_equal(eng.gen_matrix, first)

    @pytest.mark.parametrize("shift", [ConstantShift(5), VariableShift(3, 7)])
    @pytest.mark.parametrize("cycles", [1, 2, 5])
    def test_fresh_engine_resumes_from_an_assigned_gen_matrix(self, shift, cycles):
        # the first cycle reads gen_matrix like every other, not the seed square
        config = GeneratorConfig(random_latin_square(16, seed=2), shift, OutputMap.BYTES)
        source = Engine(config)
        for _ in range(cycles):
            source.next_block()
        resumed = Engine(config)
        resumed.gen_matrix = source.gen_matrix.copy()
        for _ in range(3):
            assert np.array_equal(resumed.next_block(), source.next_block())

    # the flat index needs uint8 up to order 16, uint16 up to 256 and uint32 above
    @pytest.mark.parametrize("order", [*range(2, 21), 255, 256, 257, 300])
    def test_matches_reference(self, order):
        output = OutputMap.BYTES if order <= 256 else OutputMap.SYMBOLS
        eng = Engine(GeneratorConfig(random_latin_square(order, seed=order), ConstantShift(1), output))
        table = eng.config.square.table0
        assert table.dtype == (np.uint8 if order <= 256 else np.uint16)
        rng = np.random.default_rng(order)
        matrices = [rng.integers(0, order, size=(order, order), dtype=table.dtype) for _ in range(3)]
        matrices.append(np.full((order, order), order - 1, dtype=table.dtype))  # index n*n - 1 everywhere
        for matrix in matrices:
            eng.gen_matrix = matrix.copy()
            eng.phase1()
            assert eng.gen_matrix.dtype == table.dtype
            assert np.array_equal(eng.gen_matrix, phase1_reference(table, matrix))


    @pytest.mark.parametrize("order", [16, 300])
    def test_gen_matrix_of_another_type_or_shape_is_named(self, order):
        eng = Engine(GeneratorConfig(random_latin_square(order, seed=1), ConstantShift(1), OutputMap.SYMBOLS))
        dtype = eng.gen_matrix.dtype
        for matrix, error, given in [
            (eng.gen_matrix.astype(np.int64), TypeError, "int64"),  # a saved matrix read back as int64
            (eng.gen_matrix.tolist(), TypeError, "list"),
            (eng.gen_matrix.ravel(), ValueError, f"shape ({order * order},)"),
            (eng.gen_matrix[:-1], ValueError, f"shape ({order - 1}, {order})"),
        ]:
            eng.gen_matrix = matrix
            with pytest.raises(error) as exc:
                eng.phase1()
            assert str(exc.value) == f"gen_matrix must be {order}x{order} {dtype}, got {given}"


class TestPhase2:
    def test_row_major_symbols(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        eng.phase1()
        assert eng.phase2().tolist() == TABLE1_BLOCK0

    def test_read_only_and_repeatable(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        eng.phase1()
        before = eng.gen_matrix.copy()
        a = eng.phase2()
        b = eng.phase2()
        assert np.array_equal(a, b)
        assert np.array_equal(eng.gen_matrix, before)

    def test_order_1_degenerate(self):
        eng = make_engine([[1]], ConstantShift(0))
        assert eng.next_block().tolist() == [1]

    def test_peak_memory_at_order_1024(self):
        # one int32 array: an int32 copy of the matrix plus 1 made two, 8 bytes per cell
        n = 1024
        eng = Engine(GeneratorConfig(random_latin_square(n, seed=1), ConstantShift(2), OutputMap.SYMBOLS))
        eng.phase1()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            eng.phase2()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 4 * n * n + (64 << 10), (peak - start) >> 10


def phase1_reference(table, matrix):
    """Phase 1 by its definition, a 2-D lookup of each cell with its row-major
    successor: the slow reference for Engine.phase1."""
    n = table.shape[0]
    flat = matrix.ravel()
    return table[flat, np.roll(flat, -1)].reshape(n, n)


def roll_reference(matrix, shift):
    """Phase 3 as first written, with np.roll: the slow reference for transpose_rotate."""
    n = matrix.shape[0]
    return np.roll(matrix.T.ravel(), shift % (n * n)).reshape(n, n)


class TestPhase3:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    # rows of 256 bytes or a multiple are copied in bands (uint8 at 256 and 512, uint16
    # at 128, 256, 384 and 512; uint16 at 384 ends on a partial band), up to order 40
    # the rest is one take through a cached index, above it a whole copy
    @pytest.mark.parametrize("order", [*range(1, 21), 31, 32, 33, 39, 40, 41, 47, 48, 49, 63, 64, 65,
                                       128, 255, 256, 257, 300, 384, 512])
    def test_matches_roll_reference(self, order, dtype):
        rng = np.random.default_rng(order)
        matrix = rng.integers(0, np.iinfo(dtype).max, size=(order, order), dtype=dtype, endpoint=True)
        cells = order * order
        shifts = [0, 1, cells - 1, cells, cells + 1, 7 * cells + 3, *rng.integers(0, 10 * cells, 5).tolist()]
        for shift in shifts:
            rotated = transpose_rotate(matrix, shift)
            assert rotated.dtype == dtype
            assert np.array_equal(rotated, roll_reference(matrix, shift)), shift

    @pytest.mark.parametrize("view", ["transposed", "reversed rows", "strided rows"])
    def test_any_layout_matches_roll_reference(self, view):
        # at order 256 row strides of 1 and -512 bytes take the whole copy, 512 the banded
        # one; at order 16 every view takes the cached index, through a row-major copy
        for order in (256, 16):
            wide = np.random.default_rng(5).integers(0, 256, size=(order, 2 * order), dtype=np.uint8)
            views = {"transposed": wide[:, :order].T, "reversed rows": wide[::-1, :order],
                     "strided rows": wide[:, ::2]}
            matrix = views[view]
            assert not matrix.flags.c_contiguous
            for shift in (0, 1, 40000):
                assert np.array_equal(transpose_rotate(matrix, shift), roll_reference(matrix, shift)), (order, shift)

    def test_2x2_rotate_by_one(self):
        matrix = np.array([[1, 2], [3, 4]])
        assert transpose_rotate(matrix, 1).tolist() == [[4, 1], [3, 2]]

    def test_zero_shift_is_bare_transpose(self):
        matrix = np.arange(9).reshape(3, 3)
        assert np.array_equal(transpose_rotate(matrix, 0), matrix.T)

    def test_full_cycle_shift_is_bare_transpose(self):
        matrix = np.arange(9).reshape(3, 3)
        assert np.array_equal(transpose_rotate(matrix, 9), matrix.T)

    def test_engine_constant_shift(self):
        eng = make_engine([[1, 2], [2, 1]], ConstantShift(1))
        eng.gen_matrix = np.array([[0, 1], [0, 1]], dtype=np.uint8)  # symbols 1 2 / 1 2
        eng.phase3()
        # transpose gives 1 1 / 2 2, stream (1,1,2,2), right 1 -> (2,1,1,2)
        assert (eng.gen_matrix.astype(int) + 1).ravel().tolist() == [2, 1, 1, 2]

    def test_variable_shift_reads_after_transposition(self):
        eng = make_engine([[1, 2], [2, 1]], VariableShift(1, 2))
        # symbols 2 1 / 2 1; transposed is 2 2 / 1 1, so cell (1,2) reads 2
        # (pre-transpose it would read 1 and give a different rotation)
        eng.gen_matrix = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        eng.phase3()
        assert (eng.gen_matrix.astype(int) + 1).ravel().tolist() == [1, 1, 2, 2]

    def test_multiset_of_entries_is_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            matrix = rng.integers(0, n, size=(n, n)).astype(np.uint8)
            shift = int(rng.integers(0, 3 * n * n))
            rotated = transpose_rotate(matrix, shift)
            assert sorted(rotated.ravel().tolist()) == sorted(matrix.ravel().tolist())


class TestNextBlock:
    def test_table1_first_block(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        assert eng.next_block().tolist() == TABLE1_BLOCK0
        assert eng.iteration == 1

    def test_two_engines_agree_for_ten_blocks(self, table1_square):
        config = GeneratorConfig(table1_square, VariableShift(3, 4), OutputMap.SYMBOLS)
        a, b = Engine(config), Engine(config)
        for _ in range(10):
            assert np.array_equal(a.next_block(), b.next_block())

    def test_byte_mapping_order_256(self):
        square = random_latin_square(256, seed=9)
        eng = Engine(GeneratorConfig(square, ConstantShift(3), OutputMap.BYTES))
        block = eng.next_block()
        assert block.size == 65536
        assert block.dtype == np.uint8
        assert int(block.min()) >= 0 and int(block.max()) <= 255

    @pytest.mark.parametrize("order, output, bound", [(256, OutputMap.BYTES, 512 << 10),
                                                      (1024, OutputMap.SYMBOLS, 12 << 20)],
                             ids=["order-256", "order-1024"])
    def test_peak_memory_of_one_cycle(self, order, output, bound):
        # phase 1 gathers in slices: take's intp copy of a whole index took 8 bytes per cell,
        # 705 KiB above the start at order 256 and 14.3 MiB at order 1024
        eng = Engine(GeneratorConfig(random_latin_square(order, seed=1), VariableShift(3, 9), output))
        eng.next_block()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            eng.next_block()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= bound, (peak - start) >> 10

    def test_byte_mapping_is_symbol_minus_one(self, table1_square):
        sym = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        byt = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.BYTES))
        assert (sym.next_block() - 1).tolist() == byt.next_block().tolist()


class TestOracleEquivalence:
    def test_table1_three_blocks(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        got = [eng.next_block().tolist() for _ in range(3)]
        assert got == oracle_blocks(TABLE1, ("const", 2), 3)

    def test_random_squares_both_shift_modes(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            order = int(rng.integers(2, 9))
            square = random_latin_square(order, seed=int(rng.integers(0, 2**62)))
            if trial % 2 == 0:
                shift = ("const", int(rng.integers(0, 2 * order * order)))
                mode = ConstantShift(shift[1])
            else:
                x, y = int(rng.integers(1, order + 1)), int(rng.integers(1, order + 1))
                shift = ("var", x, y)
                mode = VariableShift(x, y)
            eng = Engine(GeneratorConfig(square, mode, OutputMap.SYMBOLS))
            got = [eng.next_block().tolist() for _ in range(3)]
            assert got == oracle_blocks(square.rows(), shift, 3)

    @pytest.mark.parametrize("mode", ["const", "var"])
    def test_engines_of_neighbouring_orders_stepped_in_turn(self, mode):
        # phase 3 caches one index per order (up to 40, the last order that takes it);
        # engines of orders 16 and 17, and 40 and 41, stepped in turn must not share one
        orders = (16, 17, 40, 41)
        shifts = {n: ("const", 3 * n + 1) if mode == "const" else ("var", n, 2) for n in orders}
        squares = {n: random_latin_square(n, seed=n) for n in orders}
        engines = {n: Engine(GeneratorConfig(squares[n], ConstantShift(shifts[n][1]) if mode == "const"
                                             else VariableShift(*shifts[n][1:]))) for n in orders}
        got = {n: [] for n in orders}
        for _ in range(3):
            for n in orders:
                got[n].append((engines[n].next_block().astype(np.int64) + 1).tolist())
        for n in orders:
            assert got[n] == oracle_blocks(squares[n].rows(), shifts[n], 3), n

    # Phase 1's flat index n * cell + successor tops out at n*n - 1, so its
    # dtype is uint8 up to order 16, uint16 from 17 to 256 and uint32 from 257.
    # These orders sit on both sides of those boundaries; from order 17 on, an
    # index in a dtype too narrow for n*n - 1 (the table's own, say) wraps.
    @pytest.mark.parametrize("order,shift", [
        (16, ("var", 16, 3)),  # the last uint8 index, byte map
        (17, ("const", 5)),
        (255, ("var", 7, 200)),
        (256, ("var", 1, 256)),
        (256, ("var", 256, 1)),
        (256, ("const", 0)),
        (256, ("const", 65535)),
        (256, ("const", 65536)),
        (256, ("const", 2 * 65536 + 3)),
        (257, ("const", 257)),  # the first uint32 index, symbol map
        (300, ("var", 300, 299)),  # past the byte map: symbols from a uint16 table
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_orders_that_overflow_a_narrow_index(self, order, shift):
        mode = ConstantShift(shift[1]) if shift[0] == "const" else VariableShift(*shift[1:])
        output = OutputMap.BYTES if order <= 256 else OutputMap.SYMBOLS
        eng = Engine(GeneratorConfig(random_latin_square(order, seed=order), mode, output))
        offset = 1 if output is OutputMap.BYTES else 0  # byte blocks hold symbol-1
        got = [(eng.next_block().astype(np.int64) + offset).tolist() for _ in range(2)]
        if shift[0] == "const":  # the oracle reduces the shift mod n*n itself
            shift = ("const", shift[1] % (order * order))
        assert got == large_order_oracle(order, shift)


class TestStreamingInterlace:
    @pytest.mark.parametrize(
        "order,mode",
        [(2, ConstantShift(1)), (3, ConstantShift(5)), (5, VariableShift(2, 3)), (7, VariableShift(7, 1))],
    )
    def test_streaming_equals_block_reads(self, order, mode):
        square = random_latin_square(order, seed=order * 13)
        blocks = Engine(GeneratorConfig(square, mode, OutputMap.SYMBOLS))
        stream = Engine(GeneratorConfig(square, mode, OutputMap.SYMBOLS))
        want = list(itertools.chain.from_iterable(blocks.next_block().tolist() for _ in range(4)))
        got = list(itertools.islice(stream.symbols(), 4 * order * order))
        assert got == want

    def test_table1_streaming(self, table1_square):
        eng = Engine(GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS))
        assert list(itertools.islice(eng.symbols(), 25)) == TABLE1_BLOCK0

    @pytest.mark.parametrize("output", [OutputMap.SYMBOLS, OutputMap.BYTES])
    def test_whole_blocks_advance_the_engine_as_next_block_does(self, output):
        # after k whole blocks the engine stands where k next_block() calls leave it
        config = GeneratorConfig(random_latin_square(16, seed=3), VariableShift(2, 5), output)
        for k in range(4):
            stream, reference = Engine(config), Engine(config)
            list(itertools.islice(stream.symbols(), k * 256))
            for _ in range(k):
                reference.next_block()
            assert stream.iteration == reference.iteration == k
            assert np.array_equal(stream.gen_matrix, reference.gen_matrix)
        first = Engine(config)
        next(first.symbols())
        assert first.iteration == 1  # a block's phase 3 runs before its first symbol

    def test_byte_map_yields_symbols_1_to_256(self):
        # byte blocks hold symbol-1 as uint8; symbol 256 must not wrap to 0
        config = GeneratorConfig(random_latin_square(256, seed=9), VariableShift(3, 9), OutputMap.BYTES)
        got = list(itertools.islice(Engine(config).symbols(), 2 * 65536))
        reference = Engine(config)
        want = [v + 1 for _ in range(2) for v in reference.next_block().tolist()]
        assert got == want
        assert min(got) == 1 and max(got) == 256


class TestEntryPreservation:
    def test_entries_stay_in_range_under_any_phase_interleaving(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            order = int(rng.integers(2, 10))
            square = random_latin_square(order, seed=int(rng.integers(0, 2**62)))
            eng = Engine(GeneratorConfig(square, ConstantShift(int(rng.integers(0, 50))), OutputMap.SYMBOLS))
            for _ in range(30):
                if rng.random() < 0.5:
                    eng.phase1()
                else:
                    eng.phase3()
                assert int(eng.gen_matrix.max()) < order
                assert int(eng.gen_matrix.min()) >= 0


def brent_cycle(config):
    """(tail, period) in blocks of a fresh engine's state sequence: the first
    state that recurs comes after `tail` blocks, and recurs every `period`.
    Brent's cycle detection (Brent 1980, BIT 20) holds O(1) states."""
    hare = Engine(config)
    power = period = 1
    saved = hare.gen_matrix.tobytes()
    hare.next_block()
    while hare.gen_matrix.tobytes() != saved:
        if power == period:  # save the hare's state at each power of two, and count afresh
            saved, power, period = hare.gen_matrix.tobytes(), 2 * power, 0
        hare.next_block()
        period += 1
    tortoise, hare = Engine(config), Engine(config)
    for _ in range(period):
        hare.next_block()
    tail = 0
    while not np.array_equal(tortoise.gen_matrix, hare.gen_matrix):
        tortoise.next_block()
        hare.next_block()
        tail += 1
    return tail, period


class TestPeriodicity:
    @pytest.mark.parametrize("order,seed,shift,tail,period", [
        (3, 1, ConstantShift(0), 2, 4),
        (3, 1, VariableShift(1, 1), 43, 23),
        (3, 3, VariableShift(2, 2), 6, 125),
        (4, 4, ConstantShift(0), 4, 12),
        (4, 4, ConstantShift(1), 5, 12),
        (4, 4, VariableShift(1, 1), 1975, 6),
        (4, 4, VariableShift(2, 2), 11607, 6),
    ])
    def test_state_cycle_pinned(self, order, seed, shift, tail, period):
        """The census in README; a dict of every state gives the same values."""
        config = GeneratorConfig(random_latin_square(order, seed), shift, OutputMap.SYMBOLS)
        assert brent_cycle(config) == (tail, period)

    def test_order_2_cycles_and_cycle_length_reported(self):
        square = validate([[1, 2], [2, 1]])
        eng = Engine(GeneratorConfig(square, ConstantShift(1), OutputMap.SYMBOLS))
        seen = {}
        cycle = None
        for step in range(17):  # state space is at most 2**4 = 16 matrices
            key = eng.gen_matrix.tobytes()
            if key in seen:
                cycle = step - seen[key]
                break
            seen[key] = step
            eng.next_block()
        assert cycle is not None
        print(f"order-2 engine cycle length: {cycle} (entered after {seen[key]} blocks)")

    def test_order_3_revisits_a_state(self):
        square = validate([[1, 2, 3], [2, 3, 1], [3, 1, 2]])
        eng = Engine(GeneratorConfig(square, VariableShift(2, 2), OutputMap.SYMBOLS))
        seen = set()
        for _ in range(3**9 + 1):  # pigeonhole bound on 3x3 matrices over 3 symbols
            key = eng.gen_matrix.tobytes()
            if key in seen:
                return
            seen.add(key)
            eng.next_block()
        pytest.fail("no state revisited within the pigeonhole bound")


def shift_scores(b0, b1, n, probes=64):
    """For each rotation s, the share of probes on which block b1 agrees with itself s places
    on.  The next block is R_s(F(u)), where u is b0 transposed and flattened, F phase 1's
    lookup of each cell with its successor and R_s the rotation by s.  So positions q whose
    pairs (u[q], u[q+1]) are equal give equal outputs at q + s: each probe is a position
    whose pair came earlier in u, compared with that pair's first position."""
    size = n * n
    u = b0.reshape(n, n).T.ravel().astype(np.int64)
    _, first, group = np.unique(u * n + np.roll(u, -1), return_index=True, return_inverse=True)
    probe = np.flatnonzero(first[group] != np.arange(size))[:probes]
    assert probe.size == probes
    twice = np.concatenate((b1, b1))  # twice[q : q + size][s] is b1[(q + s) % size]
    return sum(twice[q : q + size] == twice[f : f + size] for q, f in zip(probe, first[group[probe]])) / probes


class TestShiftRecovery:
    """What the output gives away: two consecutive blocks (2n^2 bytes) name phase 3's shift."""

    @pytest.mark.parametrize("order", [16, 256])
    @pytest.mark.parametrize("mode", [ConstantShift(7), ConstantShift(40000), VariableShift(3, 9)],
                             ids=["const=7", "const=40000", "var=3:9"])
    def test_two_blocks_give_away_the_shift(self, order, mode):
        stream = generate(GeneratorConfig(random_latin_square(order, seed=1), mode), 2 * order**2)
        b0, b1 = np.frombuffer(stream, np.uint8).reshape(2, -1)
        if isinstance(mode, VariableShift):  # the cell phase 3 reads after transposing block 0
            shift = int(b0.reshape(order, order).T[mode.x - 1, mode.y - 1]) + 1
        else:
            shift = mode.amount % order**2
        scores = shift_scores(b0, b1, order)
        assert (int(scores.argmax()), scores.max()) == (shift, 1.0)
        assert np.sort(scores)[-2] < 0.5, np.sort(scores)[-2]  # the runner-up read 0.156 and 0.078

    @pytest.mark.parametrize("order", [16, 256])
    def test_random_bytes_give_away_no_shift(self, order):
        b0, b1 = np.random.default_rng(order).integers(0, order, (2, order**2), dtype=np.uint8)
        best = shift_scores(b0, b1, order).max()
        assert best < 0.5, best  # read 0.156 and 0.0625


def write_cells(table, b0, b1, shift):
    """Write into `table` (symbol-1, -1 where unknown) the cells of the secret square L that
    block b1 names: b1[p] = L[v[p], v[p+1 mod n^2]], where v is b0 after phase 3's transpose
    and rotation by `shift`.  Returns how many writes disagree with a cell's known value or
    with another write to it in b1 (0 for a real block pair)."""
    n = len(table)
    v = transpose_rotate(b0.reshape(n, n), shift).ravel()
    rows, cols = v, np.roll(v, -1)
    before = table[rows, cols]
    table[rows, cols] = b1  # where b1 writes a cell twice, the last write stays
    return np.count_nonzero((before >= 0) & (before != b1)) + np.count_nonzero(table[rows, cols] != b1)


def complete(table):
    """Each row and column of a Latin square holds 0..n-1 once, so a line with one unknown
    cell names it.  Fill such cells, rows then columns, until a round fills none.  (In a
    table that is not Latin, a fill may read -1 and leave its cell unknown.)"""
    total = len(table) * (len(table) - 1) // 2
    unknown_cells = None
    while unknown_cells != (unknown_cells := np.count_nonzero(table < 0)):
        for lines in (table, table.T):  # table.T is a view: its writes land in table
            unknown = lines < 0
            one = np.flatnonzero(unknown.sum(axis=1) == 1)  # the unknown cell's -1 is in the sum
            lines[one, unknown[one].argmax(axis=1)] = total - lines[one].sum(axis=1) - 1


class TestStreamPrediction:
    """What the output gives away, whole: a few consecutive blocks name the secret square,
    the shift and the var cell, and so every later block."""

    @pytest.mark.parametrize("order,mode,blocks_seen", [
        (16, ConstantShift(7), 4), (16, VariableShift(3, 9), 4),
        (256, ConstantShift(7), 7), (256, VariableShift(3, 9), 7),
    ], ids=["16-const=7", "16-var=3:9", "256-const=7", "256-var=3:9"])
    def test_blocks_give_away_the_square_and_every_later_block(self, order, mode, blocks_seen):
        square = random_latin_square(order, seed=1)
        stream = generate(GeneratorConfig(square, mode), (blocks_seen + 3) * order**2)
        seen, later = np.split(np.frombuffer(stream, np.uint8).reshape(-1, order**2), [blocks_seen])
        if isinstance(mode, VariableShift):
            # each pair's shift s_t - 1 sits in the var cell of block t, transposed: of the
            # cells that hold it, only that one is left after 3 pairs
            cells = [{*zip(*np.nonzero(b0.reshape(order, order).T == shift_scores(b0, b1, order).argmax() - 1))}
                     for b0, b1 in zip(seen[:3], seen[1:4])]
            var_cell = set.intersection(*cells)
            assert var_cell == {(mode.x - 1, mode.y - 1)}
            (x, y), = var_cell

            def shift_of(block):
                return int(block.reshape(order, order).T[x, y]) + 1
        else:
            const = shift_scores(seen[0], seen[1], order).argmax()  # scored once: the same every cycle

            def shift_of(block):
                return const
        table = np.full((order, order), -1)
        for t, (b0, b1) in enumerate(zip(seen, seen[1:]), start=2):
            assert write_cells(table, b0, b1, shift_of(b0)) == 0
            complete(table)
            assert np.array_equal(table, square.table0) == (t == blocks_seen), t
        block = seen[-1]
        for want in later:  # the next 3 blocks, from the recovered key alone
            v = transpose_rotate(block.reshape(order, order), shift_of(block)).ravel()
            block = table[v, np.roll(v, -1)]
            assert np.array_equal(block, want)

    @pytest.mark.parametrize("order", [16, 256])
    def test_random_bytes_name_no_square(self, order):
        blocks_seen = np.random.default_rng(order).integers(0, order, (7, order**2), dtype=np.uint8)
        shift = shift_scores(blocks_seen[0], blocks_seen[1], order).argmax()  # the best of no signal
        table = np.full((order, order), -1)
        conflicts = sum(write_cells(table, b0, b1, shift) for b0, b1 in zip(blocks_seen, blocks_seen[1:]))
        complete(table)
        is_latin = all((np.sort(lines, axis=1) == np.arange(order)).all() for lines in (table, table.T))
        assert conflicts > 0 or not is_latin


class TestGenerate:
    def test_zero_length(self, table1_square):
        config = GeneratorConfig(table1_square, ConstantShift(2), OutputMap.BYTES)
        assert generate(config, 0) == b""

    def test_exact_truncation(self):
        square = random_latin_square(256, seed=1)
        config = GeneratorConfig(square, ConstantShift(7), OutputMap.BYTES)
        data = generate(config, 100_000)
        assert len(data) == 100_000
        # 1 full block plus 34464 bytes of the second
        assert data[:65536] == Engine(config).next_block().tobytes()

    def test_deterministic(self):
        square = random_latin_square(64, seed=4)
        config = GeneratorConfig(square, VariableShift(10, 20), OutputMap.BYTES)
        assert generate(config, 50_000) == generate(config, 50_000)

    def test_order_too_large_for_bytes(self):
        square = random_latin_square(300, seed=2)
        with pytest.raises(OrderTooLargeForBytes):
            GeneratorConfig(square, ConstantShift(1), OutputMap.BYTES)
        config = GeneratorConfig(square, ConstantShift(1), OutputMap.SYMBOLS)
        with pytest.raises(OrderTooLargeForBytes):
            generate(config, 10)

    @pytest.mark.parametrize("length", [0, 1, 24, 25, 26, 82])
    def test_blocks_cut_the_last_block(self, table1_square, length):
        config = GeneratorConfig(table1_square, VariableShift(2, 3), OutputMap.SYMBOLS)
        got = [block.tolist() for block in blocks(config, length)]
        engine = Engine(config)
        full = [engine.next_block().tolist() for _ in range(-(-length // 25))]
        assert got[:-1] == full[:-1]
        assert sum(got, []) == sum(full, [])[:length]

    @pytest.mark.parametrize("order,length,digests", [
        (2, 1003, ("99049e1e4d7a60a6f0657e9654e8c6b8d1a77a2593ef934912c8207c215e68f1",
                   "e6ea34f34c46ae8fab6e2cdb91bd5905bdb21897f6e5757c74c4c164f9e286f4")),
        (4, 10_007, ("074e44d1318b2175f13db97a40d9ba711e4dd7a2ed28308d24d3820325130606",
                     "8abfb00fed934d7ac3fe0104721f6bef7a4ce19b0675aa884101600bbb45fc49")),
        (16, 100_007, ("f05cb69b4fd864d464308478a12ebcf60718da3ad02af7231bbfbb5903c73f64",
                       "b2dcbf8d68f5b3554456b25d50b772d013c6fa512ccb89b54b48275c9bc774eb")),
        (256, 1_000_007, ("e189e8ea338b12f525f0f07ed617560b3cdd8aca6d7d50da27d37e53eaf2206a",
                          "161399fda75e1c127afbc7bca36f31b3d126543c0f3f34b99d917b4875fd5de8")),
    ])
    def test_stream_digests_pinned(self, order, length, digests):
        # the reproducibility contract: sha256 of seed-5 streams, cut mid-block
        square = random_latin_square(order, seed=5)
        for shift, digest in zip((ConstantShift(3), VariableShift(1, 2)), digests):
            assert hashlib.sha256(generate(GeneratorConfig(square, shift), length)).hexdigest() == digest

    def test_peak_memory_one_copy_of_the_stream(self):
        # one buffer, handed over uncopied: a second whole copy would peak at 2x,
        # and a bytes object per 16-byte block near 10x.  At order 256 the stream
        # is long enough that the engine's own ~1 MB of temporaries stays small.
        for order, length in ((4, 250_000), (16, 250_000), (256, 10_000_000)):
            config = GeneratorConfig(random_latin_square(order, seed=1), ConstantShift(3))
            tracemalloc.start()
            try:
                generate(config, length)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * length, (order, peak)

    def test_negative_length(self, table1_square):
        config = GeneratorConfig(table1_square, ConstantShift(2), OutputMap.BYTES)
        with pytest.raises(ValueError):
            generate(config, -1)

    def test_generate_requires_byte_mapping(self, table1_square):
        config = GeneratorConfig(table1_square, ConstantShift(2), OutputMap.SYMBOLS)
        with pytest.raises(ValueError):
            generate(config, 10)

    @pytest.mark.parametrize("bad", [True, False, 3.0, "3"])
    def test_length_must_be_an_integer(self, table1_square, bad):
        # generate(config, True) returned one byte
        config = GeneratorConfig(table1_square, ConstantShift(2), OutputMap.BYTES)
        with pytest.raises(TypeError, match="length must be an integer"):
            generate(config, bad)
        with pytest.raises(TypeError, match="length must be an integer"):
            next(blocks(config, bad))
        assert generate(config, np.int64(7)) == generate(config, 7)


class TestConfigValidation:
    def test_variable_shift_bounds(self, table1_square):
        with pytest.raises(ValueError):
            GeneratorConfig(table1_square, VariableShift(0, 1), OutputMap.SYMBOLS)
        with pytest.raises(ValueError):
            GeneratorConfig(table1_square, VariableShift(1, 6), OutputMap.SYMBOLS)

    def test_negative_constant_rejected(self, table1_square):
        with pytest.raises(ValueError):
            GeneratorConfig(table1_square, ConstantShift(-1), OutputMap.SYMBOLS)

    def test_unsupported_mode_rejected(self, table1_square):
        with pytest.raises(TypeError):
            GeneratorConfig(table1_square, 3, OutputMap.SYMBOLS)

    @pytest.mark.parametrize("output_map", ["bytes", "symbols", None, 0])
    def test_output_map_must_be_an_output_map(self, table1_square, output_map):
        # the map is compared by identity: a string equal to a member's value would run as the symbol map
        with pytest.raises(TypeError, match="unsupported output map"):
            GeneratorConfig(table1_square, ConstantShift(1), output_map)
        assert GeneratorConfig(table1_square, ConstantShift(1), OutputMap("bytes")).output_map is OutputMap.BYTES

    @pytest.mark.parametrize("shift, field", [
        (ConstantShift(True), "ConstantShift.amount"), (ConstantShift(1.5), "ConstantShift.amount"),
        (ConstantShift("2"), "ConstantShift.amount"), (VariableShift(True, 2), "VariableShift.x"),
        (VariableShift(2.0, 3), "VariableShift.x"), (VariableShift(1, np.True_), "VariableShift.y"),
        (VariableShift(1, 2.5), "VariableShift.y"),
    ])
    def test_shift_fields_must_be_integers(self, table1_square, shift, field):
        # True ran as 1; a float failed only at the first cycle, with numpy's own message
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            GeneratorConfig(table1_square, shift, OutputMap.SYMBOLS)

    def test_numpy_integer_shift_fields_are_accepted(self, table1_square):
        for plain, wide in ((ConstantShift(3), ConstantShift(np.int64(3))),
                            (VariableShift(2, 4), VariableShift(np.uint8(2), np.int32(4)))):
            engines = [Engine(GeneratorConfig(table1_square, mode, OutputMap.SYMBOLS)) for mode in (plain, wide)]
            for _ in range(3):
                assert engines[0].next_block().tolist() == engines[1].next_block().tolist()


@pytest.mark.parametrize("copier", [pickle_round_trip, copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_configs_and_mid_stream_engines_survive_pickle_and_copy(copier):
    # the square's __setattr__ forbids every assignment, and unpickling assigned its slots
    for order, mode, output in ((16, VariableShift(2, 3), OutputMap.SYMBOLS), (256, ConstantShift(7), OutputMap.BYTES)):
        config = GeneratorConfig(random_latin_square(order, seed=1), mode, output)
        assert copier(config) == config
        engine = Engine(config)
        engine.next_block()
        twin = copier(engine)
        assert (twin.config, twin.iteration, twin.initialized) == (config, 1, False)
        for _ in range(3):
            assert np.array_equal(twin.next_block(), engine.next_block())
