import copy
import pickle
import re
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrand import (
    DuplicateInColumn,
    DuplicateInRow,
    InsufficientInput,
    LatinSquare,
    LatinSquareError,
    NotSquare,
    OrderTooLargeForBytes,
    OrderTooSmall,
    ParseError,
    SymbolOutOfRange,
    parse_text,
    random_latin_square,
    to_text,
    validate,
)

from qgrand import latin

from conftest import TABLE1


class TestValidate:
    def test_table1_is_valid_order_5(self):
        square = validate(TABLE1)
        assert square.order == 5
        assert square.rows() == TABLE1

    def test_identity_1x1(self):
        assert validate([[1]]).order == 1

    def test_duplicate_in_row(self):
        grid = [
            [1, 1, 2, 3, 4],
            [2, 3, 4, 5, 1],
            [3, 4, 5, 1, 2],
            [4, 5, 1, 2, 3],
            [5, 2, 3, 4, 1],
        ]
        with pytest.raises(DuplicateInRow) as exc:
            validate(grid)
        assert exc.value.row == 1

    def test_duplicate_in_column(self):
        # rows are fine (each a permutation), column 1 repeats
        grid = [[1, 2, 3], [1, 3, 2], [2, 1, 3]]
        with pytest.raises(DuplicateInColumn) as exc:
            validate(grid)
        assert exc.value.col == 1

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate([[1, 2], [1]])
        with pytest.raises(NotSquare):
            validate([[1, 2, 3], [2, 3, 1]])
        with pytest.raises(NotSquare):
            validate([])

    def test_constructor_rejects_a_non_square_table(self):
        with pytest.raises(NotSquare):
            LatinSquare(np.zeros((2, 3), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2), (0, 0), ()])
    def test_constructor_names_the_shape_of_a_table_that_is_not_n_by_n(self, shape):
        with pytest.raises(NotSquare) as exc:
            LatinSquare(np.zeros(shape, dtype=np.uint8))
        assert str(exc.value) == f"table of shape {shape} is not n x n with n >= 1"

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange) as exc:
            validate([[1, 5], [5, 1]])
        assert (exc.value.row, exc.value.col) == (1, 2)
        with pytest.raises(SymbolOutOfRange):
            validate([[0, 1], [1, 0]])

    def test_non_integer_entry(self):
        with pytest.raises(SymbolOutOfRange):
            validate([[1.0, 2], [2, 1]])

    @pytest.mark.parametrize("entry", [True, False, np.True_])
    def test_bool_entry_is_not_an_integer(self, entry):
        with pytest.raises(SymbolOutOfRange) as exc:
            validate([[1, 2], [entry, 1]])
        assert (exc.value.row, exc.value.col) == (2, 1)
        assert str(exc.value) == "entry at (2,1) is not an integer"

    def test_integer_beyond_int64_is_out_of_range(self):
        with pytest.raises(SymbolOutOfRange) as exc:
            validate([[1, 2], [2, 2**64]])
        assert str(exc.value) == f"entry {2**64} at (2,2) outside 1..2"
        with pytest.raises(SymbolOutOfRange, match=f"entry {2**64} at"):
            parse_text(f"2\n1 2\n2 {2**64}\n")
        with pytest.raises(SymbolOutOfRange, match=f"entry {2**63} at"):  # beside a negative symbol
            parse_text(f"2\n{2**63} -1\n1 2\n")

    def test_most_negative_int64_is_named_as_given(self):
        # 1 less than -2**63 is no int64, so building the 0-based table must not wrap it
        with pytest.raises(SymbolOutOfRange) as exc:
            validate([[-2**63, 1], [1, 2]])
        assert str(exc.value) == "entry -9223372036854775808 at (1,1) outside 1..2"
        with pytest.raises(SymbolOutOfRange) as exc:
            parse_text("2\n-9223372036854775808 1\n1 2\n")
        assert str(exc.value) == "entry -9223372036854775808 at (1,1) outside 1..2"

    @pytest.mark.parametrize("table, error", [
        (np.array([[300, 1], [1, -1]]), (SymbolOutOfRange, "entry 301 at (1,1) outside 1..2", {"row": 1, "col": 1})),
        (np.array([[256, 1], [1, 0]], dtype=np.uint16),  # 256 would wrap to 0 in uint8
         (SymbolOutOfRange, "entry 257 at (1,1) outside 1..2", {"row": 1, "col": 1})),
        (np.array([[0, 1, 2], [0, 1, 2], [1, 2, 0]]), (DuplicateInColumn, "column 1 repeats a symbol", {"col": 1})),
        (np.array([[0, 0, 1], [1, 1, 2], [2, 2, 0]]), (DuplicateInRow, "row 1 repeats a symbol", {"row": 1})),
        (np.array([[0, 1], [1, 0.5]]), (SymbolOutOfRange, "entry at (1,1) is not an integer", {"row": 1, "col": 1})),
        (np.array([[0.0, 1.0], [1.0, 0.0]]),
         (SymbolOutOfRange, "entry at (1,1) is not an integer", {"row": 1, "col": 1})),
    ], ids=["out-of-range", "wraps-in-uint8", "repeated-row", "repeated-column", "float-half", "float"])
    def test_constructor_checks_the_latin_property(self, table, error):
        assert _outcome(LatinSquare, table) == error

    @pytest.mark.parametrize("table0", [
        random_latin_square(256, seed=5).table0,
        np.array(TABLE1) - 1,
        [[0, 1, 2], [0, 1, 2], [1, 2, 0]],
        [[0, 0, 1], [1, 1, 2], [2, 2, 0]],
        [[127, 1], [1, 0]],
    ], ids=["order-256", "table1", "repeated-column", "repeated-row", "out-of-range"])
    def test_one_byte_tables_read_as_wider_ones(self, table0):
        # the constructor sorts a one-byte table widened to int16: only the time may differ
        for narrow, wide in ((np.uint8, np.uint16), (np.int8, np.int16)):
            if np.max(table0) > np.iinfo(narrow).max:  # order 256 has no int8 table
                continue
            assert _outcome(LatinSquare, np.asarray(table0, narrow)) == _outcome(LatinSquare, np.asarray(table0, wide))

    def test_row_violations_reported_before_columns(self):
        # row 2 duplicate and column 1 duplicate; the row wins
        grid = [[1, 2, 3], [1, 1, 2], [2, 3, 1]]
        with pytest.raises(DuplicateInRow) as exc:
            validate(grid)
        assert exc.value.row == 2


class TestAdjointOperations:
    def test_lookup_worked_examples(self, table1_square):
        assert table1_square.lookup(2, 1) == 5
        assert table1_square.lookup(1, 5) == 4
        # the u=2, v=3 solvability example: both solutions are 5
        assert table1_square.lookup(2, 5) == 3
        assert table1_square.lookup(5, 2) == 3

    def test_left_divide_examples(self, table1_square):
        assert table1_square.left_divide(2, 3) == 5
        assert table1_square.left_divide(1, 2) == 1

    def test_right_divide_examples(self, table1_square):
        assert table1_square.right_divide(3, 2) == 5
        assert table1_square.right_divide(1, 1) == 5

    def test_out_of_range_arguments(self, table1_square):
        with pytest.raises(SymbolOutOfRange):
            table1_square.lookup(0, 1)
        with pytest.raises(SymbolOutOfRange):
            table1_square.lookup(1, 6)
        with pytest.raises(SymbolOutOfRange):
            table1_square.left_divide(6, 1)
        with pytest.raises(SymbolOutOfRange):
            table1_square.right_divide(1, -2)

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 16])
    def test_adjoint_round_trips_exhaustive(self, order):
        square = random_latin_square(order, seed=order * 101)
        for x in range(1, order + 1):
            for y in range(1, order + 1):
                z = square.lookup(x, y)
                assert square.left_divide(x, z) == y
                assert square.right_divide(z, y) == x

    @pytest.mark.parametrize("order", [2, 3, 5, 8, 16])
    def test_unique_solvability_exhaustive(self, order):
        square = random_latin_square(order, seed=order + 7)
        for u in range(1, order + 1):
            for v in range(1, order + 1):
                xs = [x for x in range(1, order + 1) if square.lookup(u, x) == v]
                ys = [y for y in range(1, order + 1) if square.lookup(y, u) == v]
                assert len(xs) == 1 and len(ys) == 1


class TestRandomLatinSquare:
    def test_order_2_is_one_of_the_two(self):
        square = random_latin_square(2, seed=42)
        assert square.rows() in ([[1, 2], [2, 1]], [[2, 1], [1, 2]])

    def test_deterministic(self):
        assert random_latin_square(7, 123) == random_latin_square(7, 123)
        assert random_latin_square(7, 123) != random_latin_square(7, 124)

    @pytest.mark.parametrize("order", [2, 3, 5, 16, 256])
    def test_output_always_validates(self, order):
        square = random_latin_square(order, seed=1)
        assert validate(square.rows()) == square

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            random_latin_square(1, 0)
        with pytest.raises(OrderTooSmall):
            random_latin_square(0, 0)

    def test_order_above_maximum_rejected_before_any_draw(self, monkeypatch):
        def no_draws(self, n):
            raise AssertionError("drew a permutation")

        monkeypatch.setattr(latin._Mix64, "permutation", no_draws)
        with pytest.raises(LatinSquareError):
            random_latin_square(latin.MAX_ORDER + 1, 1)

    def test_element_width_is_one_byte_up_to_256(self):
        assert random_latin_square(256, 1).table0.dtype.itemsize == 1
        assert random_latin_square(257, 1).table0.dtype.itemsize == 2


class TestImmutability:
    def test_table_is_read_only(self, table1_square):
        with pytest.raises(ValueError):
            table1_square.table0[0, 0] = 3

    def test_attributes_frozen(self, table1_square):
        with pytest.raises(AttributeError):
            table1_square.order = 6

    @pytest.mark.parametrize("copier", [lambda sq: pickle.loads(pickle.dumps(sq)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("order", [5, 256, 300])
    def test_survives_pickle_and_copy(self, copier, order):
        # each rebuilds through the constructor: setting the slots directly meets __setattr__
        square = random_latin_square(order, seed=3)
        twin = copier(square)
        assert twin == square and hash(twin) == hash(square)
        assert twin.table0.dtype == square.table0.dtype and not twin.table0.flags.writeable
        with pytest.raises(AttributeError):
            twin.order = 6


class TestTextFormat:
    def test_table1_round_trip(self, table1_square):
        assert parse_text(to_text(table1_square)) == table1_square

    def test_comments_and_blank_lines(self):
        text = "# seed square\n\n2\n1 2\n# middle comment\n2 1\n"
        assert parse_text(text).rows() == [[1, 2], [2, 1]]

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_text("")

    @pytest.mark.parametrize("order_line,col", [("2 1", None), ("two", 1), ("0", 1)])
    def test_bad_order_line(self, order_line, col):
        with pytest.raises(ParseError) as exc:
            parse_text(f"# header\n{order_line}\n1 2\n2 1\n")
        assert (exc.value.line, exc.value.col) == (2, col)

    def test_missing_rows(self):
        with pytest.raises(ParseError):
            parse_text("5\n2 1 5 3 4\n5 4 2 1 3\n3 5 1 4 2\n4 2 3 5 1\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError):
            parse_text("2\n1 2\n2 1\n1 2\n")

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_text("2\n1 x\n2 1\n")
        assert exc.value.line == 2
        assert exc.value.col == 2

    def test_wrong_row_width(self):
        with pytest.raises(ParseError):
            parse_text("3\n1 2 3\n2 3\n3 1 2\n")

    def test_invalid_square_fails_validation_not_parsing(self):
        with pytest.raises(DuplicateInRow):
            parse_text("2\n1 1\n2 1\n")

    @given(order=st.integers(2, 12), seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_identity(self, order, seed):
        square = random_latin_square(order, seed)
        assert parse_text(to_text(square)) == square

    @pytest.mark.parametrize("rewrite", [
        lambda t: "+" + t,
        lambda t: "0" + t,
        lambda t: t[0] + "_" + t[1:] if len(t) > 1 else t,
        lambda t: "".join(chr(0x660 + int(d)) for d in t),  # Arabic-Indic digits
    ], ids=["plus", "leading-zero", "underscore", "non-ascii-digits"])
    def test_symbols_are_read_as_int_reads_them(self, rewrite):
        square = random_latin_square(12, seed=5)
        order, *rows = to_text(square).splitlines()
        assert parse_text("\n".join([order, *(" ".join(map(rewrite, r.split())) for r in rows)])) == square

    @pytest.mark.parametrize("order", [1, *range(2, 40), 99, 100, 101, 255, 256, 257, 300, 1000])
    def test_text_is_the_row_list_formula(self, order):
        # the writer formats one row at a time; its bytes are those of the whole-table formula
        for square in [validate([[1]])] if order == 1 else [random_latin_square(order, s) for s in (1, 2, 3)]:
            text = to_text(square)
            assert text == "\n".join([str(order), *(" ".join(map(str, row)) for row in square.rows())]) + "\n"
            assert parse_text(text) == square

    @pytest.mark.parametrize("fn, edit, error, bound", [
        (parse_text, None, None, 2),
        (parse_text, lambda t: t.replace("\n", "\r\n"), None, 2),
        (parse_text, lambda t: re.sub(r"\n(\d+) (\d+) ", r"\n\2 \2 ", t, count=1), DuplicateInRow, 2),
        (parse_text, lambda t: t[:t.rindex(" ") + 1] + "0\n", SymbolOutOfRange, 2),
        (to_text, None, None, 5),
    ], ids=["parse_text", "parse_text-crlf", "parse_text-repeat-in-row-1", "parse_text-last-cell-0", "to_text"])
    def test_peak_memory_at_order_1024(self, fn, edit, error, bound):
        # a whole-file token list took 22.8x the text, and formatting rows() as lists of
        # Python ints 10.2x.  Reading each row as it is popped from the line list, keeping it
        # narrow and dropping the row list once the table is made, takes 1.31x, most of it the
        # line list; a whole-text numpy read beside a row-by-row reader took 2.3x, and int64
        # tables beside its values 8.5-10.5x
        square = random_latin_square(1024, seed=1)
        text = to_text(square) if edit is None else edit(to_text(square))
        tracemalloc.start()
        try:
            with pytest.raises(error) if error else nullcontext():
                fn(text if fn is parse_text else square)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(text), peak / len(text)

    def test_out_of_range_symbol_costs_what_a_valid_parse_does(self):
        # each row is checked against 1..n as it is read and kept narrow: walking every
        # row as numpy scalars took 18x the text, int64 tables beside a whole-text read's values
        # 8.9x, and a reader that reread a rejected whole-text read row by row 2.5x
        text = to_text(random_latin_square(512, seed=1))
        text = text[:text.rindex(" ") + 1] + "0\n"  # the last symbol
        tracemalloc.start()
        try:
            with pytest.raises(SymbolOutOfRange, match=r"^entry 0 at \(512,512\) outside 1\.\.512$"):
                parse_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text), peak / len(text)

    @pytest.mark.parametrize("text, order, line", [("1000000000\n", 1000000000, 1),
                                                   ("# big\n65536\n\n# no rows\n", 65536, 4)])
    def test_order_line_without_rows_allocates_no_table(self, text, order, line):
        # nothing of size order^2 is made before the rows are seen
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_text(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"line {line}: expected {order} rows, got 0"
        assert peak < 2**20


    @pytest.mark.parametrize("order", [1, 2, 9, 10, 16, 99, 100, 101, 256, 300])
    def test_own_layout_is_read_in_one_call(self, order, monkeypatch):
        # numpy reads each row of to_text's layout in one call, at every digit width; int()
        # reads the order line, and no token of any row
        square = validate([[1]]) if order == 1 else random_latin_square(order, seed=order)
        text = to_text(square)
        calls = []

        def counted(token, *where):
            calls.append(token)
            return int(token)

        monkeypatch.setattr(latin, "_int", counted)
        assert parse_text(text) == square
        assert calls == [str(order)]


def test_equality_and_hash():
    a = validate([[1, 2], [2, 1]])
    b = validate([[1, 2], [2, 1]])
    c = validate([[2, 1], [1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != [[1, 2], [2, 1]]


@pytest.mark.parametrize("exc", [
    LatinSquareError("bad"), NotSquare("table of shape (2, 3)"), OrderTooSmall("order 1"),
    SymbolOutOfRange("entry at (1,2) is 9", 1, 2), DuplicateInRow(3), DuplicateInColumn(4),
    ParseError("bad token", 3, 2), ParseError("missing row", 5), InsufficientInput(10, 5),
    OrderTooLargeForBytes("order 300 > 256"),
], ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickle(exc):
    # the default unpickling calls __init__ with the formatted message: a TypeError for
    # InsufficientInput and ParseError, "row row 3 repeats a symbol repeats a symbol" for DuplicateInRow
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(exc, protocol))
        assert type(copy) is type(exc)
        assert (str(copy), copy.args, vars(copy)) == (str(exc), exc.args, vars(exc))


def test_internal_table_is_zero_based():
    square = validate(TABLE1)
    assert int(square.table0[1, 0]) == 4  # symbol 5 at row 2, column 1
    assert np.array_equal(np.sort(square.table0[0]), np.arange(5))


def validate_reference(grid):
    """`validate` as first written, one cell at a time: the slow reference for
    its first reported violation, exception types and messages."""
    rows = [list(r) for r in grid]
    n = len(rows)
    if n == 0:
        raise NotSquare("empty grid")
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise NotSquare(f"row {i} has {len(row)} entries, expected {n}")
    for i, row in enumerate(rows, start=1):
        for j, v in enumerate(row, start=1):
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise SymbolOutOfRange(f"entry at ({i},{j}) is not an integer", i, j)
            if not 1 <= v <= n:
                raise SymbolOutOfRange(f"entry {v} at ({i},{j}) outside 1..{n}", i, j)
        if len(set(row)) != n:
            raise DuplicateInRow(i)
    for j in range(1, n + 1):
        if len({row[j - 1] for row in rows}) != n:
            raise DuplicateInColumn(j)
    return LatinSquare(np.array(rows, dtype=np.int64) - 1)


def parse_text_reference(text):
    """`parse_text` as first written, one line and one token at a time: the
    slow reference for its errors and their line and token numbers."""
    order = None
    rows = []
    lineno = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if order is None:
            if len(tokens) != 1:
                raise ParseError("expected a single order value", lineno)
            try:
                order = int(tokens[0])
            except ValueError:
                raise ParseError(f"order {tokens[0]!r} is not an integer", lineno, 1) from None
            if order < 1:
                raise ParseError(f"order must be positive, got {order}", lineno, 1)
            continue
        if len(rows) == order:
            raise ParseError("unexpected content after the last row", lineno)
        if len(tokens) != order:
            raise ParseError(f"expected {order} symbols, got {len(tokens)}", lineno)
        row = []
        for colno, tok in enumerate(tokens, start=1):
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(f"symbol {tok!r} is not an integer", lineno, colno) from None
        rows.append(row)
    if order is None:
        raise ParseError("empty input", 1)
    if len(rows) != order:
        raise ParseError(f"expected {order} rows, got {len(rows)}", lineno)
    return validate_reference(rows)


def _outcome(fn, arg):
    """What `fn(arg)` gives: the square's table, or the error's type, message
    and attributes."""
    try:
        square = fn(arg)
    except LatinSquareError as exc:
        return type(exc), str(exc), vars(exc)
    return square.table0.dtype, square.table0.tolist()


_OUT_OF_RANGE = [0, -1, -2**63, 2**63, 2**70, np.int64(-7), np.uint64(2**64 - 1)]
_BAD_TOKENS = ["x", "1.5", "0x1", "1__0", "_1", "--1", "1e2", "١x"]


@st.composite
def mutated_grids(draw):
    """A random Latin square's rows with up to four cells or rows spoiled:
    out of range, repeated in a row or (by a swap) in a column, a float, a
    bool, an np.int64, or a row one cell too long or short."""
    order = draw(st.integers(1, 7))
    rows = random_latin_square(order, draw(st.integers(0, 2**64 - 1))).rows() if order > 1 else [[1]]
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, order - 1))]
        j, k = draw(st.integers(0, order)), draw(st.integers(0, order))
        if not row:
            continue
        j, k = j % len(row), k % len(row)
        kind = draw(st.sampled_from(["range", "row", "column", "float", "bool", "int64", "width"]))
        if kind == "range":
            row[j] = draw(st.sampled_from([*_OUT_OF_RANGE, order + 1]))
        elif kind == "row":
            row[j] = row[k]
        elif kind == "column":
            row[j], row[k] = row[k], row[j]
        elif kind == "float":
            row[j] = float(j + 1)
        elif kind == "bool":
            row[j] = draw(st.sampled_from([True, False, np.True_]))
        elif kind == "int64" and type(row[j]) is int and abs(row[j]) < 2**63:
            row[j] = np.int64(row[j])
        elif kind == "width":
            row[j:j + 1] = [row[j], order] if draw(st.booleans()) else []
    return rows


def _render(token: str, how: str) -> str:
    if how == "plus":
        return "+" + token
    if how == "zero":
        return "0" + token
    return token[0] + "_" + token[1:] if len(token) > 1 else token


@st.composite
def mutated_texts(draw):
    """A mutated grid in the text format, with up to four more changes: a
    bad token, a symbol written '+1', '01' or '1_0', a comment or blank line,
    a line dropped or repeated, or another order line."""
    rows = draw(mutated_grids())
    lines = [str(len(rows)), *(" ".join(map(str, row)) for row in rows)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["token", "plus", "zero", "underscore", "comment", "blank",
                                     "drop", "repeat", "order"]))
        if kind in ("comment", "blank"):
            lines.insert(i, draw(st.sampled_from(["# note", "  #", "#1 2"] if kind == "comment"
                                                 else ["", "  ", "\t"])))
        elif kind == "order":
            lines.insert(i, draw(st.sampled_from(["2", "two", "0", "-3", "2 1", "+3"])))
        elif i < len(lines) and kind in ("drop", "repeat"):
            lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
        elif i < len(lines) and lines[i].split():
            tokens = lines[i].split()
            t = draw(st.integers(0, len(tokens) - 1))
            tokens[t] = draw(st.sampled_from(_BAD_TOKENS)) if kind == "token" else _render(tokens[t], kind)
            lines[i] = draw(st.sampled_from([" ", "\t", "  "])).join(tokens)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _move_a_token_up(text):
    """The first symbol of row 2 moved to the end of row 1: n + 1 and n - 1 symbols, n * n in all."""
    head, row1, row2, rest = text.split("\n", 3)
    first, others = row2.split(" ", 1)
    return "\n".join([head, f"{row1} {first}", others, rest])


def _join_rows_with_tabs(text):
    """Rows 1 and 2 as one line, with a tab between them and for 15 of its 30 spaces: every
    line holds 15 spaces, but there are 15 lines, and 256 tokens in all at order 16."""
    head, row1, row2, rest = text.split("\n", 3)
    return "\n".join([head, f"{row1}\t{row2}".replace(" ", "\t", 15), rest])


def _split_the_last_row(text):
    """No final newline, and the last row's first space a newline: 16 lines and 256
    separators, but the last line holds 15 spaces only with a two-digit token split."""
    *rows, last = text[:-1].split("\n")
    return "\n".join([*rows, _split_a_token(last.replace(" ", "\n", 1), " ")])


def _split_a_token(row, sep="\t"):
    """The row with its first two-digit token split in two by `sep`."""
    return re.sub(r"\b(\d)(\d)\b", rf"\1{sep}\2", row, count=1)


def _row1(edit):
    """The text with `edit` applied to its first row."""
    def apply(text):
        head, row1, rest = text.split("\n", 2)
        return "\n".join([head, edit(row1), rest])
    return apply


class TestAgainstReference:
    @given(rows=mutated_grids())
    @settings(max_examples=400, deadline=None)
    def test_validate(self, rows):
        expected = _outcome(validate_reference, rows)
        assert _outcome(validate, rows) == expected
        # the constructor checks a 0-based table the same way, where one exists in int64
        if all(len(row) == len(rows) for row in rows) and all(
                isinstance(v, (int, np.integer)) and not isinstance(v, bool) and -2**63 < v < 2**63
                for row in rows for v in row):
            assert _outcome(LatinSquare, np.array(rows, dtype=np.int64) - 1) == expected

    @given(text=mutated_texts())
    @settings(max_examples=400, deadline=None)
    def test_parse_text(self, text):
        assert _outcome(parse_text, text) == _outcome(parse_text_reference, text)

    # edits of to_text's layout: each edited row must be read as int() reads it, or its error
    # named.  numpy clamps 2**64 + 1 to 2**63 - 1, and another numpy may wrap it to 1
    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n1 ", "\n18446744073709551617 ", 1),
        lambda t: t.replace("\n1 ", "\n9223372036854775808 ", 1),
        lambda t: t.replace("\n1 ", "\n0000000000000000000001 ", 1),
        lambda t: t.replace(" 1 ", " 0000000000000000000001 ", 1),
        lambda t: "0" + t,
        lambda t: t.replace("\n", " \n"),
        lambda t: t.replace("\n", " \n", 2),
        lambda t: t.replace(" ", "  ", 1),
        lambda t: t.replace("\n", "\n ", 2),
        lambda t: t.replace(" ", "\t", 1),
        lambda t: t[:-1],
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t + "\n",
        lambda t: t.replace("\n", "\n\n", 1),
        lambda t: t.replace("\n", " ", 2).replace(" ", "\n", 1),
        _move_a_token_up,
        _join_rows_with_tabs,
        _row1(lambda r: " " + r.replace(" ", "", 1)),
        _row1(lambda r: r.replace(" ", "", 1).replace(" ", "  ", 1)),
        _row1(_split_a_token),
        _row1(lambda r: re.sub(r"\b(\d)\d\b", r"\1", _split_a_token(r), count=1)),
        _split_the_last_row,
        lambda t: "²" + t[2:],
        lambda t: t.replace("\n", "\n+", 1),
        lambda t: t.replace(" 16 ", " 17 ", 1),
        lambda t: t.replace(" 16 ", " 0 ", 1),
        lambda t: t.replace(" 1 ", " 01 ", 1),
        lambda t: "0\n",
        lambda t: "00\n",
        lambda t: "0\n\n",
        lambda t: "16\n",
        lambda t: "1" * 5000 + "\n" + t.split("\n")[1] + "\n",
        lambda t: "4294967312" + t[2:],  # int32 wraps the order to the body's 16
        lambda t: "4294967295" + t[2:],  # and this one to -1
        lambda t: "",
        lambda t: "\n",  # numpy reads a text of whitespace as a lone 0
        lambda t: "  \n \n",
        lambda t: t[:-1] + "\ud800\n",  # a lone surrogate, which str.encode() refuses
    ], ids=["2**64+1", "2**63", "22-digit-1", "22-digit-1-mid-row", "order-016", "trailing-spaces",
            "one-trailing-space", "double-space", "leading-space", "tab", "no-final-newline", "crlf",
            "blank-last-line", "blank-line", "rows-rejoined", "token-moved", "rows-joined-by-tabs",
            "leading-space-tokens-merged", "double-space-tokens-merged", "tab-in-a-token",
            "tab-in-a-token-another-shortened", "last-row-split", "superscript-order", "plus", "out-of-range", "zero",
            "token-01", "order-0", "order-00", "order-0-blank-line", "no-rows", "5000-digit-order",
            "order-2**32+16", "order-2**32-1", "empty", "newline-only", "whitespace-only", "lone-surrogate"])
    def test_layout_edges(self, edit):
        text = edit(to_text(random_latin_square(16, seed=1)))
        assert text != to_text(random_latin_square(16, seed=1))
        assert _outcome(parse_text, text) == _outcome(parse_text_reference, text)

    # the table is uint16 above order 256; numpy reads every row but the edited ones, with LF
    # or CRLF ends.  Cells are set as (line, token, text), where text's {} is the token it
    # replaces and None repeats the token to its right; a text that holds a square expects its dtype
    @pytest.mark.parametrize("order", [257, 300])
    @pytest.mark.parametrize("cells, error", [
        ([(2, 0, None), (5, 0, "0")], DuplicateInRow),
        ([(2, 0, "0"), (5, 0, None)], SymbolOutOfRange),
        ([(2, 0, None), (3, 7, "18446744073709551617")], DuplicateInRow),
        ([(-1, 3, "-9223372036854775808")], SymbolOutOfRange),
        ([(4, 0, "0"), (-1, -1, "x")], ParseError),
        ([(2, 5, "0{}"), (7, -1, "00{}")], np.dtype(np.uint16)),
        ([(3, 0, "+5"), (3, 1, "+5")], DuplicateInRow),
        ([(3, 2, "+{}"), (6, 0, "0{}"), (6, 1, "+0{}")], np.dtype(np.uint16)),
    ], ids=["repeat-above-0", "0-above-repeat", "beyond-int64-below-repeat", "most-negative-in-last-row",
            "bad-token-after-out-of-range", "leading-zero", "plus-5-repeated", "plus-and-leading-zero"])
    def test_uint16_orders(self, order, cells, error):
        lines = [line.split(" ") for line in to_text(random_latin_square(order, seed=order)).splitlines()]
        for line, token, value in cells:
            lines[line][token] = lines[line][token + 1] if value is None else value.format(lines[line][token])
        for end in ("\n", "\r\n"):
            text = end.join(map(" ".join, lines)) + end
            outcome = _outcome(parse_text, text)
            assert outcome == _outcome(parse_text_reference, text)
            assert outcome[0] is error

    def test_overflowing_token_under_a_wrapping_parse(self, monkeypatch):
        # another numpy may wrap a token beyond int64 instead of clamping it: 2**64 + 1
        # must not read as the 1 it replaced, in a uint8 or a uint16 table
        def wrapping_fromstring(raw, dtype, sep):
            return np.array([(int(t) + 2**63) % 2**64 - 2**63 for t in raw.split()], dtype)

        monkeypatch.setattr(np, "fromstring", wrapping_fromstring)
        for order in (16, 300):
            text = to_text(random_latin_square(order, seed=1)).replace("\n1 ", f"\n{2**64 + 1} ", 1)
            assert _outcome(parse_text, text) == _outcome(parse_text_reference, text)

    @pytest.mark.parametrize("order", [16, 256])
    def test_valid_squares(self, order):
        square = random_latin_square(order, seed=order)
        assert _outcome(validate, square.rows()) == _outcome(validate_reference, square.rows())
        assert _outcome(parse_text, to_text(square)) == _outcome(parse_text_reference, to_text(square))
