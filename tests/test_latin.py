import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrand import (
    DuplicateInColumn,
    DuplicateInRow,
    LatinSquare,
    LatinSquareError,
    NotSquare,
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


def test_equality_and_hash():
    a = validate([[1, 2], [2, 1]])
    b = validate([[1, 2], [2, 1]])
    c = validate([[2, 1], [1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != [[1, 2], [2, 1]]


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


_OUT_OF_RANGE = [0, -1, 2**63, 2**70, np.int64(-7), np.uint64(2**64 - 1)]
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


class TestAgainstReference:
    @given(rows=mutated_grids())
    @settings(max_examples=400, deadline=None)
    def test_validate(self, rows):
        assert _outcome(validate, rows) == _outcome(validate_reference, rows)

    @given(text=mutated_texts())
    @settings(max_examples=400, deadline=None)
    def test_parse_text(self, text):
        assert _outcome(parse_text, text) == _outcome(parse_text_reference, text)

    @pytest.mark.parametrize("order", [16, 256])
    def test_valid_squares(self, order):
        square = random_latin_square(order, seed=order)
        assert _outcome(validate, square.rows()) == _outcome(validate_reference, square.rows())
        assert _outcome(parse_text, to_text(square)) == _outcome(parse_text_reference, to_text(square))
