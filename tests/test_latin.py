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

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange) as exc:
            validate([[1, 5], [5, 1]])
        assert (exc.value.row, exc.value.col) == (1, 2)
        with pytest.raises(SymbolOutOfRange):
            validate([[0, 1], [1, 0]])

    def test_non_integer_entry(self):
        with pytest.raises(SymbolOutOfRange):
            validate([[1.0, 2], [2, 1]])

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
