"""Latin squares (quasigroups): validation, lookup/division, construction, text I/O.

A Latin square of order n is an n x n table over the symbols 1..n in which
every symbol occurs exactly once per row and once per column.  Symbols are
1-based everywhere in the public API; storage is 0-based.
"""

from __future__ import annotations

import copyreg
from contextlib import suppress
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_ORDER = 65536


class LatinSquareError(ValueError):
    """Base class for Latin square validation and parse failures."""

    def __reduce__(self):  # unpickled without __init__, which would format `args` again
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


class NotSquare(LatinSquareError):
    pass


class SymbolOutOfRange(LatinSquareError):
    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class DuplicateInRow(LatinSquareError):
    def __init__(self, row: int):
        super().__init__(f"row {row} repeats a symbol")
        self.row = row


class DuplicateInColumn(LatinSquareError):
    def __init__(self, col: int):
        super().__init__(f"column {col} repeats a symbol")
        self.col = col


class OrderTooSmall(LatinSquareError):
    pass


class ParseError(LatinSquareError):
    def __init__(self, message: str, line: int, col: int | None = None):
        where = f"line {line}" if col is None else f"line {line}, token {col}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


class LatinSquare:
    """Immutable order-n Latin square.

    `table0` is the read-only numpy grid holding symbol-1 values, so an
    order-256 square occupies exactly 256*256 one-byte cells.  The constructor
    checks a table before narrowing it, raising what `validate(table0 + 1)` would.
    """

    __slots__ = ("order", "table0")

    def __init__(self, table0: np.ndarray):
        if table0.ndim != 2 or table0.shape[0] != table0.shape[1] or table0.size == 0:
            raise NotSquare(f"table of shape {table0.shape} is not n x n with n >= 1")
        n = table0.shape[0]
        if n > MAX_ORDER:
            raise LatinSquareError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        if table0.dtype.kind not in "iu":  # as in validate, no float or bool cell is an integer
            raise SymbolOutOfRange("entry at (1,1) is not an integer", 1, 1)
        if table0.itemsize == 1:  # exact; numpy sorts int16 ~10-40x faster than 8-bit integers
            table0 = table0.astype(np.int16)
        _check_rows(table0)
        bad_cols = np.flatnonzero((np.sort(table0, axis=0) != np.arange(n)[:, None]).any(axis=0))
        if bad_cols.size:
            raise DuplicateInColumn(int(bad_cols[0]) + 1)
        table0 = np.ascontiguousarray(table0, dtype=np.uint8 if n <= 256 else np.uint16)
        table0.flags.writeable = False
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table0", table0)

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

    def __reduce__(self):  # pickle and copy rebuild through the constructor, not __setattr__
        return LatinSquare, (self.table0,)

    def __eq__(self, other):
        return isinstance(other, LatinSquare) and bool(np.array_equal(self.table0, other.table0))

    def __hash__(self):
        return hash((self.order, self.table0.tobytes()))

    def __repr__(self):
        return f"LatinSquare(order={self.order})"

    def rows(self) -> list[list[int]]:
        """The table as 1-based row lists."""
        return (self.table0.astype(np.int64) + 1).tolist()

    def _check_symbols(self, **symbols: int) -> None:
        for name, value in symbols.items():
            if not 1 <= value <= self.order:
                raise SymbolOutOfRange(f"{name}={value} outside 1..{self.order}")

    def lookup(self, x: int, y: int) -> int:
        """Table lookup: the symbol in row x, column y (both 1-based)."""
        self._check_symbols(x=x, y=y)
        return int(self.table0[x - 1, y - 1]) + 1

    def left_divide(self, x: int, z: int) -> int:
        """The unique y with lookup(x, y) == z."""
        self._check_symbols(x=x, z=z)
        return int(np.nonzero(self.table0[x - 1] == z - 1)[0][0]) + 1

    def right_divide(self, z: int, y: int) -> int:
        """The unique x with lookup(x, y) == z."""
        self._check_symbols(z=z, y=y)
        return int(np.nonzero(self.table0[:, y - 1] == z - 1)[0][0]) + 1


def _check_row(row, i: int, n: int) -> None:
    """Raise row i's first violation: a bad cell first, then a repeated symbol."""
    for j, v in enumerate(row, start=1):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise SymbolOutOfRange(f"entry at ({i},{j}) is not an integer", i, j)
        if not 1 <= v <= n:
            raise SymbolOutOfRange(f"entry {v} at ({i},{j}) outside 1..{n}", i, j)
    if len(set(row)) != n:
        raise DuplicateInRow(i)


def _check_rows(table: np.ndarray) -> None:
    """Raise the first violation of the first row of symbol-1 values not a permutation of 0..n-1."""
    n = table.shape[1]
    bad = np.flatnonzero((np.sort(table, axis=1) != np.arange(n)).any(axis=1))
    if bad.size:  # named in 1-based symbols, as Python ints: no wrap
        _check_row([v + 1 for v in table[bad[0]].tolist()], int(bad[0]) + 1, n)


def validate(grid: Iterable[Sequence[int]]) -> LatinSquare:
    """Check the Latin property and wrap the grid.

    Reports the first violation found scanning rows top-to-bottom (symbol
    range cell by cell, then row duplicates), then columns left-to-right.
    """
    rows = [list(r) for r in grid]
    n = len(rows)
    if n == 0:
        raise NotSquare("empty grid")
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise NotSquare(f"row {i} has {len(row)} entries, expected {n}")
    types = set(map(type, chain.from_iterable(rows)))
    if bool not in types and all(issubclass(t, (int, np.integer)) for t in types):
        with suppress(OverflowError):  # from np.array: an integer beyond int64 is out of range
            if 1 <= (table := np.array(rows, dtype=np.int64)).min() and table.max() <= n:
                return LatinSquare(table - 1)
    for i, row in enumerate(rows, start=1):  # some cell is invalid, so some row raises
        _check_row(row, i, n)
    raise AssertionError("a grid with an invalid cell passed every row check")


_MASK64 = (1 << 64) - 1


class _Mix64:
    """Fixed 64-bit mixing generator (splitmix64) used to expand square seeds.

    The exact constants are part of the on-disk reproducibility contract:
    the same (order, seed) always yields the same square.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # rejection sampling keeps the draw exactly uniform
        limit = (1 << 64) - ((1 << 64) % bound)
        while (v := self.next_word()) >= limit:
            pass
        return v % bound

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return perm


def random_latin_square(n: int, seed: int) -> LatinSquare:
    """Deterministic pseudorandom Latin square of order n.

    Starts from the cyclic table ((i + j) mod n) + 1 and applies seed-derived
    row, column, and symbol permutations.  Always valid, O(n^2), but samples
    only the isotopy class of the cyclic group, not all Latin squares.
    """
    if n < 2:
        raise OrderTooSmall(f"order {n} < 2")
    if n > MAX_ORDER:
        raise LatinSquareError(f"order {n} exceeds supported maximum {MAX_ORDER}")
    mix = _Mix64(seed)
    row_perm, col_perm, sym_perm = (mix.permutation(n) for _ in range(3))
    # uint16 holds every symbol-1 up to MAX_ORDER, and numpy sorts it faster than uint8 or int64
    symbols = np.array(sym_perm, dtype=np.uint16)
    # row r of this view is symbols rolled left by r, so no n x n index of (r + c) % n is built
    cyclic = np.lib.stride_tricks.sliding_window_view(np.concatenate((symbols, symbols[:-1])), n)
    return LatinSquare(cyclic[np.ix_(row_perm, col_perm)])


def text_lines(square: LatinSquare) -> Iterator[bytes]:
    """:func:`to_text`'s lines as ASCII bytes, one at a time, each ending in a newline.
    The one definition of the layout."""
    yield b"%d\n" % square.order
    names = np.array([b"%d " % k for k in range(1, square.order + 1)])  # symbol-1 -> "k ", NUL-padded (S dtype)
    for row in square.table0:
        yield names.take(row).tobytes().translate(None, b"\0")[:-1] + b"\n"


def to_text(square: LatinSquare) -> str:
    """Serialize: order on the first line, then one space-separated row per line."""
    return b"".join(text_lines(square)).decode()


_TENS = 10 ** np.arange(19)  # int64; how many of these a value reaches is its digit count


def parse_text(text: str) -> LatinSquare:
    """Parse :func:`to_text`'s format one row at a time, reading symbols as int() does and
    skipping blank lines and '#' lines; a Latin-property error comes only if all of it parses.
    numpy reads a row of ASCII digits and spaces whose n values are at most n and have its digit
    count (no 0, leading zero, or clamped or wrapped token); int() reads every other row."""
    lines = text.splitlines()[::-1]  # popped in file order, so each line is freed once read
    nlines = len(lines)
    data = ((lineno, stripped) for lineno, stripped in
            enumerate(map(str.strip, (lines.pop() for _ in range(nlines))), start=1)
            if stripped and not stripped.startswith("#"))
    lineno, head = next(data, (1, ""))
    if len(head := head.split()) != 1:
        raise ParseError("expected a single order value" if head else "empty input", lineno)
    order = _int(head[0], "order", lineno, 1)
    if order < 1:
        raise ParseError(f"order must be positive, got {order}", lineno, 1)
    dtype = np.min_scalar_type(order)  # holds the symbols 1..order
    rows, bad, count = [], None, 0
    for lineno, line in data:
        if count == order:
            raise ParseError("unexpected content after the last row", lineno)
        count += 1
        if not (line.isascii() and not line.encode().translate(None, b"0123456789 ")
                and (row := np.fromstring(line, np.int64, sep=" ")).size == order
                and np.maximum.reduce(row) <= order
                and np.add.reduce(_TENS.searchsorted(row, "right")) == len(line) - line.count(" ")):
            if len(tokens := line.split()) != order:
                raise ParseError(f"expected {order} symbols, got {len(tokens)}", lineno)
            row = [_int(token, "symbol", lineno, col) for col, token in enumerate(tokens, start=1)]
            if bad is None and not 1 <= min(row) <= max(row) <= order:
                bad = row  # kept as given; later rows are only parsed, so a ParseError still comes first
        if bad is None:
            rows.append(np.asarray(row, dtype))
    if count != order:
        raise ParseError(f"expected {order} rows, got {count}", nlines)
    rows = np.array(rows)  # one table, and the row list goes before it is checked
    rows -= 1  # symbol-1, as the table stores it
    if bad is not None:  # a repeat in a row above it comes first, then bad's own first violation
        if len(rows):
            _check_rows(rows)
        _check_row(bad, len(rows) + 1, order)
    return LatinSquare(rows)


def _int(token: str, what: str, lineno: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno, col) from None
