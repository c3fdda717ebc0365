"""Latin squares (quasigroups): validation, lookup/division, construction, text I/O.

A Latin square of order n is an n x n table over the symbols 1..n in which
every symbol occurs exactly once per row and once per column.  Symbols are
1-based everywhere in the public API; storage is 0-based.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

MAX_ORDER = 65536


class LatinSquareError(ValueError):
    """Base class for Latin square validation and parse failures."""


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
    order-256 square occupies exactly 256*256 one-byte cells.  Use
    :func:`validate` or :func:`random_latin_square` to construct one.
    """

    __slots__ = ("order", "table0")

    def __init__(self, table0: np.ndarray):
        if table0.ndim != 2 or table0.shape[0] != table0.shape[1] or table0.size == 0:
            raise NotSquare(f"table of shape {table0.shape} is not n x n with n >= 1")
        n = table0.shape[0]
        if n > MAX_ORDER:
            raise LatinSquareError(f"order {n} exceeds supported maximum {MAX_ORDER}")
        table0 = np.ascontiguousarray(table0, dtype=np.uint8 if n <= 256 else np.uint16)
        table0.flags.writeable = False
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table0", table0)

    def __setattr__(self, name, value):
        raise AttributeError("LatinSquare is immutable")

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
            return _latin(np.array(rows, dtype=np.int64))
    for i, row in enumerate(rows, start=1):  # some cell is invalid, so some row raises
        _check_row(row, i, n)
    raise AssertionError("a grid with an invalid cell passed every row check")


def _latin(table: np.ndarray) -> LatinSquare:
    """Wrap an n x n int64 grid of symbols, or raise `validate`'s first violation."""
    n = len(table)
    symbols = np.arange(1, n + 1)
    bad_rows = np.flatnonzero((np.sort(table, axis=1) != symbols).any(axis=1))
    if bad_rows.size:
        _check_row(table[bad_rows[0]], int(bad_rows[0]) + 1, n)
    bad_cols = np.flatnonzero((np.sort(table, axis=0) != symbols[:, None]).any(axis=0))
    if bad_cols.size:
        raise DuplicateInColumn(int(bad_cols[0]) + 1)
    return LatinSquare(table - 1)


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
    row_perm, col_perm, sym_perm = (np.array(mix.permutation(n), dtype=np.int64) for _ in range(3))
    return LatinSquare(sym_perm[(row_perm[:, None] + col_perm[None, :]) % n])


def to_text(square: LatinSquare) -> str:
    """Serialize: order on the first line, then one space-separated row per line."""
    return "\n".join([str(square.order), *(" ".join(map(str, row)) for row in square.rows())]) + "\n"


def parse_text(text: str) -> LatinSquare:
    """Parse the text format produced by :func:`to_text`, reading each symbol as
    int() does and ignoring blank lines and lines starting with '#'.  The grid
    is validated; a Latin-property error is raised only if nothing fails to parse."""
    lines = text.splitlines()
    data = [(lineno, stripped.split()) for lineno, stripped in enumerate(map(str.strip, lines), start=1)
            if stripped and not stripped.startswith("#")]
    if not data:
        raise ParseError("empty input", 1)
    (lineno, head), body = data[0], data[1:]
    if len(head) != 1:
        raise ParseError("expected a single order value", lineno)
    order = _int(head[0], "order", lineno, 1)
    if order < 1:
        raise ParseError(f"order must be positive, got {order}", lineno, 1)
    # the rows above the first line of the wrong shape, whose tokens are reported first
    k = next((k for k, (_, tokens) in enumerate(body) if k == order or len(tokens) != order), len(body))
    try:
        table = np.fromiter(map(int, chain.from_iterable(t for _, t in body[:k])), np.int64, k * order)
    except (ValueError, OverflowError):  # a bad token, or a symbol beyond int64: find which
        table = [[_int(token, "symbol", lineno, col) for col, token in enumerate(tokens, start=1)]
                 for lineno, tokens in body[:k]]
    if k < len(body):
        raise ParseError("unexpected content after the last row" if k == order
                         else f"expected {order} symbols, got {len(body[k][1])}", body[k][0])
    if k != order:
        raise ParseError(f"expected {order} rows, got {k}", len(lines))
    return validate(table) if isinstance(table, list) else _latin(table.reshape(order, order))


def _int(token: str, what: str, lineno: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno, col) from None
