"""Three-phase quasigroup stream generator.

Each cycle rewrites an n x n working matrix and emits its n*n entries:

  phase 1  every cell becomes the table lookup of itself with its row-major
           successor (wrapping from the end of a row to the start of the
           next, and from the last cell back to the first); the working
           matrix starts as a copy of the seed square
  phase 2  the working matrix is read out row-major as the output block
  phase 3  the matrix is transposed, flattened row-major, rotated right by
           a constant or by a data-dependent amount, and refilled row-major

The state after phase 3 fully determines all future output, so a stream is
a pure function of its configuration.  Outputs arrive in blocks of n*n
values; truncating a stream drops only the tail of the final block.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

import numpy as np

from .latin import LatinSquare


_GATHER = 1 << 15  # indices per take in phase 1; slices of 2**14 cost gen ~11%, 2**15 nothing
# phase 3 of a matrix with at most this many cells is one take through a cached index; uint8,
# us per call (the least of 40 interleaved rounds) at orders 16/32/40/48/64/128, the take against
# the transposed copy plus concatenate: 1.68/2.38/2.98/3.86/5.77/19.0 against 2.45/2.86/3.12/3.41/4.10/9.14
_PHASE3_TAKE = 40 * 40
_min_dtype = functools.lru_cache(maxsize=None)(np.min_scalar_type)  # ~0.1 us a call, uncached 0.4


class OrderTooLargeForBytes(ValueError):
    pass


@dataclass(frozen=True)
class ConstantShift:
    """Fixed right-rotation amount for phase 3; reduced mod n*n before use."""

    amount: int


@dataclass(frozen=True)
class VariableShift:
    """Data-dependent rotation: the symbol at (x, y), 1-based, read from the
    transposed matrix each cycle before rotating."""

    x: int
    y: int


ShiftMode = Union[ConstantShift, VariableShift]


class OutputMap(Enum):
    SYMBOLS = "symbols"  # values 1..n
    BYTES = "bytes"      # values symbol-1, requires order <= 256


@dataclass(frozen=True)
class GeneratorConfig:
    square: LatinSquare
    shift_mode: ShiftMode
    output_map: OutputMap = OutputMap.BYTES

    def __post_init__(self):
        n = self.square.order
        if isinstance(self.shift_mode, ConstantShift):
            _check_integer("ConstantShift.amount", self.shift_mode.amount)
            if self.shift_mode.amount < 0:
                raise ValueError(f"shift amount {self.shift_mode.amount} < 0")
        elif isinstance(self.shift_mode, VariableShift):
            x, y = self.shift_mode.x, self.shift_mode.y
            _check_integer("VariableShift.x", x)
            _check_integer("VariableShift.y", y)
            if not (1 <= x <= n and 1 <= y <= n):
                raise ValueError(f"variable shift cell ({x},{y}) outside 1..{n}")
        else:
            raise TypeError(f"unsupported shift mode {self.shift_mode!r}")
        if not isinstance(self.output_map, OutputMap):  # compared by identity below and in next_block
            raise TypeError(f"unsupported output map {self.output_map!r}")
        if self.output_map is OutputMap.BYTES:
            check_byte_map(n)


def check_byte_map(order: int) -> None:
    """Raise OrderTooLargeForBytes unless the byte map covers a square of this order."""
    if order > 256:
        raise OrderTooLargeForBytes(f"byte output needs order <= 256, got {order}")


def _check_integer(name: str, value) -> None:
    """Raise TypeError unless value is an int or a numpy integer; a bool is neither here."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def transpose_rotate(matrix: np.ndarray, shift: int) -> np.ndarray:
    """The phase-3 matrix transform: transpose, flatten row-major, rotate the
    stream right by `shift` (old position p lands at (p+shift) mod n*n),
    refill row-major.  Value-agnostic."""
    stride, size = matrix.strides[0], matrix.size
    cut = size - shift % size  # the rotated stream starts at the transposed stream's cell `cut`
    if stride > 0 and stride % 256 == 0:  # a column of such rows sits in few L1 sets: copy ~32 KiB bands
        flat = np.empty(size, matrix.dtype)
        out, rows = flat.reshape(matrix.shape[::-1]), max(1, (1 << 15) // stride)
        for i in range(0, len(matrix), rows):
            out[:, i : i + rows] = matrix[i : i + rows].T
    elif size <= _PHASE3_TAKE:  # take reads a non-contiguous matrix through a row-major copy
        return matrix.take(_transposed_twice(matrix.shape)[cut : cut + size]).reshape(matrix.shape)
    else:
        flat = matrix.T.ravel()
    return np.concatenate((flat[cut:], flat[:cut])).reshape(matrix.shape)  # np.roll's axis handling costs more


@functools.lru_cache(maxsize=64)  # at most 64 x 25 KiB
def _transposed_twice(shape: tuple) -> np.ndarray:
    """A `shape` matrix's flat cells in transposed order, twice, so each rotation is one slice."""
    order = np.arange(shape[0] * shape[1]).reshape(shape).T.ravel()
    twice = np.concatenate((order, order))
    twice.flags.writeable = False  # shared by every caller; intp, as a narrower index was slower
    return twice


class Engine:
    """Mutable generator state: the seed square plus one working matrix.

    Persistent state is exactly two n x n grids (the square's lookup table
    and `gen_matrix`) and scalar bookkeeping; up to order 40 all engines also
    share a cached phase-3 index per order (25 KiB at 40).  Single-owner:
    calls on one engine must not overlap; distinct engines are independent.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.gen_matrix = config.square.table0.copy()
        self.initialized = True
        self.iteration = 0

    def phase1(self) -> None:
        """Rebuild the working matrix from a snapshot of its predecessor; on a
        fresh engine that is the seed square, or any `gen_matrix` assigned since."""
        table, matrix = self.config.square.table0, self.gen_matrix
        if not isinstance(matrix, np.ndarray) or matrix.dtype != table.dtype:
            raise TypeError(f"gen_matrix must be {len(table)}x{len(table)} {table.dtype}, "
                            f"got {getattr(matrix, 'dtype', type(matrix).__name__)}")
        if matrix.shape != table.shape:  # cells >= n go unchecked: a pass over them costs ~10%
            raise ValueError(f"gen_matrix must be {len(table)}x{len(table)} {table.dtype}, "
                             f"got shape {matrix.shape}")
        temp = matrix.ravel()
        # flat index n * cell + successor is at most n * (n-1) + (n-1) = n*n - 1, so it
        # always fits the narrowest unsigned dtype that holds n*n - 1 (uint16 at order 256)
        idx = np.multiply(temp, len(table), dtype=_min_dtype(table.size - 1))
        idx[:-1] += temp[1:]
        idx[-1] += temp[0]
        # reads come only from the snapshot.  take, not [idx]: fancy indexing with a
        # non-intp index is ~2.5x slower.  take copies its index to intp; a whole copy
        # (512 KiB at order 256) left some heap layouts growing and trimming the heap
        # every few cycles, so larger matrices gather in slices that keep it at 256 KiB
        flat = table.ravel()
        if idx.size <= _GATHER:
            gathered = flat.take(idx)
        else:
            gathered = np.empty_like(flat)
            for i in range(0, idx.size, _GATHER):  # "clip" would skip copying each slice, but not raise
                flat.take(idx[i : i + _GATHER], out=gathered[i : i + _GATHER])
        self.gen_matrix = gathered.reshape(table.shape)
        self.initialized = False

    def phase2(self) -> np.ndarray:
        """Row-major read of the working matrix as 1-based symbols.  Read-only."""
        return np.add(self.gen_matrix.ravel(), 1, dtype=np.int32)

    def phase3(self) -> None:
        mode = self.config.shift_mode
        if isinstance(mode, VariableShift):
            # the shift cell is read after transposing, before rotating
            shift = int(self.gen_matrix.T[mode.x - 1, mode.y - 1]) + 1
        else:
            shift = mode.amount
        self.gen_matrix = transpose_rotate(self.gen_matrix, shift)

    def next_block(self) -> np.ndarray:
        """One full cycle; returns the block's n*n 1-based symbols, or on the
        byte map the uint8 working matrix itself (symbol-1 per cell)."""
        self.phase1()
        block = self.gen_matrix.ravel() if self.config.output_map is OutputMap.BYTES else self.phase2()
        self.phase3()  # builds a new working matrix, so `block` stays the caller's
        self.iteration += 1
        return block

    def symbols(self) -> Iterator[int]:
        """Endless 1-based symbols on either output map, one whole `next_block()`
        at a time, so a block's phase 3 has run before its first symbol is yielded."""
        byte_map = self.config.output_map is OutputMap.BYTES
        while True:
            block = self.next_block()  # on the byte map, symbol-1 as uint8: add 1 in int32, or 255 + 1 wraps
            yield from (np.add(block, 1, dtype=np.int32) if byte_map else block).tolist()


def blocks(config: GeneratorConfig, length: int) -> Iterator[np.ndarray]:
    """`next_block()` outputs of a fresh engine, the last one cut so that
    exactly `length` values come out in total."""
    _check_integer("length", length)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    engine = Engine(config)
    while length > 0:
        block = engine.next_block()[:length]
        length -= block.size
        yield block


def generate(config: GeneratorConfig, length_bytes: int) -> bytes:
    """Concatenate blocks into exactly `length_bytes` bytes (byte mapping only)."""
    if config.output_map is not OutputMap.BYTES:  # GeneratorConfig caps the byte map at order 256
        check_byte_map(config.square.order)
        raise ValueError("generate() requires the byte output mapping")
    out = io.BytesIO()
    out.writelines(blocks(config, length_bytes))
    return out.getvalue()  # with no view of it alive, BytesIO hands over its own buffer, uncopied
