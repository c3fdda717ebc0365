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

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union

import numpy as np

from .latin import LatinSquare


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
            if self.shift_mode.amount < 0:
                raise ValueError(f"shift amount {self.shift_mode.amount} < 0")
        elif isinstance(self.shift_mode, VariableShift):
            x, y = self.shift_mode.x, self.shift_mode.y
            if not (1 <= x <= n and 1 <= y <= n):
                raise ValueError(f"variable shift cell ({x},{y}) outside 1..{n}")
        else:
            raise TypeError(f"unsupported shift mode {self.shift_mode!r}")
        if self.output_map is OutputMap.BYTES and n > 256:
            raise OrderTooLargeForBytes(f"byte output needs order <= 256, got {n}")


def transpose_rotate(matrix: np.ndarray, shift: int) -> np.ndarray:
    """The phase-3 matrix transform: transpose, flatten row-major, rotate the
    stream right by `shift` (old position p lands at (p+shift) mod n*n),
    refill row-major.  Value-agnostic."""
    flat = matrix.T.ravel()
    cut = flat.size - shift % flat.size  # two slices: np.roll's generic axis handling costs more
    return np.concatenate((flat[cut:], flat[:cut])).reshape(matrix.shape)


class Engine:
    """Mutable generator state: the seed square plus one working matrix.

    Persistent state is exactly two n x n grids (the square's lookup table
    and `gen_matrix`) and scalar bookkeeping.  Single-owner: calls on one
    engine must not overlap; distinct engines are independent.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.gen_matrix = config.square.table0.copy()
        self.initialized = True
        self.iteration = 0

    def phase1(self) -> None:
        """Rebuild the working matrix from a snapshot of its predecessor; on a
        fresh engine that is the seed square, or any `gen_matrix` assigned since."""
        table = self.config.square.table0
        temp = self.gen_matrix.ravel()
        # flat index n * cell + successor is at most n * (n-1) + (n-1) = n*n - 1, so it
        # always fits the narrowest unsigned dtype that holds n*n - 1 (uint16 at order 256)
        idx = np.multiply(temp, table.shape[0], dtype=np.min_scalar_type(table.size - 1))
        idx[:-1] += temp[1:]
        idx[-1] += temp[0]
        # reads come only from the snapshot; the result array is built whole.
        # take, not [idx]: fancy indexing with a non-intp index is ~2.5x slower
        self.gen_matrix = table.ravel().take(idx).reshape(table.shape)
        self.initialized = False

    def phase2(self) -> np.ndarray:
        """Row-major read of the working matrix as 1-based symbols.  Read-only."""
        return self.gen_matrix.ravel().astype(np.int32) + 1

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
        """Endless 1-based symbols on either output map, advancing a whole block
        at a time; the sequence equals concatenated row-major block reads."""
        while True:
            self.phase1()
            yield from self.phase2().tolist()
            self.phase3()
            self.iteration += 1


def blocks(config: GeneratorConfig, length: int) -> Iterator[np.ndarray]:
    """`next_block()` outputs of a fresh engine, the last one cut so that
    exactly `length` values come out in total."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    engine = Engine(config)
    while length > 0:
        block = engine.next_block()[:length]
        length -= block.size
        yield block


def generate(config: GeneratorConfig, length_bytes: int) -> bytes:
    """Concatenate blocks into exactly `length_bytes` bytes (byte mapping only)."""
    if config.square.order > 256:
        raise OrderTooLargeForBytes(f"order {config.square.order} > 256")
    if config.output_map is not OutputMap.BYTES:
        raise ValueError("generate() requires the byte output mapping")
    out = bytearray(length_bytes)
    view, pos = memoryview(out), 0
    for block in blocks(config, length_bytes):  # one buffer: no per-block bytes objects
        view[pos : pos + block.size] = block
        pos += block.size
    return bytes(out)
