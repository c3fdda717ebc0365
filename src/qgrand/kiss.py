"""Four-seed combined generator used as the comparison baseline.

Classic Marsaglia construction: a linear congruential generator, a
13/17/5 xorshift, and two 16-bit multiply-with-carry generators, combined
as (x + y + (z << 16) + w) mod 2^32.  Words are emitted as 4 bytes each,
most significant byte first.

`next_word` is the scalar reference.  `next_bytes` produces the same
words by jumping copies of the generator ahead to evenly spaced offsets
(every component has an exact jump-ahead) and stepping them in lockstep
as numpy lanes.
"""

from __future__ import annotations

import numpy as np

_M32 = (1 << 32) - 1
_LANES = 1024  # generator copies next_bytes steps side by side
# Each MWC is an LCG modulo p = a * 2^16 - 1 with multiplier 2^-16 mod p
# (Couture & L'Ecuyer 1997): for a state at most p, k steps multiply it by
# 2^(-16k) mod p.
_PZ = 36969 * 65536 - 1
_PW = 18000 * 65536 - 1


def _gf2_apply(cols: list[int], v: int) -> int:
    """A 32x32 matrix over GF(2), given as the images of the unit vectors
    1 << b, applied to the 32-bit vector v."""
    out = 0
    for col in cols:
        if v & 1:
            out ^= col
        v >>= 1
    return out


def _jump(k: int) -> tuple[int, int, list[int], int, int]:
    """The maps that advance each component k steps: the LCG's affine
    (mul, add), the xorshift's matrix (its k-th power; the xorshift is
    F2-linear, Haramoto et al. 2008), and the two MWC multipliers."""
    mul, add, a, c = 1, 0, 69069, 12345
    cols = [1 << b for b in range(32)]
    step = np.uint32(1) << np.arange(32, dtype=np.uint32)  # one xorshift step on each 1 << b
    step ^= step << 13
    step ^= step >> 17
    step ^= step << 5
    step = step.tolist()
    e = k
    while e:
        if e & 1:
            mul, add = (a * mul) & _M32, (a * add + c) & _M32
            cols = [_gf2_apply(step, col) for col in cols]
        a, c = (a * a) & _M32, (a * c + c) & _M32
        step = [_gf2_apply(step, col) for col in step]
        e >>= 1
    return mul, add, cols, pow(2, -16 * k, _PZ), pow(2, -16 * k, _PW)


class Kiss:
    """Mutable generator state; four 32-bit seed words x, y, z, w."""

    def __init__(self, x: int, y: int, z: int, w: int):
        for name, value in (("x", x), ("y", y), ("z", z), ("w", w)):
            if not 0 <= value <= _M32:
                raise ValueError(f"seed {name}={value} outside 32-bit range")
        if y == 0:
            raise ValueError("seed y must be nonzero (xorshift is degenerate at 0)")
        for name, value in (("z", z), ("w", w)):
            if value in (0, _M32):
                raise ValueError(f"seed {name} must avoid 0 and 0xFFFFFFFF")
        self.x = x
        self.y = y
        self.z = z
        self.w = w

    def next_word(self) -> int:
        """Advance all four components and return the combined 32-bit output."""
        self.x = (69069 * self.x + 12345) & _M32
        y = self.y
        y ^= (y << 13) & _M32
        y ^= y >> 17
        y ^= (y << 5) & _M32
        self.y = y
        self.z = 36969 * (self.z & 0xFFFF) + (self.z >> 16)
        self.w = 18000 * (self.w & 0xFFFF) + (self.w >> 16)
        return (self.x + y + ((self.z << 16) & _M32) + self.w) & _M32

    def next_bytes(self, length: int) -> bytes:
        """Emit `length` bytes; whole words are consumed, the last may be cut.

        The bytes and the final state equal those of repeated next_word()
        calls.  The first words (at least two, fewer than _LANES + 2) come
        from next_word(); then _LANES copies of the generator are jumped
        ahead to offsets 0, K, 2K, ... and stepped K times in lockstep, lane
        j writing words j*K .. j*K+K-1.  Every lane gets exactly K words, so
        the last lane ends in the final state."""
        if length < 0:
            raise ValueError("length must be >= 0")
        count = -(-length // 4)
        k = max(count - 2, 0) // _LANES  # words per lane
        head = count - _LANES * k  # at least 2 when there are lanes
        words = np.empty(count, dtype=">u4")
        for i in range(head):
            words[i] = self.next_word()
        if k:
            # the MWC jump needs z and w at most their moduli, which two steps ensure
            mul, add, cols, fz, fw = _jump(k)
            starts = []
            x, y, z, w = self.x, self.y, self.z, self.w
            for _ in range(_LANES):
                starts.append((x, y, z, w))
                x = (mul * x + add) & _M32
                y = _gf2_apply(cols, y)
                # a state equal to its modulus is a fixed point, not 0
                z = z * fz % _PZ or z
                w = w * fw % _PW or w
            x, y, z, w = np.array(list(zip(*starts)), dtype=np.uint32)
            lanes = words[head:].reshape(_LANES, k)  # row j is lane j's output, in order
            for i in range(k):
                x = x * 69069 + 12345
                y ^= y << 13
                y ^= y >> 17
                y ^= y << 5
                z = 36969 * (z & 0xFFFF) + (z >> 16)
                w = 18000 * (w & 0xFFFF) + (w >> 16)
                lanes[:, i] = x + y + (z << 16) + w
            self.x, self.y, self.z, self.w = (int(v[-1]) for v in (x, y, z, w))
        return words.view(np.uint8)[:length].tobytes()
