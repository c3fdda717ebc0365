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

import io

import numpy as np

_M32 = (1 << 32) - 1
_MAX_LANES = 1 << 14  # most generator copies next_bytes steps side by side
_MIN_LANES = 64  # fewer lanes make the words slower than next_word() does
_LANE_WORDS = 16  # next_bytes starts about one lane per this many words
# Each MWC is an LCG modulo p = a * 2^16 - 1 with multiplier 2^-16 = a mod p
# (Couture & L'Ecuyer 1997): for a state at most p, k steps multiply it by
# a^k mod p.  Rows are z's then w's.
_MWC_A = np.array([[36969], [18000]], dtype=np.uint32)
_MWC_P = _MWC_A.astype(np.uint64) * 65536 - 1
_BITS = np.arange(32, dtype=np.uint32)


def _xorshift(v: np.ndarray) -> np.ndarray:
    """One 13/17/5 xorshift step on each uint32 of v, in place."""
    v ^= v << 13
    v ^= v >> 17
    v ^= v << 5
    return v


def _gf2_apply(cols: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A 32x32 matrix over GF(2), given as the images of the unit vectors
    1 << b, applied to each 32-bit vector in v."""
    bits = np.right_shift(v[..., None], _BITS, dtype=np.uint32)
    bits &= 1
    bits *= cols
    return np.bitwise_xor.reduce(bits, axis=-1)


# The maps of one step: the LCG's affine (mul, add), the xorshift's matrix
# (the xorshift is F2-linear, Haramoto et al. 2008) and the MWC multipliers.
_STEP = (69069, 12345, _xorshift(np.uint32(1) << _BITS), _MWC_A.astype(np.uint64))


def _compose(f: tuple, g: tuple) -> tuple:
    """The maps of g's jump followed by f's."""
    mul, add, cols, mwc = f
    return mul * g[0] & _M32, (mul * g[1] + add) & _M32, _gf2_apply(cols, g[2]), mwc * g[3] % _MWC_P


def _jump(k: int) -> tuple:
    """The maps that advance the generator k >= 1 steps."""
    if k == 1:
        return _STEP
    half = _jump(k // 2)
    maps = _compose(half, half)
    return _compose(_STEP, maps) if k & 1 else maps


class Kiss:
    """Mutable generator state; four 32-bit seed words x, y, z, w."""

    def __init__(self, x: int, y: int, z: int, w: int):
        for name, value in (("x", x), ("y", y), ("z", z), ("w", w)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise TypeError(f"seed {name} must be an integer, got {value!r}")
            if not 0 <= value <= _M32:
                raise ValueError(f"seed {name}={value} outside 32-bit range")
        if y == 0:
            raise ValueError("seed y must be nonzero (xorshift is degenerate at 0)")
        for name, value in (("z", z), ("w", w)):
            if value in (0, _M32):
                raise ValueError(f"seed {name} must avoid 0 and 0xFFFFFFFF")
        self.x, self.y, self.z, self.w = map(int, (x, y, z, w))  # a numpy uint32 would wrap in next_word

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
        calls.  next_word() makes two words; the rest go to `lanes` copies of
        the generator, the largest power of two at most rest / _LANE_WORDS
        and _MAX_LANES (none under _MIN_LANES: next_word() makes them all).
        Each makes K = ceil(rest / lanes) words, one more when that is a
        multiple of 32.  The copies are jumped ahead to offsets 0, K, 2K, ...
        by doubling and stepped K times in lockstep, lane j writing words
        j*K .. j*K+K-1 straight into the buffer returned.  The last lanes may
        run past `length`; the state kept is the one after the last word returned."""
        if not isinstance(length, (int, np.integer)) or isinstance(length, bool):
            raise TypeError(f"length must be an integer, got {length!r}")
        if length < 0:
            raise ValueError("length must be >= 0")
        count = -(-int(length) // 4)  # a numpy integer has no bit_length
        rest = max(count - 2, 0)
        lanes = min(1 << (rest // _LANE_WORDS).bit_length() >> 1, _MAX_LANES)
        lanes = lanes if lanes >= _MIN_LANES else 0
        k = -(-rest // lanes) if lanes else 0  # words per lane
        k += k > 0 and k % 32 == 0  # rows of 128 * m bytes put out[:, i]'s writes in few cache sets
        head = [self.next_word() for _ in range(2 if lanes else count)]
        # the MWC jump needs z and w at most their moduli, which two steps ensure
        s = np.array([[self.x], [self.y], [self.z], [self.w]], dtype=np.uint64)
        if lanes > 1:
            maps = _jump(k)
            while s.shape[1] < lanes:  # lane j starts j*K words on
                mul, add, cols, mwc = maps
                zw = s[2:] * mwc % _MWC_P
                # a state equal to its modulus is a fixed point, not 0
                jumped = (mul * s[0] + add) & _M32, _gf2_apply(cols, s[1]), np.where(zw, zw, s[2:])
                s = np.hstack((s, np.vstack(jumped)))
                maps = _compose(maps, maps)
        s = s.astype(np.uint32)
        x, y, zw = s[0], s[1], s[2:]
        buf = io.BytesIO(bytes(4 * (len(head) + lanes * k)))
        words = np.frombuffer(buf.getbuffer(), dtype=">u4")
        words[: len(head)] = head
        out = words[len(head) :].reshape(lanes, k)  # row j is lane j's output, in order
        for i in range(k):
            x *= 69069
            x += 12345
            _xorshift(y)
            carry = zw >> 16
            zw &= 0xFFFF
            zw *= _MWC_A
            zw += carry
            out[:, i] = x + y + (zw[0] << 16) + zw[1]
            if i == (rest - 1) % k:  # the step of lane (rest - 1) // K that makes the last word
                self.x, self.y, self.z, self.w = s[:, (rest - 1) // k].tolist()
        del words, out  # drop the buffer's views, so that getvalue() hands it over uncopied
        buf.truncate(length)
        return buf.getvalue()
