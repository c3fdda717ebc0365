import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrand import Kiss, kiss

M32 = (1 << 32) - 1


def reference_step(x, y, z, w):
    """One combined step evaluated longhand, independent of the library."""
    x = (69069 * x + 12345) % 2**32
    y = (y ^ (y << 13)) % 2**32
    y = y ^ (y >> 17)
    y = (y ^ (y << 5)) % 2**32
    z = 36969 * (z % 2**16) + z // 2**16
    w = 18000 * (w % 2**16) + w // 2**16
    out = (x + y + (z * 2**16) % 2**32 + w) % 2**32
    return x, y, z, w, out


class TestRecurrences:
    def test_first_output_for_seeds_1_2_3_4(self):
        *_, want = reference_step(1, 2, 3, 4)
        assert want == 2974128008  # frozen from the longhand evaluation
        assert Kiss(1, 2, 3, 4).next_word() == want

    def test_state_matches_reference_for_100_steps(self):
        gen = Kiss(1, 2, 3, 4)
        x, y, z, w = 1, 2, 3, 4
        for _ in range(100):
            x, y, z, w, out = reference_step(x, y, z, w)
            assert gen.next_word() == out
        assert (gen.x, gen.y, gen.z, gen.w) == (x, y, z, w)

    def test_xorshift_component_from_one(self):
        y = 1
        y = (y ^ (y << 13)) & M32
        y ^= y >> 17
        y = (y ^ (y << 5)) & M32
        assert y == 270369
        gen = Kiss(1, 1, 3, 4)
        gen.next_word()
        assert gen.y == 270369

    def test_determinism_1000_words(self):
        a = Kiss(9, 8, 7, 6)
        b = Kiss(9, 8, 7, 6)
        assert [a.next_word() for _ in range(1000)] == [b.next_word() for _ in range(1000)]

    def test_outputs_are_32_bit(self):
        gen = Kiss(1, 2, 3, 4)
        assert all(0 <= gen.next_word() <= M32 for _ in range(1000))


class TestSeedValidation:
    def test_zero_y_rejected(self):
        with pytest.raises(ValueError):
            Kiss(1, 0, 3, 4)

    @pytest.mark.parametrize("bad", [0, M32])
    def test_mwc_fixed_points_rejected(self, bad):
        with pytest.raises(ValueError):
            Kiss(1, 2, bad, 4)
        with pytest.raises(ValueError):
            Kiss(1, 2, 3, bad)

    def test_out_of_range_seeds_rejected(self):
        with pytest.raises(ValueError):
            Kiss(2**32, 2, 3, 4)
        with pytest.raises(ValueError):
            Kiss(1, -1, 3, 4)

    def test_zero_x_is_fine(self):
        assert Kiss(0, 2, 3, 4).next_word() >= 0

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "7", None])
    def test_seed_must_be_an_integer(self, bad):
        # a bool is an int in Python: True ran as x = 1, and a float failed deep in next_word
        for i, name in enumerate("xyzw"):
            seeds = [1, 2, 3, 4]
            seeds[i] = bad
            with pytest.raises(TypeError, match=f"seed {name} must be an integer"):
                Kiss(*seeds)

    def test_numpy_integer_seeds_run_as_ints(self):
        # stored as Python ints, so next_word's arithmetic cannot overflow a uint32 scalar
        for dtype in (np.uint32, np.int64, np.uint64):
            gen = Kiss(*map(dtype, (123456789, 362436069, 521288629, 916191069)))
            assert gen.next_bytes(9000) == Kiss(123456789, 362436069, 521288629, 916191069).next_bytes(9000)
            assert all(type(v) is int for v in state(gen))


class TestCongruentialPeriod:
    def test_x_does_not_return_within_a_million_steps(self):
        x = 1
        for _ in range(10**6):
            x = (69069 * x + 12345) & M32
            assert x != 1


class TestBytes:
    def test_zero_length(self):
        assert Kiss(1, 2, 3, 4).next_bytes(0) == b""

    def test_big_endian_word_framing(self):
        words = Kiss(5, 6, 7, 8)
        raw = Kiss(5, 6, 7, 8)
        expected = b"".join(words.next_word().to_bytes(4, "big") for _ in range(3))
        assert raw.next_bytes(12) == expected

    def test_partial_final_word(self):
        words = Kiss(5, 6, 7, 8)
        first = words.next_word().to_bytes(4, "big")
        second = words.next_word().to_bytes(4, "big")
        assert Kiss(5, 6, 7, 8).next_bytes(6) == first + second[:2]

    def test_stream_continues_across_calls_on_word_boundaries(self):
        gen = Kiss(5, 6, 7, 8)
        a = gen.next_bytes(8)
        b = gen.next_bytes(4)
        reference = Kiss(5, 6, 7, 8)
        assert a + b == reference.next_bytes(12)

    def test_matches_next_word_stream(self):
        gen = Kiss(11, 22, 33, 44)
        data = gen.next_bytes(4000)
        reference = Kiss(11, 22, 33, 44)
        words = [int.from_bytes(data[i : i + 4], "big") for i in range(0, 4000, 4)]
        assert words == [reference.next_word() for _ in range(1000)]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Kiss(1, 2, 3, 4).next_bytes(-1)

    @pytest.mark.parametrize("bad", [True, 4.0, "8"])
    def test_length_must_be_an_integer(self, bad):
        with pytest.raises(TypeError, match="length must be an integer"):
            Kiss(1, 2, 3, 4).next_bytes(bad)
        assert Kiss(1, 2, 3, 4).next_bytes(np.int64(8)) == Kiss(1, 2, 3, 4).next_bytes(8)


# z and w moduli of the two MWCs, a * 2^16 - 1: states equal to them are fixed points
MWC_Z, MWC_W = 36969 * 2**16 - 1, 18000 * 2**16 - 1
GATE_SEEDS = [
    (12345, 65435, 34221, 12345),  # the CLI defaults
    (1, 2, 3, 4),
    (M32, M32, M32 - 1, M32 - 1),
    (5, 6, MWC_Z, MWC_W),
    (5, 6, MWC_Z + 1, MWC_W + 1),
]
# next_bytes makes two words with next_word() and splits the other `rest`
# among the largest power of two of lanes at most rest / 16 and 2^14, so
# K = ceil(rest / lanes) words each (K >= 16); under 64 lanes, next_word()
# makes every word. The lane count changes at 16 * 2^m + 2 words: each such
# count, with a cut last word, and the count below it, from the longest
# all-scalar call (1025 words, 4097 and 4100 bytes) to 2^14 lanes.
LANE_BOUNDARIES = [n for m in range(6, 15) for n in (4 * (16 * 2**m + 1), 4 * (16 * 2**m + 2) - 3)]
GATE_LENGTHS = list(range(10)) + [4097, 4104, 12297, 100003] + LANE_BOUNDARIES + [
    4160,  # 64 lanes, K = 17: the last lane used is cut after its first word, 2 lanes run past
    4221,  # and the same lane cut after its last word, which is itself cut to 1 byte
    2097161,  # 2^14 lanes, not 2^15, with K = 33
]


@functools.lru_cache(maxsize=None)
def scalar_run(seeds):
    """The next_word() stream from `seeds` up to the longest gate length, and
    the state after every word count a gate length needs."""
    gen = Kiss(*seeds)
    counts = {-(-length // 4) for length in GATE_LENGTHS}
    stream, states = bytearray(), {0: state(gen)}
    for count in range(1, max(counts) + 1):
        stream += gen.next_word().to_bytes(4, "big")
        if count in counts:
            states[count] = state(gen)
    return bytes(stream), states


@functools.lru_cache(maxsize=None)
def long_scalar_run():
    """12 MiB of next_word() output from the CLI's seeds, and the state after
    each of the first 4, 8 and 12 MiB."""
    gen, chunks, states = Kiss(*GATE_SEEDS[0]), [], {}
    for mib in (4, 8, 12):
        chunks.append(np.array([gen.next_word() for _ in range(1 << 20)], dtype=">u4").tobytes())
        states[mib] = state(gen)
    return b"".join(chunks), states


def scalar_bytes(gen, length):
    """`length` bytes from repeated next_word(), the reference for next_bytes."""
    return b"".join(gen.next_word().to_bytes(4, "big") for _ in range(-(-length // 4)))[:length]


def state(gen):
    return gen.x, gen.y, gen.z, gen.w


class TestBytesMatchNextWord:
    @pytest.mark.parametrize("length", GATE_LENGTHS)
    @pytest.mark.parametrize("seeds", GATE_SEEDS)
    def test_bytes_and_final_state(self, seeds, length):
        stream, states = scalar_run(seeds)
        fast = Kiss(*seeds)
        assert fast.next_bytes(length) == stream[:length]
        assert state(fast) == states[-(-length // 4)]

    @pytest.mark.parametrize("mib", [4, 8, 12])
    def test_lanes_of_a_multiple_of_32_words(self, mib):
        """At 2^14 lanes these lengths give K = 64, 128 and 192, which next_bytes
        makes one word longer: the last lanes run further past the request."""
        stream, states = long_scalar_run()
        fast = Kiss(*GATE_SEEDS[0])
        assert fast.next_bytes(mib << 20) == stream[: mib << 20]
        assert state(fast) == states[mib]

    @pytest.mark.parametrize("seeds", GATE_SEEDS)
    def test_calls_concatenate_on_word_boundaries(self, seeds):
        a, b = 4 * 5000, 100003
        gen, slow = Kiss(*seeds), Kiss(*seeds)
        assert gen.next_bytes(a) + gen.next_bytes(b) == scalar_bytes(slow, a + b)
        assert state(gen) == state(slow)

    @pytest.mark.parametrize("lane_words,length", [(16, 72), (16, 132)] + [
        (1, length) for length in (12, 13, 20, 4 * 66, 4 * 67 - 1, 4 * (2**14 + 2), 4 * (2**15 + 2))
    ])
    @pytest.mark.parametrize("seeds", GATE_SEEDS[:1] + GATE_SEEDS[3:4])
    def test_lane_geometries_next_bytes_does_not_choose(self, monkeypatch, seeds, lane_words, length):
        """With no lane minimum: a single lane (18 to 33 words at 16 words per
        lane), and a lane per word, where K is 1 when rest is a power of two
        and 2 otherwise, so each lane start is checked by a word of its own;
        the last length would take 2^15 lanes without the cap."""
        monkeypatch.setattr(kiss, "_MIN_LANES", 1)
        monkeypatch.setattr(kiss, "_LANE_WORDS", lane_words)
        fast, slow = Kiss(*seeds), Kiss(*seeds)
        assert fast.next_bytes(length) == scalar_bytes(slow, length)
        assert state(fast) == state(slow)

    def test_peak_memory_is_the_output(self):
        """The words are written into the buffer that is returned: no copy."""
        length = 8_000_000
        tracemalloc.start()
        try:
            Kiss(1, 2, 3, 4).next_bytes(length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * length + 2**20

    @given(
        x=st.integers(0, M32),
        y=st.integers(1, M32),
        z=st.integers(1, M32 - 1),
        w=st.integers(1, M32 - 1),
        length=st.integers(0, 60_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_seed_and_length(self, x, y, z, w, length):
        fast, slow = Kiss(x, y, z, w), Kiss(x, y, z, w)
        assert fast.next_bytes(length) == scalar_bytes(slow, length)
        assert state(fast) == state(slow)
