import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgrand import Kiss

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


# z and w moduli of the two MWCs, a * 2^16 - 1: states equal to them are fixed points
MWC_Z, MWC_W = 36969 * 2**16 - 1, 18000 * 2**16 - 1
GATE_SEEDS = [
    (12345, 65435, 34221, 12345),  # the CLI defaults
    (1, 2, 3, 4),
    (M32, M32, M32 - 1, M32 - 1),
    (5, 6, MWC_Z, MWC_W),
    (5, 6, MWC_Z + 1, MWC_W + 1),
]
# 4104 and 12297 put 1 and 3 words in each lane; 100003 needs lanes and a long scalar head
GATE_LENGTHS = list(range(10)) + [4097, 4104, 12297, 100003]


def scalar_bytes(gen, length):
    """`length` bytes from repeated next_word(), the reference for next_bytes."""
    return b"".join(gen.next_word().to_bytes(4, "big") for _ in range(-(-length // 4)))[:length]


def state(gen):
    return gen.x, gen.y, gen.z, gen.w


class TestBytesMatchNextWord:
    @pytest.mark.parametrize("length", GATE_LENGTHS)
    @pytest.mark.parametrize("seeds", GATE_SEEDS)
    def test_bytes_and_final_state(self, seeds, length):
        fast, slow = Kiss(*seeds), Kiss(*seeds)
        assert fast.next_bytes(length) == scalar_bytes(slow, length)
        assert state(fast) == state(slow)

    @pytest.mark.parametrize("seeds", GATE_SEEDS)
    def test_calls_concatenate_on_word_boundaries(self, seeds):
        a, b = 4 * 5000, 100003
        gen = Kiss(*seeds)
        assert gen.next_bytes(a) + gen.next_bytes(b) == Kiss(*seeds).next_bytes(a + b)

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
