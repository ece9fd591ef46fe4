"""Generator and bitstring-codec tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posverif.bits import (
    check_bits,
    decode_parts,
    dot_bits,
    encode_parts,
    int_to_bits,
    pack_bits,
    read_u32,
    unpack_bits,
    xor_bits,
)
from posverif.errors import ConfigInvalid, LengthMismatch, MalformedMessage
from posverif.rng import Rng, child_seed, mix64

bitstrings = st.text(alphabet="01", min_size=0, max_size=80)


class TestRng:
    def test_reference_vectors(self):
        """First outputs for seed 0 match the published splitmix64 values."""
        r = Rng(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_determinism(self):
        a = Rng(1234)
        b = Rng(1234)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_random_range(self):
        r = Rng(9)
        for _ in range(1000):
            u = r.random()
            assert 0.0 <= u < 1.0

    def test_bits_width_and_range(self):
        r = Rng(5)
        assert r.bits(0) == ""
        s = r.bits(130)
        assert len(s) == 130 and set(s) <= {"0", "1"}

    @pytest.mark.parametrize("seed", [0, 1, 77, 2**63, 2**64 - 1])
    def test_bits_is_one_draw_shifted(self, seed):
        """Up to 64 bits, bits(w) formats the top w bits of one next_u64
        draw (the stream the puzzle layer draws as ints), and bits(0)
        draws nothing."""
        for w in range(1, 65):
            assert Rng(seed).bits(w) == format(Rng(seed).next_u64() >> (64 - w), f"0{w}b")
        r = Rng(seed)
        assert r.bits(0) == "" and r.next_u64() == Rng(seed).next_u64()

    def test_bits_uniform(self):
        """Mean of 3-bit draws sits within 4 sigma of 3.5."""
        r = Rng(11)
        n = 20000
        total = sum(int(r.bits(3), 2) for _ in range(n))
        mean = total / n
        sigma = (63 / 12) ** 0.5 / n**0.5
        assert abs(mean - 3.5) < 4 * sigma

    def test_child_seeds_differ(self):
        seeds = {child_seed(77, i) for i in range(100)}
        assert len(seeds) == 100
        assert child_seed(77, 0) != child_seed(78, 0)

    def test_mix64_is_permutation_on_sample(self):
        outs = {mix64(x) for x in range(10000)}
        assert len(outs) == 10000


class TestBits:
    def test_xor_dot_basics(self):
        assert xor_bits("1010", "0110") == "1100"
        assert dot_bits("1010", "0110") == 1
        assert dot_bits("1010", "1010") == 0

    @pytest.mark.parametrize("s", ["0x", "1 ", "+1", b"01", ("0", "1"), None, 3])
    def test_check_bits_rejects_other_than_bit_strings(self, s):
        with pytest.raises(ConfigInvalid):
            check_bits(s, 2, "y")

    def test_check_bits_width(self):
        assert check_bits("0110", 4, "y") == check_bits("0110", None, "y") == 4
        with pytest.raises(LengthMismatch):
            check_bits("011", 4, "y")

    def test_length_checks(self):
        with pytest.raises(ValueError):
            xor_bits("10", "100")
        with pytest.raises(ValueError):
            dot_bits("1", "")

    def test_int_roundtrip(self):
        for v in range(16):
            assert int(int_to_bits(v, 4), 2) == v
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    @given(bitstrings)
    @settings(max_examples=200, derandomize=True)
    def test_pack_roundtrip(self, s):
        data = pack_bits(s)
        out, off = unpack_bits(data)
        assert out == s and off == len(data)

    @given(bitstrings, bitstrings)
    @settings(max_examples=100, derandomize=True)
    def test_pack_concatenation(self, a, b):
        """Two packed strings decode back in sequence from one buffer."""
        data = pack_bits(a) + pack_bits(b)
        x, off = unpack_bits(data)
        y, end = unpack_bits(data, off)
        assert (x, y) == (a, b) and end == len(data)

    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=100, derandomize=True)
    def test_xor_matches_int_xor(self, a, b):
        sa, sb = int_to_bits(a, 41), int_to_bits(b, 41)
        assert int(xor_bits(sa, sb), 2) == a ^ b

    def test_pack_is_length_prefixed(self):
        assert pack_bits("") == b"\x00\x00\x00\x00"
        assert pack_bits("10000001") == b"\x08\x00\x00\x00\x81"
        assert pack_bits("1") == b"\x01\x00\x00\x00\x80"

    def test_parts_cut_at_every_length(self):
        """Each prefix of a 3-part message either decodes to its leading
        parts (a cut on a part boundary) or raises MalformedMessage
        naming the field it cuts: a length prefix or a part body."""
        parts = [b"key-17", b"", b"\x00\xff\x10"]
        data = encode_parts(*parts)
        for cut in range(len(data) + 1):
            prefix, offset, whole, error = data[:cut], 0, [], None
            for part in parts:
                if cut == offset:
                    break
                if cut < offset + 4:
                    error = f"4 bytes at offset {offset} overrun a {cut}-byte message"
                    break
                if cut < offset + 4 + len(part):
                    error = (f"{len(part)} bytes at offset {offset + 4} "
                             f"overrun a {cut}-byte message")
                    break
                whole.append(part)
                offset += 4 + len(part)
            if error is None:
                assert decode_parts(prefix) == whole, cut
            else:
                with pytest.raises(MalformedMessage) as info:
                    decode_parts(prefix)
                assert str(info.value) == error, cut

    def test_read_u32_at_and_past_the_end(self):
        data = encode_parts(b"ab", b"cde")
        assert read_u32(data, len(data) - 7) == (3, len(data) - 3)
        for offset in range(len(data) - 3, len(data) + 3):
            with pytest.raises(MalformedMessage) as info:
                read_u32(data, offset)
            assert str(info.value) == (
                f"4 bytes at offset {offset} overrun a {len(data)}-byte message")
