import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdnet.bits import BitString
from qkdnet.errors import OutOfRange

bitstrings = st.text(alphabet="01", max_size=64).map(BitString)


def bs(text):
    return BitString(text)


class TestBitString:
    def test_text_round_trip(self):
        for text in ["", "0", "1", "0101", "1" * 70, "000010"]:
            assert str(bs(text)) == text

    def test_rejects_non_binary_text(self):
        with pytest.raises(ValueError):
            bs("01a1")

    def test_one_based_bit_access(self):
        k = bs("0101")
        assert [k.slice(i, i).value for i in range(1, 5)] == [0, 1, 0, 1]
        with pytest.raises(OutOfRange):
            k.slice(0, 0)
        with pytest.raises(OutOfRange):
            k.slice(5, 5)

    def test_slice_is_inclusive_one_based(self):
        k = bs("10110")
        assert str(k.slice(1, 2)) == "10"
        assert str(k.slice(3, 5)) == "110"
        assert k.slice(2, 4).length == 3
        with pytest.raises(OutOfRange):
            k.slice(0, 2)
        with pytest.raises(OutOfRange):
            k.slice(3, 2)
        with pytest.raises(OutOfRange):
            k.slice(4, 6)

    def test_from_int_bounds(self):
        assert str(BitString.from_int(5, 4)) == "0101"
        with pytest.raises(OutOfRange):
            BitString.from_int(16, 4)
        with pytest.raises(OutOfRange):
            BitString.from_int(-1, 4)

    def test_equality_includes_length(self):
        assert bs("0101") == bs("0101")
        assert bs("101") != bs("0101")
        assert hash(bs("101")) != hash(bs("0101"))

    def test_random_is_deterministic_under_seed(self):
        a = BitString.random(32, random.Random(7))
        b = BitString.random(32, random.Random(7))
        assert a == b and a.length == 32


class TestSplitKey:
    """Splitting a key with ``slice``."""

    def test_direct_slice(self):
        k = bs("10110")
        assert (str(k.slice(1, 2)), str(k.slice(3, 5))) == ("10", "110")

    def test_full_prefix(self):
        assert bs("10110").slice(1, 5) == bs("10110")

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            bs("10110").slice(1, 6)
        with pytest.raises(OutOfRange):
            bs("10110").slice(0, 5)

    @given(bitstrings, st.integers(1, 63))
    def test_concat_reconstructs(self, k, s):
        if s >= k.length:
            return
        prefix, rest = k.slice(1, s), k.slice(s + 1, k.length)
        assert prefix.length == s and rest.length == k.length - s
        assert (prefix.value << rest.length) | rest.value == k.value
