import pytest

from qkdnet.bits import BitString
from qkdnet.errors import OutOfRange


class TestBitString:
    def test_from_int_bounds(self):
        bs = BitString.from_int(5, 4)
        assert (bs.value, bs.length) == (5, 4)
        assert BitString.zeros(3) == BitString.from_int(0, 3)
        with pytest.raises(OutOfRange):
            BitString.from_int(16, 4)
        with pytest.raises(OutOfRange):
            BitString.from_int(-1, 4)
        with pytest.raises(OutOfRange):
            BitString.from_int(0, -1)

    def test_equality_includes_length(self):
        assert BitString.from_int(5, 4) == BitString.from_int(5, 4)
        assert BitString.from_int(5, 3) != BitString.from_int(5, 4)
        assert hash(BitString.from_int(5, 3)) != hash(BitString.from_int(5, 4))
