import pytest
from hypothesis import given
from hypothesis import strategies as st

from wirespec.bits import EMPTY, BitString, Cursor
from wirespec.errors import NotByteAligned, Underrun


def bs(bits):
    return BitString.from_bits(bits)


def test_append_concatenates():
    assert bs("01").append(bs("000000")) == bs("01000000")
    assert EMPTY.append(bs("101")) == bs("101")
    assert bs("1").append(bs("1")) == bs("11")


def test_cursor_bits_split():
    cur = Cursor(bytes([0x40]))
    assert cur.bits(2) == bs("01") and cur.pos == 2
    assert cur.bits(6) == bs("000000") and cur.pos == 8
    cur = Cursor(bytes([0xA0]))  # 101 00000
    assert cur.bits(0) == EMPTY and cur.pos == 0
    assert cur.bits(3) == bs("101") and cur.pos == 3


def test_cursor_underrun():
    cur = Cursor(bytes([0x80]), 7)
    with pytest.raises(Underrun, match="need 2 bits, have 1"):
        cur.bits(2)
    assert cur.pos == 7


def test_to_bytes_msb_first():
    # hand-packed: bit 0 of the string is the high bit of the byte
    assert bs("01000000").to_bytes() == bytes([0x40])
    assert bs("11111111").to_bytes() == bytes([0xFF])


def test_to_bytes_rejects_ragged_length():
    with pytest.raises(NotByteAligned):
        bs("0100000").to_bytes()


def test_hex_and_repr():
    assert BitString.from_hex("ff") == bs("11111111")
    assert repr(BitString.from_hex("0a")) == "X'0a'"
    assert repr(bs("0101")) == "b'0101'"


def test_concat_matches_fold():
    parts = [bs("1"), bs(""), bs("0011"), bs("000")]
    folded = EMPTY
    for p in parts:
        folded = folded.append(p)
    assert BitString.concat(parts) == folded


bitstrings = st.text(alphabet="01", max_size=64).map(BitString.from_bits)


@given(bitstrings, bitstrings)
def test_append_length_adds(a, b):
    assert a.append(b).length == a.length + b.length


@given(st.binary(max_size=48))
def test_bytes_roundtrip(data):
    assert BitString.from_bytes(data).to_bytes() == data


@given(st.binary(max_size=16), st.data())
def test_cursor_bits_then_append_restores(raw, data):
    whole = BitString.from_bytes(raw)
    n = data.draw(st.integers(min_value=0, max_value=whole.length))
    cur = Cursor(raw)
    head = cur.bits(n)
    rest = cur.bits(cur.remaining)
    assert head.append(rest) == whole
    assert head.length == n and cur.pos == whole.length


@given(st.binary(max_size=12), st.data())
def test_cursor_uint_matches_bit_string(raw, data):
    # oracle: the '0'/'1' rendering of the same bytes
    bits = BitString.from_bytes(raw).to_bits()
    pos = data.draw(st.integers(min_value=0, max_value=len(bits)))
    n = data.draw(st.integers(min_value=0, max_value=len(bits) - pos + 9))
    cur = Cursor(raw, pos)
    if n > len(bits) - pos:
        with pytest.raises(Underrun):
            cur.uint(n)
        assert cur.pos == pos
    else:
        assert cur.uint(n) == int(bits[pos : pos + n] or "0", 2)
        assert cur.pos == pos + n
