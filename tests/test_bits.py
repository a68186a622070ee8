import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wirespec.bits import EMPTY, BitString
from wirespec.codec import compile_node
from wirespec.errors import NotByteAligned, Underrun
from wirespec.resolve import RType, resolve
from wirespec.syntax import NameRef, parse_spec
from wirespec.values import IntVal


def bs(bits):
    return BitString.from_bits(bits)


# Reading is done by the codec's generated decode functions; the cursor
# tests below drive the generated read of ``Binary(length=n)``.
BITS_OF_N = compile_node(
    RType("Binary", {"length": NameRef("n")}), None, resolve(parse_spec("message module E end"))
)


def read_bits(raw: bytes, pos: int, n: int):
    """``Binary(length=n)`` decoded from ``raw`` at bit ``pos``: its bits
    and the bit position past them."""
    value, past = BITS_OF_N.decode(raw, pos, {"n": IntVal(n)})
    return value.bits, past


def test_append_concatenates():
    assert bs("01").append(bs("000000")) == bs("01000000")
    assert EMPTY.append(bs("101")) == bs("101")
    assert bs("1").append(bs("1")) == bs("11")


def test_cursor_bits_split():
    assert read_bits(b"\x40", 0, 2) == (bs("01"), 2)
    assert read_bits(b"\x40", 2, 6) == (bs("000000"), 8)
    assert read_bits(b"\xa0", 0, 0) == (EMPTY, 0)  # 101 00000
    assert read_bits(b"\xa0", 0, 3) == (bs("101"), 3)


def test_cursor_underrun():
    with pytest.raises(Underrun, match="^need 2 bits, have 1$"):
        read_bits(b"\x80", 7, 2)


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
    head, past = read_bits(raw, 0, n)
    rest, end = read_bits(raw, past, whole.length - past)
    assert head.append(rest) == whole
    assert head.length == n and past == n and end == whole.length


@given(st.binary(max_size=12), st.data())
def test_cursor_uint_matches_bit_string(raw, data):
    # oracle: the '0'/'1' rendering of the same bytes, read at every bit offset
    bits = BitString.from_bytes(raw).to_bits()
    n = data.draw(st.integers(min_value=0, max_value=len(bits) + 9))
    for pos in range(len(bits) + 1):
        if n > len(bits) - pos:
            with pytest.raises(Underrun, match=f"^need {n} bits, have {len(bits) - pos}$"):
                read_bits(raw, pos, n)
            continue
        head, past = read_bits(raw, pos, n)
        assert head.value == int(bits[pos:pos + n] or "0", 2)
        assert head.to_bits() == bits[pos:pos + n] and past == pos + n


def test_bit_string_contract():
    bits = BitString(5, 3)
    assert repr(bits) == "b'101'" and repr(BitString()) == "b''" and repr(BitString(10, 8)) == "X'0a'"
    assert hash(bits) == hash((5, 3))
    assert bits == BitString(value=5, length=3) and not bits != BitString(5, 3)
    assert bits != BitString(5, 4) and bits != BitString(4, 3)
    # a plain tuple of the same fields is another class
    assert BitString(1, 1) != (1, 1) and not BitString(1, 1) == (1, 1)
    assert (1, 1) != BitString(1, 1) and not (1, 1) == BitString(1, 1)
    assert bits.__eq__(5) is NotImplemented and bits.__ne__(5) is NotImplemented
    for name in ("value", "length", "other"):
        with pytest.raises(AttributeError):
            setattr(bits, name, 1)
    with pytest.raises(TypeError):
        bits < bits  # noqa: B015
    for copied in (copy.copy(bits), copy.deepcopy(bits), pickle.loads(pickle.dumps(bits))):
        assert type(copied) is BitString and copied == bits and len(copied) == 3


def test_bit_string_construction():
    assert BitString() == BitString(0, 0) == EMPTY
    assert len(BitString(5, 3)) == 3 and len(EMPTY) == 0
    assert not BitString() and BitString(0, 1)
    for value, length in ((5, 2), (-1, 3), (0, -1), (2, 1)):
        with pytest.raises(ValueError):
            BitString(value, length)
    with pytest.raises(ValueError):
        BitString.from_bits("012")
