"""Bit-granular binary values.

Everything the codec layer writes, and every ``Binary`` value, is a
:class:`BitString`: an immutable sequence of bits of arbitrary length,
packed MSB-first when converted to bytes (the first bit of the string
becomes the high bit of the first byte).  Reading is not done here: the
codec's generated decode functions read the bytes themselves, at a bit
position counted from the high bit of the first byte.
"""

from __future__ import annotations

from .errors import NotByteAligned


class BitString:
    """Immutable sequence of bits, stored as (unsigned int, bit length)."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0:
            raise ValueError("negative bit length")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._value = value
        self._length = length

    @classmethod
    def from_bits(cls, bits: str) -> "BitString":
        """Build from a string of '0'/'1' characters, e.g. '01000000'."""
        if bits and set(bits) - {"0", "1"}:
            raise ValueError(f"not a bit string: {bits!r}")
        return cls(int(bits, 2) if bits else 0, len(bits))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return cls(int.from_bytes(data, "big"), 8 * len(data))

    @classmethod
    def from_hex(cls, hexdigits: str) -> "BitString":
        if len(hexdigits) % 2:
            raise ValueError(f"odd-length hex literal: {hexdigits!r}")
        return cls.from_bytes(bytes.fromhex(hexdigits))

    @property
    def length(self) -> int:
        return self._length

    @property
    def value(self) -> int:
        """The bits read as an unsigned big-endian integer."""
        return self._value

    def append(self, other: "BitString") -> "BitString":
        return BitString(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def to_bytes(self) -> bytes:
        if self._length % 8:
            raise NotByteAligned(f"{self._length} bits is not a whole number of bytes")
        return self._value.to_bytes(self._length // 8, "big")

    def to_bits(self) -> str:
        """Render as a '0'/'1' character string."""
        return format(self._value, f"0{self._length}b") if self._length else ""

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        if self._length % 8 == 0 and self._length:
            return f"X'{self.to_bytes().hex()}'"
        return f"b'{self.to_bits()}'"


EMPTY = BitString()

