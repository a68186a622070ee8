"""Bit-granular binary values, and the tuple base of every value.

Everything the codec layer writes, and every ``Binary`` value, is a
:class:`BitString`: an immutable sequence of bits of arbitrary length,
packed MSB-first when converted to bytes (the first bit of the string
becomes the high bit of the first byte).  A BitString is an immutable
``(value, length)`` tuple, a :class:`FrozenFields`, as is every value of
:mod:`wirespec.values`: generated code builds one with
``tuple.__new__(BitString, (value, length))``, in one C call, where it
already knows that the value fits the length, and everything else with
the checked constructor.  Reading is not done here: the codec's generated
decode functions read the bytes themselves, at a bit position counted
from the high bit of the first byte.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotByteAligned

_new = tuple.__new__


class FrozenFields:
    """The base of a tuple of named fields, mixed in before its
    :func:`~collections.namedtuple` base, with a frozen dataclass's
    contract at a tuple's cost: it compares equal only to its own class
    (to another tuple it is unequal, where the tuple's own comparison would
    compare fields; to anything else it leaves the answer to the other
    operand), hashes as the tuple of its fields, and is unordered and
    immutable.  ``tuple.__new__(cls, fields)`` builds one in one C call,
    without the class's own ``__new__``."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__


class BitString(FrozenFields, namedtuple("BitString", "value length")):
    """Immutable sequence of bits: ``value``, the bits read as an unsigned
    big-endian integer, and ``length``, their count, which ``len`` gives."""

    __slots__ = ()

    def __new__(cls, value: int = 0, length: int = 0):
        if length < 0:
            raise ValueError("negative bit length")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        return _new(cls, (value, length))

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
        data = bytes.fromhex(hexdigits)
        if 2 * len(data) != len(hexdigits):  # fromhex skips whitespace
            raise ValueError(f"not a hex string: {hexdigits!r}")
        return cls.from_bytes(data)

    def append(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value, self.length + other.length)

    def to_bytes(self) -> bytes:
        if self.length % 8:
            raise NotByteAligned(f"{self.length} bits is not a whole number of bytes")
        return self.value.to_bytes(self.length // 8, "big")

    def to_bits(self) -> str:
        """Render as a '0'/'1' character string."""
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __len__(self) -> int:
        return self.length

    def __getnewargs__(self):
        # not tuple(self), which would size its result by len
        return self.value, self.length

    def __repr__(self) -> str:
        if self.length % 8 == 0 and self.length:
            return f"X'{self.to_bytes().hex()}'"
        return f"b'{self.to_bits()}'"


EMPTY = BitString()
