"""Bidirectional translation between values and bitstrings.

Each field pairs a (dependent) type with a codec.  :func:`compile_node`
turns the pair into a node that encodes, decodes and generates values of
that field, each in one walk that checks every part of the value on the
way; records encode as the concatenation of their fields in declaration
order.  A message type's node, its plan, is compiled on first use and
cached on the spec.  Decoding reads through a
:class:`~wirespec.bits.Cursor` over the receive buffer, so a field costs
time in its own size, not the buffer's.  Decoding is incremental:
running out of input raises an :class:`IncompleteInput` subclass so that
callers feeding a growing stream buffer can distinguish "wait for more
bytes" from a malformed message, and a terminated text that has already
run past its ``max_count`` is rejected without waiting for its terminator.

Classification lets only candidates that can still match decide.  Each
node states the static facts about the leading bits of its wire form
(:class:`WirePrefix`): literal bits, where a pinned field has only one
encoding; "skip through terminator T", for an unpinned terminated text at
a byte boundary, with the first bytes its pattern allows; and nothing past
anything else.  One :class:`Classifier` per candidate list, a list of one
included, is built on first use and cached on the spec; its tree walks
every candidate's facts over the buffer at once, a whole byte at a time.
It rules a candidate out when bytes already present contradict a literal
or a skipped text's first byte; a short buffer or a missing terminator
keeps it.  :func:`decode_message` takes its outcome from the candidates
kept alone, so a buffer that rules out every candidate is InvalidFormat at
once, even where a candidate's own decode would still wait for bytes; the
ruled-out candidates are decoded only for their diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bits import EMPTY, BitString, Cursor
from .errors import (
    ConstraintViolation,
    EvalError,
    IncompleteInput,
    MissingTerminator,
    NotByteAligned,
    TerminatorInPayload,
    TypeMismatch,
    UnsatisfiableConstraint,
    Unrepresentable,
    WirespecError,
)
from .patterns import Pattern, alphabet_for_charset, compile_pattern, language
from .resolve import CODED_TYPES, RCodec, RType, ResolvedSpec
from .syntax import NameRef
from .values import (
    ABSENT,
    BitsVal,
    BoolVal,
    EnumVal,
    IntVal,
    ListVal,
    RecordVal,
    TextVal,
    as_bits,
    as_bool,
    as_int,
    as_text,
    compile_arg,
    fold,
)

PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

# Length caps for draws the type leaves unbounded: pattern-constrained text
# (so unbounded quantifiers stay finite), other text, and lists.
REGEX_EXPANSION_CAP = 8
MAX_TEXT_LEN = 12
MAX_LIST_LEN = 4


def signed_range(width: int, signed: bool) -> tuple[int, int]:
    """The least and greatest integers that ``width`` bits code."""
    if width < 0 or (signed and width == 0):
        raise Unrepresentable(f"no {width}-bit integer exists")
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def _encode_text_bytes(text: str, encoding: str) -> bytes:
    try:
        return text.encode("ascii" if encoding == "ascii" else "latin-1")
    except UnicodeEncodeError as e:
        raise Unrepresentable(f"text {text!r} not encodable as {encoding}") from e


def _check_ascii(data: bytes, encoding: str):
    if encoding == "ascii" and not data.isascii():
        code = next(b for b in data if b > 127)
        raise ConstraintViolation(f"byte {code:#x} is not ASCII")


def _scan_terminated(cur: Cursor, terminator: bytes) -> bytes:
    """The bytes from the cursor through the first terminator, or every whole
    byte left when there is none; advances the cursor past what it returns."""
    if cur.pos % 8 == 0:
        data, start = cur.data, cur.pos >> 3
        end = data.find(terminator, start)
        end = len(data) if end < 0 else end + len(terminator)
        cur.pos = 8 * end
        return data[start:end]
    scanned = bytearray()
    while not scanned.endswith(terminator) and cur.remaining >= 8:
        scanned.append(cur.uint(8))
    return bytes(scanned)


def _literal_pattern(text: str) -> Pattern:
    named = {"\n": "\\n", "\r": "\\r", "\t": "\\t"}
    escaped = "".join(
        named.get(c, c if c.isalnum() else f"\\{c}") for c in text
    )
    return compile_pattern(escaped)


# --- compilation ------------------------------------------------------------------

def compile_node(rtype: RType, rcodec: RCodec | None, spec: ResolvedSpec) -> "Node":
    """Compile one field's type and codec into a :class:`Node`.  This is the
    only place that dispatches on type and codec names."""
    coded = rcodec is not None and rtype.base in CODED_TYPES
    return Node.classes[rcodec.base if coded else rtype.base](rtype, rcodec, spec)


def message_plan(spec: ResolvedSpec, msg_type: str) -> "RecordNode":
    """The node of a whole message type, compiled on first use and cached on the spec."""
    plan = spec.plans.get(msg_type)
    if plan is None:
        record = spec.message_record(msg_type)
        plan = compile_node(RType("Record", {}, record=record.name), None, spec)
        spec.plans[msg_type] = plan
    return plan


# --- wire-prefix facts ------------------------------------------------------------

class EndOfFacts(Exception):
    """Raised by a node where the static facts about a wire form end."""


class WirePrefix:
    """What every wire form of a message starts with, as segments in order:
    ``("lit", bits)``, bits that every successful decode reads there, and
    ``("skip", terminator, first)``, bytes through the first ``terminator``
    that start with a byte in the set ``first``, or any byte when it is None.
    The facts start at bit 0, a skip starts and ends on a byte boundary and
    adjacent literals merge, so every literal starts on a byte boundary and
    only the last one may end inside a byte."""

    def __init__(self):
        self.segments = []

    def literal(self, bits: BitString):
        if self.segments and self.segments[-1][0] == "lit":
            bits = self.segments.pop()[1].append(bits)
        self.segments.append(("lit", bits))

    def skip(self, terminator: bytes, first: frozenset | None):
        if self.segments and self.segments[-1][0] == "lit" and self.segments[-1][1].length % 8:
            raise EndOfFacts
        self.segments.append(("skip", terminator, first))


# --- field nodes ------------------------------------------------------------------

class Node:
    """One field's type and codec, compiled.

    ``encode(value, env)`` returns the value's bits, or raises
    ConstraintViolation with the path to the part that breaks the type.
    ``decode(cur, env)`` returns the value read at the
    :class:`~wirespec.bits.Cursor` ``cur`` and advances ``cur`` past it; it
    raises IncompleteInput subclasses when the buffer may simply be short
    and ConstraintViolation when the input contradicts the type.  A leaf
    encodes by ``check(value, env)`` (None, or the reason) then ``write``,
    and decodes by ``read`` then ``check``.  ``generate(gen, env, path)``
    draws a well-formed value with the
    :class:`~wirespec.generate.Generator` ``gen``.
    ``env`` maps the enclosing record's parameters and earlier fields to
    their values.
    ``add_goals(cov, key, seen)`` adds the goals of the field ``key``, a
    (record, field) pair, to the :class:`~wirespec.coverage.Coverage` ``cov``;
    ``seen`` holds the records added so far.  ``retype(value)`` fills in the
    record and enum names value literals omit, and keeps a value of another kind.
    ``wire_prefix(env, facts)`` appends what the node's wire form starts
    with to the :class:`WirePrefix` ``facts`` and returns the value that any
    successful decode yields when the facts fix it, else None; where the
    facts end it raises EndOfFacts, or the error of an argument it cannot
    evaluate yet.  A pinned field gives a literal only when its node is
    ``canonical``: each value has one encoding and decode accepts no other.
    TextInteger is not, as it reads ``05`` and ``-0`` too; an unpinned
    terminated text gives a skip through its terminator, with the first
    bytes its pattern allows.
    Each subclass is named after the type or codec it codes.
    """

    classes = {}  # type or codec name -> node class
    pin = None  # env -> the value a pinned field must have
    canonical = False

    def __init_subclass__(cls):
        Node.classes[cls.__name__.removesuffix("Node")] = cls

    def add_goals(self, cov, key, seen):
        pass

    def retype(self, value):
        return value

    def encode(self, value, env: dict) -> BitString:
        reason = self.check(value, env)
        if reason:
            raise ConstraintViolation(reason)
        return self.write(value, env)

    def decode(self, cur: Cursor, env: dict):
        value = self.read(cur, env)
        reason = self.check(value, env)
        if reason:
            raise ConstraintViolation(reason)
        return value

    def wire_prefix(self, env, facts):
        if not self.canonical or self.pin is None:
            raise EndOfFacts
        value = self.generate(None, env, "")  # a pinned field draws nothing
        facts.literal(self.write(value, env))
        return value


class IntegerNode(Node):
    def __init__(self, rtype, rcodec, spec):
        self.codec_range = lambda env: (None, None)
        self.pin = compile_arg(rtype.args, "value", spec.constants, as_int)
        self.min = compile_arg(rtype.args, "min", spec.constants, as_int)
        self.max = compile_arg(rtype.args, "max", spec.constants, as_int)

    def check(self, value, env):
        if not isinstance(value, IntVal):
            return f"expected an integer, got {value!r}"
        n = value.value
        if self.pin is not None and n != self.pin(env):
            return f"must equal {self.pin(env)}, got {n}"
        if self.min is not None and n < self.min(env):
            return f"{n} below minimum {self.min(env)}"
        if self.max is not None and n > self.max(env):
            return f"{n} above maximum {self.max(env)}"
        return None

    def generate(self, gen, env, path):
        if self.pin is not None:
            return IntVal(self.pin(env))
        lo = None if self.min is None else self.min(env)
        hi = None if self.max is None else self.max(env)
        try:
            clo, chi = self.codec_range(env)
        except Unrepresentable as e:
            raise UnsatisfiableConstraint(f"{path}: {e}") from None
        if clo is not None:
            lo = clo if lo is None else max(lo, clo)
            hi = chi if hi is None else min(hi, chi)
        if lo is None or hi is None:
            raise UnsatisfiableConstraint(f"{path}: integer range is unbounded")
        if lo > hi:
            raise UnsatisfiableConstraint(f"{path}: empty integer range [{lo}, {hi}]")
        return IntVal(gen.rng.randint(lo, hi))


class BigEndianNode(IntegerNode):
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.width = compile_arg(rcodec.args, "length", spec.constants, as_int)
        signed = compile_arg(rcodec.args, "signed", spec.constants, as_bool)
        self.signed = signed or (lambda env: False)
        self.codec_range = fold(lambda env: signed_range(self.width(env), self.signed(env)))

    def write(self, value, env):
        width, signed = self.width(env), self.signed(env)
        lo, hi = self.codec_range(env)
        if not lo <= value.value <= hi:
            raise Unrepresentable(
                f"{value.value} does not fit {width}-bit {'signed' if signed else 'unsigned'}"
            )
        return BitString(value.value & ((1 << width) - 1), width)

    def read(self, cur, env):
        try:
            _, hi = self.codec_range(env)
        except Unrepresentable as e:
            raise ConstraintViolation(str(e)) from None
        width = self.width(env)
        raw = cur.uint(width)
        # two's complement: above the range, the sign bit is set
        return IntVal(raw - (1 << width) if raw > hi else raw)


class TextIntegerNode(IntegerNode):
    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.text = compile_node(RType("Text", {}), rcodec.args["text_codec"], spec)

    def write(self, value, env):
        return self.text.write(TextVal(str(value.value)), env)

    def read(self, cur, env):
        text = self.text.decode(cur, env).text
        body = text[1:] if text.startswith("-") else text
        if not body or not body.isdigit():
            raise ConstraintViolation(f"{text!r} is not a decimal integer")
        return IntVal(int(text))

    def wire_prefix(self, env, facts):
        # the text codec fixes where the digits end, never which they are
        self.text.wire_prefix(env, facts)
        return None


class TextNode(Node):
    def __init__(self, rtype, rcodec, spec):
        args = rtype.args
        self.exact = lambda env: None  # the length a fixed-count codec forces on every draw
        self.charset = args.get("charset", "ascii")
        self.alphabet = frozenset(alphabet_for_charset(self.charset))
        self.pin = compile_arg(args, "value", spec.constants, as_text)
        self.max_count = compile_arg(args, "max_count", spec.constants, as_int)
        self.pattern = args.get("pattern")
        self.exclude = args.get("exclude_pattern")
        self.excludes = () if self.exclude is None else (self.exclude,)
        self.draw_alphabet = alphabet_for_charset(self.charset) if self.pattern else PRINTABLE
        fallback = REGEX_EXPANSION_CAP if self.pattern else MAX_TEXT_LEN
        self.cap = self.max_count or (lambda env: fallback)

    def check(self, value, env):
        if not isinstance(value, TextVal):
            return f"expected text, got {value!r}"
        text = value.text
        if not self.alphabet.issuperset(text):
            ch = next(c for c in text if c not in self.alphabet)
            return f"character {ch!r} outside charset {self.charset!r}"
        if self.pin is not None:
            expected = self.pin(env)
            if text != expected.text:
                return f"must equal {expected!r}, got {text!r}"
        if self.max_count is not None and len(text) > self.max_count(env):
            return f"{len(text)} characters exceeds max_count"
        if self.pattern is not None and not self.pattern.fullmatch(text):
            return f"{text!r} does not match {self.pattern!r}"
        if self.exclude is not None and self.exclude.search(text):
            return f"{text!r} contains a substring matching {self.exclude!r}"
        return None

    def generate(self, gen, env, path):
        if self.pin is not None:
            return TextVal(self.pin(env).text, self.charset)
        exact = self.exact(env)
        cap = self.cap(env)
        if cap < 0:
            raise UnsatisfiableConstraint(f"{path}: negative max_count {cap}")
        sampler = language(self.pattern, self.draw_alphabet, self.excludes)
        try:
            text = sampler.sample(gen.rng, cap, exact)
        except UnsatisfiableConstraint as e:
            raise UnsatisfiableConstraint(f"{path}: {e}") from None
        return TextVal(text, self.charset)


class TerminatedTextNode(TextNode):
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.encoding = rcodec.args.get("encoding", "ascii")
        self.terminator = rcodec.args["terminator"]
        # the resolver guarantees the terminator is encodable in the encoding
        self.terminator_bytes = _encode_text_bytes(self.terminator, self.encoding)
        self.excludes += (_literal_pattern(self.terminator),)

    def write(self, value, env):
        if self.terminator in value.text:
            raise TerminatorInPayload(
                f"text {value.text!r} contains its terminator {self.terminator!r}"
            )
        data = _encode_text_bytes(value.text + self.terminator, self.encoding)
        return BitString.from_bytes(data)

    def read(self, cur, env):
        terminator = self.terminator_bytes
        scanned = _scan_terminated(cur, terminator)
        _check_ascii(scanned, self.encoding)
        if not scanned.endswith(terminator):
            # a valid text and a partial terminator span fewer bytes than this
            if self.max_count is not None and len(scanned) - len(terminator) >= self.max_count(env):
                raise ConstraintViolation(
                    f"{len(scanned)} characters without terminator {self.terminator!r} "
                    "exceeds max_count"
                )
            raise MissingTerminator(f"terminator {self.terminator!r} not found")
        text = scanned[: len(scanned) - len(terminator)].decode("latin-1")
        return TextVal(text, self.charset)

    def wire_prefix(self, env, facts):
        if self.pin is not None:
            return super().wire_prefix(env, facts)
        facts.skip(self.terminator_bytes, self.first_bytes)
        return None

    @cached_property
    def first_bytes(self) -> frozenset | None:
        """The bytes a text that passes ``check`` can start its encoding with,
        the terminator's for the empty text; None when any byte can."""
        if self.pattern is None and self.exclude is None:
            return None
        sampler = language(self.pattern, alphabet_for_charset(self.charset), self.excludes)
        first = {ord(ch) for ch in sampler.first_chars}
        if sampler.counts(0)[0]:
            first.add(self.terminator_bytes[0])
        return frozenset(first)


class FixedCountTextNode(TextNode):
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.encoding = rcodec.args.get("encoding", "ascii")
        # the resolver guarantees the type gives max_count or value
        self.exact = self.max_count or (lambda env: len(self.pin(env).text))
        self.cap = self.exact

    def write(self, value, env):
        count = self.exact(env)
        if len(value.text) != count:
            raise Unrepresentable(
                f"fixed-count text must be exactly {count} characters, got {len(value.text)}"
            )
        return BitString.from_bytes(_encode_text_bytes(value.text, self.encoding))

    def read(self, cur, env):
        data = cur.bits(8 * max(self.exact(env), 0)).to_bytes()
        _check_ascii(data, self.encoding)
        return TextVal(data.decode("latin-1"), self.charset)


class BoolNode(Node):
    def __init__(self, rtype, rcodec, spec):
        self.pin = compile_arg(rtype.args, "value", spec.constants, as_bool)

    def check(self, value, env):
        if not isinstance(value, BoolVal):
            return f"expected a boolean, got {value!r}"
        if self.pin is not None and value.value != self.pin(env):
            return "boolean has the wrong fixed value"
        return None

    def generate(self, gen, env, path):
        if self.pin is not None:
            return BoolVal(self.pin(env))
        return BoolVal(gen.rng.random() < 0.5)


class BoolBitsNode(BoolNode):
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.truth = rcodec.args["truth_string"]
        self.falsehood = rcodec.args["falsehood_string"]

    def write(self, value, env):
        return self.truth if value.value else self.falsehood

    def read(self, cur, env):
        head = cur.bits(self.truth.length)
        if head == self.truth:
            return BoolVal(True)
        if head == self.falsehood:
            return BoolVal(False)
        raise ConstraintViolation(f"bits {head!r} are neither truth nor falsehood pattern")


class BinaryNode(Node):
    """Binary values are their own bits; the resolver rejects a codec on the field."""

    canonical = True

    def __init__(self, rtype, rcodec, spec):
        self.pin = compile_arg(rtype.args, "value", spec.constants, as_bits)
        self.length = compile_arg(rtype.args, "length", spec.constants, as_int)
        self.pattern = rtype.args.get("char8_pattern")
        # the resolver guarantees the type gives length or value
        self.size = self.length if self.pin is None else lambda env: self.pin(env).length

    def check(self, value, env):
        if not isinstance(value, BitsVal):
            return f"expected bits, got {value!r}"
        bits = value.bits
        if self.pin is not None:
            expected = self.pin(env)
            if bits != expected:
                return f"must equal {expected!r}, got {bits!r}"
        if self.length is not None and bits.length != self.length(env):
            return f"length {bits.length} bits, expected {self.length(env)}"
        return self.pattern_mismatch(bits)

    def pattern_mismatch(self, bits):
        if self.pattern is not None and not self.pattern.fullmatch(bits.to_bits()):
            return f"bits {bits.to_bits()!r} do not match {self.pattern!r}"
        return None

    def write(self, value, env):
        return value.bits

    def read(self, cur, env):
        length = self.size(env)
        if length < 0:
            raise ConstraintViolation(f"negative bit length {length}")
        return BitsVal(cur.bits(length))

    def decode(self, cur, env):
        if self.pin is not None:
            return super().decode(cur, env)
        # read took exactly length bits: only the pattern is left to check
        value = self.read(cur, env)
        reason = self.pattern_mismatch(value.bits)
        if reason:
            raise ConstraintViolation(reason)
        return value

    def generate(self, gen, env, path):
        if self.pin is not None:
            return BitsVal(self.pin(env))
        length = self.length(env)
        if length < 0:
            raise UnsatisfiableConstraint(f"{path}: negative bit length {length}")
        if self.pattern is None:
            return BitsVal(BitString(gen.rng.getrandbits(length), length))
        sampler = language(self.pattern, "01", ())
        try:
            bits = sampler.sample(gen.rng, length, length)
        except UnsatisfiableConstraint:
            raise UnsatisfiableConstraint(
                f"{path}: no {length}-bit string matches {self.pattern!r}"
            ) from None
        return BitsVal(BitString.from_bits(bits))


class ListNode(Node):
    def __init__(self, rtype, rcodec, spec):
        self.max_length = compile_arg(rtype.args, "max_length", spec.constants, as_int)
        self.elem = compile_node(rtype.args["elem"], None, spec)

    def generate(self, gen, env, path):
        cap = MAX_LIST_LEN if self.max_length is None else self.max_length(env)
        if cap < 0:
            raise UnsatisfiableConstraint(f"{path}: negative max_length {cap}")
        count = gen.rng.randint(0, cap)
        return ListVal(
            tuple(self.elem.generate(gen, env, f"{path}[{i}]") for i in range(count))
        )

    def add_goals(self, cov, key, seen):
        self.elem.add_goals(cov, key, seen)

    def retype(self, value):
        if not isinstance(value, ListVal):
            return value
        return ListVal(tuple(self.elem.retype(item) for item in value.items))


class CountPrefixListNode(ListNode):
    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.count = compile_node(RType("Integer", {}), rcodec.args["count_codec"], spec)

    def encode(self, value, env):
        if not isinstance(value, ListVal):
            raise ConstraintViolation(f"expected a list, got {value!r}")
        if self.max_length is not None and len(value.items) > self.max_length(env):
            raise ConstraintViolation(f"{len(value.items)} elements exceeds max_length")
        parts = [self.count.write(IntVal(len(value.items)), env)]
        for i, item in enumerate(value.items):
            try:
                parts.append(self.elem.encode(item, env))
            except ConstraintViolation as e:
                raise ConstraintViolation(f"element {i}: {e}") from None
        return BitString.concat(parts)

    def decode(self, cur, env):
        count = self.count.decode(cur, env).value
        if count < 0:
            raise ConstraintViolation(f"negative list count {count}")
        if self.max_length is not None and count > self.max_length(env):
            raise ConstraintViolation(f"list count {count} exceeds max_length")
        return ListVal(tuple(self.elem.decode(cur, env) for _ in range(count)))


class EnumNode(Node):
    """Maps constants to and from their values, which code as the enum's base type."""

    def __init__(self, rtype, rcodec, spec):
        enum = spec.enums[rtype.enum]
        self.name = enum.name
        self.constants = enum.constants
        self.choices = list(enum.constants)
        # reversed, so that the first of two constants with one value wins
        self.by_value = {cval: cname for cname, cval in reversed(enum.constants.items())}
        self.base = compile_node(enum.base, rcodec, spec)
        self.canonical = self.base.canonical
        self.pin = compile_arg(rtype.args, "value", spec.constants, self.as_constant)

    def as_constant(self, value) -> EnumVal:
        """The value itself, once it is one of this enum's own constants."""
        if not isinstance(value, EnumVal) or value.enum != self.name:
            raise TypeMismatch(f"expected a {self.name} constant, got {value!r}")
        return value

    def check(self, value, env):
        if not isinstance(value, EnumVal) or value.enum != self.name:
            return f"expected a {self.name} constant, got {value!r}"
        if value.constant not in self.constants:
            return f"{value.constant!r} is not a constant of {self.name}"
        if self.pin is not None:
            expected = self.pin(env)
            if expected != value:
                return f"must be {expected!r}, got {value.constant}"
        return None

    def write(self, value, env):
        return self.base.write(self.constants[value.constant], env)

    def read(self, cur, env):
        raw = self.base.decode(cur, env)
        constant = self.by_value.get(raw)
        if constant is None:
            raise ConstraintViolation(f"{raw!r} is not a {self.name} constant")
        return EnumVal(self.name, constant)

    def generate(self, gen, env, path):
        if self.pin is not None:
            return self.pin(env)
        return EnumVal(self.name, gen.rng.choice(self.choices))

    def add_goals(self, cov, key, seen):
        for constant in self.constants:
            cov.enums.setdefault((self.name, constant), 0)

    def retype(self, value):
        return EnumVal(self.name, value.constant) if isinstance(value, EnumVal) else value


class OptionalNode(Node):
    """Present or absent by its guard; a present value codes as the subject."""

    def __init__(self, rtype, rcodec, spec):
        self.is_empty = compile_arg(rtype.args, "is_empty", spec.constants, as_bool)
        self.subject = compile_node(rtype.args["subject"], rcodec, spec)

    def encode(self, value, env):
        empty = self.is_empty(env)
        if empty != (value is ABSENT):
            reason = "value must be absent" if empty else "value is required but absent"
            raise ConstraintViolation(reason)
        return EMPTY if empty else self.subject.encode(value, env)

    def decode(self, cur, env):
        return ABSENT if self.is_empty(env) else self.subject.decode(cur, env)

    def generate(self, gen, env, path):
        return ABSENT if self.is_empty(env) else self.subject.generate(gen, env, path)

    def add_goals(self, cov, key, seen):
        cov.optional.setdefault(key, [0, 0])
        self.subject.add_goals(cov, key, seen)

    def retype(self, value):
        return value if value is ABSENT else self.subject.retype(value)


class RecordNode(Node):
    """A record instance: binds its parameters, applies field pins such as
    ``Header(flag=1)``, and binds each field in turn for the later ones."""

    def __init__(self, rtype, rcodec, spec):
        self.rtype = rtype
        self.record = spec.records[rtype.record]
        self.name = self.record.name
        self.spec = spec
        # parameter arguments and field pins, both over the outer environment
        self.args = [(name, compile_arg(rtype.args, name, spec.constants)) for name in rtype.args]
        self.names = [f.name for f in self.record.fields]

    @cached_property
    def fields(self) -> list:
        """(name, node) pairs, compiled on first use so a record may nest itself."""
        out = []
        for fld in self.record.fields:
            ftype = fld.type
            if fld.name in self.rtype.args:
                # the pin's value is bound under the field's own name (see bind)
                ftype = ftype.replace_args({**ftype.args, "value": NameRef(fld.name)})
            out.append((fld.name, compile_node(ftype, fld.codec, self.spec)))
        return out

    def bind(self, outer: dict) -> dict:
        """The record's own environment, with its parameters and pins evaluated
        in the outer one.  A pinned field's name holds the pin until the field
        itself is bound; earlier fields cannot see it, as the resolver rejects
        references to later fields."""
        if not self.args:
            return {}
        return {name: arg(outer) for name, arg in self.args}

    def encode(self, value, env):
        if not isinstance(value, RecordVal) or value.type_name != self.name:
            raise ConstraintViolation(f"expected a {self.name} record, got {value!r}")
        if value.names() != self.names:
            raise ConstraintViolation(f"field set mismatch for {self.name}")
        inner = self.bind(env)
        parts = []
        for (name, node), (_, v) in zip(self.fields, value.entries):
            try:
                parts.append(node.encode(v, inner))
            except ConstraintViolation as e:
                raise ConstraintViolation(f"{self.name}.{name}: {e}") from None
            inner[name] = v
        return BitString.concat(parts)

    def decode(self, cur, env):
        inner = self.bind(env)
        entries = []
        for name, node in self.fields:
            value = node.decode(cur, inner)
            entries.append((name, value))
            inner[name] = value
        return RecordVal(self.name, tuple(entries))

    def wire_prefix(self, env, facts):
        inner = self.bind(env)
        for name, node in self.fields:
            value = node.wire_prefix(inner, facts)
            if value is not None:
                inner[name] = value
        return None

    def generate(self, gen, env, path):
        inner = self.bind(env)
        entries = []
        for name, node in self.fields:
            value = node.generate(gen, inner, f"{path}.{name}")
            entries.append((name, value))
            inner[name] = value
        return RecordVal(self.name, tuple(entries))

    def add_goals(self, cov, key, seen):
        if self.name in seen:
            return
        seen.add(self.name)
        for name, node in self.fields:
            cov.fields.setdefault((self.name, name), 0)
            node.add_goals(cov, (self.name, name), seen)

    def retype(self, value):
        if not isinstance(value, RecordVal):
            return value
        given = dict(value.entries)
        for name in given:
            if name not in self.names:
                raise ConstraintViolation(f"{self.name} has no field {name!r}")
        entries = []
        for name, node in self.fields:
            if name not in given:
                raise ConstraintViolation(f"missing field {name!r}")
            entries.append((name, node.retype(given[name])))
        return RecordVal(self.name, tuple(entries))


# --- whole messages ---------------------------------------------------------------

def encode_message(msg_type: str, value: RecordVal, spec: ResolvedSpec) -> bytes:
    """The wire bytes of a message value, in one walk that checks each field
    and then writes it, so only the first faulty field in field order is
    reported: as ConstraintViolation with its path, or its codec's error."""
    try:
        bits = message_plan(spec, msg_type).encode(value, {})
    except ConstraintViolation as e:
        raise ConstraintViolation(f"{msg_type}: {e}") from None
    if bits.length % 8:
        raise NotByteAligned(
            f"{msg_type} encodes to {bits.length} bits for this value"
        )
    return bits.to_bytes()


@dataclass
class Classified:
    msg_type: str
    value: RecordVal
    consumed: int  # bytes
    also_matched: list | None = None


class NeedMoreBytes:
    def __repr__(self):
        return "NeedMoreBytes"


NEED_MORE = NeedMoreBytes()


@dataclass
class InvalidFormat:
    diagnostics: dict  # candidate -> failure reason


def wire_prefix(spec: ResolvedSpec, msg_type: str) -> list:
    """The segments of :class:`WirePrefix` that every wire form of a message
    type starts with, up to its last literal: a skip past that rules out
    nothing."""
    facts = WirePrefix()
    try:
        message_plan(spec, msg_type).wire_prefix({}, facts)
    except (EndOfFacts, WirespecError):
        pass  # the facts found so far hold
    segments = facts.segments
    while segments and segments[-1][0] == "skip":
        segments.pop()
    return segments


class _Branch:
    """A node of the tree of the candidates' wire-prefix facts, in which
    candidates that start alike share a path; a candidate is one bit of a
    mask.  Each node is at a byte boundary; a literal's tail that ends
    inside a byte ends its candidate's facts."""

    __slots__ = ("ends", "below", "children", "tails", "skips")

    def __init__(self):
        self.ends = 0  # candidates whose facts end here
        self.below = 0  # every candidate at or under this node
        self.children = {}  # byte -> branch past it
        self.tails = []  # (8 - width, the byte's first width bits, candidate)
        self.skips = []  # (terminator, first bytes, branch past the terminator)

    def add(self, bit: int, segments: list):
        node = self
        node.below |= bit
        for segment in segments:
            if segment[0] == "skip":
                _, terminator, first = segment
                child = next((c for t, f, c in node.skips if (t, f) == (terminator, first)), None)
                if child is None:
                    child = _Branch()
                    node.skips.append((terminator, first, child))
                node = child
                node.below |= bit
                continue
            bits = segment[1]
            whole, width = divmod(bits.length, 8)
            for byte in (bits.value >> width).to_bytes(whole, "big"):
                node = node.children.setdefault(byte, _Branch())
                node.below |= bit
            if width:  # only the last literal ends inside a byte
                node.tails.append((8 - width, bits.value & ((1 << width) - 1), bit))
                return
        node.ends |= bit

    def alive(self, buf: bytes) -> int:
        """The candidates whose facts ``buf`` does not contradict.  A missing
        terminator or a read past the end of ``buf`` keeps them."""
        alive = 0
        size = len(buf)
        stack = [(self, 0)]
        while stack:
            node, at = stack.pop()
            if at == size:
                alive |= node.below
                continue
            alive |= node.ends
            byte = buf[at]
            child = node.children.get(byte)
            if child is not None:
                stack.append((child, at + 1))
            for shift, value, bit in node.tails:
                if byte >> shift == value:
                    alive |= bit
            for terminator, first, child in node.skips:
                if first is not None and byte not in first:
                    continue
                end = buf.find(terminator, at)
                if end < 0:
                    alive |= child.below
                else:
                    stack.append((child, end + len(terminator)))
        return alive


class Classifier:
    """One candidate list in declaration order (``ordered``; candidate ``i``
    is bit ``1 << i``) and the tree of its candidates' wire-prefix facts."""

    def __init__(self, spec: ResolvedSpec, candidates: tuple):
        for name in candidates:
            spec.message_record(name)
        wanted = set(candidates)
        self.ordered = [m for m in spec.message_types if m in wanted]
        if not self.ordered:
            raise ValueError("no candidate message types")
        self.tree = _Branch()
        for i, name in enumerate(self.ordered):
            self.tree.add(1 << i, wire_prefix(spec, name))


def classifier(spec: ResolvedSpec, candidates) -> Classifier:
    """The :class:`Classifier` of a candidate list, built on first use and
    cached on the spec."""
    key = candidates if type(candidates) is tuple else tuple(candidates)
    found = spec.classifiers.get(key)
    if found is None:
        found = spec.classifiers.setdefault(key, Classifier(spec, key))
    return found


def _attempt(buf: bytes, spec: ResolvedSpec, msg_type: str):
    """The message decoded in full from the front of ``buf``, else why not:
    (whether more bytes may help, the reason)."""
    try:
        cur = Cursor(buf)
        value = message_plan(spec, msg_type).decode(cur, {})
        if cur.pos % 8:
            raise ConstraintViolation("message does not end on a byte boundary")
        return Classified(msg_type, value, cur.pos // 8)
    except IncompleteInput as e:
        return True, f"incomplete: {e}"
    except (ConstraintViolation, EvalError) as e:
        # peer-controlled values reach expressions (lengths, guards), so
        # an expression that fails to evaluate is a malformed message
        return False, str(e)


def decode_message(
    buf: bytes,
    candidates,
    spec: ResolvedSpec,
    report_ambiguity: bool = False,
):
    """Classify the front of a byte buffer against candidate message types.

    Only the candidates whose wire-prefix facts the buffer does not
    contradict decide (see :class:`Classifier`): the first of them in
    specification declaration order that decodes in full wins, else the
    outcome is NEED_MORE if one of them ran out of input, else
    InvalidFormat.  A candidate the facts rule out can never decode, however
    the buffer goes on, so it is decoded only for its diagnostic, which
    says so if that decode ran out of input.  InvalidFormat holds one
    diagnostic per candidate, in declaration order.  An unknown candidate
    is an UnknownName error.
    """
    classify = classifier(spec, candidates)
    alive = classify.tree.alive(buf)
    diagnostics, matched, incomplete = {}, [], False
    for i, name in enumerate(classify.ordered):
        if not alive >> i & 1:
            continue
        out = _attempt(buf, spec, name)
        if not isinstance(out, Classified):
            incomplete |= out[0]
            diagnostics[name] = out[1]
        elif not report_ambiguity:
            return out
        else:
            matched.append(out)
    if matched:
        matched[0].also_matched = [out.msg_type for out in matched[1:]]
        return matched[0]
    if incomplete:
        return NEED_MORE
    for name in classify.ordered:
        if name not in diagnostics:
            # the facts rule out no candidate that decodes, so this one fails
            more, reason = _attempt(buf, spec, name)
            diagnostics[name] = f"ruled out by its wire prefix, {reason}" if more else reason
    return InvalidFormat({name: diagnostics[name] for name in classify.ordered})
