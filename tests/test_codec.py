import functools
import hashlib
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wirespec import codec
from wirespec.bits import BitString
from wirespec.cli import bundled_spec_path
from wirespec.codec import (
    Classified,
    InvalidFormat,
    NEED_MORE,
    Node,
    decode_message,
    compile_node,
    encode_message,
    classifier,
    message_plan,
    wire_prefix,
)
from wirespec.coverage import Coverage
from wirespec.errors import (
    ConstraintViolation,
    DivisionByZero,
    EvalError,
    IncompleteInput,
    MissingTerminator,
    NotByteAligned,
    ResolutionError,
    TerminatorInPayload,
    TypeMismatch,
    Underrun,
    UnknownName,
    UnsatisfiableConstraint,
    Unrepresentable,
    WirespecError,
)
from wirespec.generate import GenConfig, Generator
from wirespec.resolve import CODEC_SIGNATURES, TYPE_SIGNATURES, RCodec, RType, resolve
from wirespec.syntax import NameRef, parse_spec
from wirespec.values import (
    ABSENT,
    BitsVal,
    BoolVal,
    EnumVal,
    IntVal,
    ListVal,
    RecordVal,
    TextVal,
    compile_expr,
)

from test_patterns import DIALECT

INT = RType("Integer", {})


def r_codec(base, **args):
    return RCodec(base, args)


def empty_spec():
    return resolve(parse_spec("message module E end"))


SPEC = empty_spec()


def test_bigendian_unsigned():
    bits = compile_node(INT, r_codec("BigEndian", length=_lit(32)), SPEC).encode(IntVal(5), {})
    assert bits.to_bytes() == bytes.fromhex("00000005")


def _lit(n):
    from wirespec.syntax import IntLit

    return IntLit(n)


def _true():
    return NameRef("true")


def test_bigendian_signed_two_complement():
    # struct-style oracle: -1 in 8-bit two's complement is 0xFF
    codec = r_codec("BigEndian", signed=_true(), length=_lit(8))
    node = compile_node(INT, codec, SPEC)
    assert node.encode(IntVal(-1), {}).to_bytes() == b"\xff"
    assert node.encode(IntVal(-128), {}).to_bytes() == b"\x80"
    assert node.decode(b"\x80", 0, {}) == (IntVal(-128), 8)


def test_bigendian_width_enforced():
    with pytest.raises(Unrepresentable):
        compile_node(INT, r_codec("BigEndian", length=_lit(2)), SPEC).encode(IntVal(4), {})
    with pytest.raises(Unrepresentable):
        signed8 = r_codec("BigEndian", signed=_true(), length=_lit(8))
        compile_node(INT, signed8, SPEC).encode(IntVal(128), {})


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=60)
def test_bigendian_roundtrip_signed_32(n):
    codec = r_codec("BigEndian", signed=_true(), length=_lit(32))
    node = compile_node(INT, codec, SPEC)
    bits = node.encode(IntVal(n), {})
    assert bits.to_bytes() == n.to_bytes(4, "big", signed=True)  # stdlib oracle
    assert node.decode(bits.to_bytes(), 0, {}) == (IntVal(n), 32)


BOOL = RType("Bool", {})
BOOLBITS = r_codec(
    "BoolBits",
    truth_string=BitString.from_hex("ff"),
    falsehood_string=BitString.from_hex("00"),
)


def test_boolbits():
    node = compile_node(BOOL, BOOLBITS, SPEC)
    assert node.encode(BoolVal(True), {}).to_bytes() == b"\xff"
    assert node.encode(BoolVal(False), {}).to_bytes() == b"\x00"
    v, _ = node.decode(b"\xff", 0, {})
    assert v == BoolVal(True)
    with pytest.raises(ConstraintViolation):
        node.decode(b"\x01", 0, {})


TEXT = RType("Text", {})


def test_terminated_text_appends_terminator():
    codec = r_codec("TerminatedText", encoding="ascii", terminator=" ")
    bits = compile_node(TEXT, codec, SPEC).encode(TextVal("DELETE"), {})
    assert bits.to_bytes() == b"DELETE "


def test_terminated_text_first_terminator_wins():
    codec = r_codec("TerminatedText", encoding="ascii", terminator=" ")
    v, pos = compile_node(TEXT, codec, SPEC).decode(b"A B", 0, {})
    assert v == TextVal("A")
    assert pos == 16


def test_terminator_in_payload_rejected():
    codec = r_codec("TerminatedText", encoding="ascii", terminator=" ")
    with pytest.raises(TerminatorInPayload):
        compile_node(TEXT, codec, SPEC).encode(TextVal("A B"), {})


def test_missing_terminator_is_incomplete():
    codec = r_codec("TerminatedText", encoding="ascii", terminator="\r\n")
    with pytest.raises(MissingTerminator):
        compile_node(TEXT, codec, SPEC).decode(b"no line end", 0, {})


def test_multichar_terminator_roundtrip():
    codec = r_codec("TerminatedText", encoding="ascii", terminator="\r\n")
    node = compile_node(TEXT, codec, SPEC)
    bits = node.encode(TextVal("a1 OK done"), {})
    assert bits.to_bytes() == b"a1 OK done\r\n"
    v, pos = node.decode(bits.to_bytes(), 0, {})
    assert v == TextVal("a1 OK done") and pos == bits.length


def test_fixed_count_text():
    rtype = RType("Text", {"max_count": _lit(4)})
    codec = r_codec("FixedCountText", encoding="ascii")
    node = compile_node(rtype, codec, SPEC)
    assert node.encode(TextVal("ABCD"), {}).to_bytes() == b"ABCD"
    with pytest.raises(Unrepresentable):
        node.encode(TextVal("ABC"), {})
    v, pos = node.decode(b"ABCDE", 0, {})
    assert v == TextVal("ABCD") and pos == 32


def test_text_integer_decimal():
    codec = r_codec("TextInteger", text_codec=r_codec("TerminatedText", terminator=" "))
    node = compile_node(INT, codec, SPEC)
    bits = node.encode(IntVal(42), {})
    assert bits.to_bytes() == b"42 "
    v, _ = node.decode(bits.to_bytes(), 0, {})
    assert v == IntVal(42)
    v, _ = node.decode(b"007 ", 0, {})
    assert v == IntVal(7)  # leading zeros accepted on decode
    with pytest.raises(ConstraintViolation):
        node.decode(b"4x2 ", 0, {})


# --- whole messages over the bundled MyP spec --------------------------------------

def test_count_prefix_empty_list(myp_spec):
    data = next(f for f in myp_spec.records["Data"].fields if f.name == "payload")
    bits = compile_node(data.type, data.codec, myp_spec).encode(ListVal(()), {})
    assert bits.to_bytes() == bytes.fromhex("00000000")


def test_header_decode_golden(myp_spec):
    # 0x40 = bits 01 000000: flag 1, reserved zeros
    rtype = RType("Record", {}, record="Header")
    value, pos = compile_node(rtype, None, myp_spec).decode(b"\x40", 0, {})
    assert value == RecordVal(
        "Header",
        (("flag", IntVal(1)), ("reserved", BitsVal(BitString.from_bits("000000")))),
    )
    assert pos == 8


def ask_value():
    return RecordVal(
        "Ask",
        (
            (
                "h",
                RecordVal(
                    "Header",
                    (("flag", IntVal(1)), ("reserved", BitsVal(BitString.from_bits("000000")))),
                ),
            ),
        ),
    )


def test_encode_ask_golden(myp_spec):
    assert encode_message("Ask", ask_value(), myp_spec) == bytes([0x40])


def test_encode_checks_value_first(myp_spec):
    bad = RecordVal(
        "Ask",
        (
            (
                "h",
                RecordVal(
                    "Header",
                    (("flag", IntVal(3)), ("reserved", BitsVal(BitString.from_bits("000000")))),
                ),
            ),
        ),
    )
    # one walk checks each field before it writes it: the first fault in
    # field order is reported, with the path the message and records add
    with pytest.raises(ConstraintViolation) as e:
        encode_message("Ask", bad, myp_spec)
    assert str(e.value) == "Ask: Ask.h: Header.flag: must equal 1, got 3"
    item = RecordVal("DataItem", (("n", IntVal(1)), ("data", BitsVal(BitString(0, 8))),
                                  ("padding", BitsVal(BitString(0, 24)))))
    data = RecordVal("Data", (
        ("h", RecordVal("Header", (("flag", IntVal(0)), ("reserved", BitsVal(BitString(0, 6)))))),
        ("payload", ListVal((item,))),
        ("hasfoot", BoolVal(False)),
        ("foot", TextVal("x")),
    ))
    with pytest.raises(ConstraintViolation) as e:
        encode_message("Data", data, myp_spec)
    reason = "Data: Data.payload: element 0: DataItem.padding: bits "
    assert str(e.value).startswith(reason)
    fixed = RecordVal("DataItem", item.entries[:2] + (("padding", BitsVal(BitString(1, 24))),))
    data = RecordVal("Data", data.entries[:1] + (("payload", ListVal((fixed,))),) + data.entries[2:])
    with pytest.raises(ConstraintViolation) as e:
        encode_message("Data", data, myp_spec)
    assert str(e.value) == "Data: Data.foot: value must be absent"
    with pytest.raises(ConstraintViolation, match="^Data: field set mismatch for Data$"):
        encode_message("Data", RecordVal("Data", data.entries[:3]), myp_spec)


def test_empty_data_message_is_six_bytes(myp_spec):
    value = RecordVal(
        "Data",
        (
            (
                "h",
                RecordVal(
                    "Header",
                    (("flag", IntVal(0)), ("reserved", BitsVal(BitString.from_bits("000000")))),
                ),
            ),
            ("payload", ListVal(())),
            ("hasfoot", BoolVal(False)),
            ("foot", ABSENT),
        ),
    )
    wire = encode_message("Data", value, myp_spec)
    assert wire == bytes.fromhex("000000000000")
    assert len(wire) == 6


def test_classification_by_flag(myp_spec):
    out = decode_message(bytes([0x40]), {"Ask", "Done"}, myp_spec)
    assert isinstance(out, Classified)
    assert out.msg_type == "Ask" and out.consumed == 1
    assert out.value.get("h").get("flag") == IntVal(1)


def test_classification_rejects_wrong_fixed_value(myp_spec):
    out = decode_message(bytes([0xC0]), {"Ask"}, myp_spec)
    assert isinstance(out, InvalidFormat)
    assert "Ask" in out.diagnostics


def test_empty_buffer_needs_more(myp_spec):
    assert decode_message(b"", {"Ask", "Done"}, myp_spec) is NEED_MORE


def test_truncated_message_needs_more(myp_spec):
    value = Generator(myp_spec, GenConfig(seed=5)).message("Data")
    wire = encode_message("Data", value, myp_spec)
    for cut in (1, 4, len(wire) - 1):
        if cut < len(wire):
            assert decode_message(wire[:cut], {"Data"}, myp_spec) is NEED_MORE


def test_message_with_trailing_bytes(myp_spec):
    out = decode_message(bytes([0x40, 0xC0]), {"Ask", "Done"}, myp_spec)
    assert isinstance(out, Classified)
    assert out.msg_type == "Ask" and out.consumed == 1


def test_declaration_order_breaks_ties(imap_spec):
    # an OK status line parses as OkResp, not as any later candidate
    wire = b"a1 OK done\r\n"
    out = decode_message(wire, set(imap_spec.message_types), imap_spec, report_ambiguity=True)
    assert isinstance(out, Classified)
    assert out.msg_type == "OkResp"
    assert not out.also_matched


def test_report_ambiguity_lists_every_later_match():
    spec = resolve(
        parse_spec(
            "message module M "
            "message A with i is Integer as BigEndian(length=8) end "
            "message B with i is Integer(max=9) as BigEndian(length=8) end end"
        )
    )
    out = decode_message(b"\x05", ["B", "A"], spec, report_ambiguity=True)
    assert isinstance(out, Classified)
    assert out.msg_type == "A" and out.consumed == 1
    assert out.also_matched == ["B"]


def test_roundtrip_generated_messages(myp_spec, imap_spec):
    for spec, types in ((myp_spec, myp_spec.message_types), (imap_spec, imap_spec.message_types)):
        gen = Generator(spec, GenConfig(seed=11))
        for msg_type in types:
            value = gen.message(msg_type)
            wire = encode_message(msg_type, value, spec)
            out = decode_message(wire, {msg_type}, spec)
            assert isinstance(out, Classified)
            assert out.value == value
            assert out.consumed == len(wire)


def test_unaligned_message_rejected():
    spec = resolve(
        parse_spec(
            "message module M message Odd with b is Binary(length=3) end end"
        )
    )
    gen = Generator(spec, GenConfig(seed=0))
    with pytest.raises(NotByteAligned):
        encode_message("Odd", gen.message("Odd"), spec)


def test_message_ending_mid_byte_is_invalid_format():
    spec = resolve(
        parse_spec(
            "message module M message X with "
            "b is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') end end"
        )
    )
    out = decode_message(b"\x80", ["X"], spec)
    assert isinstance(out, InvalidFormat)
    assert out.diagnostics == {"X": "message does not end on a byte boundary"}


def test_negative_peer_length_is_invalid_format():
    spec = resolve(
        parse_spec(
            "message module M message X with n is Integer as BigEndian(length=8) "
            "b is Binary(length=8*n - 8) end end"
        )
    )
    out = decode_message(b"\x00", ["X"], spec)
    assert isinstance(out, InvalidFormat)
    assert "negative bit length -8" in out.diagnostics["X"]


NEGATIVE_CAP_SPEC = (
    "message module M message L with n is Integer(min=0, max=3) as BigEndian(length=8) {} end end"
)


@pytest.mark.parametrize(
    "field,reason",
    [
        ("t is Text(max_count=n - 5) as TerminatedText(terminator='\\n')", "max_count"),
        (
            "xs is List(elem=Binary(length=8), max_length=n - 5) "
            "as CountPrefixList(count_codec=BigEndian(length=8))",
            "max_length",
        ),
    ],
)
def test_negative_field_dependent_cap_is_unsatisfiable(field, reason):
    spec = resolve(parse_spec(NEGATIVE_CAP_SPEC.format(field)))
    name = field.split()[0]
    with pytest.raises(UnsatisfiableConstraint, match=rf"^L\.{name}: negative {reason} -[2-5]$"):
        Generator(spec, GenConfig(seed=1)).message("L")


def test_peer_zero_divisor_is_invalid_format():
    spec = resolve(
        parse_spec(
            "message module M message X with n is Integer as BigEndian(length=8) "
            "b is Binary(length=8 * (4 % n)) end end"
        )
    )
    out = decode_message(b"\x00", ["X"], spec)
    assert isinstance(out, InvalidFormat)
    assert "division by zero" in out.diagnostics["X"]


@pytest.mark.parametrize(
    "width, signed", [("8*n - 8", "false"), ("-8", "false"), ("0", "true")]
)
def test_codec_width_no_integer_has(width, signed):
    spec = resolve(
        parse_spec(
            "message module M message W with "
            "n is Integer(min=0, max=1) as BigEndian(length=8) "
            f"a is Integer as BigEndian(signed={signed}, length={width}) end end"
        )
    )
    bits = -8 if width != "0" else 0
    with pytest.raises(UnsatisfiableConstraint) as exc:
        Generator(spec, GenConfig(seed=1)).message("W")
    assert str(exc.value) == f"W.a: no {bits}-bit integer exists"
    value = RecordVal("W", (("n", IntVal(0)), ("a", IntVal(0))))
    with pytest.raises(Unrepresentable) as exc:
        encode_message("W", value, spec)
    assert str(exc.value) == f"no {bits}-bit integer exists"
    out = decode_message(b"\x00", ["W"], spec)
    assert out.diagnostics["W"] == f"no {bits}-bit integer exists"


@pytest.mark.parametrize(
    "field, value",
    [
        ("b is Binary(length=8 * (4 % 0))", BitsVal(BitString.from_bytes(b"\x00"))),
        ("i is Integer(max=4 % 0) as BigEndian(length=8)", IntVal(0)),
    ],
)
def test_failing_constant_argument_fails_at_run_time(field, value):
    spec = resolve(parse_spec(f"message module M message X with {field} end end"))
    out = decode_message(b"\x00", ["X"], spec)
    assert isinstance(out, InvalidFormat)
    assert out.diagnostics["X"] == "division by zero in 4 % 0"
    with pytest.raises(DivisionByZero, match="division by zero in 4 % 0"):
        Generator(spec, GenConfig(seed=0)).message("X")
    with pytest.raises(DivisionByZero, match="division by zero in 4 % 0"):
        encode_message("X", RecordVal("X", ((field.split()[0], value),)), spec)


@pytest.mark.parametrize("field", ["b is Binary(value=p)", "t is Text(value=p) as FixedCountText()"])
def test_parameter_bound_pin_of_the_wrong_kind(field):
    # the resolver cannot see the kind of p; the pin's node checks it when it runs
    spec = resolve(
        parse_spec(
            f"message module M record H(p) with {field} end "
            "message X with h is H(p=3) end end"
        )
    )
    out = decode_message(b"\x01", ["X"], spec)
    assert isinstance(out, InvalidFormat)
    assert out.diagnostics["X"].startswith("expected ")
    with pytest.raises(TypeMismatch):
        Generator(spec, GenConfig(seed=0)).message("X")


def test_every_signature_has_a_node_class():
    assert set(Node.classes) == {*TYPE_SIGNATURES, *CODEC_SIGNATURES, "Record", "Enum"}


def test_field_pin_reads_the_outer_record():
    spec = resolve(
        parse_spec(
            "message module M "
            "record H with flag is Integer(min=0, max=3) as BigEndian(length=8) end "
            "message X with n is Integer(min=0, max=3) as BigEndian(length=8) "
            "h is H(flag=n) end end"
        )
    )
    gen = Generator(spec, GenConfig(seed=0))
    for _ in range(10):
        value = gen.message("X")
        n = value.get("n")
        assert value.get("h").get("flag") == n
        assert encode_message("X", value, spec) == bytes([n.value, n.value])
    out = decode_message(b"\x01\x01", ["X"], spec)
    assert isinstance(out, Classified)
    assert out.value.get("h") == RecordVal("H", (("flag", IntVal(1)),))
    out = decode_message(b"\x01\x02", ["X"], spec)
    assert out.diagnostics["X"] == "must equal 1, got 2"


def test_terminated_text_at_unaligned_position():
    # the nibble before the text puts every text byte across a byte boundary
    spec = resolve(
        parse_spec(
            "message module M message X with a is Integer as BigEndian(length=4) "
            "t is Text(max_count=4) as TerminatedText(terminator='\\r\\n') "
            "b is Integer as BigEndian(length=4) end end"
        )
    )

    def shifted(text):
        return BitString(0x5, 4).append(BitString.from_bytes(text)).append(BitString(0xA, 4)).to_bytes()

    out = decode_message(shifted(b"ab\r\n") + b"\x40", ["X"], spec)
    assert isinstance(out, Classified) and out.consumed == 5
    assert out.value.get("t") == TextVal("ab")
    assert decode_message(shifted(b"ab\r"), ["X"], spec) is NEED_MORE
    out = decode_message(shifted(b"a\xe9\r\n"), ["X"], spec)
    assert out.diagnostics["X"] == "byte 0xe9 is not ASCII"
    # the max_count window is exact: four characters and a partial
    # terminator may still end validly, five may not
    assert decode_message(shifted(b"abcd\r"), ["X"], spec) is NEED_MORE
    out = decode_message(shifted(b"abcde\r"), ["X"], spec)
    assert out.diagnostics["X"].endswith("exceeds max_count")


def test_unterminated_line_past_max_count_is_invalid_format(imap_spec):
    # InfoText has max_count=48: no continuation of this line can be valid
    line = b"* OK " + b"x" * (16 * 1024 - 5)
    out = decode_message(line, imap_spec.message_types, imap_spec)
    assert isinstance(out, InvalidFormat)
    assert out.diagnostics["UntaggedOk"].endswith("exceeds max_count")


def test_max_count_window_is_exact(imap_spec):
    # 48 characters and the first terminator byte may still end validly
    short = b"* OK " + b"x" * 48 + b"\r"
    assert decode_message(short, ["UntaggedOk"], imap_spec) is NEED_MORE
    assert decode_message(short, imap_spec.message_types, imap_spec) is NEED_MORE
    assert isinstance(decode_message(short + b"\n", ["UntaggedOk"], imap_spec), Classified)
    long = b"* OK " + b"x" * 49 + b"\r"
    out = decode_message(long, ["UntaggedOk"], imap_spec)
    reason = "50 characters without terminator '\\r\\n' exceeds max_count"
    assert out.diagnostics["UntaggedOk"] == reason


def test_strict_prefixes_need_more(myp_spec, imap_spec):
    # the soundness condition for early rejection: no prefix of a valid
    # encoding is rejected
    for spec in (myp_spec, imap_spec):
        for seed in range(10):
            gen = Generator(spec, GenConfig(seed=seed))
            for msg_type in spec.message_types:
                wire = encode_message(msg_type, gen.message(msg_type), spec)
                cuts = list(range(min(len(wire), 64))) + list(range(64, len(wire), 37))
                for cut in cuts:
                    out = decode_message(wire[:cut], [msg_type], spec)
                    assert out is NEED_MORE, (msg_type, seed, cut, out)


def test_ascii_text_codecs_reject_non_ascii_bytes():
    spec = resolve(
        parse_spec(
            "message module M "
            "message A with t is Text(charset='latin-1', max_count=2) "
            "as FixedCountText(encoding='ascii') end "
            "message B with t is Text(charset='latin-1', max_count=2) "
            "as TerminatedText(encoding='ascii', terminator='\\n') end end"
        )
    )
    with pytest.raises(Unrepresentable):
        encode_message("A", RecordVal("A", (("t", TextVal("\xe9a", "latin-1")),)), spec)
    assert decode_message(b"\xe9a", ["A"], spec) == InvalidFormat({"A": "byte 0xe9 is not ASCII"})
    assert decode_message(b"\xe9a\n", ["B"], spec) == InvalidFormat({"B": "byte 0xe9 is not ASCII"})


# --- the guarded terminated text against the ordered checks -------------------

GUARD_TERMINATORS = [" ", "\r\n", "b", "ab"]


@functools.lru_cache(maxsize=64)
def _guard_spec(pattern, exclude, charset, encoding, terminator, count, width):
    args = [f"charset='{charset}'", f"pattern=/{pattern}/"]
    if exclude is not None:
        args.append(f"exclude_pattern=/{exclude}/")
    if count is not None:
        args.append(f"max_count={count}")
    written = terminator.replace("\r", "\\r").replace("\n", "\\n")
    return resolve(parse_spec(
        f"message module M message X with p is Integer as BigEndian(length={width}) "
        f"t is Text({', '.join(args)}) as TerminatedText(encoding='{encoding}', terminator='{written}') "
        f"q is Integer as BigEndian(length={-width % 8}) end end"
    ))


def _packed(width: int, p: int, payload: bytes, q: int) -> bytes:
    """p in ``width`` bits, the payload's bytes, then q in the bits left of the last byte."""
    n = ((p << 8 * len(payload) | int.from_bytes(payload, "big")) << -width % 8) | q
    return n.to_bytes((width + 8 * len(payload) + 7) // 8, "big")


class _GuardOracle:
    """The field's checks, written with ``re`` on str in the codec's order:
    charset, max_count, pattern, exclusion, then the terminator and the
    encoding on encode; the bytes' encoding, then the same checks on decode."""

    def __init__(self, pattern, exclude, charset, encoding, terminator, count, width):
        # the dialect of these patterns reads as Python's, with . any character
        self.pattern = re.compile(pattern, re.DOTALL)
        self.exclude = None if exclude is None else re.compile(exclude, re.DOTALL)
        self.charset = charset
        self.alphabet = set(map(chr, range(128 if charset == "ascii" else 256)))
        self.encoding = encoding
        self.terminator = terminator
        self.count = count
        self.width = width

    def valid(self, text) -> bool:
        return (set(text) <= self.alphabet and (self.count is None or len(text) <= self.count)
                and self.pattern.fullmatch(text) is not None
                and (self.exclude is None or self.exclude.search(text) is None))

    def encode(self, text):
        """The wire bytes of X with p = q = 0, or the class of the error."""
        if not self.valid(text):
            return ConstraintViolation
        if self.terminator in text:
            return TerminatorInPayload
        try:
            payload = (text + self.terminator).encode(self.encoding)
        except UnicodeEncodeError:
            return Unrepresentable
        return _packed(self.width, 0, payload, 0)

    def decode(self, buf: bytes):
        """Classified, NEED_MORE or InvalidFormat (the class)."""
        total, n, width = 8 * len(buf), int.from_bytes(buf, "big"), self.width

        def read(pos, bits):
            return n >> (total - pos - bits) & ((1 << bits) - 1)

        if width > total:
            return NEED_MORE
        # the whole bytes from bit `width` on, read across byte boundaries
        scanned = bytes(read(width + 8 * i, 8) for i in range((total - width) // 8))
        terminator = self.terminator.encode("latin-1")
        stop = scanned.find(terminator)
        if stop >= 0:
            scanned = scanned[:stop + len(terminator)]
        if self.encoding == "ascii" and not scanned.isascii():
            return InvalidFormat
        if stop < 0:
            if self.count is not None and len(scanned) - len(terminator) >= self.count:
                return InvalidFormat
            return NEED_MORE
        text = scanned[:stop].decode("latin-1")
        if not self.valid(text):
            return InvalidFormat
        pos = width + 8 * len(scanned)
        if pos + -width % 8 > total:
            return NEED_MORE
        fields = (("p", IntVal(read(0, width))), ("t", TextVal(text, self.charset)),
                  ("q", IntVal(read(pos, -width % 8))))
        return Classified("X", RecordVal("X", fields), (pos + -width % 8) // 8)


def _outcome(out):
    return out if isinstance(out, Classified) or out is NEED_MORE else type(out)


GUARD_CHARS = "ab \r\n*\xe9\u0100"


@st.composite
def _guard_text(draw, pattern: str) -> str:
    """Any text, or one the pattern fullmatches, so the guard's accepting
    path runs as often as the ordered checks' rejecting ones."""
    matching = st.from_regex(re.compile(pattern, re.DOTALL), fullmatch=True, alphabet=GUARD_CHARS)
    return draw(st.text(GUARD_CHARS, max_size=8) | matching.filter(lambda t: len(t) <= 10))


@given(
    pattern=st.shared(DIALECT, key="guard"),
    exclusions=st.lists(DIALECT, max_size=2),
    charset=st.sampled_from(["ascii", "latin-1"]),
    encoding=st.sampled_from(["ascii", "latin-1"]),
    terminator=st.sampled_from(GUARD_TERMINATORS),
    slack=st.none() | st.integers(-2, 2),
    width=st.sampled_from([0, 3]),
    text=st.shared(DIALECT, key="guard").flatmap(_guard_text),
    p=st.integers(0, 7),
    q=st.integers(0, 31),
    flip=st.integers(0, 127),
    extra=st.binary(max_size=3),
)
@example(pattern="(a)*", exclusions=[], charset="ascii", encoding="ascii", terminator=" ",
         slack=-2, width=0, text="", p=0, q=0, flip=0, extra=b"")
@settings(max_examples=500, deadline=None)
def test_guarded_terminated_text_matches_the_ordered_checks(
    pattern, exclusions, charset, encoding, terminator, slack, width, text, p, q, flip, extra,
):
    """Decode and encode of a terminated text give what the ordered checks
    give: at a byte boundary (after 0 bits) and off it (after 3 bits), on
    valid encodings, bit flips, truncations and extensions of them, with
    no max_count or one within two of the text's length."""
    exclude = "|".join(f"({e})" for e in exclusions) or None
    count = None if slack is None else len(text) + slack
    args = (pattern, exclude, charset, encoding, terminator, count, width)
    spec, oracle = _guard_spec(*args), _GuardOracle(*args)
    value = RecordVal("X", (("p", IntVal(0)), ("t", TextVal(text, charset)), ("q", IntVal(0))))
    try:
        got = encode_message("X", value, spec)
    except WirespecError as e:
        got = type(e)
    assert got == oracle.encode(text)
    payload = (text + terminator).encode("latin-1", "ignore")
    wire = _packed(width, p % (1 << width), payload, q % (1 << -width % 8))
    flipped = bytearray(wire)
    flipped[flip // 8 % len(wire)] ^= 0x80 >> flip % 8
    # raw bytes that start with the terminator, which a read from bit 3 does not see
    shifted = terminator.encode("latin-1") + wire
    for buf in (wire, bytes(flipped), wire + extra, shifted, *(wire[:k] for k in range(len(wire)))):
        assert _outcome(decode_message(buf, ["X"], spec)) == oracle.decode(buf), buf


@pytest.mark.parametrize("count", [-1, -2, -5])
def test_negative_max_count_is_rejected_by_decode_as_by_encode(count):
    # a negative end would make the guard's terminator search count from the buffer's end
    spec = resolve(parse_spec(
        f"message module M message X with t is Text(pattern=/(a)*/, max_count={count}) "
        "as TerminatedText(terminator=' ') end end"
    ))
    for text, wire in (("aa", b"aa b"), ("", b"  ")):
        reason = f"{len(text)} characters exceeds max_count"
        assert decode_message(wire, ["X"], spec) == InvalidFormat({"X": reason})
        with pytest.raises(ConstraintViolation) as e:
            encode_message("X", RecordVal("X", (("t", TextVal(text)),)), spec)
        assert str(e.value) == f"X: X.t: {reason}"


def test_exclusion_the_pattern_allows_stays_in_the_guard():
    spec = resolve(parse_spec(
        "message module M message X with t is Text(pattern=/[!-~]+/, exclude_pattern=/\\*/, max_count=8) "
        "as TerminatedText(terminator=' ') end end"
    ))
    node = message_plan(spec, "X").fields[0][1]
    # [!-~]+ reads '*', and never ' '
    assert node.may_contain == (True, False)
    reason = "'A*B' contains a substring matching /\\*/"
    with pytest.raises(ConstraintViolation) as e:
        encode_message("X", RecordVal("X", (("t", TextVal("A*B")),)), spec)
    assert str(e.value) == f"X: X.t: {reason}"
    assert decode_message(b"A*B ", ["X"], spec) == InvalidFormat({"X": reason})
    value = RecordVal("X", (("t", TextVal("A-B")),))
    assert encode_message("X", value, spec) == b"A-B "
    assert decode_message(b"A-B ", ["X"], spec) == Classified("X", value, 4)


def test_imap_text_guards_search_for_nothing(imap_spec):
    # no text of an unpinned IMAP field's pattern can hold its exclusion or
    # its terminator, so its guards are one find and one match, or one match
    unpinned = {}
    for record in imap_spec.records.values():
        for f in record.fields:
            if f.type.base == "Text" and f.codec.base == "TerminatedText" and "value" not in f.type.args:
                node = compile_node(f.type, f.codec, imap_spec)
                unpinned[str(node.pattern)] = node.may_contain
    assert unpinned == dict.fromkeys(
        ["/[0-9a-zA-Z]+/", "/INBOX|NOBOX/", "/tester/", "/sesame|letmein/",
         "/\\\\Seen|\\\\Deleted|\\\\Flagged/", "/[ -~]*/"],
        (False, False),
    )


@pytest.mark.parametrize("buf", [b"a1 XYZW", b"a1 LOGOUX", b"a1 LOGOUX\r\n"])
def test_buffer_that_rules_out_every_candidate_is_invalid_format(imap_spec, buf):
    # no continuation of buf is valid, though LoginCmd's own decode would
    # still wait for the space after its command name
    for candidates in (imap_spec.message_types, ["LoginCmd"]):
        out = decode_message(buf, candidates, imap_spec)
        assert isinstance(out, InvalidFormat), out
        assert list(out.diagnostics) == list(candidates)
        reason = "ruled out by its wire prefix, incomplete: terminator ' ' not found"
        assert out.diagnostics["LoginCmd"] == reason


TAG_FIRST = frozenset(b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def test_wire_prefix_facts(myp_spec, imap_spec):
    def lit(data):
        return ("lit", BitString.from_bytes(data))

    tag = ("skip", b" ", TAG_FIRST)
    assert wire_prefix(imap_spec, "OkResp") == [tag, lit(b"OK ")]
    # TextInteger's digits: any first byte
    assert wire_prefix(imap_spec, "ExistsResp") == [lit(b"* "), ("skip", b" ", None), lit(b"EXISTS ")]
    # a literal field's value is bound for the fields after it
    assert wire_prefix(imap_spec, "LoginCmd") == [tag, lit(b"LOGIN ")]
    for name, byte in (("Ask", b"\x40"), ("Done", b"\xc0"), ("Data", b"\x00")):
        assert wire_prefix(myp_spec, name) == [lit(byte)]


TEXT_INTEGER_SPEC = (
    "message module M "
    "message A with n is Integer(value=5) as TextInteger(text_codec=Sp) end "
    "message B with t is Text as Sp end "
    "codec Sp is TerminatedText(encoding='ascii', terminator=' ') end"
)


def test_text_integer_pin_is_no_literal():
    # TextInteger reads "05" as 5, so the pin's encoding "5 " rules nothing out
    spec = resolve(parse_spec(TEXT_INTEGER_SPEC))
    assert wire_prefix(spec, "A") == []
    out = decode_message(b"05 ", ["A", "B"], spec)
    assert isinstance(out, Classified)
    assert (out.msg_type, out.value.get("n"), out.consumed) == ("A", IntVal(5), 3)


def test_unknown_or_no_candidates(myp_spec):
    with pytest.raises(UnknownName, match="^no message type named 'Nope'$"):
        decode_message(b"\x40", ["Ask", "Nope"], myp_spec)
    with pytest.raises(ValueError, match="no candidate message types"):
        decode_message(b"\x40", [], myp_spec)


def _variants(wire: bytes, other: bytes, rng) -> list:
    """Truncations, bit flips, insertions and extensions of one encoding."""
    head = max(min(len(wire), 16), 1)
    out = [wire[:cut] for cut in {0, 1, 2, 3, len(wire) // 2, len(wire) - 1, rng.randrange(len(wire) + 1)}]
    for _ in range(6):
        pos = rng.randrange(8 * head) if rng.random() < 0.8 else rng.randrange(8 * max(len(wire), 1))
        flipped = bytearray(wire.ljust(pos // 8 + 1, b"\x00"))
        flipped[pos // 8] ^= 0x80 >> (pos % 8)
        out.append(bytes(flipped))
    for _ in range(4):
        pos = rng.randrange(head + 1)
        out.append(wire[:pos] + bytes([rng.choice(b" *\r\n\x00\x40\xc0OK5")]) + wire[pos:])
    out += [wire + other, wire + b"\xff", wire + rng.randbytes(3)]
    return out


def _contradicted(segments, buf) -> bool:
    """Whether ``buf`` contradicts one candidate's wire-prefix segments,
    walked one segment at a time: a literal's bits that are present must
    match, and a skipped text must start with an allowed byte."""
    at = 0
    for segment in segments:
        if at >= len(buf):  # past a literal that the buffer ends inside
            return False
        if segment[0] == "skip":
            _, terminator, first = segment
            if first is not None and buf[at] not in first:
                return True
            end = buf.find(terminator, at)
            if end < 0:
                return False
            at = end + len(terminator)
            continue
        bits, have = segment[1], BitString.from_bytes(buf[at:])
        n = min(bits.length, have.length)
        if bits.value >> (bits.length - n) != have.value >> (have.length - n):
            return True
        at += bits.length // 8  # only the last literal ends inside a byte
    return False


def _one_at_a_time(buf, spec):
    """What classifying against every type gives, built from one plain decode
    per candidate: the first match in declaration order and the later matches,
    else NEED_MORE if a candidate whose wire prefix ``buf`` does not
    contradict needs more, else every reason in order."""
    matched, incomplete, reasons = [], False, []
    for m in spec.message_types:
        ruled_out = _contradicted(wire_prefix(spec, m), buf)
        try:
            value, pos = message_plan(spec, m).decode(buf, 0, {})
            if pos % 8:
                raise ConstraintViolation("message does not end on a byte boundary")
        except IncompleteInput as e:
            incomplete |= not ruled_out
            reason = f"incomplete: {e}"
            reasons.append((m, f"ruled out by its wire prefix, {reason}" if ruled_out else reason))
        except (ConstraintViolation, EvalError) as e:
            reasons.append((m, str(e)))
        else:
            assert not ruled_out, (m, buf)
            matched.append(Classified(m, value, pos // 8))
    if matched:
        return matched[0], [out.msg_type for out in matched[1:]]
    if incomplete:
        return NEED_MORE, None
    return reasons, None


def test_prefilter_changes_no_outcome(myp_spec, imap_spec):
    import random

    for spec in (myp_spec, imap_spec):
        for seed in range(10):
            gen = Generator(spec, GenConfig(seed=seed))
            rng = random.Random(seed)
            wires = [encode_message(m, gen.message(m), spec) for m in spec.message_types]
            for i, wire in enumerate(wires):
                for buf in _variants(wire, wires[i - 1], rng):
                    expected, later = _one_at_a_time(buf, spec)
                    out = decode_message(buf, spec.message_types, spec)
                    if isinstance(out, InvalidFormat):
                        assert list(out.diagnostics.items()) == expected, buf
                        continue
                    assert out == expected, buf
                    if later is not None:
                        loud = decode_message(buf, spec.message_types, spec, report_ambiguity=True)
                        assert (loud.msg_type, loud.value, loud.consumed) == (
                            out.msg_type, out.value, out.consumed
                        )
                        assert loud.also_matched == later, buf


def test_one_full_decode_per_classified_message():
    # a deterministic cost bound: a candidate that the wire-prefix facts rule
    # out is never decoded when another matches
    from wirespec.cli import bundled_spec_path

    for name in ("myp", "imap_subset"):
        spec = resolve(parse_spec(bundled_spec_path(name).read_text()))
        gen = Generator(spec, GenConfig(seed=0))
        wires = {m: encode_message(m, gen.message(m), spec) for m in spec.message_types}
        decoded = []
        for m in spec.message_types:
            plan = message_plan(spec, m)
            plan.decode = lambda data, pos, env, m=m, decode=plan.decode: decoded.append(m) or decode(data, pos, env)
        for m, wire in wires.items():
            decoded.clear()
            out = decode_message(wire, spec.message_types, spec)
            assert isinstance(out, Classified) and out.msg_type == m
            assert decoded == [m]


# f and g merge into the literal byte X'a1'; the facts go on past it
SUB_BYTE_SPEC = """
message module S
  message P with
    f is Integer(value=5) as BigEndian(length=3)
    g is Integer(value=1) as BigEndian(length=5)
    t is Text(max_count=8) as TerminatedText(terminator=' ')
    k is Text(value='K') as FixedCountText()
  end
  message Q with
    f is Integer(value=5) as BigEndian(length=3)
    g is Integer(value=1) as BigEndian(length=5)
    t is Text(max_count=8) as TerminatedText(terminator=' ')
    k is Text(value='L') as FixedCountText()
  end
  message B with
    h is Binary(value=b'101000010110')
    r is Binary(length=4)
  end
  message N with
    a is Integer(value=10) as BigEndian(length=4)
    b is Integer as BigEndian(length=4)
  end
  message F with
    c is Bool(value=true) as BoolBits(truth_string=b'101', falsehood_string=b'010')
    t is Text(max_count=3) as TerminatedText(terminator=' ')
    pad is Binary(length=5)
  end
end
"""


def test_sub_byte_literals_merge_into_whole_bytes():
    spec = resolve(parse_spec(SUB_BYTE_SPEC))
    skip = ("skip", b" ", None)
    assert wire_prefix(spec, "P") == [("lit", BitString(0xA1, 8)), skip, ("lit", BitString.from_bytes(b"K"))]
    assert wire_prefix(spec, "Q") == [("lit", BitString(0xA1, 8)), skip, ("lit", BitString.from_bytes(b"L"))]
    assert wire_prefix(spec, "B") == [("lit", BitString.from_bits("101000010110"))]
    assert wire_prefix(spec, "N") == [("lit", BitString.from_bits("1010"))]
    # a text three bits into a byte is no skip: the facts end before it
    assert wire_prefix(spec, "F") == [("lit", BitString.from_bits("101"))]
    # of P and Q (bits 0 and 1), the buffer keeps Q alone
    assert classifier(spec, ["P", "Q"]).alive(b"\xa1ab L") == 0b10
    out = decode_message(b"\xa1ab L", ["P", "Q"], spec)
    assert isinstance(out, Classified) and out.msg_type == "Q"


def test_sub_byte_prefilter_changes_no_outcome():
    # the byte tree against one decode per candidate, where literal tails
    # end inside a byte and candidates share a first byte
    import random

    spec = resolve(parse_spec(SUB_BYTE_SPEC))
    names = spec.message_types
    alive_of = classifier(spec, names).alive
    for seed in range(12):
        gen = Generator(spec, GenConfig(seed=seed))
        rng = random.Random(seed)
        wires = [encode_message(m, gen.message(m), spec) for m in names]
        for i, wire in enumerate(wires):
            for buf in _variants(wire, wires[i - 1], rng) + [wire[:1] + b"ab " + wire[-1:]]:
                # a ruled-out candidate never decodes, nor waits for more bytes
                alive = alive_of(buf)
                for j, m in enumerate(names):
                    if not alive >> j & 1:
                        assert isinstance(decode_message(buf, [m], spec), InvalidFormat), (m, buf)
                expected, _ = _one_at_a_time(buf, spec)
                out = decode_message(buf, names, spec)
                if isinstance(out, InvalidFormat):
                    assert list(out.diagnostics.items()) == expected, buf
                else:
                    assert out == expected, buf


@functools.lru_cache(maxsize=None)
def _oracle_corpus(which: str):
    """A spec, each type's wire-prefix segments, encodings of every type
    from three seeds, and the bytes that its literals and terminators use."""
    text = SUB_BYTE_SPEC if which == "sub_byte" else bundled_spec_path(which).read_text()
    spec = resolve(parse_spec(text))
    prefixes = [wire_prefix(spec, m) for m in spec.message_types]
    wires = []
    for seed in range(3):
        gen = Generator(spec, GenConfig(seed=seed))
        wires += [encode_message(m, gen.message(m), spec) for m in spec.message_types]
    alphabet = set()
    for segments in prefixes:
        for segment in segments:
            if segment[0] == "skip":
                alphabet.update(segment[1])
            else:
                bits = segment[1]
                alphabet.update((bits.value << (-bits.length % 8)).to_bytes((bits.length + 7) // 8, "big"))
    return spec, prefixes, wires, sorted(alphabet)


@st.composite
def _oracle_buffer(draw, which: str) -> bytes:
    """A cut, a bit flip or a splice of generated encodings, or a short
    string of the spec's literal bytes."""
    _, _, wires, alphabet = _oracle_corpus(which)
    wire = draw(st.sampled_from(wires))
    kind = draw(st.sampled_from(("cut", "flip", "splice", "literal")))
    if kind == "cut":
        return wire[: draw(st.integers(0, len(wire)))]
    if kind == "flip":
        pos = draw(st.integers(0, 8 * len(wire) - 1))
        flipped = bytearray(wire)
        flipped[pos // 8] ^= 0x80 >> (pos % 8)
        return bytes(flipped)
    if kind == "splice":
        other = draw(st.sampled_from(wires))
        return wire[: draw(st.integers(0, len(wire)))] + other[draw(st.integers(0, len(other))):]
    return bytes(draw(st.lists(st.sampled_from(alphabet), max_size=12)))


@pytest.mark.parametrize("which", ["myp", "imap_subset", "sub_byte"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_classifier_matches_the_facts(which, data):
    # the generated walk against one candidate's facts at a time
    spec, prefixes, _, _ = _oracle_corpus(which)
    buf = data.draw(_oracle_buffer(which), label="buf")
    alive = classifier(spec, spec.message_types).alive(buf)
    for j, segments in enumerate(prefixes):
        assert alive >> j & 1 == (not _contradicted(segments, buf)), (spec.message_types[j], buf)


def _deep_spec(skips: int) -> str:
    """Two types that share a 60-byte literal and then ``skips`` terminated
    texts, each behind a literal byte, and differ only in their last byte."""
    fields = "".join(
        f"    s{i} is Text(value='-') as FixedCountText()\n"
        f"    t{i} is Text(pattern=/[a-z]*/) as TerminatedText(terminator=' ')\n"
        for i in range(skips)
    )
    return "message module D\n" + "".join(
        f"  message {name} with\n"
        f"    head is Text(value='{'h' * 60}') as FixedCountText()\n"
        f"{fields}"
        f"    last is Text(value='{name}') as FixedCountText()\n"
        "  end\n"
        for name in "XY"
    ) + "end\n"


def test_deep_classifier_compiles_and_classifies():
    spec = resolve(parse_spec(_deep_spec(40)))
    skip = ("skip", b" ", frozenset(b"abcdefghijklmnopqrstuvwxyz "))
    assert wire_prefix(spec, "X")[:3] == [("lit", BitString.from_bytes(b"h" * 60 + b"-")), skip,
                                          ("lit", BitString.from_bytes(b"-"))]
    alive = classifier(spec, ["X", "Y"]).alive  # neither SyntaxError nor RecursionError
    body = b"h" * 60 + b"-ab " * 40
    for buf, mask in (
        (body + b"X", 0b01), (body + b"Y", 0b10), (body, 0b11), (body + b"Z", 0),
        (body[:30], 0b11), (b"h" * 59 + b"x", 0), (body[:-3] + b"A", 0), (body[:-2], 0b11),
    ):
        assert alive(buf) == mask, buf
        assert alive(buf) == sum(1 << j for j, m in enumerate("XY")
                                 if not _contradicted(wire_prefix(spec, m), buf)), buf
    out = decode_message(body + b"Y", ["X", "Y"], spec)
    assert isinstance(out, Classified) and (out.msg_type, out.consumed) == ("Y", len(body) + 1)


def test_generated_classifier_shows_in_tracebacks(imap_spec):
    import linecache
    import traceback

    alive = classifier(imap_spec, imap_spec.message_types).alive
    assert alive.__name__ == "<classify OkResp,…>" == alive.__code__.co_name
    source = "".join(linecache.getlines(alive.__code__.co_filename))
    assert source.startswith("def classify(buf):\n") and "buf.startswith(b'XAMINE '" in source
    with pytest.raises(TypeError) as e:
        alive(None)  # no buffer
    frame = traceback.extract_tb(e.value.__traceback__)[-1]
    assert (frame.name, frame.filename, frame.line) == (
        "<classify OkResp,…>", alive.__code__.co_filename, "size = len(buf)"
    )
    assert classifier(imap_spec, ["LoginCmd"]).alive.__name__ == "<classify LoginCmd>"


def _wrong_and_out_of_range(value):
    """A value of another kind than ``value``, and one of its kind that
    breaks a bound: a huge integer, an overlong text with every bundled
    terminator, one bit too many, an unknown constant, a list too long."""
    if isinstance(value, IntVal):
        return TextVal("1"), IntVal(1 << 40)
    if isinstance(value, TextVal):
        return IntVal(1), TextVal("~" * 60 + " \r\n\n")
    if isinstance(value, BitsVal):
        return TextVal("0"), BitsVal(value.bits.append(BitString(1, 1)))
    if isinstance(value, BoolVal):
        return IntVal(1), BoolVal(not value.value)
    if isinstance(value, EnumVal):
        return TextVal(value.constant), EnumVal(value.enum, "nope")
    if isinstance(value, ListVal):
        return BoolVal(True), ListVal(value.items * 3 + value.items[:1] * 5)
    if isinstance(value, RecordVal):
        return IntVal(0), RecordVal(value.type_name, value.entries[:-1])
    return IntVal(0), TextVal("")  # absent


def _replaced(value, path, new):
    """``value`` with the part at ``path`` (field names and list indices) replaced."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, ListVal):
        items = list(value.items)
        items[head] = _replaced(items[head], rest, new)
        return ListVal(tuple(items))
    entries = tuple((k, _replaced(v, rest, new) if k == head else v) for k, v in value.entries)
    return RecordVal(value.type_name, entries)


def _parts(value, path=()):
    """Every (path, part) of a value below the message, depth first."""
    children = ()
    if isinstance(value, RecordVal):
        children = value.entries
    elif isinstance(value, ListVal):
        children = enumerate(value.items)
    for key, child in children:
        yield path + (key,), child
        yield from _parts(child, path + (key,))


def test_golden_diagnostics(myp_spec, imap_spec):
    """Every decode outcome and encode error, with its text, class, field
    path and diagnostic order, over truncations, bit flips and appended
    messages of generated messages, and over values with one part replaced
    by one of the wrong kind or out of range, is pinned by one digest."""
    digest = hashlib.sha256()
    for spec in (myp_spec, imap_spec):
        types = spec.message_types
        for seed in range(10):
            gen = Generator(spec, GenConfig(seed=seed))
            values = [gen.message(m) for m in types]
            wires = [encode_message(m, v, spec) for m, v in zip(types, values)]
            for i, (m, value, wire) in enumerate(zip(types, values, wires)):
                variants = [wire[:k] for k in range(len(wire))]
                variants += [wire[:k] + bytes([wire[k] ^ 0x80 >> k % 8]) + wire[k + 1:]
                             for k in range(len(wire))]
                variants.append(wire + wires[i - 1])
                for buf in variants:
                    out = decode_message(buf, types, spec, report_ambiguity=True)
                    digest.update(repr(out).encode())
                for path, part in _parts(value):
                    for new in _wrong_and_out_of_range(part):
                        try:
                            got = encode_message(m, _replaced(value, path, new), spec).hex()
                        except WirespecError as e:
                            got = f"{type(e).__name__}: {e}"
                        digest.update(f"{path} {got}\n".encode())
    assert digest.hexdigest() == "7877e2f532bad141d7d61d98690168acd01b6bf52e6e2b3476b91d61c106ba1d"


# Pins of every shape: sub-byte BigEndian, FixedCountText, Binary and
# BoolBits pins; a pin whose 16 bits a one-byte buffer matches in value
# (b'A' reads as 0x41); a TextInteger pin; and an enum pin beside an
# unpinned field of the same enum.  A pin or enum constant that its field
# cannot code no longer resolves (see test_values_that_can_never_round_trip).
EDGE_SPEC = """
message module Edge
  message S with
    a   is Integer(value=5) as BigEndian(length=3)
    k   is Text(value='OK') as FixedCountText()
    b   is Binary(value=b'10110')
    c   is Bool(value=false) as BoolBits(truth_string=b'11', falsehood_string=b'01')
    pad is Binary(length=6)
  end
  message T with
    z is Integer(value=65) as BigEndian(length=16)
    n is Integer(value=42) as TextInteger(text_codec=Sp)
    x is Text(max_count=4) as Sp
  end
  message Coded with
    f is Code(value=first) as BigEndian(length=8)
    g is Code as BigEndian(length=8)
  end
  enum Code of Integer with first as 1  third as 2 end
  codec Sp is TerminatedText(encoding='ascii', terminator=' ')
end
"""


def test_decode_and_encode_outcomes_are_stable(myp_spec, imap_spec):
    """Every decode outcome, against all candidates and against one, over
    cuts, bit flips, byte swaps, insertions and extensions of generated
    messages and over every one-byte buffer, and every encode outcome of a
    generated value with one part replaced, is pinned by one digest."""
    import random

    digest = hashlib.sha256()
    for spec in (myp_spec, imap_spec, resolve(parse_spec(EDGE_SPEC))):
        types = spec.message_types
        rng = random.Random(19)
        buffers = [bytes([b]) for b in range(256)]
        for seed in range(10):
            gen = Generator(spec, GenConfig(seed=seed))
            for m in types:
                value = gen.message(m)
                try:
                    wire = encode_message(m, value, spec)
                except WirespecError as e:
                    digest.update(f"{m} {type(e).__name__}: {e}\n".encode())
                    wire = b""
                buffers += _variants(wire, buffers[-1], rng)
                if len(wire) > 1:
                    k = rng.randrange(len(wire) - 1)
                    buffers.append(wire[:k] + wire[k + 1:k + 2] + wire[k:k + 1] + wire[k + 2:])
                for path, part in _parts(value):
                    for new in (*_wrong_and_out_of_range(part), ABSENT):
                        try:
                            got = encode_message(m, _replaced(value, path, new), spec).hex()
                        except WirespecError as e:
                            got = f"{type(e).__name__}: {e}"
                        digest.update(f"{m} {path} {got}\n".encode())
        for buf in buffers:
            digest.update(repr(decode_message(buf, types, spec, report_ambiguity=True)).encode())
            digest.update(repr(decode_message(buf, [rng.choice(types)], spec)).encode())
    assert digest.hexdigest() == "c5d653e43285d2459b953ac48bce3537025d09d104a0c16630b1ff40d66325ba"


SP = "codec Sp is TerminatedText(encoding='ascii', terminator=' ')"
SHORT = "enum Short of Text(max_count=2) with short as 'OK'  long as 'LONG' end"


@pytest.mark.parametrize("named, body", [
    ("X.w", "message X with w is Integer(value=300) as BigEndian(length=8) end"),
    ("enum Code: constants 'first' and 'second' have one value",
     "message X with e is Code as BigEndian(length=8) end enum Code of Integer with first as 1  second as 1 end"),
    ("X.l: enum Short constant 'long'", f"message X with l is Short(value=long) as Sp end {SHORT} {SP}"),
    ("X.l: enum Short constant 'long'", f"message X with l is Short as Sp end {SHORT} {SP}"),
    ("X.e: enum E constant 'two'",
     "message X with e is E end enum E of Binary(length=4) with one as b'0001'  two as b'00010' end"),
    ("X.e: enum E constant 'sp'",
     "message X with e is E as TerminatedText(terminator=' ') end enum E of Text with sp as 'A B'  ok as 'OK' end"),
    ("X.e: enum E constant 'big'",
     "message X with e is E as BigEndian(length=8) end enum E of Integer with big as 300 end"),
    ("X.n", "message X with n is Integer(max=4, value=9) as TextInteger(text_codec=Sp) end " + SP),
    ("X.t", "message X with t is Text(pattern=/[a-z]+/, value='AB') as Sp end " + SP),
    ("X.r.f", "message X with r is R(p=300) end record R(p) with f is Integer(value=p) as BigEndian(length=8) end"),
    # where a record recurs with other arguments, it is compiled on its own
    ("X.r.o.f", "message X with r is R(p=1) end record R(p) with f is Integer(value=p) as BigEndian(length=8) "
                "more is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') "
                "o is Optional(is_empty=!more, subject=R(p=300)) end"),
])
def test_values_that_can_never_round_trip(named, body):
    # a pin or enum constant that its own field cannot code is a spec error:
    # at resolve, or when the type's plan is built, whatever uses it first
    uses = (
        lambda spec: Generator(spec).message("X"),
        lambda spec: encode_message("X", RecordVal("X", ()), spec),
        lambda spec: decode_message(b"\x00", ["X"], spec),
    )
    for use in uses:
        with pytest.raises(ResolutionError, match=re.escape(named)):
            use(resolve(parse_spec(f"message module M {body} end")))


def test_pin_whose_codec_needs_an_unknown_name_round_trips():
    spec = resolve(parse_spec(
        "message module M message X with n is Integer(min=2, max=2) as BigEndian(length=8) "
        "a is Integer(value=300) as BigEndian(length=8*n) end end"
    ))
    value = Generator(spec, GenConfig(seed=1)).message("X")
    wire = encode_message("X", value, spec)
    assert wire == b"\x02\x01\x2c"
    assert decode_message(wire, ["X"], spec) == Classified("X", value, 3)


# Node recurs through an Optional with other arguments, so a walk of Tree
# meets it twice: inlined with d=0, and on its own, as its generated code
# compiles it where it recurs.  A List of an enum sits past the Optional.
RECURSIVE_SPEC = """
message module M
  message Tree with
    magic is Integer(value=7) as BigEndian(length=8)
    root  is Node(d=0, stop=false)
  end
  message Leaf with magic is Integer(value=8) as BigEndian(length=8) end
  record Node(d, stop) with
    depth   is Integer(value=d) as BigEndian(length=8)
    child   is Optional(is_empty=stop, subject=Node(d=d + 1, stop=true))
    tags    is List(elem=Color, max_length=2) as CountPrefixList(count_codec=BigEndian(length=8))
    trailer is Integer(value=9) as BigEndian(length=8)
  end
  enum Color of Binary(length=8) with red as X'01'  green as X'02' end
end
interactions module M
  actor Server with init state S where on Tree do send Leaf continue end end
end
"""


def test_plan_walk_of_a_recursive_record():
    spec = resolve(parse_spec(RECURSIVE_SPEC))
    cov = Coverage(spec, spec.actors["Server"])
    assert list(cov.fields) == [
        ("Tree", "magic"), ("Tree", "root"), ("Node", "depth"), ("Node", "child"),
        ("Node", "tags"), ("Node", "trailer"), ("Leaf", "magic"),
    ]
    assert list(cov.optional) == [("Node", "child")]
    assert list(cov.enums) == [("Color", "red"), ("Color", "green")]
    # the facts end at the Optional: the pinned trailer past it is no literal
    assert wire_prefix(spec, "Tree") == [("lit", BitString.from_bytes(b"\x07\x00"))]
    value = Generator(spec, GenConfig(seed=3)).message("Tree")
    wire = encode_message("Tree", value, spec)
    assert decode_message(wire, ["Tree"], spec) == Classified("Tree", value, len(wire))


def test_each_argument_expression_compiles_once_per_spec(monkeypatch):
    # every plan walk and generated function of a spec shares one evaluator
    # per statically evaluated expression and converter
    spec = resolve(parse_spec(bundled_spec_path("imap_subset").read_text()))
    compiled = Counter()

    def counting(expr, constants, convert=None):
        compiled[id(expr), convert] += 1
        return compile_expr(expr, constants, convert)

    monkeypatch.setattr(codec, "compile_expr", counting)
    for name in spec.message_types:
        plan = message_plan(spec, name)
        plan.encode, plan.decode, plan.generate
    assert compiled and max(compiled.values()) == 1


PYTHON_NAMES_SPEC = r'''
message module M
  message class with
    None  is Integer(max=200) as BigEndian(length=8)
    cur   is Binary(length=8 * None)
    env   is env(env=None)
    quote is Text(max_count=5) as TerminatedText(terminator='\'')
    slash is Text(max_count=5) as TerminatedText(terminator='\\')
    pin   is Text(value='a"""b') as TerminatedText(terminator=' ')
    kind  is Kind(value=def) as TerminatedText(terminator=' ')
  end
  record env(env) with
    value is Integer(value=env) as BigEndian(length=8)
    kind  is Kind as TerminatedText(terminator=';')
  end
  enum Kind of Text with class as 'c'  def as 'd' end
end
'''


def test_spec_names_that_look_like_python_reach_generated_code_as_literals():
    spec = resolve(parse_spec(PYTHON_NAMES_SPEC))
    gen = Generator(spec, GenConfig(seed=3))
    for _ in range(20):
        value = gen.message("class")
        wire = encode_message("class", value, spec)
        assert decode_message(wire, ["class"], spec) == Classified("class", value, len(wire))
    wire = b"\x01\xaa\x01c;ab'\\" + b'a"""b d '
    assert isinstance(decode_message(wire, ["class"], spec), Classified)

    def fault(buf):
        return decode_message(buf, ["class"], spec).diagnostics["class"]

    assert fault(b"\xc9") == "201 above maximum 200"
    assert fault(wire.replace(b"\x01c;", b"\x02c;")) == "must equal 1, got 2"
    assert fault(wire.replace(b"c;", b"x;")) == "TextVal(text='x', charset='ascii') is not a Kind constant"
    assert fault(wire.replace(b"ab'", b"abcdef'")) == "6 characters exceeds max_count"
    assert fault(wire.replace(b'a"""b', b'a""b')) == (
        "must equal TextVal(text='a\"\"\"b', charset='ascii'), got 'a\"\"b'"
    )
    assert fault(wire[:-2] + b"c ") == "must be EnumVal(enum='Kind', constant='def'), got class"

    def refused(path, new):
        try:
            encode_message("class", _replaced(value, path, new), spec)
        except ConstraintViolation as e:
            return str(e)

    assert refused(("None",), IntVal(201)) == "class: class.None: 201 above maximum 200"
    assert refused(("env", "kind"), EnumVal("Kind", "None")) == (
        "class: class.env: env.kind: 'None' is not a constant of Kind"
    )
    assert refused(("kind",), EnumVal("Kind", "class")) == (
        "class: class.kind: must be EnumVal(enum='Kind', constant='def'), got class"
    )
    with pytest.raises(TerminatorInPayload, match=r"^text \"a'\" contains its terminator \"'\"$"):
        encode_message("class", _replaced(value, ("quote",), TextVal("a'")), spec)


def test_generated_code_shows_in_tracebacks(myp_spec):
    import traceback

    plan = message_plan(myp_spec, "Data")
    with pytest.raises(TypeError) as e:
        plan.encode(RecordVal("Data", 5), {})  # entries that are no tuple
    frame = traceback.extract_tb(e.value.__traceback__)[-1]
    assert frame.name == "<encode Data>" == plan.encode.__code__.co_name
    assert frame.filename == plan.encode.__code__.co_filename
    assert frame.line.startswith("if len(") and "field set mismatch for Data" in frame.line
    assert message_plan(myp_spec, "Ask").decode.__name__ == "<decode Ask>"


def test_generated_generate_shows_in_tracebacks(myp_spec):
    import traceback

    plan = message_plan(myp_spec, "Data")
    with pytest.raises(AttributeError) as e:
        plan.generate(None, {})  # an rng with no getrandbits
    frame = traceback.extract_tb(e.value.__traceback__)[-1]
    assert frame.name == "<generate Data>" == plan.generate.__code__.co_name
    assert frame.filename == plan.generate.__code__.co_filename
    assert frame.line == "getrandbits = rng.getrandbits"
    assert message_plan(myp_spec, "Ask").generate.__name__ == "<generate Ask>"


def test_enum_of_latin1_text_roundtrips():
    spec = resolve(parse_spec(
        "message module M enum E of Text(charset='latin-1') with a as 'A' acute as '\u00e9' end "
        "message X with e is E as TerminatedText(encoding='latin-1', terminator=' ') end end"
    ))
    for constant, wire in (("a", b"A "), ("acute", b"\xe9 ")):
        value = RecordVal("X", (("e", EnumVal("E", constant)),))
        assert encode_message("X", value, spec) == wire
        assert decode_message(wire, ["X"], spec) == Classified("X", value, len(wire))


CHAIN_SPEC = """
message module M
  record Link with
    more is Bool as BoolBits(truth_string=X'01', falsehood_string=X'00')
    tag  is Integer(max=9) as BigEndian(length=8)
    rest is Optional(is_empty=!more, subject=Link)
  end
  message Chain with first is Link end
end
"""


def test_record_that_contains_itself():
    spec = resolve(parse_spec(CHAIN_SPEC))
    depths = set()
    gen = Generator(spec, GenConfig(seed=2))
    for _ in range(40):
        value = gen.message("Chain")
        wire = encode_message("Chain", value, spec)
        depths.add(len(wire) // 2)
        assert decode_message(wire, ["Chain"], spec) == Classified("Chain", value, len(wire))
    assert max(depths) >= 4

    def link(tag, rest=ABSENT):
        return RecordVal("Link", (("more", BoolVal(rest is not ABSENT)), ("tag", IntVal(tag)), ("rest", rest)))

    chain = RecordVal("Chain", (("first", link(1, link(2, link(10)))),))
    with pytest.raises(ConstraintViolation) as e:
        encode_message("Chain", chain, spec)
    assert str(e.value) == "Chain: Chain.first: Link.rest: Link.rest: Link.tag: 10 above maximum 9"
    out = decode_message(b"\x01\x01\x01\x02\x00\x0a", ["Chain"], spec)
    assert out.diagnostics == {"Chain": "10 above maximum 9"}
    assert decode_message(b"\x01\x01\x01\x02\x01", ["Chain"], spec) is NEED_MORE


def test_record_that_contains_itself_generates_through_its_own_function():
    spec = resolve(parse_spec(CHAIN_SPEC.replace(
        "rest is", "pad is Binary(length=8*tag, char8_pattern=/(\\1\\1)?/)\n    rest is"
    )))
    # Chain inlines its first Link; each deeper one is a call of that Link's function
    link = message_plan(spec, "Chain").fields[0][1]
    assert link.generate.__name__ == "<generate Link>"
    calls, generate = [], link.generate
    link.generate = lambda rng, env: calls.append(env) or generate(rng, env)
    # only tag 0 draws a pad: a link with any other tag fails
    failures, depths = set(), set()
    for seed in range(300):
        calls.clear()
        try:
            value = Generator(spec, GenConfig(seed=seed)).message("Chain")
        except UnsatisfiableConstraint as e:
            failures.add(str(e).split(":")[0])
            assert re.fullmatch(r"Chain\.first(\.rest)*\.pad: no [1-9]\d*-bit string matches /\(\\1\\1\)\?/", str(e))
            continue
        depth = len(encode_message("Chain", value, spec)) // 2
        assert len(calls) == depth - 1
        depths.add(depth)
    assert {"Chain.first.pad", "Chain.first.rest.pad", "Chain.first.rest.rest.pad"} <= failures
    assert max(depths) >= 2


def test_deeply_nested_lists():
    # one function per record past a depth, where Python allows 20 nested blocks
    records = " ".join(
        f"record R{i} with n is Integer as BigEndian(length=8) "
        f"xs is List(elem=R{i + 1}, max_length=1) as CountPrefixList(count_codec=BigEndian(length=8)) end"
        for i in range(30)
    )
    spec = resolve(parse_spec(
        f"message module M {records} record R30 with t is Text as TerminatedText(terminator=' ') end "
        "message X with r is R0 end end"
    ))
    wire = b"\x07\x01" * 30 + b"deep "
    out = decode_message(wire, ["X"], spec)
    assert isinstance(out, Classified) and out.consumed == len(wire)
    assert encode_message("X", out.value, spec) == wire
