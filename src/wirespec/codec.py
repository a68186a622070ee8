"""Bidirectional translation between values and bitstrings, and the
drawing of fresh values.

Each field pairs a (dependent) type with a codec.  :func:`compile_node`
turns the pair into a node, and each node emits the Python source of its
own part of a codec and of a generator: checks, reads, writes and draws,
with its argument expressions inlined through
:class:`~wirespec.values.Source`, which builds every generated function.
A node's ``encode(value, env)``, ``decode(data, pos, env)`` and
``generate(rng, env)`` are one generated function each, and the whole
codec: they are compiled on first use, and a record inlines its fields in
declaration order, with the values of its parameters and earlier fields in
locals, so a whole message type, its plan, encodes, decodes or is drawn in
one function call, which builds each value and BitString in one
``tuple.__new__`` call.  A record that can contain itself calls its own
function where it recurs, as does one nested deep in the source.  A
message plan is built on first use and cached on the spec.  One walk of
it (:meth:`Node.walk`), before any of its functions compiles, records its
wire-prefix facts and coverage goals and checks that every value the spec
fixes is one its field codes: each pin that the known names fix goes
through its node's own ``encode``, and each enum constant through the
base type and the field's codec; a rejected one is a ResolutionError
naming the field path (``X.w``) and the enum constant.  The resolver
rejects two constants with one value.  Encode checks
each part of the value before it writes it, into one integer; decode reads
each part, then checks it.  Decoding reads the bytes themselves from bit
``pos`` and returns the value with the bit position past it, so a field
costs time in its own size, not the buffer's; a terminated text is one
``bytes.find``.  A byte-aligned run of fields decodes through one guard:
where a node's wire form is one ``bytes`` regex (see :meth:`Node.run`),
the outermost such node is one compiled ``match`` at a byte boundary, with
the values built from its groups, so each bundled IMAP message is one
match, and the general reads and ordered checks run only to say why the
bytes are not valid (see :meth:`_Function.decode`).  A valid unpinned
terminated text encodes through one match of its pattern narrowed to the
characters it may hold (see :class:`TerminatedTextNode`).  A known pin is
its encoding, the bits its node's own ``encode`` writes for it: every
canonical one encodes by one comparison of the value with the pin and then
writes them, and decodes by one comparison of the next bits with them, or
as a literal of a run where they are whole bytes; a record whose fields
are all such decodes to one prebuilt constant.
Decoding is incremental: running out of input raises an
:class:`IncompleteInput` subclass so that callers feeding a growing stream
buffer can distinguish "wait for more bytes" from a malformed message, and
a terminated text that has already run past its ``max_count`` is rejected
without waiting for its terminator.  Generating gives a pinned field whose
pin the known names fix, and a record all of whose fields are such, as a
constant; draws an integer range they fix with literal bounds, by
``getrandbits`` with rejection as ``randint`` draws; draws text and
pattern-constrained bits through the field's
:func:`~wirespec.patterns.language` sampler, fetched when the function is
compiled; and builds the path of an :class:`UnsatisfiableConstraint`
(``.payload[2].padding: ...``, under the message type's name) only where
it raises.  Generated functions are named ``<encode Data>``, ``<decode
Data>`` and ``<generate Data>``, and their source is in :mod:`linecache`,
so tracebacks and debuggers show the emitted lines.

Classification lets only candidates that can still match decide.  Each
node states the static facts about the leading bits of its wire form
(:class:`PlanFacts`): literal bits, a known pin's encoding; "skip through
terminator T", for an unpinned terminated text at a byte boundary, with
the first bytes its pattern allows; and nothing past anything else.  A
plan's walk records its message's facts.  One
:class:`Classifier` per candidate list, a list of one included, is built
on first use and cached on the spec.  It merges the candidates' facts into
one tree and compiles the tree to one generated function, ``<classify
OkResp,…>``, that walks every candidate's facts over the buffer at once
and returns the mask of those left: a run of literal bytes is one
``startswith``, a branch point one byte, a skip one ``bytes.find``.  It
rules a candidate out when bytes already present contradict a literal or a
skipped text's first byte; a short buffer or a missing terminator keeps
it.  :func:`decode_message` decodes the candidates left, and only them,
through a table of their plans' decode functions that the mask's set bits
index, and takes its outcome from them, so a buffer that rules out every
candidate is InvalidFormat at once, even where a candidate's own decode
would still wait for bytes; the ruled-out candidates are decoded only for
their diagnostics.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .bits import BitString
from .errors import (
    ConstraintViolation,
    EvalError,
    IncompleteInput,
    MissingTerminator,
    NotByteAligned,
    ResolutionError,
    TerminatorInPayload,
    TypeMismatch,
    Underrun,
    UnsatisfiableConstraint,
    Unrepresentable,
    WirespecError,
)
from .patterns import Pattern, alphabet_for_charset, chars_read, compile_pattern, language, narrowed
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
    Source,
    TextVal,
    as_bits,
    as_bool,
    as_int,
    as_text,
    compile_expr,
    construct,
    literal_value,
)

PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

# Length caps for draws the type leaves unbounded: pattern-constrained text
# (so unbounded quantifiers stay finite), other text, and lists.
REGEX_EXPANSION_CAP = 8
MAX_TEXT_LEN = 12
MAX_LIST_LEN = 4

# Blocks a generated function nests before a record calls its own function,
# or a subtree of a classifier's walk becomes a function of its own.
MAX_INLINED_DEPTH = 12

# The greatest max_count of a terminated text that joins a decode's run, as
# the regex bounds its scan by it (see TerminatedTextNode).
MAX_RUN_COUNT = 1 << 16


def signed_range(width: int, signed: bool) -> tuple[int, int]:
    """The least and greatest integers that ``width`` bits code."""
    if width < 0 or (signed and width == 0):
        raise Unrepresentable(f"no {width}-bit integer exists")
    if signed:
        return -(1 << (width - 1)), (1 << (width - 1)) - 1
    return 0, (1 << width) - 1


def _literal_pattern(text: str) -> Pattern:
    named = {"\n": "\\n", "\r": "\\r", "\t": "\\t"}
    escaped = "".join(
        named.get(c, c if c.isalnum() else f"\\{c}") for c in text
    )
    return compile_pattern(escaped)


# --- what generated code calls ----------------------------------------------------

def _read_range(width: int, signed: bool) -> tuple[int, int]:
    """:func:`signed_range` for a read: a width no integer has makes the
    message malformed."""
    try:
        return signed_range(width, signed)
    except Unrepresentable as e:
        raise ConstraintViolation(str(e)) from None


def _not_ascii(data: bytes) -> ConstraintViolation:
    code = next(b for b in data if b > 127)
    return ConstraintViolation(f"byte {code:#x} is not ASCII")


def _outside(text: str, alphabet: frozenset, charset: str) -> str:
    ch = next(c for c in text if c not in alphabet)
    return f"character {ch!r} outside charset {charset!r}"


def _scan_terminated(data: bytes, pos: int, terminator: bytes) -> tuple[bytes, int]:
    """The bytes from bit ``pos`` through the first terminator, or every
    whole byte left when there is none, and the bit position past them."""
    if pos & 7 == 0:
        start = pos >> 3
        stop = data.find(terminator, start)
        stop = len(data) if stop < 0 else stop + len(terminator)
        return data[start:stop], stop << 3
    scanned, end = bytearray(), len(data) << 3
    while not scanned.endswith(terminator) and pos + 8 <= end:
        pos += 8  # the byte that ends here, read as _Function.read reads it
        scanned.append(int.from_bytes(data[(pos - 8) >> 3:(pos + 7) >> 3], "big") >> (-pos & 7) & 255)
    return bytes(scanned), pos


_RUNTIME = {
    f.__name__: f
    for f in (
        BitString, BitsVal, ConstraintViolation, EnumVal, ListVal,
        MissingTerminator, RecordVal, TerminatorInPayload, TextVal, Underrun,
        Unrepresentable, UnsatisfiableConstraint, _not_ascii, _outside,
        _read_range, _scan_terminated, signed_range,
    )
}
_RUNTIME["ABSENT"] = ABSENT

_UNKNOWN = object()  # a value the generator cannot know


class _Code(str):
    """Python source that computes a string, as opposed to the text itself."""


def _shown(code: str) -> _Code:
    return _Code(f"repr({code})")


def _said(code: str) -> _Code:
    return _Code(f"str({code})")


def _message(*parts) -> str:
    """The source of a message: text parts as literals, :class:`_Code` parts as is."""
    return " + ".join(p if isinstance(p, _Code) else repr(p) for p in parts if p)


class _Function(Source):
    """The source of one generated function of a node: ``encode(value,
    env)``, which checks the value, writes it into ``acc`` (``size`` bits)
    and returns a BitString; ``decode(data, pos, env)``, which reads the
    bytes ``data`` from bit ``pos`` up to bit ``end``, their length, and
    returns the value and the bit position past it; or ``generate(rng,
    env)``, which draws a value with the ``random.Random`` ``rng``.

    ``names`` holds the spec names in scope, as the code and kind of what
    holds their values (see :class:`~wirespec.values.Source`), and
    ``known`` those whose values are fixed when the source is generated;
    outside any record, other names are looked up in ``env``.  An argument
    whose value is fixed is computed once, here, into a literal, by
    ``evaluators``, those the spec's functions share (else its own).
    ``inlining`` lists the records whose fields are being inlined.  The
    walk of a plan keeps its known names in one that is never compiled.

    While a decode's run is built (see :meth:`decode`), ``match`` is the
    local of its match, ``groups`` the locals of its groups in order and
    ``tests`` what its values must pass besides; ``general`` holds in a
    guard's general path, where no node is guarded again."""

    def __init__(self, node: "Node", kind: str, evaluators: dict | None = None):
        super().__init__(node.constants, kind)
        self.namespace.update(_RUNTIME)
        self.root = node
        self.names = {}
        self.known = {}
        self.from_env = True
        self.inlining = []
        self.evaluators = {} if evaluators is None else evaluators
        self.general = False
        self.match, self.groups, self.tests = None, [], []

    def lookup(self, name):
        found = self.names.get(name)
        if found is not None:
            return found
        return self.temp(f"_lookup({'env' if self.from_env else '{}'}, {name!r})"), None

    def static(self, args: dict, name: str, convert=None):
        """The value of argument ``name`` when the known names fix it, else _UNKNOWN."""
        if name not in args:
            return _UNKNOWN
        literal = literal_value(args[name])
        # the expression stays beside its evaluator, so its id is never reused
        key = id(args[name]), convert
        found = self.evaluators.get(key)
        if found is None and literal is None:
            found = self.evaluators[key] = args[name], compile_expr(args[name], self.constants, convert)
        try:
            if literal is not None:
                return literal if convert is None else convert(literal)
            return found[1](self.known)
        except EvalError:
            return _UNKNOWN

    def literal(self, value) -> str:
        if type(value) in (int, bool, str, bytes):
            return repr(value)
        return self.ref(value)

    def arg(self, args: dict, name: str, convert=None):
        """The code of argument ``name`` passed through ``convert``, after
        the statements that compute it; None when it is not given."""
        if name not in args:
            return None
        value = self.static(args, name, convert)
        if value is not _UNKNOWN:
            return self.literal(value)
        return self.result(args[name], convert)

    def int_arg(self, args: dict, name: str):
        """The code of int argument ``name``: a literal where the known names
        fix it, else a local; None when it is not given."""
        code = self.arg(args, name, as_int)
        return code if code is None or _int_literal(code) is not None else self.temp(code)

    def bind(self, name: str, code: str, kind=None, value=_UNKNOWN):
        self.names[name] = (code, kind)
        if value is _UNKNOWN:
            self.known.pop(name, None)
        else:
            self.known[name] = value

    def require(self, failed: str, message: str, path=None):
        self.emit(f"if {failed}: raise ConstraintViolation({_within(path, message)})")

    @contextmanager
    def record(self, node: "RecordNode"):
        """The scope of a record's fields: its parameters and pins, computed
        in the enclosing scope."""
        bound = []
        for name, expr in node.rtype.args.items():
            value = self.static(node.rtype.args, name)
            if value is not _UNKNOWN:
                code, kind = self.constant(value)
            else:
                code, kind = self.compile(expr)
                code = self.temp(code)
            bound.append((name, code, kind, value))
        outer = self.names, self.known, self.from_env
        self.names, self.known, self.from_env = {}, {}, False
        for entry in bound:
            self.bind(*entry)
        self.inlining.append(node)
        try:
            yield
        finally:
            self.inlining.pop()
            self.names, self.known, self.from_env = outer

    def read(self, width: str) -> str:
        """The next ``width`` bits as an unsigned integer; ``width`` is the
        code of a plain non-negative int."""
        self.emit(f"if pos + {width} > end: raise Underrun(f'need {{{width}}} bits, have {{end - pos}}')")
        stop = self.temp(f"pos + {width}")
        raw = self.temp(
            f"int.from_bytes(data[pos >> 3:({stop} + 7) >> 3], 'big') >> (-{stop} & 7) & ((1 << {width}) - 1)"
        )
        self.emit(f"pos = {stop}")
        return raw

    def decode(self, node: "Node") -> tuple:
        """``node.emit_decode(self)``, behind one guard where the node's
        wire form is a run (see :meth:`Node.run`) and no enclosing node's
        is: at a byte boundary, one match of the run's regex, its tests,
        and the value built from its groups; the general read and checks
        run only where that misses, so they alone say why not."""
        if self.general:
            return node.emit_decode(self)
        self.match, self.groups, self.tests = self.fresh("m"), [], []
        run = node.run(self)
        if run is None:
            return node.emit_decode(self)
        m, groups = self.match, self.groups
        matched = f"({m} := {self.ref(re.compile(run.source).match)}(data, pos >> 3)) is not None"
        with self.block(f"if {' and '.join(['pos & 7 == 0', matched, *self.tests])}:"):
            if len(groups) == 1:
                self.emit(f"{groups[0]} = {m}[1]")
            elif groups:
                self.emit(f"{', '.join(groups)} = {m}.groups()")
            value, entry = run.build(self)
            # a known value is one constant; else the value, and the entry
            # that binds the field where it differs, go in shared locals
            codes = [] if run.known is not _UNKNOWN else [value] if entry[0] == value else [value, entry[0]]
            shared = [self.fresh() for _ in codes]
            for name, code in zip(shared, codes):
                self.emit(f"{name} = {code}")
            self.emit(f"pos = {m}.end() << 3")
        with self.block("else:"):
            self.general = True
            general, general_entry = node.emit_decode(self)
            self.general = False
            for name, code in zip(shared, (general, general_entry[0])):
                self.emit(f"{name} = {code}")
        if not shared:
            return value, entry
        return shared[0], (shared[-1], entry[1], _UNKNOWN)

    def group(self) -> tuple[int, str]:
        """The number of the run's next group, and the local that holds it."""
        self.groups.append(self.fresh("g"))
        return len(self.groups), self.groups[-1]

    def write(self, bits: str, width: str):
        self.emit(f"acc = acc << {width} | {bits}")
        self.emit(f"size += {width}")

    def below(self, bound) -> str:
        """The code of a uniform int in ``[0, bound)``, drawn as ``randrange``
        draws it: ``getrandbits`` of the bound's bit length, until it is
        below the bound.  ``bound`` is a positive int, or the code of one."""
        if isinstance(bound, int):
            bits = bound.bit_length()
        else:
            bits = self.temp(f"{bound}.bit_length()")
        pick = self.temp(f"getrandbits({bits})")
        self.emit(f"while {pick} >= {bound}: {pick} = getrandbits({bits})")
        return pick

    def unsatisfiable(self, path: tuple, *parts, when: str | None = None):
        """Raise UnsatisfiableConstraint for the part at ``path``, a tuple
        of message parts, where the code ``when`` holds, or always; its
        text is built only when it is raised."""
        raise_it = f"raise UnsatisfiableConstraint({_message(*path, ': ', *parts)}) from None"
        self.emit(raise_it if when is None else f"if {when}: {raise_it}")

    def env(self) -> str:
        """The code of a dict of every name in scope, for a call."""
        items = (
            f"{name!r}: {code if kind is None else construct(kind, code)}"
            for name, (code, kind) in self.names.items()
        )
        return "{" + ", ".join(items) + "}"


def _generate(node: "Node", kind: str):
    """The generated function ``kind`` of ``node``: ``encode``, ``decode``
    or ``generate``."""
    fn = _Function(node, kind, node.spec.evaluators)
    if kind == "encode":
        fn.emit("acc = size = 0")
        node.emit_encode(fn, "value", None)
        fn.emit(f"return {construct(BitString, 'acc', 'size')}")
        return fn.finish(f"encode {node.title}", "value, env")
    if kind == "decode":
        fn.emit("end = len(data) << 3")
        value, _ = fn.decode(node)
        fn.emit(f"return {value}, pos")
        return fn.finish(f"decode {node.title}", "data, pos, env")
    fn.emit("getrandbits = rng.getrandbits")
    value, _ = node.emit_generate(fn, ())
    fn.emit(f"return {value}")
    return fn.finish(f"generate {node.title}", "rng, env")


# --- compilation ------------------------------------------------------------------

def compile_node(rtype: RType, rcodec: RCodec | None, spec: ResolvedSpec) -> "Node":
    """Compile one field's type and codec into a :class:`Node`.  This is the
    only place that dispatches on type and codec names."""
    coded = rcodec is not None and rtype.base in CODED_TYPES
    return Node.classes[rcodec.base if coded else rtype.base](rtype, rcodec, spec)


def message_plan(spec: ResolvedSpec, msg_type: str) -> "RecordNode":
    """The node of a whole message type, built on first use and cached on
    the spec.  One walk of it (see :meth:`Node.walk`), before any of its
    functions compiles, checks it, where a value the spec fixes that its own
    field cannot code is a ResolutionError, and leaves what it finds on the
    plan as ``facts``, its :class:`PlanFacts`."""
    plan = spec.plans.get(msg_type)
    if plan is None:
        record = spec.message_record(msg_type)
        plan = compile_node(RType("Record", {}, record=record.name), None, spec)
        plan.facts = PlanFacts()
        plan.facts.walk(plan, msg_type)
        segments = plan.facts.segments
        while segments and segments[-1][0] == "skip":
            segments.pop()  # a skip past the last literal rules out nothing
        spec.plans[msg_type] = plan
    return plan


class PlanFacts:
    """What the walk of one plan finds before any byte moves.

    ``segments`` is what every wire form of its message starts with, in
    order: ``("lit", bits)``, bits that every successful decode reads there,
    and ``("skip", terminator, first)``, bytes through the first
    ``terminator`` that start with a byte in the set ``first``, or any byte
    when it is None.  The facts start at bit 0, a skip starts and ends on a
    byte boundary and adjacent literals merge, so every literal starts on a
    byte boundary and only the last one may end inside a byte.  Once they
    have ended (``open`` is False), later literals and skips add nothing.

    The coverage goals are the keys of ``fields`` and ``optional``, (record,
    field) pairs, and of ``enums``, (enum, constant) pairs, in walk order.
    ``alone`` lists the records, as (name, arguments) pairs, walked on their
    own, once, as each is compiled on its own where it recurs."""

    def __init__(self):
        self.segments, self.open = [], True
        self.fields, self.optional, self.enums = {}, {}, {}
        self.alone = []

    def walk(self, node: "Node", path: str):
        """Walk ``node`` as its own generated functions see it, from no known
        names (see :meth:`Node.walk`)."""
        fn = _Function(node, "walk", node.spec.evaluators)
        fn.facts = self
        node.walk(fn, path, None)

    def literal(self, bits: BitString):
        if not self.open:
            return
        if self.segments and self.segments[-1][0] == "lit":
            bits = self.segments.pop()[1].append(bits)
        self.segments.append(("lit", bits))

    def skip(self, terminator: bytes, first: frozenset | None):
        if self.segments and self.segments[-1][0] == "lit" and self.segments[-1][1].length % 8:
            self.open = False
        if self.open:
            self.segments.append(("skip", terminator, first))

    def end(self):
        self.open = False


# --- field nodes ------------------------------------------------------------------

def _int_literal(code: str) -> int | None:
    """The int that ``code`` is the literal of, else None."""
    try:
        return int(code)
    except ValueError:
        return None


def _negative(fn, path: tuple, count: str, name: str):
    """Raise UnsatisfiableConstraint where the count or length ``count``,
    the code of an int, is negative."""
    literal = _int_literal(count)
    if literal is None or literal < 0:
        when = None if literal is not None else f"{count} < 0"
        fn.unsatisfiable(path, f"negative {name} ", _said(count), when=when)


def _within(path, code: str) -> str:
    """The source of the string ``code`` after the path prefix ``path``
    (source, or None)."""
    return code if path is None else f"{path} + {code}"


class _Run(NamedTuple):
    """A node's wire form from a byte boundary as one ``bytes`` regex (see
    :meth:`Node.run`): ``source``, and ``build(fn)``, which gives the code of
    the value from the locals of its groups, and its entry, as
    :meth:`Node.emit_decode` does; ``known`` is the value where the known
    names fix it."""

    source: bytes
    build: Callable
    known: object = _UNKNOWN


class Node:
    """One field's type and codec, compiled.

    ``encode(value, env)`` returns the value's bits, or raises
    ConstraintViolation with the path to the part that breaks the type.
    ``decode(data, pos, env)`` returns the value read from the bytes
    ``data`` at bit ``pos`` and the bit position past it; it raises
    IncompleteInput subclasses when the buffer may simply be short and
    ConstraintViolation when the input contradicts the type.  Both are
    generated on first use (see :class:`_Function`) from what the node
    emits: ``emit_encode(fn, v, path)``, which checks and writes the value
    in the local ``v`` and prefixes the path ``path`` (source, or None) to
    a violation, and ``emit_decode(fn)``.  Both give the code of the value
    and how to bind its name for later fields: ``(code, kind, known)``, as
    :meth:`_Function.bind` takes it.

    A leaf's value, of class ``kind``, holds a payload in its attribute
    ``payload``: an int, str, bool or BitString.  A leaf emits
    ``emit_kind`` (the check that ``v`` is of its kind, which gives the
    payload), ``emit_checks`` (the type's rules on a payload) and its
    codec's ``emit_write`` and ``emit_read``; it encodes by kind, checks
    and write, and decodes by read and checks.  An enum is a leaf whose
    payload is its value, coded through its base type's node.
    ``generate(rng, env)``,
    generated from ``emit_generate(fn, path)``, draws a well-formed value
    with the ``random.Random`` ``rng``; ``path`` is a tuple of message
    parts (see :meth:`_Function.unsatisfiable`).  A pinned field gives its
    pin, a literal where the known names fix it; a leaf draws otherwise by
    ``emit_draw``.  ``env`` maps the enclosing record's parameters and
    earlier fields to their values.
    ``retype(value)`` fills in the record and enum names value literals
    omit, and keeps a value of another kind.

    ``walk(fn, path, key)`` is the one static walk of a plan (see
    :func:`message_plan`); the :class:`_Function` ``fn`` holds the names
    known so far and the :class:`PlanFacts` ``fn.facts``.  It gives the pin
    the known names fix, else _UNKNOWN, as generating binds it for later
    fields.  It checks that each such pin, and each constant of an enum
    through its base type and codec, is one the node's own ``encode``
    codes, else raises ResolutionError naming the field ``path``; a pin
    whose ``encode`` needs a name the walk does not know is left to the
    functions that run.  It adds the goals of the field ``key``, a (record,
    field) pair, and appends to the facts what the node's wire form starts
    with, or ends them.  A known pin is its encoding: :meth:`fixed` gives
    its bits.  Where the node is ``canonical`` (each value has one encoding
    and decode accepts no other), such a pin is a literal of the facts and
    codes by one comparison, whatever its kind and bit length: encode
    compares the value with the pin (:meth:`is_pin`) and writes its bits,
    and binds the field as the pin for later fields; decode compares the
    next bits with them, or matches them as a literal in a run, where they
    are whole bytes.  The kind test, the checks, the read and the write run
    only where the comparison fails, to say why.  TextInteger is not
    canonical, as it reads ``05`` and ``-0`` too; an unpinned terminated
    text gives a skip through its terminator, with the first bytes its
    pattern allows.

    ``run(fn)`` is the node's wire form from a byte boundary as one
    ``bytes`` regex, a :class:`_Run`, where a match of it at a byte
    boundary decodes exactly as the general read and checks would, and
    consumes the same bytes; None where there is none.  The outermost node
    of a decode that has one is read behind one guard of it (see
    :meth:`_Function.decode`).  A known whole-byte pin is its literal; an
    unpinned terminated text whose pattern never reads the terminator's
    first byte (see :class:`TerminatedTextNode`), an enum of such texts and
    a terminated TextInteger each have a regex of their own; a record of
    such fields whose arguments the known names fix is their
    concatenation.  No other node joins a run: not a pin that ends inside
    a byte, an unpinned BigEndian, Binary, Bool or fixed-count text, a
    List, an Optional or a record that recurs.  A record that holds one is
    read field by field, each field behind a guard of its own where it has
    a run, as MyP's ``Data.foot`` is.
    Each subclass is named after the type or codec it codes.
    """

    classes = {}  # type or codec name -> node class
    canonical = False
    kind = None  # a leaf's value class, the attribute of its payload,
    payload = None
    convert = None  # the converter of its pin, and what kind names in a message
    what = None

    def __init_subclass__(cls):
        Node.classes[cls.__name__.removesuffix("Node")] = cls

    def __init__(self, rtype, rcodec, spec):
        self.args = rtype.args
        self.codec_args = rcodec.args if rcodec is not None else {}
        self.constants = spec.constants
        self.spec = spec

    @property
    def title(self) -> str:
        return type(self).__name__.removesuffix("Node")

    @cached_property
    def encode(self):
        return _generate(self, "encode")

    @cached_property
    def decode(self):
        return _generate(self, "decode")

    @cached_property
    def generate(self):
        return _generate(self, "generate")

    def retype(self, value):
        return value

    def fixed(self, fn):
        """``(value, bits)``: the pin that the known names fix, and the bits
        the node's own ``encode`` writes for it, which checks it too;
        _UNKNOWN when they fix no pin, or when that ``encode`` needs a name
        they do not fix.  A pin that ``encode`` rejects raises its error,
        which :meth:`walk` makes a ResolutionError before any compile."""
        pin = fn.static(self.args, "value", self.convert)
        if pin is _UNKNOWN:
            return _UNKNOWN
        value = self.pinned(pin)
        try:
            return value, self.encode(value, fn.known)
        except EvalError:
            return _UNKNOWN

    def walk(self, fn, path: str, key):
        try:
            fixed = self.fixed(fn)
        except WirespecError as e:
            raise ResolutionError(f"{path}: the pinned value cannot be coded: {e}") from None
        self.prefix(fn.facts, fixed)
        pin = fn.static(self.args, "value", self.convert)
        return pin if pin is _UNKNOWN else self.pinned(pin)

    def prefix(self, facts: PlanFacts, fixed):
        """Append what the wire form starts with, given :meth:`fixed`, or end the facts."""
        if self.canonical and fixed is not _UNKNOWN:
            facts.literal(fixed[1])
        else:
            facts.end()

    # leaves

    def pinned(self, pin):
        """The value a pin's converted value stands for."""
        return self.kind(pin)

    def wrap(self, payload: str) -> str:
        return construct(self.kind, payload)

    def entry(self, value: str, payload: str, known=_UNKNOWN) -> tuple:
        """How to bind the value for later fields: an integer or boolean as
        its plain payload, as :meth:`~wirespec.values.Source.constant` binds
        a known one, and any other as itself."""
        if self.kind in (IntVal, BoolVal):
            return payload, self.kind, known
        return value, None, known

    def known(self, fn, value) -> tuple:
        """The code of a value that the known names fix, and its entry."""
        return fn.ref(value), (*fn.constant(value), value)

    def emit_value(self, fn, payload: str) -> tuple:
        """The code of the value that holds ``payload``, and its entry."""
        value = fn.temp(self.wrap(payload))
        return value, self.entry(value, payload)

    def emit_kind(self, fn, v, path) -> str:
        fn.require(f"not isinstance({v}, {self.kind.__name__})",
                   _message(f"expected {self.what}, got ", _shown(v)), path)
        return fn.temp(f"{v}.{self.payload}")

    def is_pin(self, fn, v, pin) -> str:
        """The code of the test that ``v`` holds the pin ``pin``."""
        payload = fn.literal(getattr(pin, self.payload))
        return f"isinstance({v}, {self.kind.__name__}) and {v}.{self.payload} == {payload}"

    def emit_encode(self, fn, v, path):
        """Kind, checks, then write; a known pin by one comparison (see
        :class:`Node`).  The node's own ``encode``, which :meth:`fixed`
        runs, writes a pin the first way."""
        fixed = self.fixed(fn) if self.canonical and fn.root is not self else _UNKNOWN
        if fixed is _UNKNOWN:
            return self.entry(v, self.emit_written(fn, v, path))
        pin, bits = fixed
        with fn.block(f"if {self.is_pin(fn, v, pin)}:"):
            fn.write(repr(bits.value), repr(bits.length))
        with fn.block("else:"):
            self.emit_written(fn, v, path)
        return self.known(fn, pin)[1]

    def emit_written(self, fn, v, path) -> str:
        """Kind, checks, then write: the payload of the encoded value."""
        payload = self.emit_kind(fn, v, path)
        self.emit_checks(fn, payload, path)
        self.emit_write(fn, payload)
        return payload

    def emit_payload(self, fn) -> str:
        """Read, then check: the payload of the decoded value."""
        payload = self.emit_read(fn)
        self.emit_checks(fn, payload, None, read=True)
        return payload

    def emit_generate(self, fn, path):
        pin = fn.static(self.args, "value", self.convert)
        if pin is not _UNKNOWN:
            return self.known(fn, self.pinned(pin))
        if "value" in self.args:
            payload = fn.temp(self.pin_payload(fn.arg(self.args, "value", self.convert)))
        else:
            payload = self.emit_draw(fn, path)
        return self.emit_value(fn, payload)

    def pin_payload(self, pin: str) -> str:
        """The code of the payload of a pin's converted value ``pin``."""
        return pin

    def emit_decode(self, fn):
        """Read, then check; a known pin by one comparison of the next bits,
        read as :meth:`_Function.read` reads them (see :class:`Node`)."""
        fixed = self.fixed(fn) if self.canonical else _UNKNOWN
        if fixed is _UNKNOWN:
            return self.emit_value(fn, self.emit_payload(fn))
        value, bits = fixed
        n = bits.length
        fn.emit(f"if pos + {n} <= end and int.from_bytes(data[pos >> 3:(pos + {n + 7}) >> 3], 'big')"
                f" >> (-(pos + {n}) & 7) & {(1 << n) - 1} == {bits.value}: pos += {n}")
        with fn.block("else:"):
            self.emit_payload(fn)
        return self.known(fn, value)

    def run(self, fn):
        fixed = self.fixed(fn) if self.canonical else _UNKNOWN
        if fixed is _UNKNOWN or fixed[1].length % 8:
            return None
        value, bits = fixed
        code, entry = self.known(fn, value)
        return _Run(re.escape(bits.to_bytes()), lambda fn: (code, entry), value)


class IntegerNode(Node):
    kind, payload, convert, what = IntVal, "value", staticmethod(as_int), "an integer"

    def emit_checks(self, fn, n, path, read=False):
        pin = fn.arg(self.args, "value", as_int)
        if pin is not None:
            fn.require(f"{n} != {pin}", _message("must equal ", _said(pin), ", got ", _said(n)), path)
        low = fn.arg(self.args, "min", as_int)
        if low is not None:
            fn.require(f"{n} < {low}", _message(_said(n), " below minimum ", _said(low)), path)
        high = fn.arg(self.args, "max", as_int)
        if high is not None:
            fn.require(f"{n} > {high}", _message(_said(n), " above maximum ", _said(high)), path)

    def emit_codec_range(self, fn, path):
        """The code of the least and greatest integers the codec codes, or
        None when it codes every integer."""
        return None

    def emit_draw(self, fn, path):
        """``randint`` over the type's bounds and the codec's range, drawn as
        it draws, with the bounds as literals where the known names fix them."""
        low = fn.int_arg(self.args, "min")
        high = fn.int_arg(self.args, "max")
        codec = self.emit_codec_range(fn, path)
        if codec is not None:
            low = codec[0] if low is None else self.tighter(fn, "max", low, codec[0])
            high = codec[1] if high is None else self.tighter(fn, "min", high, codec[1])
        if low is None or high is None:
            fn.unsatisfiable(path, "integer range is unbounded")
            return "0"
        if _int_literal(low) is not None and _int_literal(high) is not None:
            low, high = int(low), int(high)
            if low > high:
                fn.unsatisfiable(path, f"empty integer range [{low}, {high}]")
                return "0"
            pick = fn.below(high - low + 1)
            return pick if low == 0 else fn.temp(f"{low} + {pick}")
        fn.unsatisfiable(path, "empty integer range [", _said(low), ", ", _said(high), "]", when=f"{low} > {high}")
        return fn.temp(f"{low} + {fn.below(fn.temp(f'{high} - {low} + 1'))}")

    @staticmethod
    def tighter(fn, which: str, a: str, b: str) -> str:
        """The code of the ``max`` or ``min`` of two bounds, folded when both are literals."""
        if _int_literal(a) is not None and _int_literal(b) is not None:
            return repr((max if which == "max" else min)(int(a), int(b)))
        return fn.temp(f"{which}({a}, {b})")


class BigEndianNode(IntegerNode):
    canonical = True

    def known_range(self, fn):
        """The width, the signedness and the range, when the known names fix
        them and some integer has the width; else None."""
        width = fn.static(self.codec_args, "length", as_int)
        signed = fn.static(self.codec_args, "signed", as_bool) if "signed" in self.codec_args else False
        if width is _UNKNOWN or signed is _UNKNOWN:
            return None
        try:
            return (width, signed, *signed_range(width, signed))
        except Unrepresentable:
            return None  # raised when the codec runs

    def emit_range(self, fn, ranged: str) -> tuple:
        """The code of the width, the signedness (a bool when it is known)
        and the range, with ``ranged`` (a function like
        :func:`signed_range`) computing a range that is not known."""
        known = self.known_range(fn)
        if known is not None:
            width, signed, low, high = known
            return repr(width), signed, repr(low), repr(high)
        width = fn.temp(fn.arg(self.codec_args, "length", as_int))
        signed = fn.temp(fn.arg(self.codec_args, "signed", as_bool) or "False")
        low, high = fn.fresh(), fn.fresh()
        fn.emit(f"{low}, {high} = {ranged}({width}, {signed})")
        return width, signed, low, high

    def emit_codec_range(self, fn, path):
        if self.known_range(fn) is not None:
            _, _, low, high = self.emit_range(fn, "signed_range")
            return low, high
        with fn.block("try:"):
            _, _, low, high = self.emit_range(fn, "signed_range")
        with fn.block("except Unrepresentable as e:"):
            fn.unsatisfiable(path, _said("e"))
        return low, high

    def emit_write(self, fn, n):
        width, signed, low, high = self.emit_range(fn, "signed_range")
        if isinstance(signed, bool):
            kind = "signed" if signed else "unsigned"
        else:
            kind = _Code(f"('signed' if {signed} else 'unsigned')")
        fn.emit(f"if not {low} <= {n} <= {high}: raise Unrepresentable("
                f"{_message(_said(n), ' does not fit ', _said(width), '-bit ', kind)})")
        fn.write(n if signed is False else f"{n} & ((1 << {width}) - 1)", width)

    def emit_read(self, fn):
        width, signed, _, high = self.emit_range(fn, "_read_range")
        raw = fn.read(width)
        if signed is not False:
            # two's complement: above the range, the sign bit is set
            fn.emit(f"if {raw} > {high}: {raw} -= 1 << {width}")
        return raw


class TextIntegerNode(IntegerNode):
    """An integer as its decimal digits, after a ``-`` where it is negative,
    of at most ``max_digits`` digits, as Python converts no more between int
    and str by default: encode raises Unrepresentable for more, before the
    checks that would show it, and decode a ConstraintViolation."""

    max_digits = 4300  # sys.int_info.default_max_str_digits

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.text = compile_node(RType("Text", {}), rcodec.args["text_codec"], spec)

    def emit_checks(self, fn, n, path, read=False):
        if not read:
            limit = fn.ref(10 ** self.max_digits)
            message = f"integer of more than {self.max_digits} digits"
            fn.emit(f"if not -{limit} < {n} < {limit}: raise Unrepresentable({message!r})")
        super().emit_checks(fn, n, path, read)

    def emit_write(self, fn, n):
        self.text.emit_write(fn, fn.temp(f"str({n})"))

    def emit_read(self, fn):
        text = self.text.emit_payload(fn)
        with fn.block(f"if not {text}.isdigit():"):
            body = fn.temp(f"{text}[1:] if {text}[:1] == '-' else {text}")
            fn.require(f"not {body} or not {body}.isdigit()",
                       _message(_shown(text), " is not a decimal integer"))
        digits = f"len({text}.lstrip('-'))"
        fn.require(f"len({text}) > {self.max_digits} and {digits} > {self.max_digits}",
                   _message(_said(digits), f" digits exceed the limit of {self.max_digits}"))
        return fn.temp(f"int({text})")

    def prefix(self, facts, fixed):
        # the text codec fixes where the digits end, never which they are
        self.text.prefix(facts, _UNKNOWN)

    def run(self, fn):
        """What the read accepts, ``-?[0-9]{1,max_digits}`` and a terminator
        that starts with neither, and the pin and bounds as tests past the
        match."""
        text = self.text
        if not isinstance(text, TerminatedTextNode) or text.terminator_bytes[0] in b"-0123456789":
            return None
        bounds = [(op, fn.static(self.args, name, as_int))
                  for name, op in (("value", "=="), ("min", ">="), ("max", "<=")) if name in self.args]
        if any(bound is _UNKNOWN for _, bound in bounds):
            return None
        index, group = fn.group()
        n = fn.fresh("n")
        if bounds:  # the first test reads the integer
            read = f"({n} := int({fn.match}[{index}]))"
            fn.tests.append(" and ".join(f"{n if i else read} {op} {bound}" for i, (op, bound) in enumerate(bounds)))

        def build(fn):
            if not bounds:
                fn.emit(f"{n} = int({group})")
            return construct(IntVal, n), (n, IntVal, _UNKNOWN)

        return _Run(rb"(-?[0-9]{1,%d})" % self.max_digits + re.escape(text.terminator_bytes), build)


class TextNode(Node):
    kind, payload, convert, what = TextVal, "text", staticmethod(as_text), "text"
    readable = frozenset()  # the characters a read can give
    drawn_at_cap = False  # whether every draw has max_count characters

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        args = rtype.args
        self.charset = args.get("charset", "ascii")
        self.alphabet = frozenset(alphabet_for_charset(self.charset))
        self.pattern = args.get("pattern")
        self.exclude = args.get("exclude_pattern")
        self.excludes = () if self.exclude is None else (self.exclude,)
        self.draw_alphabet = alphabet_for_charset(self.charset) if self.pattern else PRINTABLE
        if rcodec is not None:
            self.encoding = rcodec.args.get("encoding", "ascii")
            # text codes as ASCII, or as Latin-1 under any other encoding name
            self.python_encoding = "ascii" if self.encoding == "ascii" else "latin-1"
            self.readable = frozenset(alphabet_for_charset(self.python_encoding))

    def pinned(self, pin):
        return TextVal(pin.text, self.charset)

    def pin_payload(self, pin):
        return f"{pin}.text"

    def wrap(self, text):
        return construct(TextVal, text, repr(self.charset))

    def emit_checks(self, fn, text, path, read=False):
        if not (read and self.alphabet >= self.readable):
            alphabet = fn.ref(self.alphabet)
            fn.require(f"not {alphabet}.issuperset({text})",
                       _Code(f"_outside({text}, {alphabet}, {self.charset!r})"), path)
        pin = fn.arg(self.args, "value", as_text)
        if pin is not None:
            fn.require(f"{text} != {pin}.text", _message("must equal ", _shown(pin), ", got ", _shown(text)), path)
        count = fn.arg(self.args, "max_count", as_int)
        if count is not None:
            fn.require(f"len({text}) > {count}",
                       _message(_said(f"len({text})"), " characters exceeds max_count"), path)
        if self.pattern is not None:
            fn.require(f"{fn.ref(self.pattern.regex.fullmatch)}({text}) is None",
                       _message(_shown(text), f" does not match {self.pattern!r}"), path)
        if self.exclude is not None:
            fn.require(f"{fn.ref(self.exclude.regex.search)}({text}) is not None",
                       _message(_shown(text), f" contains a substring matching {self.exclude!r}"), path)

    def emit_bytes(self, fn, text: str) -> str:
        """The code of the encoded bytes of a text."""
        data = fn.fresh("b")
        with fn.block("try:"):
            fn.emit(f"{data} = {text}.encode({self.python_encoding!r})")
        with fn.block("except UnicodeEncodeError:"):
            message = _message("text ", _shown(text), f" not encodable as {self.encoding}")
            fn.emit(f"raise Unrepresentable({message}) from None")
        return data

    def emit_ascii(self, fn, data: str):
        if self.encoding == "ascii":
            fn.emit(f"if not {data}.isascii(): raise _not_ascii({data})")

    def emit_draw(self, fn, path):
        cap = fn.int_arg(self.args, "max_count")
        if cap is None:  # only where the codec leaves the count free
            cap = repr(REGEX_EXPANSION_CAP if self.pattern else MAX_TEXT_LEN)
        _negative(fn, path, cap, "max_count")
        sampler = fn.ref(language(self.pattern, self.draw_alphabet, self.excludes))
        text = fn.fresh()
        with fn.block("try:"):
            fn.emit(f"{text} = {sampler}.sample(rng, {cap}{f', {cap}' if self.drawn_at_cap else ''})")
        with fn.block("except UnsatisfiableConstraint as e:"):
            fn.unsatisfiable(path, _said("e"))
        return text


class TerminatedTextNode(TextNode):
    """A text and then its terminator.

    An unpinned text whose ``max_count``, if it has one, the known names
    fix encodes a valid text through one guard, and may join a decode's run
    (see :meth:`Node.run`).  Its regex is the pattern with its character
    classes narrowed to the charset and to what the encoding codes (see
    :func:`~wirespec.patterns.narrowed`), so one match checks the bytes or
    characters, the charset and the pattern.  Encode tests the length and
    matches the ``str`` regex; it tests for the exclusion and the
    terminator only where the text's automaton cannot rule them out
    (:attr:`~wirespec.patterns.LanguageSampler.never_contains`).  In a run,
    the text is a lookahead that finds the terminator no further than a
    text of ``max_count`` characters reaches, so the scan stops there, and
    holds the text in a group; a lookahead that matches the ``bytes`` regex
    and then the terminator; and a backreference to the group and the
    terminator, which step past them.  A lookahead never backtracks, so a
    later field's miss does not make an ambiguous pattern parse the text
    again.  The text joins only where the pattern never reads the
    terminator's first byte and never holds the exclusion
    (:attr:`splits`): then a match splits the bytes where the read's
    ``bytes.find`` does and holds a text the checks accept.  A pattern that
    may read that byte or hold the exclusion, or a ``max_count`` the known
    names do not fix, that is negative or above MAX_RUN_COUNT, joins no run:
    its text is read and checked field by field.  A known pin joins as its
    literal.  Every input the guard misses, an unaligned start or
    a missing terminator included, takes the general read and the ordered
    checks, which say why it is not valid, so values, positions and
    diagnostics are those of the general path alone.  The regexes and the
    proofs are built when the plan's functions compile."""

    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.terminator = rcodec.args["terminator"]
        # the resolver guarantees the terminator is encodable in the encoding
        self.terminator_bytes = self.terminator.encode(self.python_encoding)
        self.excludes += (_literal_pattern(self.terminator),)
        # the characters of a valid text: in the charset, and coded by the encoding
        self.coded = "".join(c for c in alphabet_for_charset(self.charset) if c in self.readable)

    def guarded(self, fn):
        """The ``max_count`` that the guards test, None when the type gives
        none; _UNKNOWN where there is no guard: for a pin, or a
        ``max_count`` that the known names do not fix or that is negative
        (a run's lookahead would read no text)."""
        if "value" in self.args:
            return _UNKNOWN
        count = fn.static(self.args, "max_count", as_int)
        if count is _UNKNOWN:
            return _UNKNOWN if "max_count" in self.args else None
        return _UNKNOWN if count < 0 else count

    @cached_property
    def may_contain(self) -> tuple:
        """Whether a text of the pattern may contain a match of the
        exclusion (False when there is none) and its terminator."""
        sampler = language(self.pattern, alphabet_for_charset(self.charset), self.excludes)
        return (self.exclude is not None and not sampler.never_contains[0], not sampler.never_contains[-1])

    def emit_encode(self, fn, v, path):
        count = self.guarded(fn)
        if count is _UNKNOWN:
            return super().emit_encode(fn, v, path)
        text = self.emit_kind(fn, v, path)
        tests = [] if count is None else [f"len({text}) <= {count}"]
        tests.append(f"{fn.ref(narrowed(self.pattern, self.coded, False).fullmatch)}({text}) is not None")
        excluded, terminated = self.may_contain
        if excluded:
            tests.append(f"{fn.ref(self.exclude.regex.search)}({text}) is None")
        if terminated:
            tests.append(f"{self.terminator!r} not in {text}")
        data = fn.fresh("b")
        with fn.block(f"if {' and '.join(tests)}:"):
            fn.emit(f"{data} = ({text} + {self.terminator!r}).encode({self.python_encoding!r})")
        with fn.block("else:"):  # the ordered checks, to say why not
            self.emit_checks(fn, text, path)
            fn.emit(f"{data} = {self.emit_terminated(fn, text)}")
        fn.write(f"int.from_bytes({data}, 'big')", fn.temp(f"len({data}) << 3"))
        return self.entry(v, text)

    def emit_write(self, fn, text):
        data = self.emit_terminated(fn, text)
        fn.write(f"int.from_bytes({data}, 'big')", fn.temp(f"len({data}) << 3"))

    def emit_terminated(self, fn, text) -> str:
        """The code of the encoded bytes of a text and its terminator, after
        the test that the text does not contain it."""
        terminator = self.terminator
        fn.emit(f"if {terminator!r} in {text}: raise TerminatorInPayload("
                f"{_message('text ', _shown(text), f' contains its terminator {terminator!r}')})")
        return self.emit_bytes(fn, fn.temp(f"{text} + {terminator!r}"))

    @cached_property
    def splits(self) -> bool:
        """Whether a match of the narrowed pattern and then the terminator
        ends where the read's search does and holds a text the checks
        accept: the pattern reads no character that starts the terminator,
        and no text of it holds the exclusion."""
        return self.terminator[0] not in chars_read(self.pattern, self.coded) and not self.may_contain[0]

    def run(self, fn):
        if "value" in self.args:
            return super().run(fn)
        count = self.guarded(fn)
        if count is _UNKNOWN or not self.splits or (count or 0) > MAX_RUN_COUNT:
            return None
        first, terminator = re.escape(self.terminator_bytes[:1]), re.escape(self.terminator_bytes)
        _, group = fn.group()
        value = self.wrap(f"{group}.decode('latin-1')")
        # lookaheads never backtrack: the text is found and matched once, so
        # a later field's miss does not make its pattern parse it again
        found = b"(?=(?P<%s>[^%s]%s)%s)" % (
            group.encode(), first, b"*" if count is None else b"{0,%d}" % count, terminator)
        checked = b"(?=(?:%s)%s)" % (narrowed(self.pattern, self.coded, True).pattern, terminator)
        return _Run(b"%s%s(?P=%s)%s" % (found, checked, group.encode(), terminator),
                    lambda fn: (value, self.entry(value, None)))

    def emit_read(self, fn):
        terminator, size = self.terminator_bytes, len(self.terminator_bytes)
        data = fn.fresh("b")
        fn.emit(f"{data}, pos = _scan_terminated(data, pos, {terminator!r})")
        self.emit_ascii(fn, data)
        with fn.block(f"if not {data}.endswith({terminator!r}):"):
            # a valid text and a partial terminator span fewer bytes than this
            count = fn.arg(self.args, "max_count", as_int)
            if count is not None:
                fn.require(f"len({data}) - {size} >= {count}", _message(
                    _said(f"len({data})"),
                    f" characters without terminator {self.terminator!r} exceeds max_count",
                ))
            fn.emit(f"raise MissingTerminator({f'terminator {self.terminator!r} not found'!r})")
        return fn.temp(f"{data}[:-{size}].decode('latin-1')")

    def prefix(self, facts, fixed):
        if "value" in self.args:
            super().prefix(facts, fixed)
        elif facts.open:
            facts.skip(self.terminator_bytes, self.first_bytes)

    @cached_property
    def first_bytes(self) -> frozenset | None:
        """The bytes a text that passes the type's checks can start its
        encoding with, the terminator's for the empty text; None when any
        byte can."""
        if self.pattern is None and self.exclude is None:
            return None
        sampler = language(self.pattern, alphabet_for_charset(self.charset), self.excludes)
        first = {ord(ch) for ch in sampler.first_chars}
        if sampler.counts(0)[0]:
            first.add(self.terminator_bytes[0])
        return frozenset(first)


class FixedCountTextNode(TextNode):
    # the resolver guarantees the type gives max_count or value
    canonical = drawn_at_cap = True

    def emit_count(self, fn) -> str:
        if "max_count" in self.args:
            return fn.temp(fn.arg(self.args, "max_count", as_int))
        return fn.temp(f"len({fn.arg(self.args, 'value', as_text)}.text)")

    def emit_write(self, fn, text):
        count = self.emit_count(fn)
        message = _message("fixed-count text must be exactly ", _said(count),
                           " characters, got ", _said(f"len({text})"))
        fn.emit(f"if len({text}) != {count}: raise Unrepresentable({message})")
        data = self.emit_bytes(fn, text)
        fn.write(f"int.from_bytes({data}, 'big')", fn.temp(f"len({data}) << 3"))

    def emit_read(self, fn):
        width = fn.temp(f"8 * max({self.emit_count(fn)}, 0)")
        data = fn.temp(f"{fn.read(width)}.to_bytes({width} >> 3, 'big')")
        self.emit_ascii(fn, data)
        return fn.temp(f"{data}.decode('latin-1')")


class BoolNode(Node):
    kind, payload, convert, what = BoolVal, "value", staticmethod(as_bool), "a boolean"

    def emit_checks(self, fn, flag, path, read=False):
        pin = fn.arg(self.args, "value", as_bool)
        if pin is not None:
            fn.require(f"{flag} != {pin}", repr("boolean has the wrong fixed value"), path)

    def emit_draw(self, fn, path):
        return fn.temp("rng.random() < 0.5")


class BoolBitsNode(BoolNode):
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.truth = rcodec.args["truth_string"]
        self.falsehood = rcodec.args["falsehood_string"]

    def emit_write(self, fn, flag):
        fn.write(f"({self.truth.value} if {flag} else {self.falsehood.value})", repr(self.truth.length))

    def emit_read(self, fn):
        width = self.truth.length
        raw = fn.read(repr(width))
        flag = fn.temp(f"{raw} == {self.truth.value}")
        fn.require(f"not {flag} and {raw} != {self.falsehood.value}", _message(
            "bits ", _shown(construct(BitString, raw, repr(width))), " are neither truth nor falsehood pattern"
        ))
        return flag


class BinaryNode(Node):
    """Binary values are their own bits; the resolver rejects a codec on the field."""

    kind, payload, convert, what = BitsVal, "bits", staticmethod(as_bits), "bits"
    canonical = True

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.pattern = rtype.args.get("char8_pattern")

    def emit_checks(self, fn, bits, path, read=False):
        # a read takes exactly length bits: only a pin and the pattern are left
        if not read or "value" in self.args:
            pin = fn.arg(self.args, "value", as_bits)
            if pin is not None:
                fn.require(f"{bits} != {pin}", _message("must equal ", _shown(pin), ", got ", _shown(bits)), path)
            length = fn.arg(self.args, "length", as_int)
            if length is not None:
                fn.require(f"{bits}.length != {length}", _message(
                    "length ", _said(f"{bits}.length"), " bits, expected ", _said(length)
                ), path)
        if self.pattern is not None:
            fn.require(f"{fn.ref(self.pattern.regex.fullmatch)}({bits}.to_bits()) is None", _message(
                "bits ", _shown(f"{bits}.to_bits()"), f" do not match {self.pattern!r}"
            ), path)

    def emit_write(self, fn, bits):
        fn.write(f"{bits}.value", fn.temp(f"{bits}.length"))

    def emit_read(self, fn):
        pin = fn.static(self.args, "value", as_bits)
        if pin is not _UNKNOWN:
            width = repr(pin.length)
        elif "value" in self.args:
            width = fn.temp(f"{fn.arg(self.args, 'value', as_bits)}.length")
        else:
            width = fn.arg(self.args, "length", as_int)
            if not width.isdigit():
                width = fn.temp(width)
                fn.require(f"{width} < 0", _message("negative bit length ", _said(width)))
        return fn.temp(construct(BitString, fn.read(width), width))

    def emit_draw(self, fn, path):
        length = fn.int_arg(self.args, "length")
        _negative(fn, path, length, "bit length")
        if self.pattern is None:
            return fn.temp(construct(BitString, f"getrandbits({length})", length))
        bits = fn.fresh()
        with fn.block("try:"):
            sampler = fn.ref(language(self.pattern, "01", ()))
            fn.emit(f"{bits} = {sampler}.sample(rng, {length}, {length})")
        with fn.block("except UnsatisfiableConstraint:"):
            fn.unsatisfiable(path, "no ", _said(length), f"-bit string matches {self.pattern!r}")
        return fn.temp(construct(BitString, f"int({bits} or '0', 2)", length))


class ListNode(Node):
    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.elem = compile_node(rtype.args["elem"], None, spec)

    def emit_generate(self, fn, path):
        cap = fn.int_arg(self.args, "max_length")
        if cap is None:
            cap = repr(MAX_LIST_LEN)
        _negative(fn, path, cap, "max_length")
        count = fn.below(int(cap) + 1 if _int_literal(cap) is not None else fn.temp(f"{cap} + 1"))
        items, index = fn.temp("[]"), fn.fresh("i")
        with fn.block(f"for {index} in range({count}):"):
            item, _ = self.elem.emit_generate(fn, (*path, "[", _Code(f"str({index})"), "]"))
            fn.emit(f"{items}.append({item})")
        value = fn.temp(construct(ListVal, f"tuple({items})"))
        return value, (value, None, _UNKNOWN)

    def walk(self, fn, path, key):
        fn.facts.end()
        self.elem.walk(fn, f"{path}[]", key)
        return _UNKNOWN

    def retype(self, value):
        if not isinstance(value, ListVal):
            return value
        return ListVal(tuple(self.elem.retype(item) for item in value.items))


class CountPrefixListNode(ListNode):
    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.count = compile_node(RType("Integer", {}), rcodec.args["count_codec"], spec)

    def emit_encode(self, fn, v, path):
        fn.require(f"not isinstance({v}, ListVal)", _message("expected a list, got ", _shown(v)), path)
        items = fn.temp(f"{v}.items")
        limit = fn.arg(self.args, "max_length", as_int)
        if limit is not None:
            fn.require(f"len({items}) > {limit}",
                       _message(_said(f"len({items})"), " elements exceeds max_length"), path)
        self.count.emit_write(fn, fn.temp(f"len({items})"))
        index, item = fn.fresh("i"), fn.fresh("x")
        with fn.block(f"for {index}, {item} in enumerate({items}):"):
            self.elem.emit_encode(fn, item, _within(path, f"'element ' + str({index}) + ': '"))
        return v, None, _UNKNOWN

    def emit_decode(self, fn):
        count = self.count.emit_payload(fn)
        fn.require(f"{count} < 0", _message("negative list count ", _said(count)))
        limit = fn.arg(self.args, "max_length", as_int)
        if limit is not None:
            fn.require(f"{count} > {limit}", _message("list count ", _said(count), " exceeds max_length"))
        items = fn.temp("[]")
        with fn.block(f"for _ in range({count}):"):
            item, _ = fn.decode(self.elem)
            fn.emit(f"{items}.append({item})")
        value = fn.temp(construct(ListVal, f"tuple({items})"))
        return value, (value, None, _UNKNOWN)


class EnumNode(Node):
    """Maps constants to and from their values, which code as the enum's
    base type.  Each constant's value has its own encoding, which decodes as
    that constant alone: the resolver rejects two constants with one value,
    and :meth:`walk` a value that the base type and codec reject."""

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        enum = spec.enums[rtype.enum]
        self.name = enum.name
        self.values = enum.constants
        self.choices = tuple(EnumVal(self.name, c) for c in enum.constants)
        self.base = compile_node(enum.base, rcodec, spec)
        self.canonical = self.base.canonical
        self.convert = self.as_constant
        # each constant's payload, and the constant each payload decodes as
        self.payloads = {c: getattr(v, self.base.payload) for c, v in enum.constants.items()}
        self.by_payload = {self.payloads[c.constant]: c for c in self.choices}

    @property
    def title(self):
        return self.name

    def as_constant(self, value) -> EnumVal:
        """The value itself, once it is one of this enum's own constants."""
        if not isinstance(value, EnumVal) or value.enum != self.name:
            raise TypeMismatch(f"expected a {self.name} constant, got {value!r}")
        return value

    def pinned(self, pin):
        return pin

    def emit_kind(self, fn, v, path):
        fn.require(f"not isinstance({v}, EnumVal) or {v}.enum != {self.name!r}",
                   _message(f"expected a {self.name} constant, got ", _shown(v)), path)
        fn.require(f"{v}.constant not in {fn.ref(self.values)}",
                   _message(_shown(f"{v}.constant"), f" is not a constant of {self.name}"), path)
        return v

    def emit_checks(self, fn, v, path, read=False):
        pin = fn.arg(self.args, "value", self.as_constant)
        if pin is not None:
            fn.require(f"{v} != {pin}", _message("must be ", _shown(pin), ", got ", _said(f"{v}.constant")), path)

    def emit_write(self, fn, v):
        self.base.emit_write(fn, fn.temp(f"{fn.ref(self.payloads)}[{v}.constant]"))

    def emit_read(self, fn):
        payload = self.base.emit_payload(fn)
        constant = fn.temp(f"{fn.ref(self.by_payload)}.get({payload})")
        fn.require(f"{constant} is None",
                   _message(_shown(self.base.wrap(payload)), f" is not a {self.name} constant"))
        return constant

    def emit_value(self, fn, constant):
        return constant, self.entry(constant, constant)

    def is_pin(self, fn, v, pin):
        return f"{v} is {fn.ref(pin)} or {v} == {fn.ref(pin)}"

    def walk(self, fn, path, key):
        """Every constant too, through the base type and the field's codec:
        the enum's own ``encode`` writes a value without the base type's
        checks, and decode applies them."""
        for constant, value in self.values.items():
            fn.facts.enums[self.name, constant] = None
            try:
                self.base.encode(value, fn.known)
            except EvalError:
                pass  # the codec needs a name the walk does not know
            except WirespecError as e:
                raise ResolutionError(
                    f"{path}: enum {self.name} constant {constant!r} cannot be coded: {e}"
                ) from None
        return super().walk(fn, path, key)

    @cached_property
    def by_wire(self) -> dict | None:
        """Each constant by its encoding, where it is a terminated text
        without the terminator's first byte, so the read of every such
        encoding ends where it does; else None."""
        base = self.base
        if not isinstance(base, TerminatedTextNode) or not self.choices:
            return None
        if any(base.terminator[0] in self.payloads[c.constant] for c in self.choices):
            return None
        return {base.encode(self.values[c.constant], {}).to_bytes(): c for c in self.choices}

    def run(self, fn):
        """An unpinned enum of text is the alternation of its constants'
        encodings."""
        if "value" in self.args or self.by_wire is None:
            return super().run(fn)
        _, group = fn.group()
        value = f"{fn.ref(self.by_wire)}[{group}]"
        return _Run(b"(%s)" % b"|".join(map(re.escape, self.by_wire)), lambda fn: (value, (value, None, _UNKNOWN)))

    def emit_draw(self, fn, path):
        if not self.choices:
            fn.unsatisfiable(path, f"enum {self.name} has no constants")
            return "None"
        return fn.temp(f"{fn.ref(self.choices)}[{fn.below(len(self.choices))}]")

    def retype(self, value):
        return EnumVal(self.name, value.constant) if isinstance(value, EnumVal) else value


class OptionalNode(Node):
    """Present or absent by its guard; a present value codes as the subject."""

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.subject = compile_node(rtype.args["subject"], rcodec, spec)

    def emit_encode(self, fn, v, path):
        empty = fn.temp(fn.arg(self.args, "is_empty", as_bool))
        fn.require(f"{empty} != ({v} is ABSENT)",
                   f"('value must be absent' if {empty} else 'value is required but absent')", path)
        with fn.block(f"if not {empty}:"):
            self.subject.emit_encode(fn, v, path)
        return v, None, _UNKNOWN

    def emit_guarded(self, fn, emit_subject):
        """ABSENT where the guard holds, else the subject's value, which
        ``emit_subject()`` emits."""
        empty = fn.arg(self.args, "is_empty", as_bool)
        value = fn.fresh("o")
        with fn.block(f"if {empty}:"):
            fn.emit(f"{value} = ABSENT")
        with fn.block("else:"):
            fn.emit(f"{value} = {emit_subject()[0]}")
        return value, (value, None, _UNKNOWN)

    def emit_decode(self, fn):
        return self.emit_guarded(fn, lambda: fn.decode(self.subject))

    def walk(self, fn, path, key):
        fn.facts.end()
        fn.facts.optional[key] = None
        self.subject.walk(fn, path, key)
        return _UNKNOWN

    def emit_generate(self, fn, path):
        return self.emit_guarded(fn, lambda: self.subject.emit_generate(fn, path))

    def retype(self, value):
        return value if value is ABSENT else self.subject.retype(value)


class RecordNode(Node):
    """A record instance: binds its parameters, applies field pins such as
    ``Header(flag=1)``, and binds each field in turn for the later ones."""

    def __init__(self, rtype, rcodec, spec):
        super().__init__(rtype, rcodec, spec)
        self.rtype = rtype
        self.record = spec.records[rtype.record]
        self.name = self.record.name
        self.names = [f.name for f in self.record.fields]

    @property
    def title(self):
        return self.name

    @cached_property
    def fields(self) -> list:
        """(name, node) pairs, compiled on first use so a record may nest itself."""
        out = []
        for fld in self.record.fields:
            ftype = fld.type
            if fld.name in self.rtype.args:
                # the pin's value is bound under the field's own name until
                # the field itself is (see _Function.record); earlier fields
                # cannot see it, as the resolver rejects references to later ones
                ftype = ftype.replace_args({**ftype.args, "value": NameRef(fld.name)})
            out.append((fld.name, compile_node(ftype, fld.codec, self.spec)))
        return out

    def recurs(self, fn):
        """The node whose function to call where this record recurs inside
        itself (the enclosing instance with the same arguments, else this
        one) or where the source is already nested deep (this one; Python
        compiles no more than 20 nested loops and ``try`` blocks); None
        where it is inlined."""
        same = [node for node in fn.inlining if node.name == self.name]
        if not same:
            return self if len(fn.indent) > 4 * MAX_INLINED_DEPTH else None
        return next((node for node in same if node.rtype.args == self.rtype.args), self)

    def emit_encode(self, fn, v, path):
        target = self.recurs(fn)
        if target is not None:
            bits = fn.fresh("b")
            call = f"{bits} = {fn.ref(target)}.encode({v}, {fn.env()})"
            if path is None:
                fn.emit(call)
            else:
                with fn.block("try:"):
                    fn.emit(call)
                with fn.block("except ConstraintViolation as inner:"):
                    fn.emit(f"raise ConstraintViolation({path} + str(inner)) from None")
            fn.write(f"{bits}.value", f"{bits}.length")
            return v, None, _UNKNOWN
        fn.require(f"not isinstance({v}, RecordVal) or {v}.type_name != {self.name!r}",
                   _message(f"expected a {self.name} record, got ", _shown(v)), path)
        entries = fn.temp(f"{v}.entries")
        mismatch = repr(f"field set mismatch for {self.name}")
        fn.require(f"len({entries}) != {len(self.names)}", mismatch, path)
        keys = [fn.fresh("k") for _ in self.names]
        values = [fn.fresh("f") for _ in self.names]
        if self.names:
            fn.emit("".join(f"({k}, {x}), " for k, x in zip(keys, values)) + f"= {entries}")
            fn.require(" or ".join(f"{k} != {name!r}" for k, name in zip(keys, self.names)), mismatch, path)
        with fn.record(self):
            for (name, node), value in zip(self.fields, values):
                fn.bind(name, *node.emit_encode(fn, value, _within(path, repr(f"{self.name}.{name}: "))))
        return v, None, _UNKNOWN

    def emit_decode(self, fn):
        target = self.recurs(fn)
        if target is not None:
            value = fn.fresh()
            fn.emit(f"{value}, pos = {fn.ref(target)}.decode(data, pos, {fn.env()})")
            return value, (value, None, _UNKNOWN)
        return self.emit_fields(fn, lambda name, node: fn.decode(node))

    def emit_fields(self, fn, emit) -> tuple:
        """The record of the values that ``emit(name, node)`` emits for each
        field in turn, each bound for the later ones: one constant when
        every field is fixed."""
        values = []
        with fn.record(self):
            for name, node in self.fields:
                value, entry = emit(name, node)
                fn.bind(name, *entry)
                values.append((value, entry[2]))
        if all(known is not _UNKNOWN for _, known in values):
            record = RecordVal(self.name, tuple((name, known) for name, (_, known) in zip(self.names, values)))
            return fn.ref(record), (fn.ref(record), None, record)
        entries = "".join(f"({name!r}, {value}), " for name, (value, _) in zip(self.names, values))
        value = fn.temp(construct(RecordVal, repr(self.name), f"({entries})"))
        return value, (value, None, _UNKNOWN)

    def run(self, fn):
        """The concatenation of its fields' runs, where the known names fix
        its arguments and it is inlined."""
        args = self.rtype.args
        if self.recurs(fn) is not None or any(fn.static(args, name) is _UNKNOWN for name in args):
            return None
        parts = []
        with fn.record(self):
            for name, node in self.fields:
                part = node.run(fn)
                if part is None:
                    return None
                parts.append(part)
                fn.bind(name, "None", None, part.known)  # the code of a field in a run is never read
        source = b"".join(part.source for part in parts)
        if all(part.known is not _UNKNOWN for part in parts):
            record = RecordVal(self.name, tuple((name, part.known) for name, part in zip(self.names, parts)))
            code = fn.ref(record)
            return _Run(source, lambda fn: (code, (code, None, record)), record)

        def build(fn):
            entries = "".join(f"({name!r}, {part.build(fn)[0]}), " for name, part in zip(self.names, parts))
            value = construct(RecordVal, repr(self.name), f"({entries})")
            return value, (value, None, _UNKNOWN)

        return _Run(source, build)

    def emit_generate(self, fn, path):
        target = self.recurs(fn)
        if target is not None:
            value = fn.fresh()
            with fn.block("try:"):
                fn.emit(f"{value} = {fn.ref(target)}.generate(rng, {fn.env()})")
            with fn.block("except UnsatisfiableConstraint as inner:"):
                fn.emit(f"raise UnsatisfiableConstraint({_message(*path, _said('inner'))}) from None")
            return value, (value, None, _UNKNOWN)
        return self.emit_fields(fn, lambda name, node: node.emit_generate(fn, (*path, f".{name}")))

    def walk(self, fn, path, key):
        target = self.recurs(fn)
        if target is None:
            with fn.record(self):
                for name, node in self.fields:
                    fn.facts.fields[self.name, name] = None
                    value = node.walk(fn, f"{path}.{name}", (self.name, name))
                    if value is not _UNKNOWN:
                        fn.bind(name, fn.ref(value), None, value)
            return _UNKNOWN
        fn.facts.end()  # the record's function is called here
        if target is self and (self.name, self.rtype.args) not in fn.facts.alone:
            # where it recurs with other arguments, it is compiled on its own
            fn.facts.alone.append((self.name, self.rtype.args))
            fn.facts.walk(self, path)
        return _UNKNOWN

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
    """The segments of :class:`PlanFacts` that every wire form of a message
    type starts with, up to its last literal, recorded once per plan (see
    :func:`message_plan`); a fresh list on each call."""
    return list(message_plan(spec, msg_type).facts.segments)


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


def _at(base: str | None, offset: int) -> str:
    """The code of the byte position ``offset`` past ``base``, a local
    holding a position, or past 0 when it is None."""
    if base is None:
        return repr(offset)
    return base if offset == 0 else f"{base} + {offset}"


class _Walk(Source):
    """The source of a walk of a :class:`_Branch` over a buffer: the mask
    of the candidates whose facts the bytes of ``buf`` do not contradict.
    A missing terminator or a read past the end of ``buf`` keeps them.
    The whole tree is ``classify(buf)``; a subtree nested deeper than
    MAX_INLINED_DEPTH blocks is its own ``classify(buf, size, at)``, from
    byte ``at`` of ``buf`` of ``size`` bytes.

    A run of bytes that every candidate under a node reads in turn is one
    ``startswith``, and a buffer that ends inside it keeps them; at a
    branch point, the byte there, in a local of its own, picks the child,
    ends tails and guards skips, each one ``bytes.find``."""

    def __init__(self, title: str, tree: _Branch, base: str | None):
        super().__init__({}, "classify")
        self.title = title
        if base is None:
            self.emit("size = len(buf)")
        self.emit("alive = 0")
        self.visit(tree, base, 0)
        self.emit("return alive")

    def visit(self, node: _Branch, base: str | None, offset: int):
        if node.below == node.ends:  # the facts of every candidate here end here
            self.emit(f"alive |= {node.below}")
            return
        if len(self.indent) > 4 * MAX_INLINED_DEPTH:
            part = _Walk(self.title, node, "at").finish(self.title, "buf, size, at")
            self.emit(f"alive |= {self.ref(part)}(buf, size, {_at(base, offset)})")
            return
        at = _at(base, offset)
        run, past = bytearray(), node
        while len(past.children) == 1 and not (past.ends or past.tails or past.skips):
            ((byte, past),) = past.children.items()
            run.append(byte)
        if run:
            run = bytes(run)
            short = f"size < {_at(base, offset + len(run))} and {run!r}.startswith(buf[{at}:])"
            if past.below == past.ends:
                self.emit(f"if buf.startswith({run!r}, {at}) or {short}: alive |= {node.below}")
                return
            with self.block(f"if buf.startswith({run!r}, {at}):"):
                self.visit(past, base, offset + len(run))
            self.emit(f"elif {short}: alive |= {node.below}")
            return
        self.emit(f"if size <= {at}: alive |= {node.below}")
        with self.block("else:"):
            if node.ends:
                self.emit(f"alive |= {node.ends}")
            byte = None
            if node.children or node.tails or any(first is not None for _, first, _ in node.skips):
                byte = self.temp(f"buf[{at}]")
            keyword = "if"
            for value, child in node.children.items():
                with self.block(f"{keyword} {byte} == {value}:"):
                    self.visit(child, base, offset + 1)
                keyword = "elif"
            for shift, value, bit in node.tails:
                self.emit(f"if {byte} >> {shift} == {value}: alive |= {bit}")
            for terminator, first, child in node.skips:
                if first is None:
                    self.skip(terminator, child, at)
                else:
                    with self.block(f"if {byte} in {self.ref(first)}:"):
                        self.skip(terminator, child, at)

    def skip(self, terminator: bytes, child: _Branch, at: str):
        end = self.temp(f"buf.find({terminator!r}, {at})")
        self.emit(f"if {end} < 0: alive |= {child.below}")
        with self.block("else:"):
            self.visit(child, end, len(terminator))


class Classifier:
    """One candidate list in declaration order (``ordered``; candidate ``i``
    is bit ``1 << i``), the tree of its candidates' wire-prefix facts, and
    ``alive(buf)``, the tree's generated walk (see :class:`_Walk`): the
    mask of the candidates whose facts ``buf`` does not contradict."""

    def __init__(self, spec: ResolvedSpec, candidates: tuple):
        for name in candidates:
            spec.message_record(name)
        wanted = set(candidates)
        self.ordered = [m for m in spec.message_types if m in wanted]
        if not self.ordered:
            raise ValueError("no candidate message types")
        self.spec = spec
        self.tree = _Branch()
        for i, name in enumerate(self.ordered):
            self.tree.add(1 << i, wire_prefix(spec, name))
        title = f"classify {self.ordered[0]}{',…' if len(self.ordered) > 1 else ''}"
        self.alive = _Walk(title, self.tree, None).finish(title, "buf")

    @cached_property
    def decoders(self) -> list:
        """Each candidate's name and the decode function of its plan, by bit index."""
        return [(name, message_plan(self.spec, name).decode) for name in self.ordered]


def classifier(spec: ResolvedSpec, candidates) -> Classifier:
    """The :class:`Classifier` of a candidate list, built on first use and
    cached on the spec; the spec's own ``message_types`` is found by
    identity, with no tuple to hash."""
    if candidates is spec.message_types:
        key = None
    else:
        key = candidates if type(candidates) is tuple else tuple(candidates)
    found = spec.classifiers.get(key)
    if found is None:
        found = spec.classifiers.setdefault(key, Classifier(spec, candidates if key is None else key))
    return found


def _attempt(buf: bytes, msg_type: str, decode):
    """The message decoded in full by ``decode`` from the front of
    ``buf``, else why not: (whether more bytes may help, the reason)."""
    try:
        value, pos = decode(buf, 0, {})
        if pos % 8:
            raise ConstraintViolation("message does not end on a byte boundary")
        return Classified(msg_type, value, pos // 8)
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
    alive = classify.alive(buf)
    decoders = classify.decoders
    diagnostics, matched, incomplete = {}, [], False
    while alive:
        bit = alive & -alive
        alive ^= bit
        name, decode = decoders[bit.bit_length() - 1]
        out = _attempt(buf, name, decode)
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
    for name, decode in decoders:
        if name not in diagnostics:
            # the facts rule out no candidate that decodes, so this one fails
            more, reason = _attempt(buf, name, decode)
            diagnostics[name] = f"ruled out by its wire prefix, {reason}" if more else reason
    return InvalidFormat({name: diagnostics[name] for name in classify.ordered})
