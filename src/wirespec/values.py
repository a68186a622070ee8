"""Semantic values and the compiler for value-level expressions.

Values are what the generator produces, the codec serializes, and the
checker validates.  Each value is an immutable tuple of its fields, a
:class:`~wirespec.bits.FrozenFields` over a :func:`~collections.namedtuple`,
that compares, hashes and shows as a frozen dataclass would; generated
code builds one with ``tuple.__new__``, in one C call (see
:func:`construct`), and everything else with its class.

Field types are dependent: their arguments are expressions over earlier
fields of the same record.  :func:`compile_expr` turns an expression into
the source of one Python function over a plain dict of the field and
parameter values known so far; the function computes on plain ints and
bools and wraps its result once, or, for an integer or boolean argument,
returns it plain.  It runs when code is
generated or the resolver folds a constant, never once per message.
:class:`Source`, the compiler behind it, builds every function that
wirespec generates: it also inlines expressions into the functions of
:mod:`wirespec.codec`, over names held in locals, and those functions
compute an argument that the names they know fix once, into a literal.
Random draws elsewhere (``wirespec.codec`` and ``wirespec.patterns``) use
``getrandbits`` with rejection, as ``randrange`` does, so a seed draws the
same values."""

from __future__ import annotations

import hashlib
import linecache
from collections import namedtuple
from contextlib import contextmanager

from .bits import BitString, FrozenFields, _new
from .errors import DivisionByZero, TypeMismatch, UnboundName
from . import syntax


# --- value model ---------------------------------------------------------------

class IntVal(FrozenFields, namedtuple("IntVal", "value")):
    __slots__ = ()

    def __new__(cls, value: int):
        return _new(cls, (value,))


class TextVal(FrozenFields, namedtuple("TextVal", "text charset")):
    __slots__ = ()

    def __new__(cls, text: str, charset: str = "ascii"):
        return _new(cls, (text, charset))


class BitsVal(FrozenFields, namedtuple("BitsVal", "bits")):
    __slots__ = ()

    def __new__(cls, bits: BitString):
        return _new(cls, (bits,))


class BoolVal(FrozenFields, namedtuple("BoolVal", "value")):
    __slots__ = ()

    def __new__(cls, value: bool):
        return _new(cls, (value,))


class ListVal(FrozenFields, namedtuple("ListVal", "items")):
    __slots__ = ()

    def __new__(cls, items: tuple):
        return _new(cls, (items,))


class EnumVal(FrozenFields, namedtuple("EnumVal", "enum constant")):
    __slots__ = ()

    def __new__(cls, enum: str, constant: str):
        return _new(cls, (enum, constant))


class RecordVal(FrozenFields, namedtuple("RecordVal", "type_name entries")):
    __slots__ = ()

    def __new__(cls, type_name: str, entries: tuple):
        # entries: ordered (field name, value) pairs
        return _new(cls, (type_name, entries))

    def get(self, name: str):
        for k, v in self.entries:
            if k == name:
                return v
        raise KeyError(name)


def construct(cls, *fields: str) -> str:
    """The source that builds a ``cls``, a value class or BitString, from
    the source of its fields, in one C call: the class's own ``__new__``
    and its checks do not run."""
    items = ", ".join(fields) + ("," if len(fields) == 1 else "")
    return f"_new({cls.__name__}, ({items}))"


class _Absent:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "absent"


ABSENT = _Absent()


# --- compiled expressions ----------------------------------------------------------

def literal_value(expr):
    """The value of an integer, text or bit literal; None for any other expression."""
    if isinstance(expr, syntax.IntLit):
        return IntVal(expr.value)
    if isinstance(expr, syntax.TextLit):
        return TextVal(expr.value)
    if isinstance(expr, syntax.BitsLit):
        return BitsVal(expr.bits)
    return None


_BUILTINS = {"true": BoolVal(True), "false": BoolVal(False)}
_UNARY = {"!": (BoolVal, "not ", "!"), "-": (IntVal, "-", "unary -")}


def _applied(label: str, *operands) -> TypeMismatch:
    return TypeMismatch(f"{label} applied to {' and '.join(map(repr, operands))}")


def _lookup(env: dict, name: str):
    try:
        return env[name]
    except KeyError:
        raise UnboundName(f"unbound name {name!r}") from None


def _register(title: str, source: str) -> str:
    """A file name for generated source, registered with :mod:`linecache`.
    The name holds a hash of the source, so equal sources share one entry;
    each distinct source stays registered for the life of the process, as
    :func:`linecache.checkcache` keeps entries without a modification time."""
    filename = f"<{title} {hashlib.blake2b(source.encode(), digest_size=6).hexdigest()}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return filename


class Source:
    """The body of one generated function ``kind``, in indented blocks, and
    :meth:`finish`, which compiles it: every function that wirespec
    generates is built here.  Each operand compiles to Python source and
    its kind: ``IntVal`` or ``BoolVal`` when the source computes the plain
    int or bool inside, None when it computes a value of a kind known only
    at run time.  Lookups and checks, the only steps that can fail, become
    statements in evaluation order; what they guard stays an expression on
    plain ints and bools that cannot fail.  Objects other than ints, bools
    and strings reach the source only as names bound in ``namespace``, and
    spec names only as string literals."""

    def __init__(self, constants: dict, kind: str):
        self.constants = constants
        self.kind = kind
        self.lines = []
        self.indent = "    "
        self.namespace = {
            "_new": _new,
            "IntVal": IntVal,
            "BoolVal": BoolVal,
            "DivisionByZero": DivisionByZero,
            "_applied": _applied,
            "_lookup": _lookup,
        }
        self.refs = {}  # id of an object -> its name in namespace
        self.temps = 0

    def emit(self, line: str):
        self.lines.append(self.indent + line)

    @contextmanager
    def block(self, header: str):
        self.emit(header)
        self.indent += "    "
        yield
        self.indent = self.indent[:-4]

    def finish(self, title: str, params: str):
        """The function ``<title>(params)``, whose source :mod:`linecache`
        holds, so tracebacks and debuggers show its lines."""
        source = f"def {self.kind}({params}):\n" + "".join(f"{line}\n" for line in self.lines)
        exec(compile(source, _register(title, source), "exec"), self.namespace)
        function = self.namespace[self.kind]
        function.__code__ = function.__code__.replace(co_name=f"<{title}>")
        function.__name__ = function.__qualname__ = f"<{title}>"
        return function

    def fresh(self, prefix: str = "v") -> str:
        name = f"{prefix}{self.temps}"
        self.temps += 1
        return name

    def temp(self, code: str) -> str:
        name = self.fresh()
        self.emit(f"{name} = {code}")
        return name

    def ref(self, obj) -> str:
        """The name under which the source refers to ``obj``."""
        name = self.refs.get(id(obj))
        if name is None:
            name = self.refs[id(obj)] = self.fresh("c")
            self.namespace[name] = obj
        return name

    def constant(self, value):
        if type(value) in (IntVal, BoolVal):
            return repr(value.value), type(value)
        return self.ref(value), None

    def lookup(self, name: str):
        """The code and kind of the value bound to a field or parameter."""
        return self.temp(f"_lookup(env, {name!r})"), None

    def operand(self, code: str, kind, want):
        """The plain value of an operand that must be a ``want``, the test
        that fails when it is not (None when it cannot fail), and the
        operand's value for a message."""
        if kind is want:
            return code, None, construct(want, code)
        if kind is None:
            return f"{code}.value", f"not isinstance({code}, {want.__name__})", code
        return code, "True", construct(kind, code)

    def compile(self, expr):
        if isinstance(expr, syntax.NameRef):
            value = _BUILTINS.get(expr.name, self.constants.get(expr.name))
            if value is None:
                # the name only ever appears as a string literal
                return self.lookup(expr.name)
        else:
            value = literal_value(expr)
        if value is not None:
            return self.constant(value)
        if isinstance(expr, syntax.Unary):
            want, op, label = _UNARY[expr.op]
            raw, test, shown = self.operand(*self.compile(expr.operand), want)
            if test:
                self.emit(f"if {test}: raise _applied({label!r}, {shown})")
            return f"({op}{raw})", want
        if isinstance(expr, syntax.Binary):
            left = self.operand(*self.compile(expr.left), IntVal)
            right = self.operand(*self.compile(expr.right), IntVal)
            tests = [test for _, test, _ in (left, right) if test]
            if tests:
                self.emit(
                    f"if {' or '.join(tests)}: "
                    f"raise _applied({expr.op!r}, {left[2]}, {right[2]})"
                )
            divisor = right[0]
            if expr.op == "%" and not (isinstance(expr.right, syntax.IntLit) and expr.right.value):
                divisor = self.temp(divisor)
                message = f"division by zero in {syntax.format_expr(expr)}"
                self.emit(f"if {divisor} == 0: raise DivisionByZero({message!r})")
            return f"({left[0]} {expr.op} {divisor})", IntVal
        raise TypeMismatch(f"not a value expression: {syntax.format_expr(expr)}")

    def result(self, expr, convert=None) -> str:
        """The code of ``expr``'s value passed through ``convert``; with
        ``as_int`` or ``as_bool``, the plain result, its kind checked inline."""
        code, kind = self.compile(expr)
        want = {as_int: IntVal, as_bool: BoolVal}.get(convert)
        if want is not None:
            raw, test, shown = self.operand(code, kind, want)
            if test:
                self.emit(f"if {test}: {self.ref(convert)}({shown})  # raises")
            return raw
        result = code if kind is None else construct(kind, code)
        return result if convert is None else f"{self.ref(convert)}({result})"


def compile_expr(expr, constants: dict, convert=None):
    """``expr`` as one Python function ``env -> value``, where ``env`` is a
    dict of field and parameter values, and the value is passed through
    ``convert`` when that is given.  Enum ``constants``, ``true`` and
    ``false`` are looked up once, here; the resolver keeps field and
    parameter names apart from them.  The function computes on plain ints
    and bools and wraps its result once; with ``as_int`` or ``as_bool`` as
    ``convert``, it returns the plain result, and checks its kind inline.
    Errors surface when the function runs, in the order in which the
    operands are evaluated, left to right."""
    src = Source(constants, "evaluate")
    src.emit(f"return {src.result(expr, convert)}")
    return src.finish(syntax.format_expr(expr), "env")


def as_int(value) -> int:
    if not isinstance(value, IntVal):
        raise TypeMismatch(f"expected an integer, got {value!r}")
    return value.value


def as_bool(value) -> bool:
    if not isinstance(value, BoolVal):
        raise TypeMismatch(f"expected a boolean, got {value!r}")
    return value.value


def as_text(value) -> TextVal:
    """The value itself, once it is text: diagnostics show the whole pinned value."""
    if not isinstance(value, TextVal):
        raise TypeMismatch(f"expected text, got {value!r}")
    return value


def as_bits(value) -> BitString:
    if not isinstance(value, BitsVal):
        raise TypeMismatch(f"expected bits, got {value!r}")
    return value.bits


# --- value literals (CLI surface) -------------------------------------------------

def format_value(value) -> str:
    if isinstance(value, IntVal):
        return str(value.value)
    if isinstance(value, TextVal):
        return syntax._fmt_text(value.text)
    if isinstance(value, BitsVal):
        return repr(value.bits)
    if isinstance(value, BoolVal):
        return "true" if value.value else "false"
    if isinstance(value, ListVal):
        return "[" + ", ".join(format_value(v) for v in value.items) + "]"
    if isinstance(value, EnumVal):
        return value.constant
    if isinstance(value, RecordVal):
        inner = ", ".join(f"{k} = {format_value(v)}" for k, v in value.entries)
        return "{ " + inner + " }"
    if value is ABSENT:
        return "absent"
    raise TypeError(f"cannot format {value!r}")


def parse_value_text(text: str):
    """Parse the textual value notation printed by :func:`format_value`.

    The notation uses the spec language's literals and is read with its
    lexer.  Commas between entries are optional.  Record braces carry no
    type name; the codec layer re-types them against the message definition
    when encoding.  A malformed literal raises SpecSyntaxError.
    """
    parser = syntax._Parser(syntax.tokenize(text))
    value = _read_value(parser)
    if parser.cur.kind != "EOF":
        raise parser.error("expected end of input")
    return value


_WORDS = {"true": BoolVal(True), "false": BoolVal(False), "absent": ABSENT}


def _read_value(p: syntax._Parser):
    if p.at_punct("{"):
        return RecordVal("", _read_items(p, "}", _read_entry))
    if p.at_punct("["):
        return ListVal(_read_items(p, "]", _read_value))
    sign = 1
    if p.at_punct("-"):
        p.advance()
        sign = -1
        if p.cur.kind != "INT":
            raise p.error("expected an integer")
    t = p.cur
    if t.kind == "INT":
        p.advance()
        return IntVal(sign * t.value)
    if t.kind == "TEXT":
        p.advance()
        return TextVal(t.value)
    if t.kind == "BITS":
        p.advance()
        return BitsVal(t.value)
    if t.kind == "NAME":
        p.advance()
        # any other name is an enum constant, typed during encode
        return _WORDS[t.value] if t.value in _WORDS else EnumVal("", t.value)
    raise p.error("expected a value")


def _read_entry(p: syntax._Parser) -> tuple:
    name = p.name("a field name")
    p.expect_punct("=")
    return (name, _read_value(p))


def _read_items(p: syntax._Parser, close: str, read_item) -> tuple:
    p.advance()  # the opening brace or bracket
    items = []
    while not p.at_punct(close):
        items.append(read_item(p))
        if p.at_punct(","):
            p.advance()
    p.advance()
    return tuple(items)
