"""Semantic values and the compiler for value-level expressions.

Values are what the generator produces, the codec serializes, and the
checker validates.  Field types are dependent: their arguments are
expressions over earlier fields of the same record.  :func:`compile_expr`
turns each expression once into a closure over a plain dict of the
field and parameter values known so far; :func:`compile_arg` also
computes an argument that needs none of them once, up front."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .bits import BitString
from .errors import DivisionByZero, EvalError, TypeMismatch, UnboundName, Unrepresentable
from . import syntax


# --- value model ---------------------------------------------------------------

@dataclass(frozen=True)
class IntVal:
    value: int


@dataclass(frozen=True)
class TextVal:
    text: str
    charset: str = "ascii"


@dataclass(frozen=True)
class BitsVal:
    bits: BitString


@dataclass(frozen=True)
class BoolVal:
    value: bool


@dataclass(frozen=True)
class ListVal:
    items: tuple


@dataclass(frozen=True)
class EnumVal:
    enum: str
    constant: str


@dataclass(frozen=True)
class RecordVal:
    type_name: str
    entries: tuple  # ordered (field name, value) pairs

    def get(self, name: str):
        for k, v in self.entries:
            if k == name:
                return v
        raise KeyError(name)

    def names(self):
        return [k for k, _ in self.entries]


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
_UNARY = {"!": (BoolVal, operator.not_, "!"), "-": (IntVal, operator.neg, "unary -")}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "%": operator.mod}


def compile_expr(expr, constants: dict):
    """``expr`` as an ``env -> value`` closure, where ``env`` is a dict of
    field and parameter values.  Enum ``constants``, ``true`` and ``false``
    are looked up once, here; the resolver keeps field and parameter names
    apart from them.  Errors surface when the closure runs."""
    if isinstance(expr, syntax.NameRef):
        value = _BUILTINS.get(expr.name, constants.get(expr.name))
        if value is None:
            return _lookup(expr.name)
    else:
        value = literal_value(expr)
    if value is not None:
        return lambda env: value
    if isinstance(expr, syntax.Unary):
        operand = compile_expr(expr.operand, constants)
        kind, op, label = _UNARY[expr.op]

        def unary(env):
            v = operand(env)
            if not isinstance(v, kind):
                raise TypeMismatch(f"{label} applied to {v!r}")
            return kind(op(v.value))

        return unary
    if isinstance(expr, syntax.Binary):
        left = compile_expr(expr.left, constants)
        right = compile_expr(expr.right, constants)
        op, modulo = _ARITHMETIC[expr.op], expr.op == "%"

        def arithmetic(env):
            a, b = left(env), right(env)
            if not isinstance(a, IntVal) or not isinstance(b, IntVal):
                raise TypeMismatch(f"{expr.op} applied to {a!r} and {b!r}")
            if modulo and b.value == 0:
                raise DivisionByZero(f"division by zero in {syntax.format_expr(expr)}")
            return IntVal(op(a.value, b.value))

        return arithmetic
    raise TypeMismatch(f"not a value expression: {syntax.format_expr(expr)}")


def _lookup(name: str):
    def lookup(env):
        try:
            return env[name]
        except KeyError:
            raise UnboundName(f"unbound name {name!r}") from None

    return lookup


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


def fold(fn):
    """``fn`` (``env -> value``) computed once when it needs no field or
    parameter, else ``fn`` itself: an error then surfaces at run time, where
    it always did."""
    try:
        value = fn({})
    except (EvalError, Unrepresentable):  # Unrepresentable: a constant width no integer has
        return fn
    return lambda env: value


def compile_arg(args: dict, name: str, constants: dict, convert=lambda value: value):
    """The type or codec argument ``name`` as a folded ``env -> value``,
    passed through ``convert``, the converter of its kind (such as ``as_int``);
    None when the argument is not given."""
    if name not in args:
        return None
    fn = compile_expr(args[name], constants)
    return fold(lambda env: convert(fn(env)))


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
