"""Semantic values and the evaluator for value-level expressions.

Values are what the generator produces, the codec serializes, and the
checker validates.  Field types are dependent: their arguments are
expressions over earlier fields of the same record, evaluated against an
:class:`Env` of already-known field values, or compiled once into
callables that do so.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString
from .errors import DivisionByZero, EvalError, TypeMismatch, UnboundName
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


# --- environments ----------------------------------------------------------------

class Env:
    """Field/parameter bindings for the record instance under evaluation.

    Enum constants are globally visible; `true` and `false` are built in.
    """

    def __init__(self, constants: dict | None = None, bindings: dict | None = None):
        self.constants = constants or {}
        self.bindings = dict(bindings or {})

    def child(self) -> "Env":
        return Env(self.constants, {})

    def bind(self, name: str, value) -> None:
        self.bindings[name] = value

    def lookup(self, name: str):
        if name in self.bindings:
            return self.bindings[name]
        if name == "true":
            return BoolVal(True)
        if name == "false":
            return BoolVal(False)
        if name in self.constants:
            return self.constants[name]
        raise UnboundName(f"unbound name {name!r}")


def eval_expr(expr, env: Env):
    if isinstance(expr, syntax.IntLit):
        return IntVal(expr.value)
    if isinstance(expr, syntax.TextLit):
        return TextVal(expr.value)
    if isinstance(expr, syntax.BitsLit):
        return BitsVal(expr.bits)
    if isinstance(expr, syntax.NameRef):
        return env.lookup(expr.name)
    if isinstance(expr, syntax.Unary):
        operand = eval_expr(expr.operand, env)
        if expr.op == "!":
            if not isinstance(operand, BoolVal):
                raise TypeMismatch(f"! applied to {operand!r}")
            return BoolVal(not operand.value)
        if not isinstance(operand, IntVal):
            raise TypeMismatch(f"unary - applied to {operand!r}")
        return IntVal(-operand.value)
    if isinstance(expr, syntax.Binary):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if not isinstance(left, IntVal) or not isinstance(right, IntVal):
            raise TypeMismatch(f"{expr.op} applied to {left!r} and {right!r}")
        if expr.op == "+":
            return IntVal(left.value + right.value)
        if expr.op == "-":
            return IntVal(left.value - right.value)
        if expr.op == "*":
            return IntVal(left.value * right.value)
        if right.value == 0:
            raise DivisionByZero(f"division by zero in {syntax.format_expr(expr)}")
        return IntVal(left.value % right.value)
    raise TypeMismatch(f"not a value expression: {syntax.format_expr(expr)}")


def as_int(value) -> int:
    if not isinstance(value, IntVal):
        raise TypeMismatch(f"expected an integer, got {value!r}")
    return value.value


def as_bool(value) -> bool:
    if not isinstance(value, BoolVal):
        raise TypeMismatch(f"expected a boolean, got {value!r}")
    return value.value


# --- compiled expressions ----------------------------------------------------------

def fold(fn, constants: dict):
    """``fn`` (``env -> value``) computed once when it needs no field or
    parameter, else ``fn`` itself: an error then surfaces at run time, where
    it always did.  The resolver keeps field and parameter names apart from
    constants, so a value computed without them cannot be shadowed."""
    try:
        value = fn(Env(constants))
    except (EvalError, ValueError):  # ValueError: a negative bit width in a shift
        return fn
    return lambda env: value


def compile_arg(args: dict, name: str, constants: dict, convert=lambda value: value):
    """The type or codec argument ``name`` as a folded ``env -> value``,
    passed through ``convert`` (``as_int``, ``as_bool``); None when the
    argument is not given."""
    if name not in args:
        return None
    expr = args[name]
    return fold(lambda env: convert(eval_expr(expr, env)), constants)


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
