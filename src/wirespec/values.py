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

    Record braces carry no type name; the codec layer re-types them against
    the message definition when encoding.
    """
    return _ValueParser(text).parse()


class _ValueParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def fail(self, msg):
        raise ValueError(f"bad value literal at {self.pos}: {msg}")

    def parse(self):
        v = self.value()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return v

    def value(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            self.fail("expected a value")
        ch = self.text[self.pos]
        if ch == "{":
            return self.record()
        if ch == "[":
            return self.list()
        if ch == "'":
            return TextVal(self.quoted())
        if ch.isdigit() or ch == "-":
            return IntVal(self.integer())
        word = self.word()
        if word == "true":
            return BoolVal(True)
        if word == "false":
            return BoolVal(False)
        if word == "absent":
            return ABSENT
        if word in ("b", "X", "x") and self.pos < len(self.text) and self.text[self.pos] == "'":
            body = self.quoted()
            return BitsVal(
                BitString.from_bits(body) if word == "b" else BitString.from_hex(body)
            )
        if word:
            return EnumVal("", word)  # enum constant; typed during encode
        self.fail(f"unexpected {ch!r}")

    def record(self):
        self.pos += 1  # '{'
        entries = []
        self.skip_ws()
        while self.text[self.pos : self.pos + 1] != "}":
            name = self.word()
            if not name:
                self.fail("expected a field name")
            self.skip_ws()
            if self.text[self.pos : self.pos + 1] != "=":
                self.fail("expected '='")
            self.pos += 1
            entries.append((name, self.value()))
            self.skip_ws()
            if self.text[self.pos : self.pos + 1] == ",":
                self.pos += 1
                self.skip_ws()
        self.pos += 1
        return RecordVal("", tuple(entries))

    def list(self):
        self.pos += 1  # '['
        items = []
        self.skip_ws()
        while self.text[self.pos : self.pos + 1] != "]":
            items.append(self.value())
            self.skip_ws()
            if self.text[self.pos : self.pos + 1] == ",":
                self.pos += 1
                self.skip_ws()
        self.pos += 1
        return ListVal(tuple(items))

    def quoted(self) -> str:
        self.pos += 1  # opening quote
        out = []
        while self.pos < len(self.text) and self.text[self.pos] != "'":
            c = self.text[self.pos]
            if c == "\\":
                self.pos += 1
                c = {"n": "\n", "r": "\r", "t": "\t"}.get(
                    self.text[self.pos], self.text[self.pos]
                )
            out.append(c)
            self.pos += 1
        if self.pos >= len(self.text):
            self.fail("unterminated quote")
        self.pos += 1
        return "".join(out)

    def integer(self) -> int:
        start = self.pos
        if self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]
