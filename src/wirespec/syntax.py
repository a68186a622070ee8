"""Parser for protocol specification source.

A specification consists of a message module (message, record, type,
codec and enum declarations) and an interactions module (actor state
machines).  Parsing produces a plain AST; name resolution and actor
compilation live in :mod:`wirespec.resolve`.  The same lexer reads the
value literals of :func:`wirespec.values.parse_value_text`, so quoted text,
bit and hex literals and integers are scanned here only.  The lexer is one
regular expression whose alternatives are the token kinds, matched in turn
from the start of the source; a bit, hex or regex literal ends at the end
of its line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .bits import BitString
from .errors import SpecSyntaxError

KEYWORDS = {
    "message", "module", "interactions", "record", "type", "codec", "enum",
    "of", "with", "as", "is", "end", "actor", "init", "state", "where",
    "anytime", "on", "do", "send", "next", "continue", "quit", "or",
}

# --- AST -----------------------------------------------------------------

@dataclass
class IntLit:
    value: int


@dataclass
class TextLit:
    value: str


@dataclass
class BitsLit:
    bits: BitString


@dataclass
class RegexLit:
    source: str


@dataclass
class NameRef:
    name: str


@dataclass
class Unary:
    op: str
    operand: object


@dataclass
class Binary:
    op: str
    left: object
    right: object


@dataclass
class InstExpr:
    """A name with optional named arguments: ``Integer(min=0, max=500)``."""

    name: str
    args: list = field(default_factory=list)  # list of (arg name, expr)


@dataclass
class FieldDecl:
    name: str
    type_expr: InstExpr
    codec_expr: InstExpr | None = None


@dataclass
class MessageDecl:
    name: str
    fields: list


@dataclass
class RecordDecl:
    name: str
    params: list
    fields: list


@dataclass
class TypeDecl:
    name: str
    expr: InstExpr


@dataclass
class CodecDecl:
    name: str
    expr: InstExpr


@dataclass
class EnumDecl:
    name: str
    base: InstExpr
    constants: list  # list of (constant name, literal expr)


@dataclass
class Alternative:
    sends: list
    terminator: tuple  # ('next', state) | ('continue',) | ('quit',)


@dataclass
class Clause:
    trigger: str | None  # message type for 'on', None for 'anytime'
    alternatives: list


@dataclass
class StateDecl:
    name: str
    init: bool
    clauses: list


@dataclass
class ActorDecl:
    name: str
    states: list


@dataclass
class MessageModule:
    name: str
    decls: list


@dataclass
class InteractionModule:
    name: str
    actors: list


@dataclass
class SpecAST:
    message_modules: list
    interaction_modules: list


# --- lexer -----------------------------------------------------------------

@dataclass
class Token:
    kind: str  # NAME KEYWORD INT TEXT BITS REGEX PUNCT EOF
    value: object
    line: int
    col: int


_TEXT_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", "'": "'"}
_ESCAPE = re.compile(r"\\(.)", re.S)

# The lexical grammar: blanks and a comment, then one token, whose kind is
# the empty group that ends its alternative (the engine tests an alternative's
# first character before entering it only when no group opens it).  A text
# literal reads an escaped newline only to report it as an unknown escape.
_TOKEN = re.compile(
    r"""
    ([ \t\r]* (?:\#[^\n]*)?)
    (?:
      \n (?P<NEWLINE>)
    | (?P<radix>[bxX])' (?P<digits>[^'\n]*) (?P<bits_end>')? (?P<BITS>)
    | [0-9]+ (?P<INT>)                          # not \d, which takes '٣'
    | \w+ (?P<WORD>)
    | ' (?P<text>[^'\\\n]* (?:\\[\s\S] [^'\\\n]*)*) (?P<text_end>')? (?P<TEXT>)
    | / (?P<regex>[^/\\\n]* (?:\\. [^/\\\n]*)*) (?P<regex_end>/)? (?P<REGEX>)
    | [()=,+\-*%!{}\[\]] (?P<PUNCT>)          # braces and brackets: value literals only
    | \Z (?P<EOF>)
    | . (?P<OTHER>)
    )
    """,
    re.X,
)


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        start = m.end(1)
        if kind == "NEWLINE":
            line += 1
            line_start = start + 1
            continue
        col = start - line_start + 1
        value = source[start : m.end()]
        if kind == "WORD":
            if not (value[0].isalpha() or value[0] == "_"):  # '²' and '٣' are \w
                raise SpecSyntaxError(f"unexpected character {value[0]!r}", line, col)
            kind = "KEYWORD" if value in KEYWORDS else "NAME"
        elif kind == "INT":
            value = int(value)
        elif kind == "TEXT":
            try:
                value = _ESCAPE.sub(lambda e: _TEXT_ESCAPES[e[1]], m["text"])
            except KeyError as e:
                raise SpecSyntaxError(f"unknown escape \\{e.args[0]} in text literal", line, col) from None
            if m["text_end"] is None:
                raise SpecSyntaxError("unterminated text literal", line, col)
        elif kind == "REGEX":
            if m["regex_end"] is None:
                raise SpecSyntaxError("unterminated regular expression", line, col)
            value = m["regex"].replace("\\/", "/")
        elif kind == "BITS":
            if m["bits_end"] is None:
                raise SpecSyntaxError("unterminated bit literal", line, col)
            try:
                value = (BitString.from_bits if m["radix"] == "b" else BitString.from_hex)(m["digits"])
            except ValueError as e:
                raise SpecSyntaxError(str(e), line, col) from None
        elif kind == "EOF":  # finditer would match the empty end once more
            tokens.append(Token(kind, None, line, col))
            break
        elif kind == "OTHER":
            raise SpecSyntaxError(f"unexpected character {value!r}", line, col)
        tokens.append(Token(kind, value, line, col))
    return tokens


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def error(self, msg: str) -> SpecSyntaxError:
        t = self.cur
        shown = "end of input" if t.kind == "EOF" else repr(t.value)
        return SpecSyntaxError(f"{msg}, got {shown}", t.line, t.col)

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def at_keyword(self, *words) -> bool:
        return self.cur.kind == "KEYWORD" and self.cur.value in words

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected '{word}'")
        self.advance()

    def expect_punct(self, ch: str) -> None:
        if not (self.cur.kind == "PUNCT" and self.cur.value == ch):
            raise self.error(f"expected {ch!r}")
        self.advance()

    def at_punct(self, ch: str) -> bool:
        return self.cur.kind == "PUNCT" and self.cur.value == ch

    def name(self, what="a name") -> str:
        if self.cur.kind != "NAME":
            raise self.error(f"expected {what}")
        return self.advance().value

    # modules ---------------------------------------------------------------

    def spec(self) -> SpecAST:
        msg_mods, int_mods = [], []
        while self.cur.kind != "EOF":
            if self.at_keyword("message"):
                msg_mods.append(self.message_module())
            elif self.at_keyword("interactions"):
                int_mods.append(self.interaction_module())
            else:
                raise self.error("expected 'message module' or 'interactions module'")
        return SpecAST(msg_mods, int_mods)

    def message_module(self) -> MessageModule:
        self.expect_keyword("message")
        self.expect_keyword("module")
        name = self.name("a module name")
        decls = []
        while not self.at_keyword("end"):
            decls.append(self.declaration())
        self.advance()
        return MessageModule(name, decls)

    def interaction_module(self) -> InteractionModule:
        self.expect_keyword("interactions")
        self.expect_keyword("module")
        name = self.name("a module name")
        actors = []
        while not self.at_keyword("end"):
            actors.append(self.actor())
        self.advance()
        return InteractionModule(name, actors)

    def declaration(self):
        if self.at_keyword("message"):
            self.advance()
            name = self.name("a message name")
            fields = []
            if self.at_keyword("with"):
                self.advance()
                fields = self.fields()
            self.expect_keyword("end")
            return MessageDecl(name, fields)
        if self.at_keyword("record"):
            self.advance()
            name = self.name("a record name")
            params = []
            if self.at_punct("("):
                self.advance()
                params.append(self.name("a parameter name"))
                while self.at_punct(","):
                    self.advance()
                    params.append(self.name("a parameter name"))
                self.expect_punct(")")
            self.expect_keyword("with")
            fields = self.fields()
            self.expect_keyword("end")
            return RecordDecl(name, params, fields)
        if self.at_keyword("type"):
            self.advance()
            name = self.name("a type name")
            self.expect_keyword("is")
            return TypeDecl(name, self.instantiation())
        if self.at_keyword("codec"):
            self.advance()
            name = self.name("a codec name")
            self.expect_keyword("is")
            return CodecDecl(name, self.instantiation())
        if self.at_keyword("enum"):
            self.advance()
            name = self.name("an enum name")
            self.expect_keyword("of")
            base = self.instantiation()
            self.expect_keyword("with")
            constants = []
            while not self.at_keyword("end"):
                cname = self.name("an enum constant name")
                self.expect_keyword("as")
                constants.append((cname, self.atom()))
            self.advance()
            return EnumDecl(name, base, constants)
        raise self.error("expected a declaration")

    def fields(self) -> list:
        fields = []
        while self.cur.kind == "NAME":
            fname = self.advance().value
            self.expect_keyword("is")
            type_expr = self.instantiation()
            codec_expr = None
            if self.at_keyword("as"):
                self.advance()
                codec_expr = self.instantiation()
            fields.append(FieldDecl(fname, type_expr, codec_expr))
        return fields

    def instantiation(self) -> InstExpr:
        name = self.name("a type or codec name")
        args = []
        if self.at_punct("("):
            self.advance()
            if not self.at_punct(")"):
                args.append(self.argument())
                while self.at_punct(","):
                    self.advance()
                    args.append(self.argument())
            self.expect_punct(")")
        return InstExpr(name, args)

    def argument(self) -> tuple:
        name = self.name("an argument name")
        self.expect_punct("=")
        return (name, self.expression())

    # expressions -------------------------------------------------------------

    def expression(self):
        node = self.term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance().value
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.at_punct("*") or self.at_punct("%"):
            op = self.advance().value
            node = Binary(op, node, self.factor())
        return node

    def factor(self):
        if self.at_punct("!"):
            self.advance()
            return Unary("!", self.factor())
        if self.at_punct("-"):
            self.advance()
            return Unary("-", self.factor())
        return self.atom()

    def atom(self):
        t = self.cur
        if t.kind == "INT":
            self.advance()
            return IntLit(t.value)
        if t.kind == "TEXT":
            self.advance()
            return TextLit(t.value)
        if t.kind == "BITS":
            self.advance()
            return BitsLit(t.value)
        if t.kind == "REGEX":
            self.advance()
            return RegexLit(t.value)
        if t.kind == "NAME":
            name = self.advance().value
            if self.at_punct("("):
                self.pos -= 1
                return self.instantiation()
            return NameRef(name)
        if self.at_punct("("):
            self.advance()
            node = self.expression()
            self.expect_punct(")")
            return node
        raise self.error("expected a value")

    # actors -------------------------------------------------------------------

    def actor(self) -> ActorDecl:
        self.expect_keyword("actor")
        name = self.name("an actor name")
        self.expect_keyword("with")
        states = []
        while not self.at_keyword("end"):
            states.append(self.state())
        self.advance()
        return ActorDecl(name, states)

    def state(self) -> StateDecl:
        init = False
        if self.at_keyword("init"):
            self.advance()
            init = True
        self.expect_keyword("state")
        name = self.name("a state name")
        self.expect_keyword("where")
        clauses = []
        while not self.at_keyword("end"):
            clauses.append(self.clause())
        self.advance()
        return StateDecl(name, init, clauses)

    def clause(self) -> Clause:
        if self.at_keyword("anytime"):
            self.advance()
            trigger = None
        elif self.at_keyword("on"):
            self.advance()
            trigger = self.name("a message type")
        else:
            raise self.error("expected 'anytime' or 'on'")
        alternatives = [self.alternative()]
        while self.at_keyword("or"):
            self.advance()
            alternatives.append(self.alternative())
        return Clause(trigger, alternatives)

    def alternative(self) -> Alternative:
        self.expect_keyword("do")
        sends = []
        while self.at_keyword("send"):
            self.advance()
            sends.append(self.name("a message type"))
        if self.at_keyword("next"):
            self.advance()
            terminator = ("next", self.name("a state name"))
        elif self.at_keyword("continue"):
            self.advance()
            terminator = ("continue",)
        elif self.at_keyword("quit"):
            self.advance()
            terminator = ("quit",)
        else:
            raise self.error("expected 'next', 'continue' or 'quit'")
        return Alternative(sends, terminator)


def parse_spec(source: str) -> SpecAST:
    return _Parser(tokenize(source)).spec()


# --- printing expressions ----------------------------------------------------

def _fmt_text(value: str) -> str:
    out = value.replace("\\", "\\\\").replace("'", "\\'")
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f"'{out}'"


def format_expr(node) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, TextLit):
        return _fmt_text(node.value)
    if isinstance(node, BitsLit):
        return repr(node.bits)
    if isinstance(node, RegexLit):
        return "/" + node.source.replace("/", "\\/") + "/"
    if isinstance(node, NameRef):
        return node.name
    if isinstance(node, Unary):
        return f"{node.op}{_wrap(node.operand, 3)}"
    if isinstance(node, Binary):
        prec = 2 if node.op in "*%" else 1
        return f"{_wrap(node.left, prec)} {node.op} {_wrap(node.right, prec + 1)}"
    if isinstance(node, InstExpr):
        if not node.args:
            return node.name
        args = ", ".join(f"{k}={format_expr(v)}" for k, v in node.args)
        return f"{node.name}({args})"
    raise TypeError(f"cannot format {node!r}")


def _prec(node) -> int:
    if isinstance(node, Binary):
        return 2 if node.op in "*%" else 1
    if isinstance(node, Unary):
        return 3
    return 4


def _wrap(node, minimum: int) -> str:
    text = format_expr(node)
    return f"({text})" if _prec(node) < minimum else text
