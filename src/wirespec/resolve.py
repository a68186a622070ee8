"""Name resolution: from parsed AST to a fully-expanded protocol description.

Expands user type/codec aliases with argument-override semantics, validates
field dependency graphs (arguments may only reference earlier fields or
record parameters), and compiles actor declarations into IOLTS form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax
from .errors import (
    CyclicDependency,
    DuplicateName,
    EvalError,
    ForwardReference,
    ResolutionError,
    UnknownName,
)
from .lts import IOLTS, QUIT, QUIT_STATE, TAU, Edge, recv, send
from .patterns import ALPHABETS, compile_pattern
from .values import BitsVal, EnumVal, IntVal, TextVal, compile_expr, literal_value

# Argument kinds: "type" and "codec" take an instance of one; "regex", "text
# literal" and "bits literal" take only that literal; "int", "bool", "text"
# and "bits" take an expression of that kind, as an enum E's "value" takes
# one of its own constants (kind "constant of E").  A literal, true, false or
# constant is checked when the spec resolves, any other expression when it runs.
TYPE_SIGNATURES = {  # type -> {argument: (kind, required)}
    "Integer": {"min": ("int", False), "max": ("int", False), "value": ("int", False)},
    "Text": {"charset": ("text literal", False), "pattern": ("regex", False),
             "exclude_pattern": ("regex", False), "max_count": ("int", False),
             "value": ("text", False)},
    "Binary": {"value": ("bits", False), "length": ("int", False),
               "char8_pattern": ("regex", False)},
    "Bool": {"value": ("bool", False)},
    "List": {"elem": ("type", True), "max_length": ("int", False)},
    "Optional": {"is_empty": ("bool", True), "subject": ("type", True)},
}

# codec -> (the value type it codes, {argument: (kind, required)}); a new
# codec also needs its least width in _Resolver._min_bits, or it counts 0 bits
CODEC_SIGNATURES = {
    "BigEndian": ("Integer", {"signed": ("bool", False), "length": ("int", True)}),
    "BoolBits": ("Bool", {"truth_string": ("bits literal", True),
                          "falsehood_string": ("bits literal", True)}),
    "TerminatedText": ("Text", {"encoding": ("text literal", False),
                                "terminator": ("text literal", True)}),
    "FixedCountText": ("Text", {"encoding": ("text literal", False)}),
    "CountPrefixList": ("List", {"count_codec": ("codec", True)}),
    "TextInteger": ("Integer", {"text_codec": ("codec", True)}),
}

# Fields of these types need a codec that codes their type; so do enums, for
# their base type.
CODED_TYPES = frozenset(t for t, _ in CODEC_SIGNATURES.values())

_REQUIRED = {  # base type or codec -> its required arguments, derived once
    name: tuple(a for a, (_, required) in signature.items() if required)
    for signatures in (TYPE_SIGNATURES, {c: s for c, (_, s) in CODEC_SIGNATURES.items()})
    for name, signature in signatures.items()
}

_LITERAL_KINDS = {syntax.IntLit: "int", syntax.TextLit: "text", syntax.BitsLit: "bits"}
_KIND_NAMES = {"int": "an integer", "bool": "a boolean", "text": "text", "bits": "bits"}


@dataclass
class RType:
    """A fully-expanded type instance."""

    base: str  # a TYPE_SIGNATURES key, or 'Record' / 'Enum'
    args: dict
    record: str | None = None
    enum: str | None = None

    def replace_args(self, args: dict) -> "RType":
        return RType(self.base, args, self.record, self.enum)


@dataclass
class RCodec:
    base: str
    args: dict


@dataclass
class RField:
    name: str
    type: RType
    codec: RCodec | None


@dataclass
class RecordDef:
    name: str
    params: tuple
    fields: list
    is_message: bool


@dataclass
class EnumDef:
    name: str
    base: RType
    constants: dict  # constant name -> underlying Value (ordered)


@dataclass
class ResolvedSpec:
    name: str
    records: dict  # record and message definitions by name
    message_types: list  # declaration order
    enums: dict
    actors: dict  # actor name -> IOLTS
    constants: dict  # enum constant name -> EnumVal
    # message type -> compiled plan (see wirespec.codec.message_plan)
    plans: dict = field(default_factory=dict, compare=False, repr=False)
    # candidate tuple -> wirespec.codec.Classifier, built by decode_message
    classifiers: dict = field(default_factory=dict, compare=False, repr=False)
    # (id of an expression, converter) -> the expression and its compiled
    # evaluator, shared by every generated function and plan walk
    evaluators: dict = field(default_factory=dict, compare=False, repr=False)

    def message_record(self, name: str) -> RecordDef:
        rec = self.records.get(name)
        if rec is None or not rec.is_message:
            raise UnknownName(f"no message type named {name!r}")
        return rec

    def actor(self, name: str):
        """The IOLTS of an actor."""
        lts = self.actors.get(name)
        if lts is None:
            raise UnknownName(f"no actor named {name!r}")
        return lts


def resolve(ast: syntax.SpecAST) -> ResolvedSpec:
    return _Resolver(ast).run()


def load_spec(path) -> ResolvedSpec:
    with open(path, "r", encoding="utf-8") as f:
        return resolve(syntax.parse_spec(f.read()))


class _Resolver:
    def __init__(self, ast: syntax.SpecAST):
        self.ast = ast
        self.type_aliases = {}
        self.codec_aliases = {}
        self.record_decls = {}
        self.enum_decls = {}
        self.message_order = []
        self.records = {}
        self.enums = {}
        self.constants = {}

    def run(self) -> ResolvedSpec:
        name = self._collect()
        for ename, decl in self.enum_decls.items():
            self.enums[ename] = self._resolve_enum(decl)
        for rname, decl in self.record_decls.items():
            self.records[rname] = self._resolve_record(decl)
        for record in self.records.values():
            for f in record.fields:
                self._check_list_bound(f"{record.name}.{f.name}", f.type, f.codec)
        actors = {}
        for mod in self.ast.interaction_modules:
            for actor in mod.actors:
                if actor.name in actors:
                    raise DuplicateName(f"actor {actor.name!r} declared twice")
                actors[actor.name] = compile_actor(actor, set(self.message_order))
        return ResolvedSpec(
            name=name,
            records=self.records,
            message_types=self.message_order,
            enums=self.enums,
            actors=actors,
            constants=self.constants,
        )

    def _collect(self) -> str:
        names = set()
        module_name = ""

        def claim(kind, name):
            if name in names:
                raise DuplicateName(f"{kind} {name!r} conflicts with an earlier declaration")
            names.add(name)

        for mod in self.ast.message_modules:
            module_name = module_name or mod.name
            for d in mod.decls:
                if isinstance(d, syntax.MessageDecl):
                    claim("message", d.name)
                    self.record_decls[d.name] = syntax.RecordDecl(d.name, [], d.fields)
                    self.message_order.append(d.name)
                elif isinstance(d, syntax.RecordDecl):
                    claim("record", d.name)
                    self.record_decls[d.name] = d
                elif isinstance(d, syntax.TypeDecl):
                    claim("type", d.name)
                    self.type_aliases[d.name] = d
                elif isinstance(d, syntax.CodecDecl):
                    claim("codec", d.name)
                    self.codec_aliases[d.name] = d
                elif isinstance(d, syntax.EnumDecl):
                    claim("enum", d.name)
                    self.enum_decls[d.name] = d
        for mod in self.ast.interaction_modules:
            module_name = module_name or mod.name
        return module_name

    # --- enums ----------------------------------------------------------------

    def _resolve_enum(self, decl: syntax.EnumDecl) -> EnumDef:
        base = self._expand_type(decl.base, stack=())
        names = self._references(base)
        if names:  # no record's fields or parameters are in scope here
            raise UnknownName(f"enum {decl.name} references unknown name {names[0]!r}")
        kind = TYPE_SIGNATURES.get(base.base, {}).get("value", (None, False))[0]
        charset = base.args.get("charset", "ascii")  # what a Text base decodes its texts in
        constants = {}
        for cname, literal in decl.constants:
            if cname in constants:
                raise DuplicateName(f"enum constant {cname!r} declared twice in {decl.name}")
            if cname in self.constants:
                raise DuplicateName(
                    f"enum constant {cname!r} appears in more than one enum"
                )
            if _LITERAL_KINDS.get(type(literal)) != kind:
                raise ResolutionError(f"enum {decl.name}: constants must be {base.base} literals")
            value = literal_value(literal)
            value = TextVal(value.text, charset) if isinstance(value, TextVal) else value
            # a value decodes as one constant only
            same = next((c for c, v in constants.items() if v == value), None)
            if same is not None:
                raise ResolutionError(f"enum {decl.name}: constants {same!r} and {cname!r} have one value")
            constants[cname] = value
            self.constants[cname] = EnumVal(decl.name, cname)
        return EnumDef(decl.name, base, constants)

    # --- types and codecs ---------------------------------------------------------

    def _expand_type(self, inst: syntax.InstExpr, stack: tuple) -> RType:
        if inst.name in stack:
            raise CyclicDependency(
                "type alias cycle: " + " -> ".join(stack + (inst.name,))
            )
        if inst.name in TYPE_SIGNATURES:
            inner = RType(inst.name, {})
        elif inst.name in self.record_decls:
            inner = RType("Record", {}, record=inst.name)
        elif inst.name in self.enum_decls:
            inner = RType("Enum", {}, enum=inst.name)
        elif inst.name in self.type_aliases:
            inner = self._expand_type(self.type_aliases[inst.name].expr, stack + (inst.name,))
        else:
            raise UnknownName(f"unknown type {inst.name!r}")
        if not inst.args:
            return inner
        if inner.base == "Record":
            decl = self.record_decls[inner.record]
            # a parameter takes any kind; a field pin, its type's value kind if any
            signature = dict.fromkeys(decl.params, (None, False))
            kinds = ((f.name, self._value_kind(f.type_expr)) for f in decl.fields)
            signature.update((name, (kind, False)) for name, kind in kinds if kind)
            what = inner.record
        elif inner.base == "Enum":
            what, signature = inner.enum, {"value": (f"constant of {inner.enum}", False)}
        else:
            what, signature = inner.base, TYPE_SIGNATURES[inner.base]
        self._args(what, signature, inst.args, stack, inner.args)
        return inner

    def _value_kind(self, inst: syntax.InstExpr) -> str | None:
        """The kind of the ``value`` argument of the type ``inst`` names, by
        name alone: a record's fields may instantiate the record itself."""
        name, seen = inst.name, set()
        while name in self.type_aliases and name not in seen:  # a cycle fails elsewhere
            seen.add(name)
            name = self.type_aliases[name].expr.name
        if name in self.enum_decls:
            return f"constant of {name}"
        return TYPE_SIGNATURES.get(name, {}).get("value", (None, False))[0]

    def _expand_codec(self, inst: syntax.InstExpr, stack: tuple) -> RCodec:
        if inst.name in stack:
            raise CyclicDependency(
                "codec alias cycle: " + " -> ".join(stack + (inst.name,))
            )
        if inst.name in CODEC_SIGNATURES:
            inner = RCodec(inst.name, {})
        elif inst.name in self.codec_aliases:
            inner = self._expand_codec(self.codec_aliases[inst.name].expr, stack + (inst.name,))
        else:
            raise UnknownName(f"unknown codec {inst.name!r}")
        if not inst.args:
            return inner
        self._args(inner.base, CODEC_SIGNATURES[inner.base][1], inst.args, stack, inner.args)
        return inner

    def _args(self, what: str, signature: dict, args: list, stack: tuple, out: dict) -> None:
        """Check each argument of the type or codec ``what`` against its
        ``signature`` and store it in ``out``, expanded: a type or codec to
        its RType or RCodec, a regex to its Pattern, a text or bit literal to
        its value; an expression stays an AST.  ``out`` is a fresh instance's
        own dict, so what an alias sets is overridden in place."""
        given = set()
        for aname, expr in args:
            if aname not in signature:
                raise UnknownName(f"{what} has no argument named {aname!r}")
            if aname in given:
                raise DuplicateName(f"{what} is given argument {aname!r} twice")
            given.add(aname)
            kind = signature[aname][0]
            if kind in ("type", "codec"):
                if isinstance(expr, syntax.NameRef):
                    expr = syntax.InstExpr(expr.name, [])
                if not isinstance(expr, syntax.InstExpr):
                    raise ResolutionError(f"argument {aname!r} must name a {kind}")
                expand = self._expand_type if kind == "type" else self._expand_codec
                out[aname] = expand(expr, stack)
            elif kind == "regex":
                if not isinstance(expr, syntax.RegexLit):
                    raise ResolutionError(f"argument {aname!r} must be a /regex/")
                out[aname] = compile_pattern(expr.source)
            elif kind == "text literal":
                if not isinstance(expr, syntax.TextLit):
                    raise ResolutionError(f"argument {aname!r} must be a text literal")
                out[aname] = expr.value
            elif kind == "bits literal":
                if not isinstance(expr, syntax.BitsLit):
                    raise ResolutionError(f"argument {aname!r} must be a bit or hex literal")
                out[aname] = expr.bits
            else:
                self._check_kind(aname, kind, expr)
                out[aname] = expr

    def _check_kind(self, aname: str, kind: str | None, expr) -> None:
        """Reject an expression that holds a /regex/ or an instantiation, which
        have no value, or is a literal, truth value or constant not of ``kind``;
        the kinds inside a compound expression are checked when it runs."""
        if isinstance(expr, (syntax.RegexLit, syntax.InstExpr)):
            raise ResolutionError(
                f"argument {aname!r} must be an expression, not {syntax.format_expr(expr)}"
            )
        if isinstance(expr, syntax.Unary):
            self._check_kind(aname, None, expr.operand)
        elif isinstance(expr, syntax.Binary):
            self._check_kind(aname, None, expr.left)
            self._check_kind(aname, None, expr.right)
        if isinstance(expr, syntax.NameRef) and expr.name in ("true", "false"):
            found = "bool"
        elif isinstance(expr, syntax.NameRef) and expr.name in self.constants:
            found = f"constant of {self.constants[expr.name].enum}"
        else:
            found = _LITERAL_KINDS.get(type(expr))
        if kind is not None and found not in (None, kind):
            raise ResolutionError(
                f"argument {aname!r} must be {_KIND_NAMES.get(kind, f'a {kind}')}"
            )

    # --- records --------------------------------------------------------------------

    def _resolve_record(self, decl: syntax.RecordDecl) -> RecordDef:
        fields = []
        seen = []
        params = tuple(decl.params)
        for name in params + tuple(f.name for f in decl.fields):
            if name in self.constants or name in ("true", "false"):
                raise DuplicateName(f"{name!r} in {decl.name} shadows a constant")
        for f in decl.fields:
            if f.name in seen:
                raise DuplicateName(f"field {f.name!r} declared twice in {decl.name}")
            if f.name in params:
                raise DuplicateName(
                    f"field {f.name!r} shadows a parameter of {decl.name}"
                )
            rtype = self._expand_type(f.type_expr, stack=())
            rcodec = self._expand_codec(f.codec_expr, stack=()) if f.codec_expr else None
            self._check_references(decl, f.name, seen, params, rtype, rcodec)
            fields.append(RField(f.name, rtype, rcodec))
            seen.append(f.name)
        for f in fields:
            self._check_coding(f"{decl.name}.{f.name}", f.type, f.codec)
        return RecordDef(decl.name, params, fields, decl.name in self.message_order)

    def _references(self, value) -> list:
        """The names other than constants that an argument's value references:
        those in an expression, or in the arguments of a type or codec instance."""
        if isinstance(value, (RType, RCodec)):
            return [name for arg in value.args.values() for name in self._references(arg)]
        if isinstance(value, syntax.Unary):
            return self._references(value.operand)
        if isinstance(value, syntax.Binary):
            return self._references(value.left) + self._references(value.right)
        if isinstance(value, syntax.NameRef) and value.name not in ("true", "false"):
            return [] if value.name in self.constants else [value.name]
        return []  # a literal, or no codec, names nothing

    def _check_references(self, decl, fname, earlier, params, rtype, rcodec) -> None:
        later = {f.name for f in decl.fields} - set(earlier)
        for name in self._references(rtype) + self._references(rcodec):
            if name == fname:
                raise CyclicDependency(f"{decl.name}.{fname} depends on itself")
            if name in later:
                raise ForwardReference(
                    f"{decl.name}.{fname} references later field {name!r}"
                )
            if name not in earlier and name not in params:
                raise UnknownName(
                    f"{decl.name}.{fname} references unknown name {name!r}"
                )

    def _check_coding(self, where: str, rtype: RType, rcodec: RCodec | None) -> None:
        """Reject a type and codec that cannot code every value of the type."""
        while rtype.base == "Optional":
            self._require_args(where, rtype)
            rtype = rtype.args["subject"]
        self._require_args(where, rtype)
        if rtype.base == "List":
            # elements are coded without a codec of their own
            self._check_coding(f"{where} element", rtype.args["elem"], None)
        base = rtype.base
        if base == "Enum":
            rtype = self.enums[rtype.enum].base
        if rtype.base == "Text" and rtype.args.get("charset", "ascii") not in ALPHABETS:
            raise ResolutionError(f"{where}: unknown charset {rtype.args['charset']!r}")
        if rtype.base == "Binary" and not {"length", "value"} & set(rtype.args):
            raise ResolutionError(f"{where}: Binary needs a length or a fixed value")
        if rcodec is None:
            if rtype.base in CODED_TYPES:
                raise ResolutionError(f"{where}: a {base} field needs a codec")
            return
        if rtype.base not in CODED_TYPES:  # a record or Binary codes itself
            what = f"{rtype.record} record" if rtype.record else rtype.base
            raise ResolutionError(f"{where}: a {what} takes no codec")
        self._require_args(where, rcodec)
        if CODEC_SIGNATURES[rcodec.base][0] != rtype.base:
            raise ResolutionError(f"{where}: codec {rcodec.base} cannot code a {rtype.base}")
        if rcodec.base == "BoolBits":
            t = rcodec.args["truth_string"]
            fa = rcodec.args["falsehood_string"]
            if t == fa or t.length != fa.length:
                raise ResolutionError(
                    f"{where}: BoolBits strings must be distinct and equal-length"
                )
        if rcodec.base == "TerminatedText":
            terminator = rcodec.args["terminator"]
            # text codes as ASCII, or as Latin-1 under any other encoding name
            limit = 0x80 if rcodec.args.get("encoding", "ascii") == "ascii" else 0x100
            if not terminator or max(map(ord, terminator)) >= limit:
                raise ResolutionError(f"{where}: terminator {terminator!r} cannot be coded")
            # a text could end in the start of a terminator that also ends
            # it, so its first terminator would come early: 'a' + 'aa'
            if any(terminator[:k] == terminator[-k:] for k in range(1, len(terminator))):
                raise ResolutionError(f"{where}: terminator {terminator!r} overlaps itself")
        if rcodec.base == "FixedCountText" and not {"max_count", "value"} & set(rtype.args):
            raise ResolutionError(f"{where}: FixedCountText needs the type's max_count or value")
        if rcodec.base == "CountPrefixList":
            self._check_coding(where, RType("Integer", {}), rcodec.args["count_codec"])
        if rcodec.base == "TextInteger":
            self._check_coding(where, RType("Text", {}), rcodec.args["text_codec"])

    def _check_list_bound(self, where: str, rtype: RType, rcodec: RCodec | None) -> None:
        """Reject a counted list without a max_length whose element can
        encode to no bits: a peer's count alone would set the decode's work."""
        while rtype.base == "Optional":
            rtype = rtype.args["subject"]
        if (rcodec is not None and rcodec.base == "CountPrefixList"
                and "max_length" not in rtype.args and not self._min_bits(rtype.args["elem"], None, set())):
            raise ResolutionError(
                f"{where}: an element can encode to no bits, so the List needs a max_length"
            )

    def _min_bits(self, rtype: RType, rcodec: RCodec | None, seen: set) -> int:
        """A lower bound on the bits of every encoding of a type: constant
        widths and lengths fold, a terminator counts its bytes, and anything
        else, an Optional and a record within itself included, counts 0."""
        def constant(args, name, kind):
            try:
                value = compile_expr(args[name], self.constants)({}) if name in args else None
            except EvalError:
                return None
            return value if isinstance(value, kind) else None

        base = rtype.base
        if base == "Record":
            if rtype.record in seen:
                return 0
            fields = self.records[rtype.record].fields
            return sum(self._min_bits(f.type, f.codec, seen | {rtype.record}) for f in fields)
        if base == "Enum":
            return self._min_bits(self.enums[rtype.enum].base, rcodec, seen)
        if base == "Binary":
            pin, length = constant(rtype.args, "value", BitsVal), constant(rtype.args, "length", IntVal)
            return pin.bits.length if pin else max(length.value, 0) if length else 0
        codec = rcodec.base if rcodec is not None else None
        if codec == "BigEndian":
            width = constant(rcodec.args, "length", IntVal)
            return max(width.value, 0) if width else 0
        if codec == "BoolBits":
            return rcodec.args["truth_string"].length
        if codec == "TerminatedText":
            return 8 * len(rcodec.args["terminator"])
        if codec == "FixedCountText":
            count, pin = constant(rtype.args, "max_count", IntVal), constant(rtype.args, "value", TextVal)
            return 8 * max(count.value, 0) if count else 8 * len(pin.text) if pin else 0
        if codec == "TextInteger":
            return self._min_bits(RType("Text", {}), rcodec.args["text_codec"], seen)
        if codec == "CountPrefixList":
            return self._min_bits(RType("Integer", {}), rcodec.args["count_codec"], seen)
        return 0

    def _require_args(self, where: str, inst) -> None:
        """Reject an instance without a required argument or record parameter."""
        if isinstance(inst, RType) and inst.base == "Record":
            name, required = inst.record, self.record_decls[inst.record].params
        else:
            name, required = inst.base, _REQUIRED.get(inst.base, ())
        missing = [a for a in required if a not in inst.args]
        if missing:
            raise ResolutionError(f"{where}: {name} is missing {sorted(missing)}")


# --- actor compilation ----------------------------------------------------------------

def compile_actor(decl: syntax.ActorDecl, message_types: set) -> IOLTS:
    named = []
    initial = None
    for st in decl.states:
        if st.name in named:
            raise DuplicateName(f"state {st.name!r} declared twice in actor {decl.name}")
        if st.name == QUIT_STATE:
            raise DuplicateName(f"state name {QUIT_STATE!r} is reserved")
        named.append(st.name)
        if st.init:
            if initial is not None:
                raise ResolutionError(f"actor {decl.name} has more than one init state")
            initial = st.name
    if initial is None:
        raise ResolutionError(f"actor {decl.name} has no init state")

    edges = []
    anon = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        name = f"u{counter}"
        while name in named:
            counter += 1
            name = f"u{counter}"
        anon.append(name)
        return name

    def check_message(m: str):
        if m not in message_types:
            raise UnknownName(f"actor {decl.name}: unknown message type {m!r}")

    def target_of(term: tuple, enclosing: str) -> str:
        if term[0] == "next":
            if term[1] not in named:
                raise UnknownName(
                    f"actor {decl.name}: 'next {term[1]}' names no declared state"
                )
            return term[1]
        if term[0] == "continue":
            return enclosing
        return QUIT_STATE

    def chain(src: str, labels: list, final: str):
        """Lay a label sequence from src, ending at final; empty -> tau edge."""
        if not labels:
            edges.append(Edge(src, TAU, final))
            return
        cur = src
        for i, label in enumerate(labels):
            dst = final if i == len(labels) - 1 else fresh()
            edges.append(Edge(cur, label, dst))
            cur = dst

    for st in decl.states:
        for cl in st.clauses:
            alternatives = cl.alternatives
            if cl.trigger is None:
                for alt in alternatives:
                    for m in alt.sends:
                        check_message(m)
                    labels = [send(m) for m in alt.sends]
                    if alt.terminator[0] == "quit":
                        labels.append(QUIT)
                    chain(st.name, labels, target_of(alt.terminator, st.name))
            else:
                check_message(cl.trigger)
                for m in (m for alt in alternatives for m in alt.sends):
                    check_message(m)
                sole = alternatives[0] if len(alternatives) == 1 else None
                if sole is not None and not sole.sends and sole.terminator[0] != "quit":
                    edges.append(
                        Edge(st.name, recv(cl.trigger), target_of(sole.terminator, st.name))
                    )
                    continue
                hub = fresh()
                edges.append(Edge(st.name, recv(cl.trigger), hub))
                for alt in alternatives:
                    labels = [send(m) for m in alt.sends]
                    if alt.terminator[0] == "quit":
                        labels.append(QUIT)
                    chain(hub, labels, target_of(alt.terminator, st.name))

    states = named + anon + [QUIT_STATE]
    return IOLTS(decl.name, states, named, initial, edges)
