import copy
import operator
import pickle
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirespec.bits import BitString
from wirespec.codec import (
    _UNKNOWN,
    Classified,
    _Function,
    compile_node,
    decode_message,
    encode_message,
    message_plan,
)
from wirespec.errors import (
    ConstraintViolation,
    DivisionByZero,
    EvalError,
    SpecSyntaxError,
    TypeMismatch,
    UnboundName,
)
from wirespec.generate import GenConfig, Generator
from wirespec.resolve import resolve
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
    as_bool,
    as_int,
    as_text,
    compile_expr,
    format_value,
    parse_value_text,
)


def expr(text):
    """Parse an expression by planting it in a throwaway field argument."""
    ast = parse_spec(f"message module M record R with f is Binary(length={text}) end end")
    return ast.message_modules[0].decls[0].fields[0].type_expr.args[0][1]


def test_modulo_expression():
    # 5 % 4 = 1; 4 - 1 = 3; 8 * 3 = 24, checked by hand
    assert compile_expr(expr("8*(4 - n%4)"), {})({"n": IntVal(5)}) == IntVal(24)


def test_boolean_negation():
    assert compile_expr(expr("!hasfoot"), {})({"hasfoot": BoolVal(False)}) == BoolVal(True)


def test_zero_case():
    assert compile_expr(expr("8*n"), {})({"n": IntVal(0)}) == IntVal(0)


def test_eval_matches_python_arithmetic():
    cases = [("2+3*4", 14), ("(2+3)*4", 20), ("7%3", 1), ("10-4-3", 3), ("-n", -6)]
    for text, expected in cases:
        assert compile_expr(expr(text), {})({"n": IntVal(6)}) == IntVal(expected)


def test_eval_errors():
    with pytest.raises(UnboundName, match=r"^unbound name 'missing'$"):
        compile_expr(expr("missing"), {})({})
    with pytest.raises(TypeMismatch, match=r"^! applied to IntVal\(value=1\)$"):
        compile_expr(expr("!n"), {})({"n": IntVal(1)})
    with pytest.raises(DivisionByZero, match=r"^division by zero in 5 % z$"):
        compile_expr(expr("5 % z"), {})({"z": IntVal(0)})
    with pytest.raises(DivisionByZero, match=r"^division by zero in 4 % 0$"):
        compile_expr(expr("4 % 0"), {})({})
    with pytest.raises(
        TypeMismatch, match=r"^\+ applied to IntVal\(value=1\) and BoolVal\(value=False\)$"
    ):
        compile_expr(expr("n + !true"), {})({"n": IntVal(1)})
    with pytest.raises(TypeMismatch, match=r"^unary - applied to BoolVal\(value=True\)$"):
        compile_expr(expr("-(!false) % missing"), {})({})


def test_true_false_builtins():
    assert compile_expr(expr("!true"), {})({}) == BoolVal(False)


# Random expression trees as (source text, expected outcome), where the outcome
# is a value or the EvalError class evaluation must raise; operands evaluate
# left to right, so the left operand's error wins.
N = IntVal(7)
OK = EnumVal("Status", "ok")
_PYTHON_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "%": operator.mod}


def _failed(outcome):
    return isinstance(outcome, type)


def _unary(parts):
    op, (text, operand) = parts
    kind = BoolVal if op == "!" else IntVal
    if _failed(operand):
        outcome = operand
    elif not isinstance(operand, kind):
        outcome = TypeMismatch
    else:
        outcome = kind(not operand.value if op == "!" else -operand.value)
    return f"{op}({text})", outcome


def _binary(parts):
    op, (ltext, left), (rtext, right) = parts
    text = f"({ltext} {op} {rtext})"
    if _failed(left) or _failed(right):
        return text, left if _failed(left) else right
    if not isinstance(left, IntVal) or not isinstance(right, IntVal):
        return text, TypeMismatch
    try:
        return text, IntVal(_PYTHON_OPS[op](left.value, right.value))
    except ZeroDivisionError:
        return text, DivisionByZero


def _trees(leaves, unary_ops, binary_ops):
    def extend(sub):
        unary = st.tuples(st.sampled_from(unary_ops), sub).map(_unary)
        if not binary_ops:
            return unary
        return st.one_of(unary, st.tuples(st.sampled_from(binary_ops), sub, sub).map(_binary))

    return st.recursive(leaves, extend, max_leaves=10)


# small literals, so that % often meets a zero divisor
_INTS = st.one_of(st.integers(0, 4).map(lambda i: (str(i), IntVal(i))), st.just(("n", N)))
_WORDS = st.sampled_from([("true", BoolVal(True)), ("false", BoolVal(False)), ("ok", OK)])
_ARITHMETIC = _trees(_INTS, "-", "+-*%")
_ZERO = st.tuples(st.just("*"), _ARITHMETIC, st.just(("0", IntVal(0)))).map(_binary)
# well-typed arithmetic, where only % can fail, also by a divisor that
# evaluates to 0, and logic; then mixtures
_TREES = st.one_of(
    _ARITHMETIC,
    st.tuples(st.just("%"), _ARITHMETIC, _ZERO).map(_binary),
    _trees(_WORDS, "!", ""),
    _trees(st.one_of(_INTS, _WORDS), "-!", "+-*%"),
)


def _outcome(fn, env):
    try:
        return fn(env)
    except EvalError as e:
        return type(e)


@settings(max_examples=150, deadline=None)
@given(_TREES)
def test_compiled_expression_matches_python(tree):
    text, expected = tree
    constants = {"ok": OK}
    env = {"n": N}
    assert _outcome(compile_expr(expr(text), constants), env) == expected
    # folded when generated code is emitted: the value where the known
    # names fix it, _UNKNOWN where they do not or evaluation fails
    fn = _Function(SimpleNamespace(constants=constants), "generate")
    folds = _UNKNOWN if _failed(expected) else expected
    fn.known = env
    assert fn.static({"x": expr(text)}, "x") == folds
    fn.known = {}
    names_n = re.search(r"\bn\b", text)
    assert fn.static({"x": expr(text)}, "x") == (_UNKNOWN if names_n else folds)


@pytest.mark.parametrize("name", ["class", "None", "lambda", "env", "IntVal"])
def test_spec_names_that_look_like_python(name):
    # spec names reach the compiled source only as string literals
    spec = resolve(parse_spec(f"""
message module M
  message Sized with
    {name} is Integer(min=0, max=3) as BigEndian(length=8)
    data is Binary(length=8*{name})
  end
  message Guarded with
    {name} is Bool as BoolBits(truth_string=X'ff', falsehood_string=X'00')
    extra is Optional(is_empty=!{name}, subject=Integer(min=0, max=9)) as BigEndian(length=8)
  end
end
"""))
    sizes, extras = set(), set()
    gen = Generator(spec, GenConfig(seed=1))
    for _ in range(40):
        for msg_type in spec.message_types:
            value = gen.message(msg_type)
            wire = encode_message(msg_type, value, spec)
            out = decode_message(wire, [msg_type], spec)
            assert isinstance(out, Classified) and out.value == value
            assert out.consumed == len(wire)
            if msg_type == "Sized":
                sizes.add(len(wire))
                assert len(wire) == 1 + value.get(name).value
            else:
                extras.add(value.get("extra") is ABSENT)
                assert (value.get("extra") is ABSENT) == (value.get(name) == BoolVal(False))
    assert sizes == {1, 2, 3, 4} and extras == {True, False}
    with pytest.raises(UnboundName, match=r"^unbound name 'class'$"):
        compile_expr(NameRef("class"), {})({})


def _message(fn, env):
    try:
        return fn(env)
    except EvalError as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(_TREES, st.sampled_from([as_int, as_bool, as_text]))
def test_inlined_conversion_matches_the_converter(tree, convert):
    # the compiled function checks an integer or boolean result itself;
    # it must fail, and succeed, exactly as converting its value would
    text, _ = tree
    plain = compile_expr(expr(text), {"ok": OK})
    converted = compile_expr(expr(text), {"ok": OK}, convert)
    for env in ({"n": N}, {}):
        assert _message(converted, env) == _message(lambda env: convert(plain(env)), env)


# --- checking ---------------------------------------------------------------------

SPEC_SRC = """
message module M
  message Wrap with
    n is Integer(min=0, max=500) as BigEndian(signed=false, length=32)
    hasfoot is Bool as BoolBits(truth_string=X'ff', falsehood_string=X'00')
    foot is Optional(is_empty=!hasfoot, subject=Text(charset='ascii', max_count=5))
         as TerminatedText(terminator='\\n')
    pad is Binary(length=8, char8_pattern=/\\0*\\1/)
    tags is List(elem=Item, max_length=2) as CountPrefixList(count_codec=BigEndian(length=8))
    status is Status as TerminatedText(terminator=' ')
  end
  record Item with v is Integer(min=0, max=9) as BigEndian(length=8) end
  type Tag is Text(charset='ascii', pattern=/[0-9a-zA-Z]+/, max_count=20)
  enum Status of Text with ok as 'OK'  no as 'NO' end
end
"""


@pytest.fixture(scope="module")
def spec():
    return resolve(parse_spec(SPEC_SRC))


def field_node(spec, name):
    """The node of one field of Wrap, with its codec, which encodes."""
    fld = next(f for f in spec.records["Wrap"].fields if f.name == name)
    return compile_node(fld.type, fld.codec, spec)


def encode_fault(node, value, env):
    """The reason ``node.encode`` rejects the value, or None when it encodes."""
    try:
        node.encode(value, env)
    except ConstraintViolation as e:
        return str(e)
    return None


def test_integer_bounds(spec):
    node = field_node(spec, "n")
    assert encode_fault(node, IntVal(500), {}) is None
    assert "above maximum" in encode_fault(node, IntVal(501), {})
    assert encode_fault(node, IntVal(-1), {}) is not None


def test_text_pattern_and_count():
    src = (
        "message module T "
        "message W with t is Tag as TerminatedText(terminator=' ') end "
        "type Tag is Text(charset='ascii', pattern=/[0-9a-zA-Z]+/, max_count=20) "
        "end"
    )
    wspec = resolve(parse_spec(src))
    tag = wspec.records["W"].fields[0]
    node = compile_node(tag.type, tag.codec, wspec)
    assert encode_fault(node, TextVal("ABC12"), {}) is None
    assert encode_fault(node, TextVal(""), {}) is not None
    assert encode_fault(node, TextVal("a" * 21), {}) is not None
    assert encode_fault(node, TextVal("no spaces"), {}) is not None


def test_optional_exclusivity(spec):
    present_env = {"hasfoot": BoolVal(True)}
    absent_env = {"hasfoot": BoolVal(False)}
    node = field_node(spec, "foot")
    # guard true: the footer is required
    assert encode_fault(node, ABSENT, present_env) is not None
    assert encode_fault(node, TextVal("hi"), present_env) is None
    # guard false: the footer must be absent
    assert encode_fault(node, ABSENT, absent_env) is None
    assert encode_fault(node, TextVal("hi"), absent_env) is not None


def test_binary_bit_pattern(spec):
    node = field_node(spec, "pad")
    assert encode_fault(node, BitsVal(BitString.from_bits("00000001")), {}) is None
    assert encode_fault(node, BitsVal(BitString.from_bits("00000000")), {}) is not None
    assert encode_fault(node, BitsVal(BitString.from_bits("001")), {}) is not None


def test_list_elements_checked(spec):
    good = ListVal((RecordVal("Item", (("v", IntVal(3)),)),))
    bad = ListVal((RecordVal("Item", (("v", IntVal(10)),)),))
    over = ListVal(tuple(RecordVal("Item", (("v", IntVal(1)),)) for _ in range(3)))
    node = field_node(spec, "tags")
    assert encode_fault(node, good, {}) is None
    assert "element 0" in encode_fault(node, bad, {})
    assert "max_length" in encode_fault(node, over, {})


def test_enum_constants(spec):
    node = field_node(spec, "status")
    assert encode_fault(node, EnumVal("Status", "ok"), {}) is None
    assert encode_fault(node, EnumVal("Status", "maybe"), {}) is not None


def test_value_literals_roundtrip():
    v = RecordVal(
        "",
        (
            ("n", IntVal(7)),
            ("t", TextVal("hi there")),
            ("b", BitsVal(BitString.from_bits("0101"))),
            ("flag", BoolVal(True)),
            ("xs", ListVal((IntVal(1), IntVal(2)))),
            ("e", EnumVal("", "ok")),
            ("gone", ABSENT),
        ),
    )
    assert parse_value_text(format_value(v)) == v


def test_value_literals_use_the_spec_lexer():
    v = parse_value_text("{ n = -3 t = 'a\\'b\\n' b = X'f0', xs = [1, 2,], }  # comment")
    assert v == RecordVal(
        "",
        (
            ("n", IntVal(-3)),
            ("t", TextVal("a'b\n")),
            ("b", BitsVal(BitString.from_hex("f0"))),
            ("xs", ListVal((IntVal(1), IntVal(2)))),
        ),
    )


@pytest.mark.parametrize(
    "text",
    ["{ h = ", "[1, 2", "{ = 1 }", "'\\q'", "'a\nb'", "b'012'", "- x", "1 2", "(1)"],
)
def test_malformed_value_literals(text):
    with pytest.raises(SpecSyntaxError):
        parse_value_text(text)


def test_notation_roundtrips_every_message(myp_spec, imap_spec):
    count = 0
    for spec in (myp_spec, imap_spec):
        for seed in range(30):
            gen = Generator(spec, GenConfig(seed=seed))
            for m in spec.message_types:
                v = gen.message(m)
                assert message_plan(spec, m).retype(parse_value_text(format_value(v))) == v
                count += 1
    assert count == 690


# The value contract: each value class compares equal only to its own
# class, hashes as the tuple of its fields, shows its fields by name, is
# immutable and unordered, and survives copy and pickle.
EACH_CLASS = [
    (IntVal(5), (5,), "IntVal(value=5)"),
    (TextVal("hi"), ("hi", "ascii"), "TextVal(text='hi', charset='ascii')"),
    (BitsVal(BitString(5, 3)), (BitString(5, 3),), "BitsVal(bits=b'101')"),
    (BoolVal(True), (True,), "BoolVal(value=True)"),
    (ListVal((IntVal(1), ABSENT)), ((IntVal(1), ABSENT),), "ListVal(items=(IntVal(value=1), absent))"),
    (EnumVal("Status", "ok"), ("Status", "ok"), "EnumVal(enum='Status', constant='ok')"),
    (
        RecordVal("R", (("n", IntVal(1)),)),
        ("R", (("n", IntVal(1)),)),
        "RecordVal(type_name='R', entries=(('n', IntVal(value=1)),))",
    ),
]


@pytest.mark.parametrize("value, fields, shown", EACH_CLASS, ids=lambda x: type(x).__name__)
def test_value_contract(value, fields, shown):
    cls = type(value)
    assert repr(value) == shown
    assert hash(value) == hash(fields)
    assert value == cls(*fields) and not value != cls(*fields)
    # a plain tuple of the same fields is another class
    assert value != fields and not value == fields
    assert fields != value and not fields == value
    assert value.__eq__(object()) is NotImplemented and value.__ne__(object()) is NotImplemented
    for name in (cls.__match_args__[0], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, fields[0])
    with pytest.raises(TypeError):
        value < value  # noqa: B015
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and repr(copied) == shown


def test_values_of_other_classes_differ():
    for a, b in ((IntVal(1), BoolVal(True)), (IntVal(0), BoolVal(False)), (IntVal(1), (1,))):
        assert a != b and b != a
        assert not a == b and not b == a
    assert IntVal(1) != IntVal(2) and not IntVal(1) == IntVal(2)
    assert RecordVal("R", (("n", IntVal(1)),)) != RecordVal("R", (("n", BoolVal(True)),))


def test_keyword_and_default_construction():
    assert TextVal("a") == TextVal("a", "ascii") == TextVal(text="a", charset="ascii")
    assert TextVal("a", charset="latin-1").charset == "latin-1"
    assert IntVal(value=3) == IntVal(3)
    assert BoolVal(value=False) == BoolVal(False)
    assert BitsVal(bits=BitString(1, 1)) == BitsVal(BitString(1, 1))
    assert ListVal(items=()) == ListVal(())
    assert EnumVal(enum="E", constant="c") == EnumVal("E", "c")
    assert RecordVal(type_name="R", entries=()) == RecordVal("R", ())
    with pytest.raises(TypeError):
        IntVal()
    with pytest.raises(TypeError):
        TextVal("a", "ascii", "extra")


def test_record_get():
    record = RecordVal("R", (("n", IntVal(1)), ("t", TextVal("x"))))
    assert record.get("t") == TextVal("x")
    with pytest.raises(KeyError):
        record.get("missing")
