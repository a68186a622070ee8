import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirespec.bits import BitString
from wirespec.codec import compile_node, message_plan
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
from wirespec.syntax import parse_spec
from wirespec.values import (
    ABSENT,
    BitsVal,
    BoolVal,
    EnumVal,
    IntVal,
    ListVal,
    RecordVal,
    TextVal,
    compile_arg,
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
    with pytest.raises(UnboundName):
        compile_expr(expr("missing"), {})({})
    with pytest.raises(TypeMismatch):
        compile_expr(expr("!n"), {})({"n": IntVal(1)})
    with pytest.raises(DivisionByZero):
        compile_expr(expr("5 % z"), {})({"z": IntVal(0)})


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
    # a folded argument gives the same outcome; one that names no field
    # needs no environment at all
    folded = compile_arg({"x": expr(text)}, "x", constants)
    assert _outcome(folded, env) == expected
    if not re.search(r"\bn\b", text):
        assert _outcome(folded, {}) == expected


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


def field_type(spec, name):
    return next(f.type for f in spec.records["Wrap"].fields if f.name == name)


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
    t = field_type(spec, "n")
    node = compile_node(t, None, spec)
    assert node.check(IntVal(500), {}) is None
    assert "above maximum" in node.check(IntVal(501), {})
    assert node.check(IntVal(-1), {}) is not None


def test_text_pattern_and_count():
    src = (
        "message module T "
        "message W with t is Tag as TerminatedText(terminator=' ') end "
        "type Tag is Text(charset='ascii', pattern=/[0-9a-zA-Z]+/, max_count=20) "
        "end"
    )
    wspec = resolve(parse_spec(src))
    tag_rtype = wspec.records["W"].fields[0].type
    node = compile_node(tag_rtype, None, wspec)
    assert node.check(TextVal("ABC12"), {}) is None
    assert node.check(TextVal(""), {}) is not None
    assert node.check(TextVal("a" * 21), {}) is not None
    assert node.check(TextVal("no spaces"), {}) is not None


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
    t = field_type(spec, "pad")
    node = compile_node(t, None, spec)
    assert node.check(BitsVal(BitString.from_bits("00000001")), {}) is None
    assert node.check(BitsVal(BitString.from_bits("00000000")), {}) is not None
    assert node.check(BitsVal(BitString.from_bits("001")), {}) is not None


def test_list_elements_checked(spec):
    good = ListVal((RecordVal("Item", (("v", IntVal(3)),)),))
    bad = ListVal((RecordVal("Item", (("v", IntVal(10)),)),))
    over = ListVal(tuple(RecordVal("Item", (("v", IntVal(1)),)) for _ in range(3)))
    node = field_node(spec, "tags")
    assert encode_fault(node, good, {}) is None
    assert "element 0" in encode_fault(node, bad, {})
    assert "max_length" in encode_fault(node, over, {})


def test_enum_constants(spec):
    t = field_type(spec, "status")
    node = compile_node(t, None, spec)
    assert node.check(EnumVal("Status", "ok"), {}) is None
    assert node.check(EnumVal("Status", "maybe"), {}) is not None


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
