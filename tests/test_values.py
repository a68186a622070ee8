import pytest

from wirespec.bits import BitString
from wirespec.cli import _retype
from wirespec.codec import compile_node
from wirespec.errors import DivisionByZero, SpecSyntaxError, TypeMismatch, UnboundName
from wirespec.generate import GenConfig, Generator
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec
from wirespec.values import (
    ABSENT,
    BitsVal,
    BoolVal,
    Env,
    EnumVal,
    IntVal,
    ListVal,
    RecordVal,
    TextVal,
    eval_expr,
    format_value,
    parse_value_text,
)


def expr(text):
    """Parse an expression by planting it in a throwaway field argument."""
    ast = parse_spec(f"message module M record R with f is Binary(length={text}) end end")
    return ast.message_modules[0].decls[0].fields[0].type_expr.args[0][1]


def env(**bindings):
    e = Env()
    for k, v in bindings.items():
        e.bind(k, v)
    return e


def test_modulo_expression():
    # 5 % 4 = 1; 4 - 1 = 3; 8 * 3 = 24, checked by hand
    assert eval_expr(expr("8*(4 - n%4)"), env(n=IntVal(5))) == IntVal(24)


def test_boolean_negation():
    assert eval_expr(expr("!hasfoot"), env(hasfoot=BoolVal(False))) == BoolVal(True)


def test_zero_case():
    assert eval_expr(expr("8*n"), env(n=IntVal(0))) == IntVal(0)


def test_eval_matches_python_arithmetic():
    cases = [("2+3*4", 14), ("(2+3)*4", 20), ("7%3", 1), ("10-4-3", 3), ("-n", -6)]
    for text, expected in cases:
        assert eval_expr(expr(text), env(n=IntVal(6))) == IntVal(expected)


def test_eval_errors():
    with pytest.raises(UnboundName):
        eval_expr(expr("missing"), env())
    with pytest.raises(TypeMismatch):
        eval_expr(expr("!n"), env(n=IntVal(1)))
    with pytest.raises(DivisionByZero):
        eval_expr(expr("5 % z"), env(z=IntVal(0)))


def test_true_false_builtins():
    assert eval_expr(expr("!true"), env()) == BoolVal(False)


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


def test_integer_bounds(spec):
    t = field_type(spec, "n")
    node = compile_node(t, None, spec)
    assert node.check(IntVal(500), Env()) is None
    assert "above maximum" in node.check(IntVal(501), Env())
    assert node.check(IntVal(-1), Env()) is not None


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
    assert node.check(TextVal("ABC12"), Env()) is None
    assert node.check(TextVal(""), Env()) is not None
    assert node.check(TextVal("a" * 21), Env()) is not None
    assert node.check(TextVal("no spaces"), Env()) is not None


def test_optional_exclusivity(spec):
    t = field_type(spec, "foot")
    present_env = env(hasfoot=BoolVal(True))
    absent_env = env(hasfoot=BoolVal(False))
    node = compile_node(t, None, spec)
    # guard true: the footer is required
    assert node.check(ABSENT, present_env) is not None
    assert node.check(TextVal("hi"), present_env) is None
    # guard false: the footer must be absent
    assert node.check(ABSENT, absent_env) is None
    assert node.check(TextVal("hi"), absent_env) is not None


def test_binary_bit_pattern(spec):
    t = field_type(spec, "pad")
    node = compile_node(t, None, spec)
    assert node.check(BitsVal(BitString.from_bits("00000001")), Env()) is None
    assert node.check(BitsVal(BitString.from_bits("00000000")), Env()) is not None
    assert node.check(BitsVal(BitString.from_bits("001")), Env()) is not None


def test_list_elements_checked(spec):
    t = field_type(spec, "tags")
    good = ListVal((RecordVal("Item", (("v", IntVal(3)),)),))
    bad = ListVal((RecordVal("Item", (("v", IntVal(10)),)),))
    over = ListVal(tuple(RecordVal("Item", (("v", IntVal(1)),)) for _ in range(3)))
    node = compile_node(t, None, spec)
    assert node.check(good, Env()) is None
    assert "element 0" in node.check(bad, Env())
    assert "max_length" in node.check(over, Env())


def test_enum_constants(spec):
    t = field_type(spec, "status")
    node = compile_node(t, None, spec)
    assert node.check(EnumVal("Status", "ok"), Env(spec.constants)) is None
    assert node.check(EnumVal("Status", "maybe"), Env(spec.constants)) is not None


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
                assert _retype(parse_value_text(format_value(v)), m, spec) == v
                count += 1
    assert count == 690
