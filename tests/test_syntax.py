import pytest

from wirespec.bits import BitString
from wirespec.errors import SpecSyntaxError
from wirespec.syntax import (
    Alternative,
    BitsLit,
    FieldDecl,
    InstExpr,
    IntLit,
    MessageDecl,
    format_expr,
    parse_spec,
    tokenize,
)


def test_single_message_declaration():
    ast = parse_spec("message module MyP message Ask with h is Header(flag=1) end end")
    (mod,) = ast.message_modules
    assert mod.name == "MyP"
    assert mod.decls == [
        MessageDecl(
            "Ask",
            [FieldDecl("h", InstExpr("Header", [("flag", IntLit(1))]), None)],
        )
    ]


def test_empty_module():
    ast = parse_spec("message module M end")
    assert ast.message_modules[0].decls == []


def test_missing_type_is_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse_spec("message module M message Ask with h is end end")


def test_error_carries_position():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("message module M\n  type = 3\nend")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "source",
    [
        "message module M record R with f is Integer as BigEndian(length=) end end",
        "message module M",
        "interactions module I actor A with state S where on do continue end end end",
        "message module M message X with f is Text as T('unterminated) end end",
        "message module M \x01 end",
        # digits that str.isdigit takes and int() does not
        "message module M message X with i is Integer(max=\u00b2) as BigEndian(length=8) end end",
        "message module M message X with i is Integer(max=1\u00b9) as BigEndian(length=8) end end",
    ],
)
def test_malformed_sources(source):
    with pytest.raises(SpecSyntaxError):
        parse_spec(source)


def test_literals():
    ast = parse_spec(
        "message module M record R with "
        "a is Binary(value=b'0101') "
        "b is Binary(value=X'ff') "
        "c is Text(value='it\\'s', pattern=/a\\/b/) "
        "end end"
    )
    fields = ast.message_modules[0].decls[0].fields
    assert fields[0].type_expr.args[0][1] == BitsLit(BitString.from_bits("0101"))
    assert fields[1].type_expr.args[0][1] == BitsLit(BitString.from_hex("ff"))
    assert fields[2].type_expr.args[0][1].value == "it's"
    assert fields[2].type_expr.args[1][1].source == "a/b"


def test_comments_and_whitespace_are_insignificant():
    a = parse_spec("message module M  # trailing\n  message X end\nend")
    b = parse_spec("message\nmodule\nM\nmessage X end end")
    assert a == b


def test_actor_clause_shapes():
    ast = parse_spec(
        """
        interactions module I
          actor A with
            init state S where
              anytime do send M1 send M2 next T or do quit
              on M3 do continue
            end
            state T where on M1 do send M2 quit end
          end
        end
        """
    )
    actor = ast.interaction_modules[0].actors[0]
    s, t = actor.states
    assert s.init and not t.init
    anytime, on3 = s.clauses
    assert anytime.trigger is None
    assert anytime.alternatives == [
        Alternative(["M1", "M2"], ("next", "T")),
        Alternative([], ("quit",)),
    ]
    assert on3.trigger == "M3"
    assert t.clauses[0].alternatives == [Alternative(["M2"], ("quit",))]


def test_format_expr_roundtrip():
    source = """
    message module P
      message Ping with n is Integer(min=0, max=7) as BigEndian(signed=false, length=8) end
      record R(p) with
        a is Integer(value=p) as BigEndian(length=4)
        b is Binary(length=8*(a % 2 + 1), char8_pattern=/\\0*/)
        c is Optional(is_empty=!flagged, subject=Text(charset='ascii')) as TerminatedText(terminator='\\n')
        flagged is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0')
        d is Binary(length=(8 - -a) * 2 - (1 + 1))
        e is Text(pattern=/a\\/b|c/) as TerminatedText(terminator=' ')
      end
    end
    """
    decls = parse_spec(source).message_modules[0].decls
    exprs = [
        expr
        for decl in decls
        for fld in decl.fields
        for inst in (fld.type_expr, fld.codec_expr)
        if inst is not None
        for expr in (inst, *(value for _, value in inst.args))
    ]
    assert len(exprs) == 28
    for expr in exprs:
        text = format_expr(expr)
        if isinstance(expr, InstExpr):  # a bare `Bool` reads as an instantiation only here
            again = parse_spec(f"message module M type T is {text} end")
            assert again.message_modules[0].decls[0].expr == expr, text
        else:
            again = parse_spec(f"message module M type T is X(v={text}) end")
            assert again.message_modules[0].decls[0].expr.args[0][1] == expr, text


@pytest.mark.parametrize("source, line, col, message", [
    ("a b'012'", 1, 3, "not a bit string: '012'"),
    ("b'01", 1, 1, "unterminated bit literal"),
    ("\n  X'abc'", 2, 3, "odd-length hex literal: 'abc'"),
    ("x'zz'", 1, 1, "non-hexadecimal number found in fromhex() arg at position 0"),
    ("'abc", 1, 1, "unterminated text literal"),
    ("x = 'abc\n'", 1, 5, "unterminated text literal"),
    ("'abc\\", 1, 1, "unterminated text literal"),
    ("\t'a\\q'", 1, 2, "unknown escape \\q in text literal"),
    ("'a\\q", 1, 1, "unknown escape \\q in text literal"),  # before the missing quote
    ("'a\\\nb'", 1, 1, "unknown escape \\\n in text literal"),
    ("/ab", 1, 1, "unterminated regular expression"),
    ("p=/a\nb/", 1, 3, "unterminated regular expression"),
    ("/a\\", 1, 1, "unterminated regular expression"),
    ("a\r\n\tb $", 2, 4, "unexpected character '$'"),
    ("\u00b2", 1, 1, "unexpected character '\u00b2'"),  # str.isalnum, not str.isalpha
    ("12\u00b2", 1, 3, "unexpected character '\u00b2'"),
    ("\u0663", 1, 1, "unexpected character '\u0663'"),  # a digit, but not ASCII
    ("# note\n\x0c", 2, 1, "unexpected character '\\x0c'"),
])
def test_tokenizer_errors_name_their_line_and_column(source, line, col, message):
    with pytest.raises(SpecSyntaxError) as e:
        tokenize(source)
    assert (e.value.line, e.value.column, str(e.value)) == (line, col, f"{line}:{col}: {message}")


def test_literals_end_at_their_line_and_hex_holds_hex_digits_only():
    for source, col, message in [
        # the unterminated literal is named where it starts, not on a later line
        ("X'00\n\n11' foo\n  $", 1, "unterminated bit literal"),
        ("t is X(p=/a\\\nb/) $", 10, "unterminated regular expression"),
        ("x'ab  cd'", 1, "not a hex string: 'ab  cd'"),
    ]:
        with pytest.raises(SpecSyntaxError) as e:
            tokenize(source)
        assert str(e.value) == f"1:{col}: {message}"
    # the end of input after a comment is past the comment
    assert tokenize("a # note")[-1].col == 9
