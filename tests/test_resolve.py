import re
import time

import pytest

from wirespec.codec import decode_message
from wirespec.errors import (
    CyclicDependency,
    DuplicateName,
    ForwardReference,
    ResolutionError,
    UnknownName,
)
from wirespec.resolve import resolve
from wirespec.syntax import parse_spec


def rs(body, interactions=""):
    source = f"message module M {body} end"
    if interactions:
        source += f" interactions module M {interactions} end"
    return resolve(parse_spec(source))


IDENTIFIER_DEFS = """
type Identifier is Text(charset='ascii', pattern=/[!-~]+/,
                        exclude_pattern=/ |\\r\\n|\\*/, max_count=20)
type Tag is Identifier(pattern=/[0-9a-zA-Z]+/)
codec SpaceTerminated is TerminatedText(encoding='ascii', terminator=' ')
"""


def test_alias_layering_overrides_pattern():
    spec = rs(
        IDENTIFIER_DEFS
        + "message T with t is Tag as SpaceTerminated end"
    )
    rtype = spec.records["T"].fields[0].type
    assert rtype.base == "Text"
    assert rtype.args["charset"] == "ascii"
    assert rtype.args["max_count"].value == 20
    assert rtype.args["pattern"].source == "[0-9a-zA-Z]+"  # overridden by Tag
    assert rtype.args["exclude_pattern"].source == " |\\r\\n|\\*"  # kept from Identifier


def test_codec_alias_expansion():
    spec = rs(IDENTIFIER_DEFS + "message T with t is Tag as SpaceTerminated end")
    codec = spec.records["T"].fields[0].codec
    assert codec.base == "TerminatedText"
    assert codec.args["terminator"] == " "


def test_dependency_edges_and_order():
    spec = rs(
        """
        record DataItem with
          n is Integer(min=0, max=500) as BigEndian(signed=false, length=32)
          data is Binary(length=8*n)
          padding is Binary(length=8*((4 - n%4)%4), char8_pattern=/(\\0*\\1)?/)
        end
        """
    )
    record = spec.records["DataItem"]
    assert [f.name for f in record.fields] == ["n", "data", "padding"]


def test_declaration_order_preserved_for_independent_fields():
    spec = rs(
        """
        record R with
          a is Integer as BigEndian(length=8)
          b is Integer as BigEndian(length=8)
          c is Integer as BigEndian(length=8)
        end
        """
    )
    assert [f.name for f in spec.records["R"].fields] == ["a", "b", "c"]


def test_forward_reference_rejected():
    with pytest.raises(ForwardReference):
        rs(
            """
            record R with
              a is Binary(length=8*b)
              b is Integer as BigEndian(length=8)
            end
            """
        )


def test_self_reference_is_a_cycle():
    with pytest.raises(CyclicDependency):
        rs("record R with a is Binary(length=8*a) end")


def test_alias_cycle_detected():
    with pytest.raises(CyclicDependency):
        rs("type A is B type B is A message X with f is A as SpaceTerminated end"
           " codec SpaceTerminated is TerminatedText(terminator=' ')")


def test_unknown_names():
    with pytest.raises(UnknownName):
        rs("message X with f is Mystery end")
    with pytest.raises(UnknownName):
        rs("record R with a is Binary(length=8*nope) end")
    with pytest.raises(UnknownName):
        rs("record R with a is Integer(bogus_arg=1) as BigEndian(length=8) end")


def test_duplicates_rejected():
    with pytest.raises(DuplicateName):
        rs("message X end message X end")
    with pytest.raises(DuplicateName):
        rs("record R with a is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0')"
           " a is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') end")


def test_codec_required_for_coded_types():
    with pytest.raises(ResolutionError):
        rs("message X with n is Integer end")


def test_list_elements_need_no_codec():
    # elements are coded without a codec, so a codec-needing element can never be encoded
    with pytest.raises(ResolutionError):
        rs(
            "message X with xs is List(elem=Integer(min=0, max=3)) "
            "as CountPrefixList(count_codec=BigEndian(length=8)) end"
        )


def test_codec_must_code_the_field_type():
    with pytest.raises(ResolutionError):
        rs("message X with n is Integer as TerminatedText(terminator=' ') end")
    with pytest.raises(ResolutionError):
        rs("message X with n is Integer as TextInteger(text_codec=BigEndian(length=8)) end")


TAKES_NO_CODEC_DEFS = (
    "record H with a is Integer as BigEndian(length=8) end "
    "enum EB of Binary(length=4) with one as b'0001' end "
)


@pytest.mark.parametrize(
    "field, reason",
    [
        ("h is H as TerminatedText(terminator=' ')", "X.h: a H record takes no codec"),
        ("b is Binary(length=8) as BigEndian(length=16)", "X.b: a Binary takes no codec"),
        (
            "f is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') "
            "h is Optional(is_empty=f, subject=H) as BigEndian(length=8)",
            "X.h: a H record takes no codec",
        ),
        ("e is EB as BigEndian(length=4)", "X.e: a Binary takes no codec"),
    ],
)
def test_codec_on_a_type_that_takes_none_rejected(field, reason):
    # records and Binary code themselves; a codec there would be ignored
    with pytest.raises(ResolutionError, match=f"^{reason}$"):
        rs(TAKES_NO_CODEC_DEFS + f"message X with {field} end")


def test_enum_over_binary_needs_no_codec():
    rs(TAKES_NO_CODEC_DEFS + "message X with e is EB b is Binary(length=4) end")


@pytest.mark.parametrize("before", ["", "n is Integer as BigEndian(length=8) "])
def test_enum_base_names_no_field(before):
    # no record is in scope of an enum's base type, not even one declaring n
    with pytest.raises(UnknownName, match="^enum E references unknown name 'n'$"):
        rs(
            "enum E of Text(max_count=n) with a as 'x' end "
            f"message X with {before}e is E as TerminatedText(terminator=' ') end"
        )


def test_field_size_must_be_known():
    with pytest.raises(ResolutionError):
        rs("message X with t is Text as FixedCountText end")
    with pytest.raises(ResolutionError):
        rs("message X with b is Binary end")


def test_charset_must_be_known():
    with pytest.raises(ResolutionError, match=r"X\.t: unknown charset 'klingon'"):
        rs("message X with t is Text(charset='klingon') as TerminatedText(terminator=' ') end")


def test_terminator_must_be_codable():
    for terminator, encoding in (("", "ascii"), ("\u00e9", "ascii"), ("\u20ac", "latin1")):
        with pytest.raises(ResolutionError, match=r"X\.t: terminator .* cannot be coded"):
            rs(
                f"message X with t is Text as "
                f"TerminatedText(encoding='{encoding}', terminator='{terminator}') end"
            )
    rs("message X with t is Text as TerminatedText(encoding='latin1', terminator='\u00e9') end")


@pytest.mark.parametrize("terminator", ["aa", "aba", "abcab", "\\r\\n\\r"])
def test_terminator_must_not_overlap_itself(terminator):
    # the text 'a' before 'aa' would encode to 'aaa', which decodes as ''
    shown = repr(terminator.replace("\\r", "\r").replace("\\n", "\n"))
    with pytest.raises(ResolutionError, match=rf"^X\.t: terminator {re.escape(shown)} overlaps itself$"):
        rs(f"message X with t is Text as TerminatedText(terminator='{terminator}') end")


@pytest.mark.parametrize("terminator", ["\\r\\n", "\\n", " ", "ab", "aab"])
def test_terminator_that_overlaps_no_text_is_allowed(terminator):
    rs(f"message X with t is Text as TerminatedText(terminator='{terminator}') end")


@pytest.mark.parametrize(
    "field,reason",
    [
        ("i is Integer(max='a') as BigEndian(length=8)", "'max' must be an integer"),
        ("i is Integer(max=/x/) as BigEndian(length=8)", "'max' must be an expression, not"),
        (
            "o is Optional(is_empty=3, subject=Integer) as BigEndian(length=8)",
            "'is_empty' must be a boolean",
        ),
        ("i is Integer as BigEndian(length=true)", "'length' must be an integer"),
        ("i is Integer as BigEndian(length=8, signed=X'01')", "'signed' must be a boolean"),
        ("t is Text(max_count=b'1') as TerminatedText(terminator=' ')", "'max_count' must be"),
        ("b is Binary(length=8, value=/x/)", "'value' must be an expression, not"),
        ("i is Integer(value='a') as BigEndian(length=8)", "'value' must be an integer"),
        ("i is Integer(value=ok) as BigEndian(length=8)", "'value' must be an integer"),
        ("i is Integer(max=ok) as BigEndian(length=8)", "'max' must be an integer"),
        ("i is Integer as BigEndian(length=8, signed=ok)", "'signed' must be a boolean"),
        (
            "b is Bool(value=3) as BoolBits(truth_string=b'1', falsehood_string=b'0')",
            "'value' must be a boolean",
        ),
        ("t is Text(value=3) as FixedCountText()", "'value' must be text"),
        ("b is Binary(value=3)", "'value' must be bits"),
        ("b is Binary(value='ab')", "'value' must be bits"),
        ("t is Text(value=b'1') as TerminatedText(terminator=' ')", "'value' must be text"),
        ("e is E(value=3) as BigEndian(length=8)", "'value' must be a constant of E"),
        ("e is E(value=no) as BigEndian(length=8)", "'value' must be a constant of E"),
        # an instantiation has no value, even inside an expression
        ("i is Integer(max=Foo(a=1)) as BigEndian(length=8)", "'max' must be an expression, not Foo"),
        ("i is Integer(max=1 + Integer(max=2)) as BigEndian(length=8)", "'max' must be an expression"),
        ("i is Integer(max=-/x/) as BigEndian(length=8)", "'max' must be an expression, not /x/"),
        ("b is Binary(length=8 * Byte(max=3))", "'length' must be an expression, not Byte"),
        ("r is R(p=Foo(a=1))", "'p' must be an expression, not Foo"),
        ("i is I(n=Foo(a=1))", "'n' must be an expression, not Foo"),
    ],
)
def test_literal_argument_of_the_wrong_kind_rejected(field, reason):
    # ok and no are constants of two different enums
    decls = (
        "enum E of Integer with ok as 1 end enum F of Integer with no as 2 end "
        "type Byte is Integer(max=255) record R(p) with b is Binary(length=p) end "
        "record I with n is Integer as BigEndian(length=8) end "
    )
    with pytest.raises(ResolutionError, match=reason):
        rs(f"{decls} message X with {field} end")


def test_enum_constants_must_be_literals_of_the_base():
    # a text constant of an integer enum would escape encode as AttributeError
    with pytest.raises(ResolutionError, match="constants must be Integer literals"):
        rs("enum E of Integer with ok as 'a' end message X with e is E as BigEndian(length=8) end")


def test_expression_arguments_keep_run_time_checks():
    # not literals: their kinds are checked when they run
    rs(
        "message X with n is Integer(max=-1 + 'a') as BigEndian(length=8, signed=true) "
        "o is Optional(is_empty=!n, subject=Integer) as BigEndian(length=8) end"
    )


def test_names_must_not_shadow_constants():
    with pytest.raises(DuplicateName):
        rs(
            "enum E of Text with ok as 'OK' end "
            "message X with ok is Integer as BigEndian(length=8) end"
        )


def test_boolbits_strings_must_differ():
    with pytest.raises(ResolutionError):
        rs("message X with b is Bool as BoolBits(truth_string=b'1', falsehood_string=b'1') end")


def test_record_instantiation_arg_must_name_param_or_field():
    with pytest.raises(UnknownName):
        rs(
            """
            record H with flag is Integer as BigEndian(length=2) end
            message A with h is H(nope=1) end
            """
        )


@pytest.mark.parametrize(
    "field,pin,reason",
    [
        ("flag is Integer as BigEndian(length=8)", "flag='a'", "'flag' must be an integer"),
        ("flag is Byte as BigEndian(length=8)", "flag=true", "'flag' must be an integer"),
        ("e is E as BigEndian(length=8)", "e=no", "'e' must be a constant of E"),
        ("e is E as BigEndian(length=8)", "e=1", "'e' must be a constant of E"),
        ("t is Text as TerminatedText(terminator=' ')", "t=b'1'", "'t' must be text"),
        # list, optional and record fields have no value for a pin to set
        ("l is List(elem=Binary(length=8), max_length=3) "
         "as CountPrefixList(count_codec=BigEndian(length=8))", "l='zz'",
         "H has no argument named 'l'"),
        ("i is I", "i=3", "H has no argument named 'i'"),
    ],
)
def test_field_pin_of_the_wrong_kind_rejected(field, pin, reason):
    # a pin has the kind of its field's value, through aliases and enums
    decls = (
        "enum E of Integer with ok as 1 end enum F of Integer with no as 2 end "
        "type Byte is Integer(max=255) record I with n is Integer as BigEndian(length=8) end "
    )
    with pytest.raises(ResolutionError, match=reason):
        rs(f"{decls} record H with {field} end message A with h is H({pin}) end")


def test_record_parameters_are_required():
    decls = "record R(p, q) with b is Binary(length=p) c is Binary(length=q) end "
    with pytest.raises(ResolutionError, match=r"^X\.r: R is missing \['p', 'q'\]$"):
        rs(f"{decls} message X with r is R end")
    with pytest.raises(ResolutionError, match=r"^X\.r: R is missing \['q'\]$"):
        rs(f"{decls} message X with r is R(p=8) end")
    with pytest.raises(ResolutionError, match=r"^X\.o: R is missing \['p'\]$"):
        rs(f"{decls} message X with o is Optional(is_empty=false, subject=R(q=8)) end")
    with pytest.raises(ResolutionError, match=r"^X\.l element: R is missing \['p', 'q'\]$"):
        rs(f"{decls} message X with l is List(elem=R, max_length=2) "
           "as CountPrefixList(count_codec=BigEndian(length=8)) end")
    rs(f"{decls} type S is R(p=8) message X with r is S(q=16) end")


@pytest.mark.parametrize(
    "field,reason",
    [
        ("i is Integer(max=1, max=200) as BigEndian(length=8)", "Integer is given argument 'max' twice"),
        ("i is Integer as BigEndian(length=8, length=16)", "BigEndian is given argument 'length' twice"),
        ("r is R(p=1, p=2)", "R is given argument 'p' twice"),
        ("i is Small(max=2, max=3) as BigEndian(length=8)", "Integer is given argument 'max' twice"),
    ],
)
def test_repeated_argument_rejected(field, reason):
    decls = "type Small is Integer(max=1) record R(p) with b is Binary(length=8*p) end "
    with pytest.raises(DuplicateName, match=reason):
        rs(f"{decls} message X with {field} end")


def test_field_pin_of_a_record_that_nests_itself():
    spec = rs(
        "record H with flag is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') "
        "more is Optional(is_empty=!flag, subject=H(flag=false)) end "
        "message A with h is H(flag=true) pad is Binary(length=6) end"
    )
    assert "flag" in spec.records["A"].fields[0].type.args


BYTE = "Integer as BigEndian(length=8)"
FLAG = "Bool as BoolBits(truth_string=b'1', falsehood_string=b'0')"


@pytest.mark.parametrize("decls, path, record", [
    ("record R with b is Integer(value=2) as BigEndian(length=8) r is R end message X with r is R end",
     "R.r", "R"),
    (f"message X with a is A end record A with n is {BYTE} b is B end record B with a is A end",
     "A.b, B.a", "A"),
    (f"record A with n is {BYTE} b is B(n=n) end record B(n) with a is A end message X with n is {BYTE} end",
     "A.b, B.a", "A"),
    # an Optional that is never empty holds its subject as a field does
    ("record R with o is Optional(is_empty=false, subject=R) end message X with r is R end", "R.o", "R"),
    (f"record R with n is {BYTE} o is Optional(is_empty=false, subject=Optional(is_empty=false, subject=R)) end "
     "message X with r is R end", "R.o", "R"),
    (f"message X with a is A end record A with n is {BYTE} b is Optional(is_empty=false, subject=B) end "
     "record B with a is A end", "A.b, B.a", "A"),
])
def test_record_that_contains_itself_on_every_path_rejected(tmp_path, capsys, decls, path, record):
    from wirespec.cli import main

    # every value of the record would hold another: none is finite
    between = "Optional that can be empty" if "is_empty=false" in decls else "Optional"
    reason = f"{path}: record {record} contains itself on every path, with no {between} or List between"
    with pytest.raises(ResolutionError, match=f"^{re.escape(reason)}$"):
        rs(decls)
    spec = tmp_path / "rec.wspec"
    spec.write_text(f"message module M {decls} end")
    assert main(["check", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("field", [
    "r is Optional(is_empty=!more, subject=R)",
    "r is Optional(is_empty=true, subject=R)",
    "rs is List(elem=R, max_length=2) as CountPrefixList(count_codec=BigEndian(length=8))",
])
def test_record_that_contains_itself_through_an_optional_or_a_list_resolves(field):
    rs(f"record R with more is {FLAG} pad is Binary(length=7) {field} end message X with r is R end")


def test_field_pin_merges_value_constraint():
    spec = rs(
        """
        record H with flag is Integer as BigEndian(length=2) end
        message A with h is H(flag=1) end
        """
    )
    h = spec.records["A"].fields[0]
    assert h.type.base == "Record" and h.type.record == "H"
    assert "flag" in h.type.args


# --- actor compilation -----------------------------------------------------------

MYP_INTERACTIONS = """
actor Client with
  init state Starting where anytime do send Ask next Waiting or do quit end
  state Waiting where on Data do send Ask continue
                            or do send Done next Starting end
end
actor Server with
  init state Serving where on Ask do send Data continue
                           on Done do continue end
end
"""

MYP_MESSAGES = """
message Ask with h is Header(flag=1) end
message Done with h is Header(flag=3) end
message Data with h is Header(flag=0) end
record Header with
  flag is Integer as BigEndian(signed=false, length=2)
  reserved is Binary(value=b'000000')
end
"""


@pytest.fixture(scope="module")
def myp():
    return rs(MYP_MESSAGES, MYP_INTERACTIONS)


def edge_set(lts):
    return {(e.src, e.label, e.dst) for e in lts.edges}


def test_server_compiles_to_three_edges(myp):
    server = myp.actors["Server"]
    assert set(server.states) == {"Serving", "u1", "Quit"}
    assert edge_set(server) == {
        ("Serving", ("?", "Ask"), "u1"),
        ("u1", ("!", "Data"), "Serving"),
        ("Serving", ("?", "Done"), "Serving"),
    }


def test_client_compiles_with_shared_receive_state(myp):
    client = myp.actors["Client"]
    assert edge_set(client) == {
        ("Starting", ("!", "Ask"), "Waiting"),
        ("Starting", ("quit", None), "Quit"),
        ("Waiting", ("?", "Data"), "u1"),
        ("u1", ("!", "Ask"), "Waiting"),
        ("u1", ("!", "Done"), "Starting"),
    }


def test_edge_count_matches_sends_ons_and_quits(myp):
    # client: 3 sends + 1 on + 1 quit; server: 1 send + 2 on
    assert len(myp.actors["Client"].edges) == 5
    assert len(myp.actors["Server"].edges) == 3


def test_empty_actor():
    spec = rs(MYP_MESSAGES, "actor A with init state S where end end")
    lts = spec.actors["A"]
    assert lts.edges == []
    assert lts.states == ["S", "Quit"]


def test_next_target_must_exist():
    with pytest.raises(UnknownName):
        rs(MYP_MESSAGES, "actor A with init state S where anytime do send Ask next Missing end end")


def test_message_types_must_exist():
    with pytest.raises(UnknownName):
        rs(MYP_MESSAGES, "actor A with init state S where on Nope do continue end end")


def test_exactly_one_init_state():
    with pytest.raises(ResolutionError):
        rs(MYP_MESSAGES, "actor A with state S where end end")


def test_bare_alternative_becomes_tau_edge():
    spec = rs(
        MYP_MESSAGES,
        """
        actor A with
          init state S where on Ask do next T or do send Done continue end
          state T where end
        end
        """,
    )
    lts = spec.actors["A"]
    assert ("u1", ("tau", None), "T") in edge_set(lts)
    assert ("S", ("?", "Ask"), "u1") in edge_set(lts)


def test_resolve_is_idempotent_on_ast():
    ast = parse_spec(f"message module M {MYP_MESSAGES} end")
    a = resolve(ast)
    b = resolve(ast)
    assert a.message_types == b.message_types
    assert {n: [f.name for f in r.fields] for n, r in a.records.items()} == {
        n: [f.name for f in r.fields] for n, r in b.records.items()
    }


ZERO_WIDTH_ELEMENTS = [
    "Binary(length=0)",
    "Binary(length=n)",  # n may be 0
    "Empty",  # a record of one Optional
]


@pytest.mark.parametrize("elem", ZERO_WIDTH_ELEMENTS)
def test_count_prefix_list_of_zero_width_elements_needs_max_length(elem):
    # a peer's 32-bit count would make decode read ~4e9 empty elements
    decls = (
        "record Empty with o is Optional(is_empty=true, subject=Binary(length=8)) end "
        "message X with n is Integer as BigEndian(length=8) xs is List(elem={}{}) "
        "as CountPrefixList(count_codec=BigEndian(length=32)) end"
    )
    with pytest.raises(ResolutionError, match=r"^X\.xs: an element can encode to no bits, "
                                              r"so the List needs a max_length$"):
        rs(decls.format(elem, ""))
    spec = rs(decls.format(elem, ", max_length=3"))
    started = time.perf_counter()
    out = decode_message(b"\x00\xff\xff\xff\xff", ["X"], spec)
    assert time.perf_counter() - started < 1.0
    assert out.diagnostics == {"X": "list count 4294967295 exceeds max_length"}


@pytest.mark.parametrize("elem", ["Binary(length=1)", "Binary(value=b'0')", "Word", "Tree"])
def test_count_prefix_list_of_elements_with_bits_needs_no_max_length(elem):
    rs(
        "record Word with t is Text as TerminatedText(terminator=' ') end "
        "record Tree with more is Bool as BoolBits(truth_string=b'1', falsehood_string=b'0') "
        "kids is List(elem=Tree) as CountPrefixList(count_codec=BigEndian(length=7)) end "
        f"message X with xs is List(elem={elem}) as CountPrefixList(count_codec=BigEndian(length=8)) end"
    )
