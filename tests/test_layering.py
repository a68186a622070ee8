"""Only the resolver and the codec know how types nest their values."""

import ast
import linecache
import random
import re
from pathlib import Path

import wirespec
from wirespec.bits import BitString
from wirespec.codec import message_plan
from wirespec.resolve import TYPE_SIGNATURES
from wirespec.values import ABSENT, BitsVal, BoolVal, EnumVal, IntVal, ListVal, RecordVal, TextVal

TYPE_NAMES = set(TYPE_SIGNATURES) | {"Record", "Enum"}
PACKAGE = Path(wirespec.__file__).parent


def test_only_resolve_and_codec_name_base_types():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() in ("resolve.py", "codec.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and node.value in TYPE_NAMES:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.value!r}")
    assert not found


def test_only_values_and_codec_compile_code():
    # one code generator: every generated function is built by
    # values.Source, which values.compile_expr and the codec's nodes share
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() in ("values.py", "codec.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("exec", "compile"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {node.func.id}")
    assert not found


VALUE_CLASSES = (IntVal, TextVal, BitsVal, BoolVal, ListVal, EnumVal, RecordVal, BitString)


def test_only_values_bits_and_codec_build_tuples_directly():
    # tuple.__new__ skips a value's own __new__, and BitString's fit check
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).as_posix() in ("values.py", "bits.py", "codec.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "tuple"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert not found


def _parts(value):
    yield value
    if isinstance(value, RecordVal):
        for _, field in value.entries:
            yield from _parts(field)
    elif isinstance(value, ListVal):
        for item in value.items:
            yield from _parts(item)
    elif isinstance(value, BitsVal):
        yield value.bits


def test_generated_code_builds_values_in_one_call(myp_spec, imap_spec):
    """Generated functions build every value with one ``tuple.__new__``
    call, never by calling its class, and what they build is of the
    public class itself."""
    plans = []
    for spec in (myp_spec, imap_spec):
        for msg_type in spec.message_types:
            plan = message_plan(spec, msg_type)
            plans.append(plan)
            for seed in range(10):
                value = plan.generate(random.Random(seed), {})
                decoded, _ = plan.decode(plan.encode(value, {}).to_bytes(), 0, {})
                for part in (*_parts(value), *_parts(decoded)):
                    assert part is ABSENT or type(part) in VALUE_CLASSES, repr(part)
    generated = {
        name: "".join(entry[2]) for name, entry in list(linecache.cache.items())
        if re.match(r"<(encode|decode|generate) ", name)
    }
    for plan in plans:
        for function in (plan.encode, plan.decode, plan.generate):
            assert function.__code__.co_filename in generated
    called = re.compile(rf"\b({'|'.join(cls.__name__ for cls in VALUE_CLASSES)})\s*[(.]")
    for name, source in generated.items():
        assert not called.search(source), (name, called.search(source).group())
