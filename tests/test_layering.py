"""Only the resolver and the codec know how types nest their values."""

import ast
from pathlib import Path

import wirespec
from wirespec.resolve import TYPE_SIGNATURES

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
