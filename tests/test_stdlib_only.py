"""The package depends on the standard library only."""
from __future__ import annotations

import ast
import pathlib
import sys

import siflag

PACKAGE = pathlib.Path(siflag.__file__).parent


def _absolute_imports(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign
