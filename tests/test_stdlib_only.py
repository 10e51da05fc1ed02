"""The package needs only the standard library at runtime."""
import ast
import sys
from pathlib import Path

import moontrace

PACKAGE = Path(moontrace.__file__).parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) >= 10
    outside = {}
    for path in sources:
        for name in _imported_modules(ast.parse(path.read_text(), str(path))):
            top = name.split(".")[0]
            if top != "moontrace" and top not in sys.stdlib_module_names:
                outside.setdefault(path.name, []).append(name)
    assert not outside
