"""No module imports a name it never uses.

The lint gate (``ruff.toml``) selects no F401, so this test stands in for
it: every non-``__init__`` module under ``src/``, ``tests/``,
``benchmarks/``, ``tools/`` and ``examples/`` is parsed with :mod:`ast`,
and each name bound by a top-level import, or by an import inside a
top-level ``if TYPE_CHECKING:`` block, must be read as a name somewhere
in the module or appear in a string constant (a string annotation, an
``__all__`` entry).  Package ``__init__`` modules are exempt: their
imports are re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks", "tools", "examples")


def _modules():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def _is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def _imported_names(tree: ast.Module):
    """``(name, line)`` for every name bound by a checked import statement."""
    statements = []
    for node in tree.body:
        statements.extend(node.body if _is_type_checking(node) else [node])
    for node in statements:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def unused_imports(source: str):
    """Names imported by ``source`` and never read or mentioned in a string."""
    tree = ast.parse(source)
    read = set()
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    text = "\n".join(strings)
    return [
        (name, line)
        for name, line in _imported_names(tree)
        if name not in read and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def test_the_scan_sees_plain_type_checking_and_string_uses():
    source = (
        "from typing import TYPE_CHECKING, List, Optional\n"
        "import os.path\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict, deque\n"
        "__all__ = ['json']\n"
        "def f(x: 'OrderedDict') -> Optional[int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [("List", 1), ("deque", 5)]


def test_no_module_has_unused_imports():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in _modules()
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
