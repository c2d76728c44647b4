"""The decision layer never imports the adversary layer.

``repro.adversary`` hunts for assignments that defeat a decider and is
built on ``repro.decision`` (its verdict rule, counter-examples and
instance families); the dependency runs one way only.  Every module under
``src/repro/decision/`` is parsed with :mod:`ast`, and each import
statement anywhere in it (function-local imports included), with relative
imports resolved against the module's package, must name no module in
``repro.adversary``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LOWER = "repro.decision"
UPPER = "repro.adversary"


def imported_modules(source: str, package: str):
    """``(module, line)`` for every module an import statement in ``source`` names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            yield module, node.lineno
            # ``from .. import adversary`` names the package through its alias.
            for alias in node.names:
                yield f"{module}.{alias.name}", node.lineno


def _violations(source: str, package: str):
    return [
        (module, line)
        for module, line in imported_modules(source, package)
        if module == UPPER or module.startswith(UPPER + ".")
    ]


def test_the_scan_resolves_relative_and_local_imports():
    source = (
        "import os\n"
        "from .property import Property\n"
        "def f():\n"
        "    from ..adversary.search import find_counterexample\n"
        "from .. import adversary\n"
        "import repro.adversary.shrink\n"
    )
    assert set(_violations(source, "repro.decision")) == {
        ("repro.adversary.search", 4),
        ("repro.adversary.search.find_counterexample", 4),
        ("repro.adversary", 5),
        ("repro.adversary.shrink", 6),
    }


def test_decision_modules_do_not_import_the_adversary():
    root = SRC / Path(*LOWER.split("."))
    modules = sorted(root.rglob("*.py"))
    assert modules
    offenders = []
    for path in modules:
        # A relative import resolves against the module's package, which for
        # ``pkg/__init__.py`` and ``pkg/mod.py`` alike is ``pkg``.
        package = ".".join(path.relative_to(SRC).parts[:-1])
        for module, line in _violations(path.read_text(), package):
            offenders.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert not offenders, "decision imports the adversary layer:\n" + "\n".join(offenders)
