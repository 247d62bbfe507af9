"""Every name a package module imports is used in that module.

A stdlib-only lint: each ``src/fsing/*.py`` module except ``__init__.py``
(whose imports are its exports) is parsed, and every name bound by an
import must be read somewhere in the module, in code or in a quoted
annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fsing"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Field"
                names |= _read_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports {unused} without using them"
