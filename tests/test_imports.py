"""Every name a package module imports or defines is used in the package.

Two stdlib-only lints over the ``src/fsing/*.py`` modules except
``__init__.py`` (whose imports are its exports):

- every name bound by an import must be read somewhere in the module,
  in code or in a quoted annotation;
- every module-level function and class must be read by name in some
  module outside its own definition, and every method of a package class
  other than a dunder must be read as an attribute there, unless
  ``PUBLIC`` lists it with the reason it stays.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fsing"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Definitions no package module reads, each with the reason it stays.
PUBLIC = {
    "verify_split_witness": "replays a split witness; the planned report verifier calls it",
    "fpt_sample_poly": "threshold sample at one e for library callers; the package"
    " samples several e at once through _threshold_samples",
    "make": "Poly from a mapping with coefficients checked; perfbench/workloads.py"
    " builds the suite inputs with it",
}


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


def _attribute_reads(tree):
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _read_names(tree)
    unused = sorted(set(_imported_names(tree)) - used)
    assert unused == [], f"{path.name} imports {unused} without using them"


def test_no_dead_definitions():
    # unread definitions must be exactly the allowlist: a new dead one
    # fails, and so does an allowlisted name that is gone or now read
    definitions, reads, methods, attributes = [], {}, [], Counter()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes += _attribute_reads(tree)
        for k, node in enumerate(tree.body):
            reads[path.name, k] = _read_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.name, k, node.name))
            if isinstance(node, ast.ClassDef):
                methods += [
                    item for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    unread = {
        name
        for module, k, name in definitions
        if not any(name in names for key, names in reads.items() if key != (module, k))
    } | {
        method.name
        for method in methods
        if attributes[method.name] == _attribute_reads(method)[method.name]
    }
    assert sorted(unread) == sorted(PUBLIC), (
        f"unread definitions {sorted(unread - set(PUBLIC))} (delete them or list"
        f" them in PUBLIC); stale PUBLIC entries {sorted(set(PUBLIC) - unread)}"
    )
