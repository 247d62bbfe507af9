"""Every name a package module imports or defines is used in the package,
the package exports exactly what its ``__init__.py`` imports, and the CLI
starts without the standard library's code-generation modules.

Two stdlib-only lints over the ``src/fsing/*.py`` modules except
``__init__.py`` (whose imports are its exports):

- every name bound by an import must be read somewhere in the module,
  in code or in a quoted annotation;
- every module-level function and class must be read by name in some
  module outside its own definition, and every method of a package class
  other than a dunder must be read as an attribute there, unless
  ``PUBLIC`` lists it with the reason it stays.

A cold-import check runs ``import fsing.cli`` in a fresh ``python -I -S``
and lists the modules it loaded.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fsing"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

# Definitions no package module reads, each with the reason it stays.
PUBLIC = {
    "fpt_sample_poly": "threshold sample at one e for library callers; the package"
    " samples several e at once through _threshold_samples",
    "make": "Poly from a mapping with coefficients checked; perfbench/workloads.py"
    " builds the suite inputs with it",
}


# Modules a cold CLI start must not load: dataclasses pulls in the next
# four, and on its own costs about as much as the rest of the CLI import;
# typing costs about two thirds of that.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


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


def test_all_lists_exactly_the_imports():
    # __all__ and the imports of __init__.py are two lists of one export set
    import fsing

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(fsing.__all__) == sorted([*_imported_names(tree), "__version__"])


def test_cold_cli_import_loads_no_code_generator():
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import fsing.cli; "
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]", f"import fsing.cli loads {done.stdout.strip()}"


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
