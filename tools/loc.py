"""Count the code lines of Python modules: no docstrings, comments or blanks.

A line counts when it holds a token other than a comment, a newline or an
indentation change, and no docstring covers it.  A docstring is the first
statement of a module, class or function when that statement is a string
constant.

Usage: python3 tools/loc.py [PATH ...]

Each PATH is a module or a directory whose ``*.py`` files are counted (not
recursively).  The default is ``src/fsing`` next to this script.  Prints one
line per module and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "fsing"


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold code outside docstrings."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv) -> int:
    paths = [Path(a) for a in argv] or [DEFAULT]
    files = []
    for path in paths:
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
