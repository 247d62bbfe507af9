"""The repository's stdlib tools."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """Function docstring."""
    # a comment line

    y = (x +
         1)
    return """not a docstring
""" + os.sep


class C:
    """Class docstring."""

    z = 1
'''
# import, def, the two lines of y, the two of the return, class, z
FIXTURE_LINES = 8


def test_loc_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "loc.py"), str(path)],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert [line.split()[0] for line in out] == [str(FIXTURE_LINES)] * 2
    assert out[-1].split()[1] == "total"
