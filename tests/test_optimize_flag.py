"""The self-checks of certified results must survive ``python -O``.

``-O`` strips every ``assert``, so a certification check written as one
silently stops checking.  This module reruns every other test module of
this directory in an optimized interpreter, so a new module cannot miss
the run; it lives in its own file so that the child run never collects
it again.
"""

import glob
import os
import subprocess
import sys

import fsing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fsing.__file__)))


def test_every_test_module_passes_under_python_O():
    modules = sorted(
        os.path.relpath(path, ROOT)
        for path in glob.glob(os.path.join(HERE, "test_*.py"))
        if os.path.basename(path) != os.path.basename(__file__)
    )
    assert "tests/test_acceptance.py" in modules
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *modules],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
