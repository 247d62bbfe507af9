"""The self-checks of certified results must survive ``python -O``.

``-O`` strips every ``assert``, so a certification check written as one
silently stops checking.  This module reruns the field arithmetic, kernel,
factorization, certificate, invariant and pipeline tests in an optimized
interpreter; it lives in its own file so that the child run never
collects it again.
"""

import os
import subprocess
import sys

import fsing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(fsing.__file__)))


def test_field_frobenius_and_poly_tests_pass_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_field.py", "tests/test_frobenius.py", "tests/test_poly.py",
         "tests/test_invariants.py", "tests/test_pipeline.py", "tests/test_structure.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
