"""Shared launcher for the command-line tests.

Every test that starts ``python -m pospres`` goes through the ``run_cli``
fixture, and any other child Python through ``run_python``.  The child runs
in ``tests/`` (the argv uses relative ``data/...`` paths) and imports this
checkout's ``src/``: its ``PYTHONPATH`` starts with the absolute source
directory, followed by whatever the caller had set.  So the child runs the
same code as the in-process tests, whether or not a copy of ``pospres`` is
installed, and whatever directory pytest was started from.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
_IMPORT_FAILURE = re.compile(r"No module named '?pospres")


def _python(*args, text=True):
    """Run ``python *args`` in ``tests/`` against the checkout.

    ``text=False`` keeps stdout as bytes for byte-exact comparisons.  A child
    that cannot import the package fails the test here: its exit code 1
    would otherwise read as the documented "refuted" code.
    """
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cp = subprocess.run([sys.executable, *args],
                        capture_output=True, text=text, cwd=TESTS, env=env)
    stderr = cp.stderr if text else cp.stderr.decode(errors="replace")
    if _IMPORT_FAILURE.search(stderr):
        pytest.fail(f"child process could not import pospres from {SRC}:\n"
                    f"{stderr}", pytrace=False)
    return cp


def _launch(*args, text=True):
    """Run ``python -m pospres *args`` in ``tests/`` against the checkout."""
    return _python("-m", "pospres", *args, text=text)


@pytest.fixture
def run_cli():
    return _launch


@pytest.fixture
def run_python():
    return _python
