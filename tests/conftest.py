"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import ctflex


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter that imports ctflex from this
    tree and return what it prints: which modules an import or a command
    loads shows only where nothing has loaded them yet."""
    src = os.path.dirname(os.path.dirname(ctflex.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # C's stdout stays buffered, as it is by default when not a terminal
    env.pop("PYTHONUNBUFFERED", None)

    def run(code: str) -> str:
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run
