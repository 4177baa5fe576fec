"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(args, threads=None):
    env = dict(os.environ)
    if threads is not None:
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=600
    )


@pytest.fixture
def python_subprocess():
    """Run `python ARGS` in a fresh interpreter with this checkout's src/
    first on PYTHONPATH."""
    return _python


@pytest.fixture
def cli_subprocess():
    """Run `python -m spherica.cli ARGV` in a fresh interpreter, with every
    BLAS thread-count variable set to ``threads`` and this checkout's src/
    first on PYTHONPATH."""
    return lambda argv, threads: _python(["-m", "spherica.cli", *argv], threads)
