"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def cli_subprocess():
    """Run `python -m spherica.cli ARGV` in a fresh interpreter, with every
    BLAS thread-count variable set to ``threads`` and this checkout's src/
    first on PYTHONPATH."""

    def run(argv, threads):
        env = dict(os.environ)
        for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = threads
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-m", "spherica.cli", *argv],
            capture_output=True,
            env=env,
            timeout=600,
        )

    return run
