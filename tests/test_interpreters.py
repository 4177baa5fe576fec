"""Evaluations keep their bits across the CPython versions the package
supports (requires-python >= 3.10): the rank-one sweeps, the Schur series
and both determinant routes.

They sum their floats with compensated loops and math.fsum, never with the
builtin sum(), whose float summation CPython compensates from 3.12 on.
Each pyenv CPython 3.10 to 3.13 that is installed computes one digest of a
fixed set of sweeps, series results and determinant results, which must
equal the digest of the interpreter running the tests; a version that is
not installed is skipped.
"""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# sweep values, series results (value, bound, terms) at one to four rows, and
# determinant results: the Bessel route at separated points (n = 2..6) and
# the Newton-basis route at coincident ones, or the error with its partial
# value; no numpy is needed
DIGEST = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from spherica import (
    ConvergenceError, OmegaParam, RangeError, orbital_integral, spherical_convergence,
    spherical_eval, spherical_series,
)

def outcome(call):
    try:
        return call()
    except ConvergenceError as e:
        return type(e).__name__, str(e), e.partial, e.abs_error
    except RangeError as e:
        return type(e).__name__, str(e)

sweeps = [
    (OmegaParam([0.5, 0.2], 0.3), 1.3, (10, 100, 1000, 10**5)),
    (OmegaParam([], 1.0), 0.7, (1, 4, 16, 64)),
    (OmegaParam([0.25], 0.75), -2.5, (2, 4, 9)),
    (OmegaParam([0.7762109494982836, 0.4173682715753764], 0.0), 1.8953577607142993, (975,)),
    (OmegaParam([4.0], 0.0), 30.0, (50,)),
]
points = [
    ((2.0,), (0.5,)),
    ((1.0, 1.0), (0.5, 0.5)),
    ((1.0, 1.0, 2.0), (0.7, 1.3, 0.2)),
    ((1.5, 1.5, 0.5, 0.5), (0.8, 0.8, 0.3, 0.6)),
    ((30.0, 0.0), (30.0, 29.0)),
    ((14.0, 14.0), (14.0, 13.0)),
]
separated = [
    ((1.0, 2.0), (0.5, 1.5)),
    ((0.4, 1.1, 2.3), (0.3, 0.9, 1.7)),
    ((1.8, 1.3, 0.8, 0.3), (1.6, 1.0, 0.6, 0.2)),
    ((2.9, 2.2, 1.6, 0.9, 0.4), (2.1, 1.7, 1.2, 0.8, 0.1)),
    ((3.1, 2.6, 2.0, 1.4, 0.9, 0.3), (2.4, 2.0, 1.5, 1.1, 0.7, 0.2)),
]
coincident = [
    ((1.0, 1.0), (0.5, 1.5)),
    ((2.0, 2.0, 0.5), (1.0, 0.7, 0.7)),
    ((1.5, 1.5, 0.5, 0.5), (0.8, 0.8, 0.3, 0.6)),
    ((1.0, 2.0, 3.0, 4.0, 5.0), (1.0,) * 5),
    ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (1.0,) * 6),  # ConvergenceError on both kernels
]
out = [outcome(lambda: spherical_convergence(om, u, grid).values) for om, u, grid in sweeps]
for x, xi in points:
    out.append(outcome(lambda: spherical_series(x, xi)))
for x, xi in separated + coincident:
    out += [outcome(lambda: f(x, xi)) for f in (spherical_eval, orbital_integral)]
print(hashlib.sha256(repr(out).encode()).hexdigest())
"""


@functools.lru_cache(maxsize=None)
def _digest(python: str) -> str:
    done = subprocess.run(
        [python, "-I", "-B", "-c", DIGEST, SRC], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _pyenv_python(minor: int) -> Path | None:
    """The newest pyenv CPython 3.<minor>.<patch>, or None."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    if root.is_dir():
        for d in root.iterdir():
            m = re.fullmatch(rf"3\.{minor}\.(\d+)", d.name)
            if m and (d / "bin" / "python3").is_file():
                found.append((int(m.group(1)), d / "bin" / "python3"))
    return max(found)[1] if found else None


@pytest.mark.parametrize("minor", [10, 11, 12, 13], ids=lambda m: f"3.{m}")
def test_sweep_and_series_bits_agree_across_interpreters(minor):
    python = _pyenv_python(minor)
    if python is None:
        pytest.skip(f"no pyenv CPython 3.{minor} installed")
    assert _digest(str(python)) == _digest(sys.executable)
