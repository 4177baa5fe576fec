"""Finite-n to infinite-dimensional-limit sweeps.

Each sweep evaluates a finite-n quantity along a sequence of sizes n and
compares it against its closed-form limit:

* power sums of the scaled squared parameters against the limiting moments,
* spherical-function values at a one-dimensional test direction against the
  limiting positive-definite function Pi(omega, u),
* angular-density observables against their concentration value at
  theta = (pi/2, ..., pi/2).

Monte Carlo sweeps give each grid point its own derived master seed
(seed + 1000003 * point_index) so that changing the grid does not reshuffle
the randomness of the points that stay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from . import spherical
from .errors import DomainError, ShapeError
from .polya import OmegaParam, p_tilde, polya_eval
# spherical_series goes unused but stays: perfbench/tracer.py patches it here
# by name
from .spherical import DiagonalPoint, _weyl_density, spherical_series

if TYPE_CHECKING:
    import numpy as np


def __getattr__(name):
    # montecarlo loads numpy, so the sweeps import it where they sample;
    # mc_spherical stays readable here for code that patches or reads it
    if name == "mc_spherical":
        from . import montecarlo

        return montecarlo.mc_spherical
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SweepReport:
    """Values of one finite-n quantity along a size grid, with its limit.

    std_errors is None for deterministic sweeps, otherwise one standard
    error per grid point.
    """

    kind: str
    params: dict
    n_values: tuple[int, ...]
    values: tuple[float, ...]
    limit_value: float
    std_errors: tuple[float, ...] | None = None

    @property
    def abs_errors(self) -> tuple[float, ...]:
        return tuple(abs(v - self.limit_value) for v in self.values)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "n_values": list(self.n_values),
            "values": list(self.values),
            "limit_value": self.limit_value,
            "abs_errors": list(self.abs_errors),
            "std_errors": None if self.std_errors is None else list(self.std_errors),
        }


def _check_grid(n_values: Sequence[int], minimum: int) -> tuple[int, ...]:
    grid = tuple(int(n) for n in n_values)
    if not grid:
        raise DomainError("empty size grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("size grid must be strictly increasing")
    if grid[0] < minimum:
        raise DomainError(f"size grid must start at n >= {minimum}")
    return grid


def t_n_map(lam, n: int | None = None) -> OmegaParam:
    """Scaling map at size n: lam -> omega with alpha_j = (lam_j / n)^2 and
    no Gaussian part."""
    point = lam if isinstance(lam, DiagonalPoint) else DiagonalPoint(lam)
    size = point.dimension if n is None else int(n)
    if size != point.dimension:
        raise ShapeError(f"lam has {point.dimension} entries, expected {size}")
    if size == 0:
        raise DomainError("empty parameter vector")
    return OmegaParam([(v / size) ** 2 for v in point.values], 0.0)


def _min_size(omega: OmegaParam) -> int:
    # one entry per atom, plus at least one carrying the Gaussian part
    return max(len(omega.alpha) + (omega.gamma > 0.0), 1)


def lambda_sequence_for(omega: OmegaParam, n: int) -> tuple[float, ...]:
    """A size-n parameter vector whose image under t_n_map converges to
    omega: atoms alpha_j become entries n sqrt(alpha_j), and the Gaussian
    weight gamma is spread uniformly over the remaining n - k entries."""
    n = int(n)
    k = len(omega.alpha)
    need = _min_size(omega)
    if n < need:
        raise DomainError(f"need n >= {need} for this omega, got n = {n}")
    entries = [n * math.sqrt(a) for a in omega.alpha]
    rest = n - k
    if omega.gamma > 0.0:
        entries.extend([n * math.sqrt(omega.gamma / rest)] * rest)
    else:
        entries.extend([0.0] * rest)
    entries.sort(reverse=True)
    return tuple(entries)


def powersum_convergence(
    omega: OmegaParam, m: int, n_values: Sequence[int]
) -> SweepReport:
    """Power sums p_m of the scaled squared parameters along the grid,
    against the limiting moment (gamma + p_1 for m = 1, p_m otherwise)."""
    m = int(m)
    if m < 1:
        raise DomainError("power-sum degree must be >= 1")
    grid = _check_grid(n_values, _min_size(omega))
    limit = p_tilde(omega, m)
    values = []
    for n in grid:
        lam = lambda_sequence_for(omega, n)
        values.append(math.fsum((v / n) ** (2 * m) for v in lam))
    return SweepReport(
        kind="powersum_convergence",
        params={"omega": omega.to_json(), "m": m},
        n_values=grid,
        values=tuple(values),
        limit_value=limit,
    )


def spherical_convergence(
    omega: OmegaParam,
    u: float,
    n_values: Sequence[int],
    method: str = "series",
    n_samples: int = 100_000,
    seed: int = 0,
) -> SweepReport:
    """Finite-n spherical values at the one-dimensional direction
    (u, 0, ..., 0), with parameters lambda_sequence_for(omega, n), against
    the limit Pi(omega, u).

    method "series" is deterministic; "mc" uses the Haar sampler with an
    independent derived seed per grid point and reports standard errors.
    """
    u = float(u)
    if not math.isfinite(u):
        raise DomainError("u must be finite")
    if method not in ("series", "mc"):
        raise DomainError(f"unknown method {method!r}")
    grid = _check_grid(n_values, _min_size(omega))
    limit = polya_eval(omega, u)
    values: list[float] = []
    std_errors: list[float] = []
    for i, n in enumerate(grid):
        lam = lambda_sequence_for(omega, n)
        if method == "series":
            # lam is canonical, and so is (|u|,): the zero entries of xi add
            # nothing to the series.  Looked up on the module at call time, so
            # a patched _schur_fourier_series is the one called.
            r = spherical._schur_fourier_series(lam, (abs(u),), True, spherical._REL_TOL)
            values.append(r.value)
        else:
            from . import montecarlo

            xi = (u,) + (0.0,) * (n - 1)
            est = montecarlo.mc_spherical(lam, xi, n_samples, seed + 1000003 * i)
            values.append(est.mean)
            std_errors.append(est.std_error)
    params: dict = {"omega": omega.to_json(), "u": u, "method": method}
    if method == "mc":
        params["n_samples"] = int(n_samples)
        params["seed"] = int(seed)
    return SweepReport(
        kind="spherical_convergence",
        params=params,
        n_values=grid,
        values=tuple(values),
        limit_value=limit,
        std_errors=tuple(std_errors) if method == "mc" else None,
    )


def _mean_cos_sq(theta: np.ndarray) -> float:
    import numpy as np

    c = np.cos(theta)
    return float(np.mean(c * c))


# nodes of the m = 1 rule: exact for polynomials in sin t up to degree 95
_WEYL_NODES = 48


def _weyl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-angles d_k = arccos(y_k) and weights w_k of the Gauss rule for
    y^(2n-3) on [0, 1], by Golub-Welsch on I - J, J the Jacobi matrix
    (alpha = 0, beta = 2n - 3) in x = 2y - 1.  The eigenvalues of I - J,
    2(1 - y_k), are small where the weight concentrates and come out with
    relative accuracy, where those of J would lose it to cancellation."""
    import numpy as np

    b = 2.0 * n - 3.0
    k = np.arange(_WEYL_NODES, dtype=float)
    s = 2.0 * k + b
    diag = (4.0 * k * (k + b + 1.0) + 2.0 * b) / s / (s + 2.0)
    k, s = k[1:], s[1:]
    off = 2.0 * k * (k + b) / s / np.sqrt((s - 1.0) * (s + 1.0))
    z, vecs = np.linalg.eigh(np.diag(diag) - np.diag(off, 1) - np.diag(off, -1))
    # arccos(1 - u) = 2 arcsin(sqrt(u / 2)), with u = z / 2 = 1 - y
    return 2.0 * np.arcsin(np.sqrt(z) / 2.0), vecs[0] ** 2


def weyl_concentration_sweep(
    m: int,
    n_values: Sequence[int],
    observable: Callable[[np.ndarray], float] | None = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> SweepReport:
    """Expectation of an angular observable under the (m, n) density along
    the grid, against its value at the concentration point (pi/2, ..., pi/2).

    m = 1 is deterministic, with no standard errors.  With y = sin t, and
    [pi/2, pi] folded onto [0, pi/2] by t -> pi - t, the density is
    2 y^(2n-3) dy on [0, 1].  A fixed 48-node Gauss-Jacobi rule for that
    weight gives the value as sum_k w_k (f(t_k) + f(pi - t_k)) / 2 over
    sum_k w_k.  It is exact for polynomials in sin t up to degree 95 (so
    the default observable gives 1/n), accurate to rounding for smooth
    observables at every n, and a constant observable is exact.  At a
    kink it is not: |t - 1| is about 1e-4 off at n <= 10.
    m >= 2 uses self-normalized importance sampling from the uniform
    proposal on [0, pi]^m, one derived seed per grid point.
    """
    import numpy as np

    m = int(m)
    if m < 1:
        raise DomainError("m must be >= 1")
    grid = _check_grid(n_values, 2 * m)
    obs = _mean_cos_sq if observable is None else observable
    limit = float(obs(np.full(m, math.pi / 2.0)))
    if m >= 2:
        from . import montecarlo

        n_samples = montecarlo._check_samples(n_samples)
    values: list[float] = []
    std_errors: list[float] = []
    for i, n in enumerate(grid):
        if m == 1:
            half, w = _weyl_rule(n)
            f = lambda t: float(obs(np.array([t])))
            folded = np.array([f(math.pi / 2.0 - d) + f(math.pi / 2.0 + d) for d in half])
            values.append(math.fsum(w * folded) / (2.0 * math.fsum(w)))
        else:
            w_blocks: list[np.ndarray] = []
            f_blocks: list[np.ndarray] = []
            for b, take in montecarlo._blocks(n_samples):
                stream = montecarlo.RngStream(seed + 1000003 * i, b)
                th = stream.uniforms((take, m)) * math.pi
                w_blocks.append(_weyl_density(m, n, th))
                f_blocks.append(np.array([float(obs(row)) for row in th]))
            w_sum = math.fsum(float(np.sum(w)) for w in w_blocks)
            wf_sum = math.fsum(
                float(np.sum(w * f)) for w, f in zip(w_blocks, f_blocks)
            )
            est = wf_sum / w_sum
            var = math.fsum(
                float(np.sum((w / w_sum) ** 2 * (f - est) ** 2))
                for w, f in zip(w_blocks, f_blocks)
            )
            values.append(est)
            std_errors.append(math.sqrt(var))
    params: dict = {
        "m": m,
        "observable": "mean_cos_sq" if observable is None else "custom",
    }
    if m >= 2:
        params["n_samples"] = n_samples
        params["seed"] = int(seed)
    return SweepReport(
        kind="weyl_concentration",
        params=params,
        n_values=grid,
        values=tuple(values),
        limit_value=limit,
        std_errors=tuple(std_errors) if m >= 2 else None,
    )
