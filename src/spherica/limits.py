"""Finite-n to infinite-dimensional-limit sweeps.

Each sweep evaluates a finite-n quantity along a sequence of sizes n and
compares it against its closed-form limit:

* power sums of the scaled squared parameters against the limiting moments,
* spherical-function values at a one-dimensional test direction against the
  limiting positive-definite function Pi(omega, u),
* the mean of cos^2 over the angles under the Weyl angular density against
  its value at the concentration point theta = (pi/2, ..., pi/2), in closed
  form by Aomoto's integral.

The Monte Carlo spherical sweep gives each grid point its own derived master
seed (seed + 1000003 * point_index) so that changing the grid does not
reshuffle the randomness of the points that stay.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import spherical
from ._record import record
from .errors import DomainError, RangeError, ShapeError, _integer
from .polya import OmegaParam, p_tilde, polya_eval
# spherical_series goes unused but stays: perfbench/tracer.py patches it here
# by name
from .spherical import spherical_series


def __getattr__(name):
    # montecarlo loads numpy, so the sweeps import it where they sample;
    # mc_spherical stays readable here for code that patches or reads it
    if name == "mc_spherical":
        from . import montecarlo

        return montecarlo.mc_spherical
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@record
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
    grid = tuple(_integer(n, "size grid entry n", minimum) for n in n_values)
    if not grid:
        raise DomainError("empty size grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("size grid must be strictly increasing")
    return grid


def t_n_map(lam, n: int | None = None) -> OmegaParam:
    """Scaling map at size n: lam -> omega with alpha_j = (lam_j / n)^2 and
    no Gaussian part; RangeError where an alpha_j leaves double range."""
    point = spherical._as_point(lam)
    size = point.dimension if n is None else _integer(n, "n")
    if size != point.dimension:
        raise ShapeError(f"lam has {point.dimension} entries, expected {size}")
    if size == 0:
        raise DomainError("empty parameter vector")
    try:
        alpha = [(v / size) ** 2 for v in point.values]
    except OverflowError:
        raise RangeError("t_n_map: (lam_j / n)^2 exceeds double range") from None
    return OmegaParam(alpha, 0.0)


def _min_size(omega: OmegaParam) -> int:
    # one entry per atom, plus at least one carrying the Gaussian part
    return max(len(omega.alpha) + (omega.gamma > 0.0), 1)


def _lambda_runs(omega: OmegaParam, n: int) -> list[tuple[float, int]]:
    """The runs (value, multiplicity) of the nonzero entries of
    lambda_sequence_for(omega, n), in decreasing order, equal values
    merged, as symfunc._runs returns them: O(len(alpha) + 1), whatever the
    size n, which must be at least _min_size(omega)."""
    k = len(omega.alpha)
    entries = [(n * math.sqrt(a), 1) for a in omega.alpha]
    if omega.gamma > 0.0:
        entries.append((n * math.sqrt(omega.gamma / (n - k)), n - k))
    runs: list[tuple[float, int]] = []
    for v, m in sorted(entries, reverse=True):
        if runs and runs[-1][0] == v:
            runs[-1] = (v, runs[-1][1] + m)
        elif v:
            runs.append((v, m))
    return runs


def lambda_sequence_for(omega: OmegaParam, n: int) -> tuple[float, ...]:
    """A size-n parameter vector whose image under t_n_map converges to
    omega: atoms alpha_j become entries n sqrt(alpha_j), and the Gaussian
    weight gamma is spread uniformly over the remaining n - k entries, in
    decreasing order.  The entries are the runs of _lambda_runs, padded
    with zeros to size n; building them costs O(n)."""
    n = _integer(n, "n", _min_size(omega))
    entries: list[float] = []
    for v, m in _lambda_runs(omega, n):
        entries += [v] * m
    return tuple(entries + [0.0] * (n - len(entries)))


def powersum_convergence(
    omega: OmegaParam, m: int, n_values: Sequence[int]
) -> SweepReport:
    """Power sums p_m of the scaled squared parameters along the grid,
    against the limiting moment (gamma + p_1 for m = 1, p_m otherwise).
    RangeError where a power sum leaves double range."""
    m = _integer(m, "m", 1)
    grid = _check_grid(n_values, _min_size(omega))
    limit = p_tilde(omega, m)
    values = []
    for n in grid:
        lam = lambda_sequence_for(omega, n)
        try:
            values.append(math.fsum((v / n) ** (2 * m) for v in lam))
        except OverflowError:
            raise RangeError(f"power sum at n = {n} exceeds double range") from None
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

    method "series" is deterministic and costs O(len(alpha) + 1) per grid
    point, whatever n: it hands the runs of _lambda_runs and of (|u|,) to
    the one-row series without building the size-n vectors, with the bits
    spherical_series gives at them.  "mc" uses the Haar sampler with an
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
    # the zero entries of xi = (u, 0, ..., 0) add nothing to the series
    u_runs = [(abs(u), 1)] if u else []
    for i, n in enumerate(grid):
        if method == "series":
            # Looked up on the module at call time, so a patched
            # _schur_fourier_series is the one called.
            r = spherical._schur_fourier_series(
                n, _lambda_runs(omega, n), u_runs, True, spherical._REL_TOL
            )
            values.append(r.value)
        else:
            from . import montecarlo

            lam = lambda_sequence_for(omega, n)
            xi = (u,) + (0.0,) * (n - 1)
            est = montecarlo.mc_spherical(lam, xi, n_samples, seed + 1000003 * i)
            values.append(est.mean)
            std_errors.append(est.std_error)
    params: dict = {"omega": omega.to_json(), "u": u, "method": method}
    if method == "mc":
        params["n_samples"] = _integer(n_samples, "n_samples")
        params["seed"] = _integer(seed, "seed")
    return SweepReport(
        kind="spherical_convergence",
        params=params,
        n_values=grid,
        values=tuple(values),
        limit_value=limit,
        std_errors=tuple(std_errors) if method == "mc" else None,
    )


def weyl_concentration_sweep(m: int, n_values: Sequence[int]) -> SweepReport:
    """E[mean of cos^2 over the m angles] under the (m, n) angular density
    along the grid, against its value at the concentration point
    (pi/2, ..., pi/2).

    With x = sin^2 t the density is the Selberg (beta = 2 Jacobi) ensemble
    prod_{i<j} (x_i - x_j)^2 prod_i x_i^(n-2m) on [0, 1]^m, parameters
    alpha = n - 2m + 1 and beta = gamma = 1, and Aomoto's integral
    (K. Aomoto, SIAM J. Math. Anal. 18 (1987) 545) gives E[x_1] =
    (n - m)/n.  So E[mean cos^2] = 1 - E[x_1] = m/n at every grid point,
    correctly rounded, at every m >= 1; deterministic, with no standard
    errors.
    """
    m = _integer(m, "m", 1)
    grid = _check_grid(n_values, 2 * m)
    c = math.cos(math.pi / 2.0)
    return SweepReport(
        kind="weyl_concentration",
        params={"m": m, "observable": "mean_cos_sq"},
        n_values=grid,
        values=tuple(m / n for n in grid),
        limit_value=c * c,
    )
