"""Finite-n to infinite-dimensional-limit sweeps.

Each sweep evaluates a finite-n quantity along a sequence of sizes n and
compares it against its closed-form limit:

* power sums of the scaled squared parameters against the limiting moments,
* spherical-function values at a one-dimensional test direction against the
  limiting positive-definite function Pi(omega, u),
* the mean of cos^2 over the angles under the Weyl angular density against
  its value at the concentration point theta = (pi/2, ..., pi/2), by one
  Gauss rule at every number of angles.

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
from .spherical import _EPS, DiagonalPoint, spherical_series


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
    point = lam if isinstance(lam, DiagonalPoint) else DiagonalPoint(lam)
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


def lambda_sequence_for(omega: OmegaParam, n: int) -> tuple[float, ...]:
    """A size-n parameter vector whose image under t_n_map converges to
    omega: atoms alpha_j become entries n sqrt(alpha_j), and the Gaussian
    weight gamma is spread uniformly over the remaining n - k entries."""
    n = _integer(n, "n", _min_size(omega))
    k = len(omega.alpha)
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


# nodes of the sweep's rule: exact for polynomials in sin t up to degree 95
_WEYL_NODES = 48
# the integrand (1 - y^2) K_m(y^2, y^2) has degree 4m - 2 in y
_WEYL_MAX_M = (2 * _WEYL_NODES + 1) // 4


def _jacobi_rows(b: float, count: int) -> tuple[list[float], list[float]]:
    """Rows of I - J, J the Jacobi matrix of the weight (1 + s)^b on [-1, 1]
    (alpha = 0, beta = b >= 0): the diagonal d_0..d_{count-1} and the
    couplings e_0..e_{count-2}, e_k between rows k and k + 1."""
    d, e = [2.0 / (b + 2.0)], []
    for k in range(1, count):
        s = 2.0 * k + b
        d.append((4.0 * k * (k + b + 1.0) + 2.0 * b) / s / (s + 2.0))
        e.append(2.0 * k * (k + b) / s / math.sqrt((s - 1.0) * (s + 1.0)))
    return d, e


def _weyl_rule(n: int) -> tuple[list[float], list[float]]:
    """Half-angles d_k = arccos(y_k), ascending, and weights w_k of the Gauss
    rule for y^(2n-3) on [0, 1], by Golub-Welsch on I - J, J the Jacobi
    matrix (alpha = 0, beta = 2n - 3) in x = 2y - 1.  The eigenvalues of
    I - J, 2(1 - y_k), are small where the weight concentrates, and implicit
    QL with a deflation test relative to the neighbouring diagonal keeps them
    to about 1e-13 relative, where those of J would lose it to cancellation.
    Only the first row of the eigenvectors is rotated: its squares are the
    weights."""
    d, e = _jacobi_rows(2.0 * n - 3.0, _WEYL_NODES)
    e.append(0.0)
    z = [1.0] + [0.0] * (_WEYL_NODES - 1)
    # implicit QL with Wilkinson's shift (tqli); e[i] couples rows i and i + 1
    for lo in range(_WEYL_NODES):
        while True:
            m = lo
            while m < _WEYL_NODES - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == lo:
                break
            g = (d[lo + 1] - d[lo]) / (2.0 * e[lo])
            g = d[m] - d[lo] + e[lo] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, lo - 1, -1):
                f, h = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
                z[i], z[i + 1] = c * z[i] - s * z[i + 1], s * z[i] + c * z[i + 1]
            d[lo] -= p
            e[lo], e[m] = g, 0.0
    # arccos(1 - u) = 2 arcsin(sqrt(u / 2)), with u = d_k / 2 = 1 - y_k
    rule = sorted(zip(d, z))
    return [2.0 * math.asin(math.sqrt(v) / 2.0) for v, _ in rule], [q * q for _, q in rule]


def weyl_concentration_sweep(m: int, n_values: Sequence[int]) -> SweepReport:
    """E[mean of cos^2 over the m angles] under the (m, n) angular density
    along the grid, against its value at the concentration point
    (pi/2, ..., pi/2); the expectation is m/n (Aomoto).

    With x = sin^2 t the density is the beta = 2 Jacobi ensemble
    prod_{i<j} (x_i - x_j)^2 prod_i x_i^(n-2m) on [0, 1]^m, whose one-point
    density is K_m(x, x) x^(n-2m) / m, K_m = sum_{k<m} p_k^2 over the
    orthonormal polynomials of that weight (Christoffel-Darboux).  So the
    value is the integral of (1 - x) K_m(x, x) x^(n-2m) over that of
    K_m(x, x) x^(n-2m).  In y = sin t the weight is 2 y^(2(n-2m)+1) dy, the
    rule of _weyl_rule(n - 2m + 2), on whose 48 nodes the integrand has
    degree 4m - 2: exact for m <= 24, and larger m raise DomainError.  At
    each node u = 1 - s = 2 sin^2 d (s = 2x - 1, d the half-angle) and
    p_{k+1} = ((d_k - u) p_k - e_{k-1} p_{k-1}) / e_k from the rows of
    I - J, which keeps the small differences s - alpha_k accurate where the
    weight concentrates; the value is sum w K u / (2 sum w K).  At m = 1,
    K = 1.  Deterministic at every m, with no standard errors, and no
    numpy.
    """
    m = _integer(m, "m")
    if not 1 <= m <= _WEYL_MAX_M:
        raise DomainError(f"m must lie in 1..{_WEYL_MAX_M}")
    grid = _check_grid(n_values, 2 * m)
    c = math.cos(math.pi / 2.0)
    values: list[float] = []
    for n in grid:
        half, w = _weyl_rule(n - 2 * m + 2)
        d, e = _jacobi_rows(float(n - 2 * m), m)
        wk, wku = [], []
        for h, wt in zip(half, w):
            # cos^2 t = sin^2 h at both t = pi/2 -+ h
            u = 2.0 * math.sin(h) ** 2
            p_prev, p, e_prev, kern = 0.0, 1.0, 0.0, 1.0
            for dk, ek in zip(d, e):
                p_prev, p = p, ((dk - u) * p - e_prev * p_prev) / ek
                e_prev = ek
                kern += p * p
            wk.append(wt * kern)
            wku.append(wt * kern * u)
        values.append(math.fsum(wku) / (2.0 * math.fsum(wk)))
    return SweepReport(
        kind="weyl_concentration",
        params={"m": m, "observable": "mean_cos_sq"},
        n_values=grid,
        values=tuple(values),
        limit_value=c * c,
    )
