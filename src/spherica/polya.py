"""Limit objects: modified Polya products and their parameter space.

A parameter point omega = (alpha, gamma) has a weakly decreasing nonnegative
atom vector alpha (square-summable here: always finite) and a Gaussian weight
gamma >= 0.  The associated even positive-definite function of one real
variable is

    Pi(omega, u) = exp(-gamma u^2/4) * prod_j 1 / (1 + alpha_j u^2/4),

and products of Pi over the entries of a vector are exactly the limits of the
finite-dimensional spherical functions along the rescaled sequences built in
:mod:`spherica.limits`.

At a square matrix X the product over its singular values s_j depends on X
only through X*X (a runs over the atoms):

    prod_j Pi(omega, s_j) = exp(-gamma |X|_F^2/4) / prod_a det(I + (a/4) X*X),

so phi_omega_matrix takes neither an SVD nor numpy (_det_i_plus_gram).
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Sequence

from ._record import record
from .errors import DomainError, RangeError, ShapeError, ValidationError, _integer
from .symfunc import Partition, _jacobi_trudi_det, newton_h_from_p

_WEIGHT_TOL = 1e-12


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


@record
class OmegaParam:
    """Canonical limit parameter: atoms sorted decreasing, zeros trimmed."""

    alpha: tuple[float, ...]
    gamma: float

    def __init__(self, alpha: Sequence[float] = (), gamma: float = 0.0):
        atoms = []
        for a in alpha:
            f = float(a)
            if not math.isfinite(f) or f < 0.0:
                raise ValidationError(f"alpha entries must be finite and >= 0: {a!r}")
            if f > 0.0:
                atoms.append(f)
        atoms.sort(reverse=True)
        g = float(gamma)
        if not math.isfinite(g) or g < 0.0:
            raise ValidationError(f"gamma must be finite and >= 0: {gamma!r}")
        object.__setattr__(self, "alpha", tuple(atoms))
        object.__setattr__(self, "gamma", g)

    def to_json(self) -> dict:
        return {"alpha": list(self.alpha), "gamma": self.gamma}

    @classmethod
    def from_json(cls, obj) -> "OmegaParam":
        if not isinstance(obj, dict) or set(obj) - {"alpha", "gamma"}:
            raise ValidationError(
                'omega must be an object with keys "alpha" and "gamma"'
            )
        alpha = obj.get("alpha", [])
        gamma = obj.get("gamma", 0.0)
        if not isinstance(alpha, (list, tuple)) or not all(
            isinstance(a, (int, float)) and not isinstance(a, bool) for a in alpha
        ):
            raise ValidationError('"alpha" must be a list of numbers')
        if not isinstance(gamma, (int, float)) or isinstance(gamma, bool):
            raise ValidationError('"gamma" must be a number')
        return cls(alpha, gamma)

    @classmethod
    def from_file(cls, path) -> "OmegaParam":
        return cls.from_json(_read_json(path))


@record
class MixtureParam:
    """Finite convex combination of limit parameters."""

    components: tuple[tuple[float, OmegaParam], ...]

    def __init__(self, components: Sequence[tuple[float, OmegaParam]]):
        comps = []
        for w, om in components:
            f = float(w)
            if not math.isfinite(f) or f <= 0.0:
                raise ValidationError(f"mixture weights must be positive: {w!r}")
            if not isinstance(om, OmegaParam):
                raise ValidationError("mixture components must pair weight and omega")
            comps.append((f, om))
        if not comps:
            raise ValidationError("mixture needs at least one component")
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValidationError(f"mixture weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", tuple(comps))

    def to_json(self) -> dict:
        return {
            "components": [
                {"weight": w, "omega": om.to_json()} for w, om in self.components
            ]
        }

    @classmethod
    def from_json(cls, obj) -> "MixtureParam":
        if not isinstance(obj, dict) or set(obj) != {"components"}:
            raise ValidationError('mixture must be an object with key "components"')
        comps = obj["components"]
        if not isinstance(comps, list) or not comps:
            raise ValidationError('"components" must be a non-empty list')
        parsed = []
        for entry in comps:
            if not isinstance(entry, dict) or set(entry) != {"weight", "omega"}:
                raise ValidationError(
                    'each component must have keys "weight" and "omega"'
                )
            w = entry["weight"]
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                raise ValidationError('"weight" must be a number')
            parsed.append((float(w), OmegaParam.from_json(entry["omega"])))
        return cls(parsed)

    @classmethod
    def from_file(cls, path) -> "MixtureParam":
        return cls.from_json(_read_json(path))


def polya_eval(omega: OmegaParam, u: float) -> float:
    """Pi(omega, u) = e^{-gamma u^2/4} prod_j 1/(1 + alpha_j u^2/4).

    Where u^2/4 leaves double range the factors take their limits: the
    Gaussian one 1 at gamma = 0 and 0 otherwise, each atom's 0."""
    u = float(u)
    if not math.isfinite(u):
        raise DomainError("polya_eval requires finite u")
    q = u * u / 4.0
    # gamma = 0 would give exp(-0 * inf) = nan where q overflows
    acc = math.exp(-omega.gamma * q) if omega.gamma else 1.0
    for a in omega.alpha:
        acc /= 1.0 + a * q
    return acc


def p_tilde(omega: OmegaParam, m: int) -> float:
    """Image of the power sum p_m under the limit morphism:

    p~_1 = gamma + sum alpha_j,  p~_m = sum alpha_j^m for m >= 2.  RangeError
    where p~_m leaves double range.
    """
    m = _integer(m, "m", 1)
    try:
        if m == 1:
            return omega.gamma + math.fsum(omega.alpha)
        return math.fsum(a**m for a in omega.alpha)
    except OverflowError:
        raise RangeError(f"p~_{m} exceeds double range") from None


def sigma_moment(omega: OmegaParam, m: int) -> float:
    """Even moments of the representing measure: M_0 = gamma + p_1(alpha),
    M_m = p_{m+1}(alpha) for m >= 1."""
    return p_tilde(omega, _integer(m, "m", 0) + 1)


def log_deriv_coeffs(omega: OmegaParam, order: int) -> list[float]:
    """Odd Taylor coefficients of Pi'/Pi at 0: returns [c_1, c_3, ...].

    c_1 = -(gamma + p_1(alpha))/2 and c_{2m-1} = (-1)^m p_m(alpha)/2^{2m-1}
    for m >= 2.
    """
    order = _integer(order, "order", 1)
    out = [-p_tilde(omega, 1) / 2.0]
    for m in range(2, order + 1):
        out.append(math.ldexp(((-1.0) ** m) * p_tilde(omega, m), 1 - 2 * m))
    return out


def h_tilde(omega: OmegaParam, max_m: int) -> list[float]:
    """[h~_0 .. h~_max_m]: complete homogeneous images via Newton recursion
    from the p~ values.  These are the Taylor coefficients of Pi:
    Pi(omega, u) = sum_m h~_m (-u^2/4)^m inside |u| < 2/sqrt(max alpha)."""
    p = [p_tilde(omega, m) for m in range(1, _integer(max_m, "max_m", 0) + 1)]
    return newton_h_from_p(p)


def s_tilde(omega: OmegaParam, m: Partition | Sequence[int]) -> float:
    """Schur image s~_m(omega) by Jacobi-Trudi over the h~ values."""
    part = m if isinstance(m, Partition) else Partition(m)
    if part.length == 0:
        return 1.0
    table = h_tilde(omega, part.parts[0] + part.length - 1)
    return _jacobi_trudi_det(part.parts, table)


def phi_omega(omega: OmegaParam, xi: Sequence[float]) -> float:
    """Limit spherical function: prod_j Pi(omega, xi_j).

    Multiplicative over concatenation of xi by construction (a left-to-right
    product), which mirrors the defining property of the limit objects.
    """
    acc = 1.0
    for v in xi:
        acc *= polya_eval(omega, float(v))
    return acc


def _det_i_plus_gram(rows, c):
    """det(I + c X*X) for the square matrix X with these rows, as prod_k r_kk^2.

    R is the triangular factor of [I; sqrt(c) X].  It is built from R = I by
    complex Givens rotations that fold in one row of sqrt(c) X at a time, so
    X*X, whose rounding would square the condition number, is never formed.
    Its diagonal stays real and >= 1, and each rotation adds |b|^2 to one
    r_kk^2, so the squares are kept as sums of positive terms.
    """
    n = len(rows)
    t = c**0.5
    d, d2 = [1.0] * n, [1.0] * n  # r_kk and r_kk^2
    r = [[0.0] * n for _ in range(n)]  # strict upper triangle of R
    for row in rows:
        w = [t * v for v in row]
        for k in range(n):
            b = w[k]
            d2[k] = d2[k] + (b.real * b.real + b.imag * b.imag)
            h = d2[k] ** 0.5
            cs, sn, d[k] = d[k] / h, b / h, h
            snc, rk = sn.conjugate(), r[k]
            for j in range(k + 1, n):
                rk[j], w[j] = cs * rk[j] + snc * w[j], cs * w[j] - sn * rk[j]
    return math.prod(d2)


def phi_omega_matrix(omega: OmegaParam, x) -> float:
    """phi_omega at a full square complex matrix (a numpy array or nested
    rows): prod_j Pi(omega, s_j(x)), which depends on x only through x*x."""
    try:
        rows = [[complex(v) for v in row] for row in x]
    except TypeError:  # a number where a row or an entry belongs
        rows = None
    square = rows is not None and all(len(r) == len(rows) for r in rows)
    if not square or getattr(x, "shape", (len(rows),) * 2) != (len(rows),) * 2:
        raise ShapeError("expected a square matrix of numbers")
    if not all(cmath.isfinite(v) for row in rows for v in row):
        raise DomainError("matrix entries must be finite")
    # at gamma = 0, exp(-0 * inf) would be nan where fro overflows
    fro = sum(v.real * v.real + v.imag * v.imag for row in rows for v in row)
    value = math.exp(-0.25 * omega.gamma * fro) if omega.gamma else 1.0
    for a in omega.alpha:
        value /= _det_i_plus_gram(rows, 0.25 * a)
    # nan only where an r_kk^2 of _det_i_plus_gram overflowed and a later
    # Givens step divided inf by inf: that determinant then exceeds 1e308,
    # so the value, at most its inverse, is 0 to double precision
    return 0.0 if math.isnan(value) else value


def mixture_eval(mixture: MixtureParam, xi: Sequence[float]) -> float:
    """Convex combination sum_i w_i phi_{omega_i}(xi)."""
    return math.fsum(w * phi_omega(om, xi) for w, om in mixture.components)


def second_deriv_identity(omega: OmegaParam) -> tuple[float, float]:
    """(-2 Pi''(0) estimated by central differences with step 1e-4,
    p~_1(omega)).

    The two agree: the curvature of Pi at the origin recovers the first
    morphism value.
    """
    h = 1e-4
    lhs = -2.0 * (polya_eval(omega, h) - 2.0 + polya_eval(omega, -h)) / (h * h)
    return lhs, p_tilde(omega, 1)
