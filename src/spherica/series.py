"""Power-series primitives.

Everything in this package ultimately reduces to the entire function

    F(z) = sum_{k>=0} z^k / (k!)^2

evaluated by its Taylor series with a certified truncation error.  The two
classical Bessel functions of order zero are thin wrappers:

    J0(x) = F(-x^2/4)        I0(x) = F(+x^2/4)

Terms are generated by the stable ratio recurrence t_{k+1} = t_k * z/(k+1)^2
and accumulated with compensated (Kahan) summation.  For z >= 0 the terms are
positive and eventually strictly decreasing; for z < 0 the series is
alternating in the tail and the first omitted term bounds the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, RangeError

# I0 grows like e^x; beyond this the partial sums leave double range.
_I0_ARG_MAX = 700.0


@dataclass(frozen=True)
class SeriesOptions:
    """Truncation controls for the Taylor evaluators.

    rel_tol    relative tolerance used by the stopping rule (> 0)
    max_terms  hard cap on the number of series terms (>= 1)
    """

    rel_tol: float = 1e-15
    max_terms: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0.0) or not math.isfinite(self.rel_tol):
            raise DomainError("rel_tol must be a positive finite number")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


_DEFAULT = SeriesOptions()


def hyper_f(z: float, opts: SeriesOptions = _DEFAULT) -> float:
    """Evaluate F(z) = sum_k z^k/(k!)^2; the value of hyper_f_with_error.

    Raises DomainError for non-finite input, RangeError if the partial sums
    overflow, and ConvergenceError (carrying the partial sum) if max_terms is
    exhausted first.
    """
    return hyper_f_with_error(z, opts)[0]


def hyper_f_with_error(z: float, opts: SeriesOptions = _DEFAULT) -> tuple[float, float, int]:
    """(value, error_estimate, terms_used) for F(z) = sum_k z^k/(k!)^2.

    Stopping rule: for z < 0 (alternating tail) two consecutive terms below
    rel_tol * |partial sum| are required; the truncation error is then at most
    the first omitted term.  For z >= 0 the terms are positive and the tail is
    bounded by a geometric series once the term ratio falls below one.  The
    estimate is that truncation bound plus a rounding floor.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("hyper_f requires finite z")

    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    term = 1.0
    small_streak = 0
    rel_tol = opts.rel_tol
    mag_z = abs(z)
    for k in range(1, opts.max_terms + 1):
        term *= z / (k * k)
        # Kahan update
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise RangeError("hyper_f partial sums overflowed double range")

        threshold = rel_tol * abs(total)
        mag = abs(term)
        next_mag = mag * mag_z / ((k + 1) * (k + 1))
        if z >= 0.0:
            if term <= threshold and next_mag <= mag:
                ratio = mag_z / ((k + 2) * (k + 2))
                if ratio < 1.0:
                    truncation = next_mag / (1.0 - ratio)
                    break
        else:
            small_streak = small_streak + 1 if mag <= threshold else 0
            if small_streak >= 2 and next_mag <= mag:
                truncation = next_mag
                break
    else:
        raise ConvergenceError(
            f"hyper_f did not converge within {opts.max_terms} terms",
            partial=total,
        )
    rounding = 2.0 * k * 1.11e-16 * abs(total)
    return total, truncation + rounding, k + 1


def bessel_j0(x: float, opts: SeriesOptions = _DEFAULT) -> float:
    """J0(x) via the shared series: J0(x) = F(-x^2/4).

    Works on x*x, so J0(-x) == J0(x) bit for bit.
    """
    return bessel_j0_with_error(x, opts)[0]


def bessel_i0(x: float, opts: SeriesOptions = _DEFAULT) -> float:
    """I0(x) via the shared series: I0(x) = F(+x^2/4).

    Even in x bit for bit.  Arguments with |x| > 700 are refused (RangeError):
    I0 grows like e^|x| and would overflow.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel_i0 requires finite x")
    if abs(x) > _I0_ARG_MAX:
        raise RangeError(f"bessel_i0 overflow guard: |x| > {_I0_ARG_MAX:g}")
    return hyper_f_with_error((x * x) / 4.0, opts)[0]


def bessel_j0_with_error(x: float, opts: SeriesOptions = _DEFAULT) -> tuple[float, float, int]:
    """(value, error estimate, terms used) for J0."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel_j0 requires finite x")
    return hyper_f_with_error(-(x * x) / 4.0, opts)
