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

from .errors import ConvergenceError, DomainError, RangeError

# I0 grows like e^x; beyond this the partial sums leave double range.
_I0_ARG_MAX = 700.0
# relative tolerance of the stopping rule, and the cap on series terms
_REL_TOL = 1e-15
_MAX_TERMS = 200


def hyper_f(z: float) -> float:
    """Evaluate F(z) = sum_k z^k/(k!)^2; the value of hyper_f_with_error.

    Raises DomainError for non-finite input, RangeError if the partial sums
    overflow, and ConvergenceError (carrying the partial sum) if the 200-term
    cap is reached first.
    """
    return hyper_f_with_error(z)[0]


def hyper_f_with_error(z: float) -> tuple[float, float, int]:
    """(value, error_estimate, terms_used) for F(z) = sum_k z^k/(k!)^2.

    Stopping rule: for z < 0 (alternating tail) two consecutive terms below
    1e-15 * |partial sum| are required; the truncation error is then at most
    the first omitted term.  For z >= 0 the terms are positive and the tail is
    bounded by a geometric series once the term ratio falls below one.  The
    estimate is that truncation bound plus a rounding term, which scales with
    sum_k |t_k|: for z < 0 that sum exceeds |F(z)| by the cancellation.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("hyper_f requires finite z")

    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    term = 1.0
    small_streak = 0
    abs_sum = 1.0  # sum of |t_k|, kept for z < 0 only
    mag_z = abs(z)
    for k in range(1, _MAX_TERMS + 1):
        term *= z / (k * k)
        # Kahan update
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise RangeError("hyper_f partial sums overflowed double range")

        threshold = _REL_TOL * abs(total)
        mag = abs(term)
        next_mag = mag * mag_z / ((k + 1) * (k + 1))
        if z >= 0.0:
            if term <= threshold and next_mag <= mag:
                ratio = mag_z / ((k + 2) * (k + 2))
                if ratio < 1.0:
                    truncation = next_mag / (1.0 - ratio)
                    break
        else:
            abs_sum += mag
            small_streak = small_streak + 1 if mag <= threshold else 0
            if small_streak >= 2 and next_mag <= mag:
                truncation = next_mag
                break
    else:
        raise ConvergenceError(
            f"hyper_f did not converge within {_MAX_TERMS} terms",
            partial=total,
        )
    rounding = 2.0 * k * 1.11e-16 * (abs(total) if z >= 0.0 else abs_sum)
    return total, truncation + rounding, k + 1


def bessel_j0(x: float) -> float:
    """J0(x) via the shared series: J0(x) = F(-x^2/4).

    Works on x*x, so J0(-x) == J0(x) bit for bit.
    """
    return bessel_j0_with_error(x)[0]


def bessel_i0(x: float) -> float:
    """I0(x) via the shared series: I0(x) = F(+x^2/4).

    Even in x bit for bit.  Arguments with |x| > 700 are refused (RangeError):
    I0 grows like e^|x| and would overflow.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel_i0 requires finite x")
    if abs(x) > _I0_ARG_MAX:
        raise RangeError(f"bessel_i0 overflow guard: |x| > {_I0_ARG_MAX:g}")
    return hyper_f_with_error((x * x) / 4.0)[0]


def bessel_j0_with_error(x: float) -> tuple[float, float, int]:
    """(value, error estimate, terms used) for J0."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel_j0 requires finite x")
    return hyper_f_with_error(-(x * x) / 4.0)
