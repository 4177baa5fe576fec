"""Power-series primitives.

Everything in this package ultimately reduces to the entire function

    F(z) = sum_{k>=0} z^k / (k!)^2

evaluated by its Taylor series with a certified truncation error.  The two
classical Bessel functions of order zero are thin wrappers:

    J0(x) = F(-x^2/4)        I0(x) = F(+x^2/4)

Terms are generated by the stable ratio recurrence t_{k+1} = t_k * z/(k+1)^2
and accumulated with compensated (Kahan) summation, in one loop per sign of z.
For z >= 0 the terms are positive and eventually strictly decreasing: the sum
stops at the first small term and closes the tail geometrically.  For z < 0
the series is alternating in the tail: the sum stops after two small terms in
a row and the first omitted term bounds the error.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, RangeError

# I0 grows like e^x; beyond this the partial sums leave double range.
_I0_ARG_MAX = 700.0
# relative tolerance of the stopping rule, and the cap on series terms
_REL_TOL = 1e-15
_MAX_TERMS = 200
# k^2 as floats, k = 0.._MAX_TERMS + 2 (exact, so z / k^2 keeps its bits)
_SQUARES = tuple(float(k * k) for k in range(_MAX_TERMS + 3))


def hyper_f(z: float) -> float:
    """Evaluate F(z) = sum_k z^k/(k!)^2; the value of hyper_f_with_error.

    Raises DomainError for non-finite input, RangeError if the partial sums
    overflow, and ConvergenceError (carrying the partial sum) if the 200-term
    cap is reached first.
    """
    return hyper_f_with_error(z)[0]


def hyper_f_with_error(z: float) -> tuple[float, float, int]:
    """(value, error_estimate, terms_used) for F(z) = sum_k z^k/(k!)^2.

    Stopping rule: for z >= 0 the terms are positive, and the sum stops at
    the first term below 1e-15 * partial sum that the next term does not
    exceed and after which the term ratio z/(k+2)^2 is below one; the tail is
    then bounded by a geometric series.  For z < 0 (alternating tail) two
    consecutive terms below 1e-15 * |partial sum| are required; the
    truncation error is then at most the first omitted term.  The estimate
    is that truncation bound plus a rounding term, which scales with
    sum_k |t_k|: for z < 0 that sum exceeds |F(z)| by the cancellation.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("hyper_f requires finite z")

    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    term = 1.0
    truncation = None
    squares = _SQUARES
    # Once the partial sum is inf or nan the Kahan update keeps it so; it is
    # checked once, after the loop.
    if z >= 0.0:
        for k in range(1, _MAX_TERMS + 1):
            term *= z / squares[k]
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if term <= _REL_TOL * total:  # total > 0: no abs needed
                next_mag = term * z / squares[k + 1]
                ratio = z / squares[k + 2]
                if next_mag <= term and ratio < 1.0:
                    truncation = next_mag / (1.0 - ratio)
                    break
        abs_sum = total  # positive terms: sum |t_k| is the sum itself
    else:
        abs_sum = 1.0  # sum of |t_k|
        mag_z = -z
        small_streak = 0
        for k in range(1, _MAX_TERMS + 1):
            term *= z / squares[k]
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            mag = abs(term)
            abs_sum += mag
            if mag <= _REL_TOL * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    next_mag = mag * mag_z / squares[k + 1]
                    if next_mag <= mag:
                        truncation = next_mag
                        break
            else:
                small_streak = 0
    if not math.isfinite(total):
        raise RangeError("hyper_f partial sums overflowed double range")
    if truncation is None:
        raise ConvergenceError(
            f"hyper_f did not converge within {_MAX_TERMS} terms",
            partial=total,
        )
    rounding = 2.0 * k * 1.11e-16 * abs_sum
    return total, truncation + rounding, k + 1


def bessel_j0(x: float) -> float:
    """J0(x) via the shared series: J0(x) = F(-x^2/4).

    Works on x*x, so J0(-x) == J0(x) bit for bit.
    """
    return bessel_j0_with_error(x)[0]


def bessel_i0(x: float) -> float:
    """I0(x) via the shared series: I0(x) = F(+x^2/4).

    Even in x bit for bit.  Arguments with |x| > 700 are refused (RangeError):
    I0 grows like e^|x| and would overflow.  The 200-term cap of the series
    is reached first: |x| above about 262.3 raises ConvergenceError.
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
