"""Power-series special functions: shared series F, J0, I0."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherica import (
    ConvergenceError,
    DomainError,
    RangeError,
    SphericaError,
    bessel_i0,
    bessel_j0,
    bessel_j0_with_error,
    hyper_f,
    hyper_f_with_error,
)

F_AT_ONE = 2.2795853023360673
J0_AT_ONE = 0.7651976865579666
I0_AT_ONE = 1.2660658777520084
J0_FIRST_ZERO = 2.404825557695773


def reference_sum(z: float, terms: int) -> float:
    total, term = 1.0, 1.0
    parts = [1.0]
    for k in range(1, terms):
        term *= z / (k * k)
        parts.append(term)
    return math.fsum(parts)


def test_f_at_zero_is_one():
    assert hyper_f(0.0) == 1.0


def test_f_at_one_frozen():
    assert hyper_f(1.0) == pytest.approx(F_AT_ONE, abs=1e-12)


def test_f_matches_j0_on_the_negative_axis():
    for x in (0.5, 1.0, 3.0):
        assert hyper_f(-x * x / 4.0) == bessel_j0(x)


def test_j0_at_zero_is_one():
    assert bessel_j0(0.0) == 1.0


def test_j0_at_one_frozen():
    assert bessel_j0(1.0) == pytest.approx(J0_AT_ONE, abs=1e-12)


def test_j0_is_even_bitwise():
    for x in (2.3, 0.7, 9.5):
        assert bessel_j0(-x) == bessel_j0(x)


def test_j0_bounded_by_one():
    for k in range(81):
        x = -10.0 + 0.25 * k
        assert abs(bessel_j0(x)) <= 1.0 + 1e-12


def test_j0_first_zero():
    assert abs(bessel_j0(J0_FIRST_ZERO)) <= 1e-12


def test_i0_at_zero_is_one():
    assert bessel_i0(0.0) == 1.0


def test_i0_at_one_frozen():
    assert bessel_i0(1.0) == pytest.approx(I0_AT_ONE, abs=1e-12)


def test_i0_at_two_equals_f_at_one_bitwise():
    assert bessel_i0(2.0) == hyper_f(1.0)


def test_i0_is_even_and_at_least_one():
    for x in (0.0, 0.4, 1.7, 5.0, 20.0):
        assert bessel_i0(-x) == bessel_i0(x)
        assert bessel_i0(x) >= 1.0


def test_i0_matches_f_of_quarter_square():
    for x in (0.3, 1.0, 6.0):
        assert bessel_i0(x) == hyper_f(x * x / 4.0)


def test_error_estimate_covers_reference_difference():
    for k in range(41):
        x = -10.0 + 0.5 * k
        value, est, _ = bessel_j0_with_error(x)
        assert abs(value - reference_sum(-x * x / 4.0, 60)) <= est


def test_j0_error_estimate_bounds_the_true_error():
    # the float reference above cancels like the series itself; past x ~ 10
    # the cancellation, not the truncation, sets the error
    with mp.workdps(40):
        for k in range(2401):
            x = 0.025 * k
            value, est, _ = bessel_j0_with_error(x)
            assert abs(mp.mpf(value) - mp.besselj(0, mp.mpf(x))) <= est


def test_with_error_value_matches_plain_call():
    for z in (-3.0, -0.25, 0.0, 1.0, 7.5):
        value, est, terms = hyper_f_with_error(z)
        assert value == hyper_f(z)
        assert est >= 0.0
        assert terms >= 1


def test_nonfinite_input_rejected():
    with pytest.raises(DomainError):
        hyper_f(float("nan"))
    with pytest.raises(DomainError):
        bessel_j0(float("inf"))


def test_overflow_guard_raises_range_error():
    with pytest.raises(RangeError):
        bessel_i0(701.0)
    with pytest.raises(RangeError):
        hyper_f(1.0e6)


def test_exhausted_term_budget_raises_with_partial_sum():
    # the terms of F(-1e5) peak near k = 316, beyond the 200-term cap
    with pytest.raises(ConvergenceError) as exc:
        hyper_f(-1e5)
    assert exc.value.partial is not None
    assert math.isfinite(exc.value.partial)


def test_term_cap_is_reached_before_the_700_guards():
    # the 200-term cap, not the |x| > 700 overflow guard, limits both kernels
    assert math.isfinite(bessel_i0(262.0))
    with pytest.raises(ConvergenceError):
        bessel_i0(263.0)
    assert math.isfinite(bessel_j0(204.0))
    with pytest.raises(ConvergenceError):
        bessel_j0(205.0)


def _reference_f(z: float) -> tuple[float, float, int]:
    """One Taylor loop for both signs of z, with every test run on every
    term: the bit-identity reference for hyper_f_with_error."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("hyper_f requires finite z")

    total = 1.0  # k = 0 term
    comp = 0.0  # Kahan compensation
    term = 1.0
    small_streak = 0
    abs_sum = 1.0  # sum of |t_k|, kept for z < 0 only
    mag_z = abs(z)
    for k in range(1, 200 + 1):
        term *= z / (k * k)
        # Kahan update
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if not math.isfinite(total):
            raise RangeError("hyper_f partial sums overflowed double range")

        threshold = 1e-15 * abs(total)
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
        raise ConvergenceError("hyper_f did not converge within 200 terms", partial=total)
    rounding = 2.0 * k * 1.11e-16 * (abs(total) if z >= 0.0 else abs_sum)
    return total, truncation + rounding, k + 1


def _outcome(f, z):
    """repr of the result, or of the exception's type, message and partial
    sum: repr tells -0.0 from 0.0 and round-trips every float."""
    try:
        return repr(f(z))
    except SphericaError as exc:
        return repr((type(exc), str(exc), getattr(exc, "partial", None)))


def _log_uniform_grid(count, seed):
    rng = random.Random(seed)
    top = math.log10(3e4)
    return [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.0, top) for _ in range(count)]


# signed zeros, subnormals, overflow, non-finite input, and both sides of the
# 200-term cap for I0 (x = 262 | 263) and J0 (x = 204 | 205)
EDGE_Z = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e308, -1e308,
    math.inf, -math.inf, math.nan,
    262.0**2 / 4.0, 263.0**2 / 4.0, -(204.0**2) / 4.0, -(205.0**2) / 4.0,
]


def test_kernel_matches_the_reference_loop_bit_for_bit():
    for z in EDGE_Z + _log_uniform_grid(2000, seed=13):
        assert _outcome(hyper_f_with_error, z) == _outcome(_reference_f, z), z


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_kernel_matches_the_reference_loop_on_any_finite_float(z):
    assert _outcome(hyper_f_with_error, z) == _outcome(_reference_f, z)
