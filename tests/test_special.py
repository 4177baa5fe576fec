"""Power-series special functions: shared series F, J0, I0."""

import math

import mpmath as mp
import pytest

from spherica import (
    ConvergenceError,
    DomainError,
    RangeError,
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
