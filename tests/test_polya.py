"""Limit parameters omega, modified Polya products, and the tilde morphism."""

import json
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spherica import (
    DomainError,
    MixtureParam,
    OmegaParam,
    RngStream,
    ShapeError,
    ValidationError,
    h_tilde,
    haar_unitary,
    log_deriv_coeffs,
    mixture_eval,
    p_tilde,
    phi_omega,
    phi_omega_matrix,
    polya_eval,
    s_tilde,
    second_deriv_identity,
    sigma_moment,
)

TWO_GAUSSIAN_MIX_AT_ONE = (math.exp(-0.25) + math.exp(-1.0)) / 2.0


def test_omega_canonical_form():
    om = OmegaParam([0.0, 2.0, 1.0], 0.5)
    assert om.alpha == (2.0, 1.0)
    assert om.gamma == 0.5


def test_omega_rejects_negative_parameters():
    with pytest.raises(ValidationError):
        OmegaParam([-1.0], 0.0)
    with pytest.raises(ValidationError):
        OmegaParam([], -0.5)


def test_omega_json_roundtrip():
    om = OmegaParam([0.5, 0.25], 0.25)
    assert OmegaParam.from_json(om.to_json()) == om
    assert om.to_json() == {"alpha": [0.5, 0.25], "gamma": 0.25}


def test_omega_schema_violations():
    assert OmegaParam.from_json({"alpha": [1.0]}).gamma == 0.0
    with pytest.raises(ValidationError):
        OmegaParam.from_json({"alpha": [1.0], "gamma": -1.0})
    with pytest.raises(ValidationError):
        OmegaParam.from_json({"alpha": "x", "gamma": 0.0})
    with pytest.raises(ValidationError):
        OmegaParam.from_json({"alpha": [1.0], "mass": 2.0})


def test_product_point_values():
    assert polya_eval(OmegaParam([4.0], 0.0), 1.0) == 0.5
    assert polya_eval(OmegaParam([], 1.0), 2.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )
    assert polya_eval(OmegaParam([1.0, 1.0], 0.5), 0.0) == 1.0


def test_product_is_even_and_bounded():
    om = OmegaParam([0.7, 0.2], 0.3)
    for u in (0.3, 1.0, 4.0):
        assert polya_eval(om, -u) == polya_eval(om, u)
        assert 0.0 < polya_eval(om, u) <= 1.0
    assert polya_eval(om, 2.0) < polya_eval(om, 1.0) < polya_eval(om, 0.5)


def test_first_morphism_values():
    om = OmegaParam([0.5, 0.25], 0.25)
    assert p_tilde(om, 1) == pytest.approx(1.0, rel=1e-15)
    assert p_tilde(om, 2) == pytest.approx(0.3125, rel=1e-15)
    assert p_tilde(OmegaParam([], 3.0), 2) == 0.0
    with pytest.raises(DomainError):
        p_tilde(om, 0)


def test_measure_moments():
    om = OmegaParam([1.0, 2.0], 0.5)
    assert sigma_moment(om, 0) == 3.5
    assert sigma_moment(om, 1) == 5.0
    assert sigma_moment(OmegaParam([], 7.0), 2) == 0.0


def test_log_derivative_coefficients():
    assert log_deriv_coeffs(OmegaParam([4.0], 0.0), 2) == [-2.0, 2.0]
    assert log_deriv_coeffs(OmegaParam([], 2.0), 3) == [-1.0, 0.0, 0.0]


def test_log_derivative_coefficients_past_order_512():
    # 2^(2m - 1) leaves double range past m = 512; c_{2m-1} = (-1)^m 2^(1-m)
    coeffs = log_deriv_coeffs(OmegaParam([2.0], 0.0), 600)
    assert len(coeffs) == 600
    assert coeffs[-2:] == [-(2.0**-598), 2.0**-599]


def test_log_derivative_matches_finite_differences():
    om = OmegaParam([4.0], 0.0)
    u, h = 0.1, 1e-5
    fd = (polya_eval(om, u + h) - polya_eval(om, u - h)) / (2.0 * h * polya_eval(om, u))
    coeffs = log_deriv_coeffs(om, 8)
    series = math.fsum(c * u ** (2 * m + 1) for m, c in enumerate(coeffs))
    assert fd == pytest.approx(series, rel=1e-6)


def test_taylor_coefficients_single_atom():
    h = h_tilde(OmegaParam([0.5], 0.0), 6)
    for m in range(7):
        assert h[m] == pytest.approx(0.5**m, rel=1e-14)


def test_taylor_coefficients_gaussian():
    h = h_tilde(OmegaParam([], 2.0), 3)
    assert h[3] == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_taylor_series_matches_product():
    om = OmegaParam([1.0, 0.5], 0.3)
    u = 0.5
    h = h_tilde(om, 20)
    series = math.fsum(h[m] * (-u * u / 4.0) ** m for m in range(21))
    assert series == pytest.approx(polya_eval(om, u), rel=1e-10)
    assert all(v >= 0.0 for v in h)


def test_schur_morphism_values():
    om = OmegaParam([0.5, 0.25], 0.25)
    assert s_tilde(om, ()) == 1.0
    assert s_tilde(om, (1,)) == h_tilde(om, 1)[1]
    assert s_tilde(OmegaParam([0.5], 0.0), (1, 1)) == 0.0


def test_limit_spherical_values():
    om = OmegaParam([4.0], 0.0)
    assert phi_omega(om, (1.0, 1.0)) == 0.25
    assert phi_omega(om, ()) == 1.0


def test_limit_spherical_multiplicative_exactly():
    rng = random.Random(5)
    for _ in range(20):
        om = OmegaParam([rng.uniform(0, 3) for _ in range(2)], rng.uniform(0, 2))
        a, b = rng.uniform(0, 4), rng.uniform(0, 4)
        assert phi_omega(om, (a, b)) == phi_omega(om, (a,)) * phi_omega(om, (b,))


def test_matrix_argument_through_singular_values():
    om = OmegaParam([4.0], 0.0)
    assert phi_omega_matrix(om, np.zeros((3, 3))) == 1.0
    got = phi_omega_matrix(om, np.diag([1.0, 2.0]).astype(complex))
    assert got == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(ShapeError):
        phi_omega_matrix(om, np.zeros((2, 3)))


@pytest.mark.parametrize(
    "x",
    [
        [[1.0, 2.0], [3.0]],
        np.array([[1.0, 2.0], [3.0]], dtype=object),
        [1.0, 2.0],
        np.array([1.0, 2.0]),
        [[[1.0], [2.0]], [[3.0], [4.0]]],
        np.ones((2, 2, 1)),
        np.zeros((2, 3)),
        np.zeros((0, 3)),
        3.0,
    ],
)
def test_matrix_argument_must_be_square(x):
    with pytest.raises(ShapeError):
        phi_omega_matrix(OmegaParam([1.0], 0.5), x)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_matrix_argument_must_be_finite(bad):
    for x in ([[1.0, bad], [0.0, 1.0]], np.array([[1.0, bad], [0.0, 1.0]])):
        with pytest.raises(DomainError):
            phi_omega_matrix(OmegaParam([1.0], 0.5), x)


def test_products_take_their_limits_where_the_square_overflows():
    # u^2/4 = inf: at gamma = 0 the Gaussian factor once read exp(-0 * inf)
    assert polya_eval(OmegaParam([1.0]), 1e200) == 0.0
    assert polya_eval(OmegaParam([]), 1e200) == 1.0
    assert polya_eval(OmegaParam([1.0], 0.5), -1e200) == 0.0
    assert phi_omega(OmegaParam([1.0]), (1e200, 1.0)) == 0.0
    mix = MixtureParam([(0.5, OmegaParam([])), (0.5, OmegaParam([1.0]))])
    assert mixture_eval(mix, (1e200,)) == 0.5


def test_matrix_argument_takes_its_limits_where_the_gram_overflows():
    x = [[1e200, 0.0], [0.0, 1.0]]
    # an r_kk^2 of the Givens factor overflows: inf / inf once gave nan
    assert phi_omega_matrix(OmegaParam([1.0], 0.5), x) == 0.0
    assert phi_omega_matrix(OmegaParam([1.0]), x) == 0.0
    assert phi_omega_matrix(OmegaParam([]), x) == 1.0
    # |X|_F^2 overflows but the determinant does not: 1/(1 + 2.5e-301 1e320)
    got = phi_omega_matrix(OmegaParam([1e-300]), [[1e160, 0.0], [0.0, 1.0]])
    assert got == pytest.approx(4e-20, rel=1e-12)


def test_matrix_argument_of_size_zero():
    om = OmegaParam([1.0], 0.5)
    assert phi_omega_matrix(om, []) == 1.0
    assert phi_omega_matrix(om, np.zeros((0, 0), dtype=complex)) == 1.0


def _mp_phi_omega_matrix(omega, x):
    # exp(-gamma |X|_F^2/4) / prod_a det(I + (a/4) X*X) at 50 digits, on the
    # exact values of the double entries
    with mpmath.workdps(50):
        xm = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in x])
        gram = xm.H * xm
        acc = mpmath.exp(-mpmath.mpf(omega.gamma) * sum(abs(v) ** 2 for v in xm) / 4)
        for a in omega.alpha:
            acc /= mpmath.re(mpmath.det(mpmath.eye(len(x)) + mpmath.mpf(a) / 4 * gram))
        return float(acc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.01, 10.0), min_size=2, max_size=2),
    st.floats(0.0, 1e-6),
)
def test_matrix_argument_matches_a_50_digit_evaluation(log_s, seed, alpha, gamma):
    # X = U diag(s) V* with s spread over 1e-3..1e3, where rounding the Gram
    # matrix X*X before the determinant costs digits and the R factor does not
    n = len(log_s)
    rng = np.random.default_rng(seed)
    u, v = (
        np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        for _ in range(2)
    )
    x = (u * 10.0 ** np.array(log_s)) @ v.conj().T
    om = OmegaParam(alpha, gamma)
    ref = _mp_phi_omega_matrix(om, x)
    assert abs(phi_omega_matrix(om, x) - ref) <= 1e-12 * ref


def test_matrix_argument_unitary_invariance():
    om = OmegaParam([1.5, 0.5], 0.25)
    x = np.diag([1.0, 0.4, 2.2]).astype(complex)
    u = haar_unitary(3, RngStream(123, 0))
    v = haar_unitary(3, RngStream(123, 1))
    assert phi_omega_matrix(om, u @ x @ v.conj().T) == pytest.approx(
        phi_omega_matrix(om, x), rel=1e-10
    )


def test_mixture_single_component_reduces():
    om = OmegaParam([4.0], 0.0)
    mix = MixtureParam([(1.0, om)])
    assert mixture_eval(mix, (1.0,)) == phi_omega(om, (1.0,))


def test_mixture_two_gaussians():
    mix = MixtureParam(
        [(0.5, OmegaParam([], 1.0)), (0.5, OmegaParam([], 4.0))]
    )
    assert mixture_eval(mix, (1.0,)) == pytest.approx(
        TWO_GAUSSIAN_MIX_AT_ONE, rel=1e-12
    )
    assert mixture_eval(mix, ()) == 1.0


def test_mixture_weight_validation():
    om = OmegaParam([1.0], 0.0)
    with pytest.raises(ValidationError):
        MixtureParam([(0.5, om), (0.4, om)])
    with pytest.raises(ValidationError):
        MixtureParam([(-1.0, om), (2.0, om)])
    with pytest.raises(ValidationError):
        MixtureParam([])


def test_mixture_json_roundtrip():
    mix = MixtureParam(
        [(0.25, OmegaParam([1.0], 0.0)), (0.75, OmegaParam([], 2.0))]
    )
    again = MixtureParam.from_json(json.loads(json.dumps(mix.to_json())))
    assert again == mix
    with pytest.raises(ValidationError):
        MixtureParam.from_json({"components": []})


def test_curvature_recovers_first_morphism_value():
    lhs, rhs = second_deriv_identity(OmegaParam([4.0], 0.0))
    assert rhs == 4.0
    assert lhs == pytest.approx(4.0, rel=1e-6)
    lhs, rhs = second_deriv_identity(OmegaParam([], 3.0))
    assert rhs == 3.0
    assert lhs == pytest.approx(3.0, rel=1e-6)
    lhs, rhs = second_deriv_identity(OmegaParam([], 0.0))
    assert lhs == 0.0 and rhs == 0.0


def test_curvature_identity_on_random_parameters():
    rng = random.Random(17)
    for _ in range(20):
        om = OmegaParam(
            [rng.uniform(0, 4) for _ in range(rng.randint(0, 3))], rng.uniform(0, 3)
        )
        lhs, rhs = second_deriv_identity(om)
        if rhs > 0.0:
            assert lhs == pytest.approx(rhs, rel=1e-5)


_GRAM_SIZE = 30
_GRAM_MIX = MixtureParam(
    [(0.3, OmegaParam([2.0], 0.0)), (0.7, OmegaParam([0.5], 1.0))]
)


def _gram_min_eig(points, f):
    """Smallest eigenvalue of G_ij = f(X_i - X_j)."""
    g = np.array([[f(a - b) for b in points] for a in points])
    return float(np.linalg.eigvalsh(g)[0])


def _singular_values(x):
    return [float(v) for v in np.linalg.svd(x, compute_uv=False)]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.2, 1.0]))
def test_limit_functions_are_of_positive_type(seed, spread):
    # 30 random 3x3 complex matrices, real and imaginary parts N(0, spread^2)
    rng = np.random.default_rng(seed)
    shape = (_GRAM_SIZE, 3, 3)
    points = spread * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    floor = -(1e-12 + _GRAM_SIZE * np.finfo(float).eps)
    omega = OmegaParam([1.0, 0.3], 0.5)
    assert _gram_min_eig(points, lambda d: phi_omega_matrix(omega, d)) >= floor
    assert _gram_min_eig(points, lambda d: mixture_eval(_GRAM_MIX, _singular_values(d))) >= floor
    if spread == 1.0:
        # negative control: a bounded function of the singular values that is
        # not of positive type fails the same check by a wide margin
        cos_product = lambda d: math.prod(math.cos(v) for v in _singular_values(d))
        assert _gram_min_eig(points, cos_product) < -1.0
