"""Finite-dimension spherical functions, orbital integrals, heat kernel."""

import functools
import itertools
import math
import os
import random
import re
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from spherica import (
    ConvergenceError,
    DegeneracyError,
    DiagonalPoint,
    DomainError,
    OmegaParam,
    RangeError,
    ShapeError,
    bessel_i0,
    cauchy_lhs,
    bessel_j0,
    heat_kernel,
    hyper_f,
    mc_biinvariant_avg,
    mc_orbital_exp,
    mc_spherical,
    orbital_integral,
    radial_laplacian,
    spherical_det,
    spherical_convergence,
    spherical_eval,
    spherical_series,
    squared_gap_product,
    weyl_c_n,
    weyl_density_mn,
)
import spherica.spherical as spherical_module
from spherica import series
from spherica.spherical import _EPS, _EXP_FLOOR, _WEIGHT_CAP
from spherica.symfunc import _jacobi_trudi_det, _partition_tuples, complete_h_table

# the benchmark's mpmath oracle: the closed determinant forms, with coincident
# entries split apart by two tiny shifts that must agree
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from oracle import determinant_oracle  # noqa: E402

J0_AT_ONE = 0.7651976865579666
HEAT_POINT = 0.4657596075936404


def test_diagonal_point_canonical_form():
    p = DiagonalPoint((-0.5, 2.0, 1.0))
    assert p.values == (2.0, 1.0, 0.5)
    assert p.dimension == 3
    with pytest.raises(DomainError):
        DiagonalPoint((float("nan"),))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_nonfinite_entry_anywhere_is_refused(bad, where):
    vals = [2.0, -0.5, 1.0]
    vals[where] = bad
    with pytest.raises(DomainError, match="diagonal entries must be finite"):
        DiagonalPoint(vals)
    with pytest.raises(DomainError, match="variables must be finite"):
        complete_h_table(vals, 3)


def test_squared_gap_product_values():
    assert squared_gap_product((2.0, 1.0)) == 3.0
    assert squared_gap_product((5.0,)) == 1.0
    assert squared_gap_product(()) == 1.0


@pytest.mark.parametrize(
    "values",
    [(1.0 + 2.0**-30, 1.0), (3.0, 1.0 + 2.0**-40, 1.0), (1e150, 3e-100), (2.5, -0.7, 0.1, 1.9)],
)
def test_squared_gap_product_is_accurate_to_a_few_roundings(values):
    # each factor (v_i - v_j)(v_i + v_j) takes three roundings and no
    # cancellation of squares, so the product is within 3m + m roundings
    m = len(values) * (len(values) - 1) // 2
    with mp.workdps(50):
        exact = mp.mpf(1)
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                exact *= mp.mpf(values[i]) ** 2 - mp.mpf(values[j]) ** 2
        got = squared_gap_product(values)
        assert abs(got - exact) <= 4 * m * _EPS / 2 * abs(exact)
    # a product beyond double range is inf, not inf - inf
    assert squared_gap_product((1e200, 5e199)) == math.inf


def test_one_dimensional_case_reduces_to_j0():
    r = spherical_det((1.0,), (1.0,))
    assert r.value == pytest.approx(J0_AT_ONE, abs=1e-12)
    for a in (0.1, 0.7, 1.6, 3.0):
        for t in (0.1, 1.0, 2.2, 3.0):
            got = spherical_det((a,), (t,)).value
            assert got == pytest.approx(bessel_j0(a * t), rel=1e-10)


def test_determinant_and_series_agree():
    d = spherical_det((1.0, 2.0), (0.5, 1.5))
    s = spherical_series((1.0, 2.0), (0.5, 1.5))
    assert d.value == pytest.approx(s.value, rel=1e-8)
    assert abs(d.value - s.value) <= d.abs_error + s.abs_error


def test_exchange_symmetry_is_exact():
    a = spherical_det((1.0, 2.0), (0.5, 1.5)).value
    b = spherical_det((0.5, 1.5), (1.0, 2.0)).value
    assert a == b


def test_invariance_under_signs_and_permutations():
    base = spherical_det((1.0, 2.0), (0.5, 1.5)).value
    assert spherical_det((-2.0, 1.0), (1.5, -0.5)).value == base


def test_values_bounded_by_one():
    for x, xi in (
        ((1.0, 2.0), (0.5, 1.5)),
        ((0.3, 2.5), (2.0, 0.9)),
        ((1.0,), (2.9,)),
    ):
        assert abs(spherical_det(x, xi).value) <= 1.0 + 1e-9


def test_determinant_refuses_coincident_entries():
    with pytest.raises(DegeneracyError):
        spherical_det((1.0, 1.0), (0.5, 1.5))


def test_series_handles_fully_degenerate_points():
    r = spherical_series((1.0, 1.0), (1.0, 1.0))
    assert 0.0 < r.value <= 1.0


def test_series_at_zero_is_exactly_one():
    assert spherical_series((0.0, 0.0), (1.0, 2.0)).value == 1.0


def test_series_one_dimensional_matches_j0():
    r = spherical_series((2.0,), (0.5,))
    assert r.value == pytest.approx(bessel_j0(1.0), abs=1e-9)


def test_series_handles_zero_entry_against_determinant():
    d = spherical_det((1.2, 0.7), (0.9, 0.0))
    s = spherical_series((1.2, 0.7), (0.9, 0.0))
    assert d.value == pytest.approx(s.value, rel=1e-9)


def test_eval_route_selection():
    auto = spherical_eval((1.0, 2.0), (0.5, 1.5))
    assert auto.path == "determinant"
    degen = spherical_eval((1.0, 1.0), (0.5, 1.5))
    assert degen.path == "newton"
    forced = spherical_eval((1.0, 2.0), (0.5, 1.5), path="series")
    assert forced.path == "series"
    with pytest.raises(DomainError):
        spherical_eval((1.0,), (1.0,), path="bogus")
    with pytest.raises(DegeneracyError):
        spherical_eval((1.0, 1.0), (0.5, 1.5), path="det")


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        spherical_det((1.0, 2.0), (0.5,))
    with pytest.raises(ShapeError):
        spherical_series((1.0, 2.0), (0.5,))


@pytest.mark.parametrize(
    "evaluate",
    [
        spherical_det,
        spherical_eval,
        spherical_series,
        orbital_integral,
        lambda x, xi: heat_kernel(1.0, x, xi),
        lambda x, xi: mc_spherical(x, xi, 200),
        lambda x, xi: mc_orbital_exp(x, xi, 200),
        lambda x, xi: mc_biinvariant_avg(OmegaParam([1.0]), x, xi, 4, 200),
    ],
    ids=[
        "det",
        "eval",
        "series",
        "orbital",
        "heat",
        "mc_spherical",
        "mc_orbital",
        "mc_biinvariant",
    ],
)
def test_empty_points_rejected(evaluate):
    with pytest.raises(DomainError, match="empty diagonal point"):
        evaluate([], [])


def test_series_scales_entries_before_squaring_them():
    # x_i xi_j = 1 while x^2 overflows and xi^2 underflows; an underflowing
    # xi table once gave 0.75 with a claim of 1e-13 at 1e150
    for big in (1e150, 1e200):
        r = spherical_series((big,), (1.0 / big,))
        assert abs(r.value - J0_AT_ONE) <= r.abs_error <= 1e-12
    r = spherical_series((1e200, 1e200), (1e-200, 1e-201))
    ref = spherical_series((1.0, 1.0), (1.0, 0.1))
    assert abs(r.value - ref.value) <= r.abs_error + ref.abs_error <= 1e-12


def test_near_zero_argument_normalizes_to_one():
    r = spherical_series((1.0, 2.0), (1e-8, 5e-9))
    assert r.value == pytest.approx(1.0, abs=1e-8)
    # the determinant is catastrophically cancelling here; its certified
    # error must cover the deviation rather than silently under-report
    d = spherical_det((1.0, 2.0), (1e-8, 5e-9))
    assert d.abs_error >= abs(d.value - 1.0)


def test_orbital_one_dimensional_matches_i0():
    r = orbital_integral((1.0,), (2.0,))
    assert r.value == pytest.approx(hyper_f(1.0), rel=1e-12)
    assert r.value == pytest.approx(bessel_i0(2.0), rel=1e-12)


def test_orbital_at_zero_is_exactly_one():
    assert orbital_integral((1.5, 0.5), (0.0, 0.0)).value == 1.0


@pytest.mark.parametrize("n", range(1, 9))
def test_zero_argument_is_exactly_one_under_auto(n):
    # the Schur series' one term, where the Newton route rounded:
    # orbital_integral((30, 20, 10), (0, 0, 0)) raised ConvergenceError
    zero = (0.0,) * n
    for x in (tuple(30.0 - 3.0 * k for k in range(n)), (30.0,) * n, (1e-3,) + zero[1:]):
        for evaluate in (spherical_eval, orbital_integral):
            for args in ((x, zero), (zero, x)):
                r = evaluate(*args)
                assert (r.value, r.abs_error, r.terms_used, r.path) == (1.0, 0.0, 1, "series")
            if n >= 2:
                with pytest.raises(DegeneracyError):
                    evaluate(x, zero, path="det")


def _i0(v):
    return mp.besseli(0, mp.mpf(v))


@pytest.mark.parametrize(
    "evaluate, x, xi, exact, claim",
    [
        # the 2 x 2 expansion 4 (I0(600) I0(2) - I0(60) I0(20)) / (D(lam) D(theta));
        # mp.det calls this matrix singular and returns 0.  The row bound of
        # _certified_det charges I0(20)'s error against the pivot I0(2)
        (orbital_integral, (30.0, 1.0), (20.0, 2.0),
         lambda: 4 * (_i0(600) * _i0(2) - _i0(60) * _i0(20)) / ((900 - 1) * (400 - 4)), 1e-4),
        (orbital_integral, (1.0,), (270.0,), lambda: _i0(270), 1e-12),
        (spherical_eval, (10.0,), (4.0,), lambda: mp.besselj(0, 40), 1e-13),
    ],
    ids=["orbital-30-1-20-2", "orbital-1-270", "spherical-10-4"],
)
def test_determinant_route_certifies_past_the_old_taylor_caps(evaluate, x, xi, exact, claim):
    r = evaluate(x, xi)
    with mp.workdps(60):
        err = abs(mp.mpf(r.value) - exact())
    assert r.path == "determinant"
    assert err <= r.abs_error <= claim * max(1.0, abs(r.value))


def test_orbital_routes_agree():
    d = orbital_integral((1.0, 2.0), (0.5, 1.0), path="det")
    s = orbital_integral((1.0, 2.0), (0.5, 1.0), path="series")
    assert d.value == pytest.approx(s.value, rel=1e-9)
    assert d.value > 0.0


def test_orbital_overflow_guard():
    with pytest.raises(RangeError):
        orbital_integral((30.0,), (30.0,))


def test_determinant_beyond_double_range_is_a_range_error():
    # below the 700 guard, but the determinant's value is about e^1300: it
    # once came back as nan with abs_error inf
    with pytest.raises(RangeError, match="double range"):
        orbital_integral((26.0, 25.0), (26.0, 25.5))
    # the heat kernel at this point is in range, its orbital factor is not
    with pytest.raises(RangeError, match="double range"):
        heat_kernel(0.5, (26.0, 25.0), (26.0, 25.5))


def test_orbital_determinant_refuses_coincident_entries():
    with pytest.raises(DegeneracyError):
        orbital_integral((1.0, 1.0), (0.5, 1.5), path="det")


def test_heat_kernel_point_value():
    got = heat_kernel(0.5, (1.0,), (1.0,))
    assert got == pytest.approx(HEAT_POINT, rel=1e-12)
    assert got == pytest.approx(math.exp(-1.0) * bessel_i0(1.0), rel=1e-13)


def test_heat_kernel_semigroup_property():
    t, s, lam, rho = 0.3, 0.2, 1.0, 0.7
    lhs, _ = integrate.quad(
        lambda th: heat_kernel(t, (lam,), (th,)) * heat_kernel(s, (th,), (rho,)) * th,
        0.0,
        40.0,
        limit=300,
    )
    rhs = heat_kernel(t + s, (lam,), (rho,))
    assert lhs == pytest.approx(rhs, rel=1e-4)


def test_heat_kernel_decays_for_large_time():
    h5 = heat_kernel(5.0, (1.0,), (1.0,))
    h50 = heat_kernel(50.0, (1.0,), (1.0,))
    h500 = heat_kernel(500.0, (1.0,), (1.0,))
    assert h500 < h50 < h5
    assert h500 < 1e-3


@pytest.mark.parametrize("t", [1e-3, 0.5, 10.0])
@pytest.mark.parametrize("lam, theta", [((0.7,), (0.7,)), ((0.8,), (0.6,))])
def test_heat_kernel_one_dimensional_closed_form(t, lam, theta):
    got = heat_kernel(t, lam, theta)
    assert got == pytest.approx(determinant_oracle("heat", lam, theta, t), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "lam, theta",
    [
        ((1.0, 0.5), (0.8, 0.3)),
        ((1.9, 1.1, 0.4), (1.5, 0.9, 0.2)),
        ((1.8, 1.3, 0.8, 0.3), (1.6, 1.0, 0.6, 0.2)),
    ],
)
def test_heat_kernel_closed_form_separated(lam, theta):
    got = heat_kernel(0.5, lam, theta)
    assert got == pytest.approx(determinant_oracle("heat", lam, theta, 0.5), rel=1e-9, abs=0.0)


def test_heat_kernel_input_validation():
    with pytest.raises(DomainError):
        heat_kernel(0.0, (1.0,), (1.0,))
    # coincident entries take the orbital series at (lam/2t, theta)
    got = heat_kernel(0.5, (1.0, 1.0), (0.5, 1.5))
    expected = determinant_oracle("heat", (1.0, 1.0), (0.5, 1.5), 0.5)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_heat_kernel_rescaled_point_beyond_double_range_is_a_range_error():
    # lam / 2t overflows at t = 1e-310; at t = 1e-300 the orbital guard refuses
    for t in (1e-310, 1e-300):
        with pytest.raises(RangeError):
            heat_kernel(t, (1.0,), (1.0,))


# heat_kernel(1.5, (0.25, 0.5, ..., n/4), 0) for n = 1..8, as the orbital
# route gave them (its factor is exactly 1.0 at these points)
HEAT_AT_ZERO_THETA = [
    0.32987913297166555,
    0.001464891604012616,
    2.858794118124368e-08,
    1.2006300726957118e-15,
    6.376582019777103e-26,
    2.7962758922274977e-39,
    7.082875116372341e-56,
    7.611848045180538e-76,
]


def test_heat_kernel_at_zero_theta_takes_the_orbital_factor_as_one():
    # the value underflows at both t, although lam / 2t overflows at 1e-310
    for t in (1e-300, 1e-310):
        assert heat_kernel(t, (1.0,), (0.0,)) == 0.0
    for n, expected in enumerate(HEAT_AT_ZERO_THETA, 1):
        lam = tuple(0.25 * (k + 1) for k in range(n))
        assert heat_kernel(1.5, lam, (0.0,) * n) == expected


def _separated_point(n):
    # entries in [0.1, 2] whose squares differ by at least 5% of the largest
    def ok(v):
        sq = sorted((x * x for x in v), reverse=True)
        return all(sq[i] - sq[i + 1] >= 0.05 * sq[0] for i in range(n - 1))

    entries = st.floats(0.1, 2.0, allow_nan=False, allow_infinity=False)
    return st.lists(entries, min_size=n, max_size=n).filter(ok)


@st.composite
def _separated_pair(draw):
    n = draw(st.integers(1, 3))
    return draw(_separated_point(n)), draw(_separated_point(n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_separated_pair())
def test_determinant_and_series_routes_agree_within_their_errors(pair):
    x, xi = pair
    for evaluate in (spherical_eval, orbital_integral):
        d = evaluate(x, xi, path="det")
        s = evaluate(x, xi, path="series")
        assert abs(d.value - s.value) <= d.abs_error + s.abs_error


def test_series_partition_counts_stay_small():
    # the series stops at the weight its tail bound certifies, not at weight 64
    r = spherical_series((1, 1), (0.5, 1.5))
    assert r.value == 0.723410000233114
    assert r.terms_used <= 60
    r = spherical_series((2, 2, 1), (1.5, 0.5, 0.7))
    assert r.value == 0.4589556802729315
    assert r.terms_used <= 600


@st.composite
def _series_point(draw):
    # entries from a small pool, so coincident and zero entries are common
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=n)) + [0.0]
    entry = st.sampled_from(pool)
    x = draw(st.lists(entry, min_size=n, max_size=n))
    xi = draw(st.lists(entry, min_size=n, max_size=n))
    evaluate = draw(st.sampled_from([spherical_eval, orbital_integral]))
    return evaluate, x, xi


def _streamed_tail(x, xi):
    """The series' layer bounds v_w = max(exp(2 C_w), _EXP_FLOOR) h_w(Lam^ Xi^)
    at zero slack, closed as the series closes them: (rows, tails, v),
    tails[w] the bound on the layers of weight >= w (w >= 1), both to weight
    2W, W the first weight whose tail is below 4 eps."""
    n = len(x)
    lam = sorted((v * v for v in x if v), reverse=True)
    xiq = sorted((v * v / 4.0 for v in xi if v), reverse=True)
    rows = min(len(lam), len(xiq))
    # Cauchy's identity: h of the products of the variables scaled by their
    # largest entries sums s_m(Lam^) s_m(Xi^) over each weight
    h_prod = complete_h_table(
        [p / lam[0] * (q / xiq[0]) for p in lam for q in xiq], 2 * _WEIGHT_CAP
    )
    half_logc = 0.5 * (math.log(lam[0]) + math.log(xiq[0]))
    # every row's factors d + s, d = n - 1 - i, smallest first: C_w sums the
    # first w steps, the largest coefficient of any split of w between rows
    factors = sorted(n - i + s for i in range(rows) for s in range(2 * _WEIGHT_CAP))
    coef = 0.0
    v = [1.0]
    tails = [math.inf]
    W = None
    for j in range(1, 2 * _WEIGHT_CAP + 1):
        step = half_logc - math.log(factors[j - 1])
        coef += step
        v.append(max(math.exp(2.0 * coef), _EXP_FLOOR) * h_prod[j])
        rho = math.exp(2.0 * step) * h_prod[j] / h_prod[j - 1]
        tails.append(v[j] / (1.0 - rho) if rho < 1.0 else math.inf)
        if W is None and tails[j] <= 4.0 * _EPS:
            W = j
        if W is not None and j == 2 * W:
            return rows, tails, v
    raise AssertionError("the tail bound certified nothing")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_series_point())
# a run of three equal entries: h_{j+1}/h_j stays well above 1 at the cut
@example((orbital_integral, [1.9, 1.9, 1.9], [2.0, 0.0, 0.0]))
def test_tail_table_bounds_every_weight(point):
    evaluate, x, xi = point
    assert evaluate(x, xi, path="series").path == "series"
    assume(any(x) and any(xi))
    rows, tails, _ = _streamed_tail(x, xi)
    W = (len(tails) - 1) // 2
    # brute force: absolute sum of every layer up to weight 2W
    n = len(x)
    lam = sorted((v * v for v in x if v), reverse=True)
    xiq = sorted((v * v / 4.0 for v in xi if v), reverse=True)
    h_lam = complete_h_table(lam, 2 * W + rows)
    h_xi = complete_h_table(xiq, 2 * W + rows)
    layers = [0.0] * (2 * W + 1)
    for parts in _partition_tuples(2 * W, rows):
        log_a = sum(math.lgamma(n - i) - math.lgamma(n - i + m) for i, m in enumerate(parts))
        schurs = _jacobi_trudi_det(parts, h_lam) * _jacobi_trudi_det(parts, h_xi)
        layers[sum(parts)] += abs(math.exp(2.0 * log_a) * schurs)
    # at rows = 1 the bound at weight w starts with the layer itself: both
    # sides are then one sum, rounded differently (scaled against unscaled
    # tables)
    for w in range(1, 2 * W + 1):
        assert tails[w] >= (1.0 - 1e-12) * math.fsum(layers[w:])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_series_point())
@example((orbital_integral, [1.9, 1.9, 1.9], [2.0, 0.0, 0.0]))
@example((spherical_eval, [2.0, 2.0, 0.2], [2.0, 1.9, 1.9]))
def test_layer_bound_ratios_do_not_rise(point):
    # the tail closure bounds every later v_{k+1}/v_k by v_w/v_{w-1}: it
    # relies on v being log-concave, true of the exact sequence (a Polya
    # frequency sequence times falling coefficient steps) and of the
    # computed one up to its rounding
    _, x, xi = point
    assume(any(x) and any(xi))
    _, _, v = _streamed_tail(x, xi)
    ratios = [b / a for a, b in zip(v, v[1:])]
    for k in range(1, len(ratios)):
        assert ratios[k] <= ratios[k - 1] * (1.0 + 1e-12)


def _coincident_points(seed):
    """Points shaped like the coincident benchmark classes: n = 2 and 3 with
    one coincident pair against a separated point, n = 4 with a pair against
    a point with a zero entry; entries in [0.2, 2]."""
    rng = random.Random(seed)

    def separated(n):
        while True:
            v = sorted((rng.uniform(0.2, 2.0) for _ in range(n)), reverse=True)
            if all(v[i] ** 2 - v[i + 1] ** 2 > 0.05 * v[0] ** 2 for i in range(n - 1)):
                return v

    def with_pair(n):
        base = separated(n - 1)
        return sorted(base + base[:1], reverse=True)

    points = []
    for n, count in ((2, 24), (3, 24)):
        for k in range(count):
            pair = (with_pair(n), separated(n))
            points.append(pair if k % 2 else pair[::-1])
    for _ in range(12):
        points.append((with_pair(4), separated(3) + [0.0]))
    return points


@functools.lru_cache(maxsize=None)
def _cached_oracle(kind, x, xi):
    return determinant_oracle(kind, x, xi)


def _oracle(kind, x, xi):
    # the series and Newton-route tests share these mpmath evaluations
    return _cached_oracle(kind, tuple(x), tuple(xi))


ORBITAL_MISS = (
    (1.9000062478414768, 1.6685090370638551, 1.4159568666312485),
    (1.986757555097953, 1.986757555097953, 0.9578514430619771),
)


@pytest.mark.parametrize("x, xi", _coincident_points(2024) + [ORBITAL_MISS])
def test_series_route_within_its_bound_of_the_oracle(x, xi):
    for oscillatory, evaluate in ((True, spherical_eval), (False, orbital_integral)):
        r = evaluate(x, xi, path="series")
        assert r.path == "series"
        oracle = _oracle("spherical" if oscillatory else "orbital", x, xi)
        assert abs(r.value - oracle) <= r.abs_error <= 1e-13 * max(1.0, abs(oracle))


# Series-route results pinned bit for bit: (evaluator, x, xi, value,
# abs_error, terms_used).  Coincident points at n = 2, 3, 4 for the J0 and I0
# kernels and two points with a zero entry.  The ids name the points, not
# the pinned numbers, so a re-pin keeps the test names.
SERIES_BITS = [
    (spherical_series, (1.0, 1.0), (0.5, 0.5), 0.9394195846867707, 1.2416744933109647e-15, 25),
    (
        spherical_eval,
        (1.0, 1.0, 2.0),
        (0.7, 1.3, 0.2),
        0.6856009920101902,
        4.284541142722188e-15,
        204,
    ),
    (
        spherical_series,
        (1.5, 1.5, 0.5, 0.5),
        (0.8, 0.8, 0.3, 0.6),
        0.8731965241240933,
        3.1105689792785944e-15,
        155,
    ),
    (orbital_integral, (2.0, 2.0), (1.0, 0.5), 1.826249136106345, 5.61043611837426e-15, 56),
    (
        orbital_integral,
        (1.0, 1.0, 1.0),
        (0.5, 0.3, 0.3),
        1.0364601322132925,
        1.3150050081524063e-15,
        41,
    ),
    (spherical_series, (1.2, 0.0), (0.9, 0.4), 0.9155677392951213, 1.7186139993433952e-15, 8),
    (
        spherical_eval,
        (1.3, 1.3, 0.0),
        (0.6, 0.2, 0.9),
        0.8920777386416283,
        1.7532653342715947e-15,
        30,
    ),
]
SERIES_BITS_IDS = [f"{row[0].__name__}-x{i}" for i, row in enumerate(SERIES_BITS)]


@pytest.mark.parametrize(
    "evaluate, x, xi, value, abs_error, terms_used", SERIES_BITS, ids=SERIES_BITS_IDS
)
def test_series_route_bits_are_pinned(evaluate, x, xi, value, abs_error, terms_used):
    r = evaluate(x, xi) if evaluate is spherical_series else evaluate(x, xi, path="series")
    assert r.path == "series"
    assert (r.value, r.abs_error, r.terms_used) == (value, abs_error, terms_used)
    # the pinned bits are themselves within their bound of the oracle
    kind = "orbital" if evaluate is orbital_integral else "spherical"
    assert abs(value - _oracle(kind, x, xi)) <= abs_error


def test_series_bits_do_not_depend_on_the_order_within_a_weight(monkeypatch):
    # each weight's terms are summed correctly rounded, so only the weight
    # order reaches the result
    points = [((3, 2.5, 2), (2, 1.8, 1.1)), ((1.474, 1.712, 1.474), (1.992, 1.992, 1.992))]
    want = [spherical_series(x, xi) for x, xi in points]

    def reversed_within_weight(max_weight, max_length):
        for _, layer in itertools.groupby(_partition_tuples(max_weight, max_length), sum):
            yield from reversed(list(layer))

    monkeypatch.setattr(spherical_module, "_partition_tuples", reversed_within_weight)
    assert [spherical_series(x, xi) for x, xi in points] == want


def _newton(evaluate, x, xi):
    # the Newton-basis route forced, for spherical_eval's J0 or
    # orbital_integral's I0 kernel; "auto" takes it only where it certifies
    oscillatory = evaluate is spherical_eval
    pair = spherical_module._canonical_order(*spherical_module._point_pair(x, xi))
    return spherical_module._newton_transform(*pair, oscillatory)


@pytest.mark.parametrize(
    "x, xi", _coincident_points(2024) + [ORBITAL_MISS] + [row[1:3] for row in SERIES_BITS]
)
def test_newton_route_within_its_bound_of_the_oracle(x, xi):
    for oscillatory, evaluate in ((True, spherical_eval), (False, orbital_integral)):
        r = _newton(evaluate, x, xi)
        assert r.path == "newton"
        oracle = _oracle("spherical" if oscillatory else "orbital", x, xi)
        assert abs(r.value - oracle) <= r.abs_error <= 1e-10 * abs(r.value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_separated_pair())
def test_newton_and_determinant_routes_agree_within_their_errors(pair):
    x, xi = pair
    for evaluate in (spherical_eval, orbital_integral):
        d = evaluate(x, xi, path="det")
        r = _newton(evaluate, x, xi)
        assert abs(d.value - r.value) <= d.abs_error + r.abs_error


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_series_point())
def test_newton_and_series_routes_agree_within_their_errors(point):
    evaluate, x, xi = point
    s = evaluate(x, xi, path="series")
    r = _newton(evaluate, x, xi)
    assert abs(s.value - r.value) <= s.abs_error + r.abs_error


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_series_point(), st.randoms(use_true_random=False))
def test_newton_route_symmetries_are_exact(point, rnd):
    evaluate, x, xi = point
    expected = repr(_newton(evaluate, x, xi))
    assert repr(_newton(evaluate, xi, x)) == expected

    def shuffle_and_flip(v):
        return [e if rnd.random() < 0.5 else -e for e in rnd.sample(v, len(v))]

    assert repr(_newton(evaluate, shuffle_and_flip(x), shuffle_and_flip(xi))) == expected


@pytest.mark.parametrize(
    "x, xi",
    [((2.6,), (2.21,)), ((2.96, 2.54), (2.95, 1.54)), ((2.96,), (2.94,)), ((2.9, 2.9), (2.89, 1.83))],
)
def test_newton_bound_holds_where_j0_entries_cancel(x, xi):
    # entry products 5.7 to 8.7: the J0 entries cancel, and it is the entry
    # rounding term that covers the error; the last two do not certify
    r = _newton(spherical_eval, x, xi)
    assert abs(r.value - _oracle("spherical", x, xi)) <= r.abs_error


def test_newton_route_refuses_what_it_cannot_certify():
    # n = 4, max product 7: the Newton bound is about 1.6e-9 relative, so
    # "auto" raises with the Newton value and bound; "series" sums the series
    lam, theta = (2.34, 2.34, 2.17, 1.65), (2.99, 2.98, 2.97, 0.0)
    series = orbital_integral(lam, theta, path="series")
    with pytest.raises(ConvergenceError, match="path 'series'") as info:
        orbital_integral(lam, theta)
    r = _newton(orbital_integral, lam, theta)
    assert (info.value.partial, info.value.abs_error) == (r.value, r.abs_error)
    assert abs(info.value.partial - series.value) <= info.value.abs_error
    assert 1e-10 * abs(r.value) < r.abs_error < math.inf


@pytest.mark.parametrize(
    "evaluate, x, xi, order, cause",
    [
        # products 2.0e5 and 9.4e4: the tail test fails at every order up to
        # the cap 200, so the route gives up there
        (spherical_eval, (30.0, 30.0), (30.0, 29.0), 200, "no truncation order below its cap 200"),
        (orbital_integral, (25.0, 25.0), (25.0, 24.0), 200, "no truncation order below its cap"),
    ],
)
def test_newton_refusal_names_its_cause(evaluate, x, xi, order, cause):
    r = _newton(evaluate, x, xi)
    assert math.isnan(r.value)
    assert (r.abs_error, r.terms_used, r.path) == (math.inf, order, "newton")
    with pytest.raises(ConvergenceError, match=cause) as info:
        evaluate(x, xi)
    assert "path 'series'" in str(info.value)
    assert math.isnan(info.value.partial) and info.value.abs_error == math.inf


@st.composite
def _scaled_twins(draw):
    """A pair and its twin (2^k x, 2^-k xi) with k within the normal range:
    n = 1..6, entries from a small pool in [0.2, 2] plus zero, so coincident
    and zero entries are common."""
    n = draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(0.2, 2.0), min_size=1, max_size=n)) + [0.0]
    entry = st.sampled_from(pool)
    x = draw(st.lists(entry, min_size=n, max_size=n))
    xi = draw(st.lists(entry, min_size=n, max_size=n))
    k = draw(st.integers(-1000, 1000))
    return (x, xi), ([math.ldexp(v, k) for v in x], [math.ldexp(v, -k) for v in xi])


def _outcome(evaluate, x, xi, path):
    # (route, value, abs_error); a Newton refusal carries the route's value
    # and bound, and that route's bound depends on which side the fixed
    # order puts first, so a pair and its twin can fall on either side of
    # the 1e-10 gate
    try:
        r = evaluate(x, xi, path=path)
    except DegeneracyError:
        return "degenerate", math.nan, math.inf
    except ConvergenceError as e:
        assert str(e).startswith("Newton-basis determinant")
        return "newton", e.partial, e.abs_error
    return r.path, r.value, r.abs_error


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_scaled_twins())
# the products of these pairs are (about) those of their unit-scale twins,
# whose squares stay in double range
@example((((1e100, 1e100), (1e-100, 1e-100)), ((1.0, 1.0), (1.0, 1.0))))
@example((((1e-200, 2e-200), (1e200, 3e199)), ((2.0, 1.0), (1.0, 0.3))))
@example((((1e200, 5e199), (1e-200, 3e-201)), ((1.0, 0.5), (1.0, 0.3))))
@example((((1e155, 1e155), (1e-154, 2e-154)), ((10.0, 10.0), (1.0, 2.0))))
def test_determinant_routes_depend_on_the_products_alone(twins):
    pair, twin = twins
    for evaluate in (spherical_eval, orbital_integral):
        for path in ("auto", "det"):
            p, v, e = _outcome(evaluate, *pair, path)
            q, w, f = _outcome(evaluate, *twin, path)
            assert p == q
            assert e == f == math.inf or abs(v - w) <= e + f


@pytest.mark.parametrize("x, xi", [((1e155, 1e155), (1e-154, 2e-154)), ((2.7, 2.7), (3.7, 7.4))])
def test_scaled_coincident_pair_is_refused_like_its_twin(x, xi):
    # products 10 and 20 at a coincident pair whose squares overflow
    # unscaled: "det" refuses it, and the Newton bound misses 1e-10 relative
    with pytest.raises(DegeneracyError):
        spherical_eval(x, xi, path="det")
    with pytest.raises(ConvergenceError, match="^Newton-basis determinant certifies"):
        spherical_eval(x, xi)


def _one_step_order(x, xi):
    """(K, passed) by the Newton route's one-step order search, restated:
    the least K >= n-1 whose windows of lam_0^m/m! and mu_0^m/m!,
    m = K+2-n..K+1, have a product of maxima <= 2^-60 and where
    2 lam_0 mu_0 <= (K+3-n)^2, tried one order at a time up to the cap."""
    a, b = spherical_module._canonical_order(*spherical_module._point_pair(x, xi))
    n = len(a)
    lam0, mu0 = a[0] * a[0], b[0] * b[0] / 4.0
    pl, pm = [1.0], [1.0]
    for K in range(n - 1, max(n - 1, 200) + 1):
        while len(pl) < K + 2:
            pl.append(pl[-1] * lam0 / len(pl))
            pm.append(pm[-1] * mu0 / len(pm))
        first_l, first_m = max(pl[K + 2 - n :]), max(pm[K + 2 - n :])
        first = first_l * first_m if first_l and first_m else 0.0
        if first <= 2.0**-60 and 2.0 * (lam0 * mu0) <= (K + 3 - n) ** 2:
            return K, True
    return K, False


@st.composite
def _newton_search_point(draw):
    """Pairs for the order search: n = 1..8, entries up to 20 (many reach
    the cap), near 1e-170 (their squares underflow), up to 1e160 (their
    squares overflow), or x scaled up and xi down by 10^e (which
    _canonical_order balances back), with coincident and zero entries."""
    n = draw(st.integers(1, 8))
    plain = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
    regime = draw(st.sampled_from(("plain", "tiny", "huge", "reciprocal")))
    entry = {
        "plain": plain,
        "tiny": st.one_of(plain, st.floats(1e-175, 1e-165)),
        "huge": st.one_of(plain, st.floats(1e60, 1e160)),
        "reciprocal": plain,
    }[regime]

    def vector():
        v = draw(st.lists(entry, min_size=n, max_size=n))
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.permutations(range(n)))[:2]
            v[j] = v[i]
        return v

    x, xi = vector(), vector()
    if regime == "reciprocal":
        e = draw(st.floats(40.0, 160.0))
        x, xi = [v * 10.0**e for v in x], [v * 10.0**-e for v in xi]
    return x, xi


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_newton_search_point(), st.booleans())
@example(((1e100, 1e100), (1e-100, 1e-100)), True)
@example(([1.0] * 202, [0.5] * 202), False)  # n - 1 above the cap
@example(([30.0] * 205, [30.0] * 205), True)
def test_newton_order_is_the_one_step_search_order(point, oscillatory):
    x, xi = point
    pair = spherical_module._canonical_order(*spherical_module._point_pair(x, xi))
    order, passed = _one_step_order(x, xi)
    try:
        r = spherical_module._newton_transform(*pair, oscillatory)
    except DomainError:
        # an all-zero side, which _orbit_transform never sends, can leave
        # nan entries (an overflowed g_m times a zero one), and
        # _certified_det refuses them
        assert passed and not (pair[0][0] and pair[1][0])
        return
    assert (r.terms_used, r.path) == (order, "newton")
    if not passed:
        assert math.isnan(r.value) and r.abs_error == math.inf
    elif pair[0][0] and pair[1][0]:
        # where neither side is all zero, as _orbit_transform sends them, the
        # entries stay in double range wherever an order passes
        assert math.isfinite(r.value)


# Determinant-route results pinned bit for bit: (evaluator, x, xi, value,
# abs_error) at separated points for n = 1, 2, 3, 4; terms_used is n.
DET_POINTS = [
    ((1.3,), (0.7,)),
    ((1.0, 2.0), (0.5, 1.5)),
    ((0.4, 1.1, 2.3), (0.3, 0.9, 1.7)),
    ((1.8, 1.3, 0.8, 0.3), (1.6, 1.0, 0.6, 0.2)),
]
DET_BITS = [
    (spherical_eval, 0.8034465294730335, 2.0749414543651522e-15),
    (spherical_eval, 0.4238001722120593, 6.3910805843821835e-15),
    (spherical_eval, 0.48320897928037226, 7.717540942732858e-14),
    (spherical_eval, 0.7018890564957418, 1.012608081710581e-10),
    (orbital_integral, 1.2179895243513217, 2.633571942142592e-15),
    (orbital_integral, 2.070521140287064, 4.363123729614139e-14),
    (orbital_integral, 1.9718223085342803, 8.273737362756598e-13),
    (orbital_integral, 1.4143085732615286, 3.1647412885598475e-10),
]


@pytest.mark.parametrize(
    "evaluate, x, xi, value, abs_error",
    [(f, *DET_POINTS[k % 4], v, e) for k, (f, v, e) in enumerate(DET_BITS)],
    ids=[f"{f.__name__}-n{k % 4 + 1}" for k, (f, _, _) in enumerate(DET_BITS)],
)
def test_determinant_route_bits_are_pinned(evaluate, x, xi, value, abs_error):
    r = evaluate(x, xi)
    assert r.path == "determinant"
    assert (r.value, r.abs_error, r.terms_used) == (value, abs_error, len(x))
    # the pinned bits are themselves within their bound of the oracle
    kind = "orbital" if evaluate is orbital_integral else "spherical"
    assert abs(value - _oracle(kind, x, xi)) <= abs_error


def test_certified_determinant_bound_beyond_double_range_is_infinite():
    # entry errors far above the pivots: the bound leaves double range, and
    # the value, -1e-400, keeps its sign through underflow
    r = spherical_module._certified_det(
        [[-1e-200, 0.0], [0.0, 1e-200]], [[1e100, 1e100], [1e100, 1e100]], False, 2, "newton"
    )
    assert (r.value, r.abs_error, r.terms_used, r.path) == (0.0, math.inf, 2, "newton")
    assert math.copysign(1.0, r.value) == -1.0


@pytest.mark.parametrize(
    "matrix, entry",
    [
        ([[1.0, math.nan], [math.nan, 1.0]], "(0, 1) is nan"),  # was RangeError
        ([[0.0, math.nan], [math.nan, 0.0]], "(0, 1) is nan"),  # was 0.0 +- inf
        ([[2.0, math.nan], [0.0, 1.0]], "(0, 1) is nan"),  # was 2.0 +- inf
        ([[1.0, 0.0], [0.0, math.inf]], "(1, 1) is inf"),  # was RangeError
    ],
    ids=["nan-pivot", "zero-pivot", "infinite-bound", "inf-entry"],
)
def test_certified_determinant_refuses_non_finite_entries(matrix, entry):
    # the pivot search skips nan, so a non-finite entry ends in a nan or
    # zero pivot, a value beyond double range or an infinite bound
    with pytest.raises(DomainError, match=re.escape(f"kernel matrix entry {entry}")):
        spherical_module._certified_det(matrix, [[0.0, 0.0], [0.0, 0.0]], False, 2, "newton")


def _separated_points(seed):
    """Pairs shaped like the separated benchmark class: n = 1..6, entries
    U(0.1, 4), squared gaps at least 0.01 of the largest square."""
    rng = random.Random(seed)

    def separated(n):
        while True:
            v = sorted((rng.uniform(0.1, 4.0) for _ in range(n)), reverse=True)
            if all(v[i] ** 2 - v[i + 1] ** 2 > 0.01 * v[0] ** 2 for i in range(n - 1)):
                return v

    return [(separated(n), separated(n)) for n in range(1, 7) for _ in range(4)]


def _squeezed_points(seed):
    """Separated pairs (entries U(0.1, 4), n = 2..5, 15 each) with one
    adjacent pair of one side squeezed to a relative squared gap
    10^U(-5.99, -3): just above the 1e-6 separation threshold, the closest
    pairs the Bessel route takes."""
    rng = random.Random(seed)
    points = []
    for k in range(60):
        n = 2 + k % 4
        pair = []
        for _ in range(2):
            while True:
                v = sorted((rng.uniform(0.1, 4.0) for _ in range(n)), reverse=True)
                if all(v[i] ** 2 - v[i + 1] ** 2 > 0.01 * v[0] ** 2 for i in range(n - 1)):
                    pair.append(v)
                    break
        v = rng.choice(pair)
        i = rng.randrange(n - 1)
        v[i + 1] = math.sqrt(v[i] ** 2 - 10.0 ** rng.uniform(-5.99, -3.0) * v[0] ** 2)
        points.append(tuple(pair))
    return points


@pytest.mark.parametrize(
    "x, xi",
    _separated_points(17)
    # kernel arguments 13.7 and 40, where the old Taylor sums cancelled
    + [((3.868076348036853,), (3.539758894315002,)), ((10.0,), (4.0,))]
    + _squeezed_points(37),
)
def test_determinant_route_within_its_bound_of_the_oracle(x, xi):
    for kind, evaluate in (("spherical", spherical_eval), ("orbital", orbital_integral)):
        r = evaluate(x, xi)
        assert r.path == "determinant"
        assert abs(r.value - _oracle(kind, x, xi)) <= r.abs_error


@pytest.mark.parametrize(
    "x, xi",
    [((1e-160, 5e-161), (1e-160, 5e-161)), ((3e-160, 1e-160, 5e-161), (2e-160, 1e-160, 4e-161))],
)
def test_pairs_with_subnormal_squared_gaps_take_the_newton_route(x, xi):
    # the squares are subnormal and the kernel matrix all ones, whose first
    # pivot is zero: the Bessel route returned 0.0 +- inf here
    for evaluate in (spherical_eval, orbital_integral):
        r = evaluate(x, xi)
        assert r.path == "newton" and abs(r.value - 1.0) <= r.abs_error
        with pytest.raises(DegeneracyError):
            evaluate(x, xi, path="det")


@pytest.mark.parametrize("x", [(1e-5, 5e-6), (1e-100, 5e-101)])
def test_tiny_separated_pairs_fall_back_to_the_newton_route(x):
    # separated, but every kernel entry rounds to 1, so the Bessel route's
    # first pivot is zero and its bound infinite; auto returned that 0.0 +- inf
    for evaluate in (spherical_eval, orbital_integral):
        assert evaluate(x, x, path="det").abs_error == math.inf
        r = evaluate(x, x)
        assert r.path == "newton" and abs(r.value - 1.0) <= r.abs_error <= 1e-14


def test_separated_points_build_the_kernel_matrix_in_one_pass(monkeypatch):
    # no scalar kernel call per entry: one matrix build per evaluation
    calls, builds = [], []

    def count(kernel, log):
        return lambda *args: log.append(args) or kernel(*args)

    monkeypatch.setattr(series, "_kernel", count(series._kernel, calls))
    for name in ("bessel_j0", "bessel_i0", "hyper_f"):
        monkeypatch.setattr(spherical_module, name, count(getattr(series, name), calls))
    monkeypatch.setattr(
        spherical_module, "_kernel_matrix", count(spherical_module._kernel_matrix, builds)
    )
    x, xi = (2.0, 1.5, 1.0, 0.5), (1.8, 1.2, 0.7, 0.3)
    for evaluate in (spherical_eval, orbital_integral):
        assert evaluate(x, xi).path == "determinant"
    assert calls == [] and len(builds) == 2


def test_heat_kernel_bits_are_pinned():
    assert heat_kernel(0.5, (1.0, 0.5), (0.8, 0.3)) == 0.04915755798323769
    assert heat_kernel(0.7, (1.9, 1.1, 0.4), (1.5, 0.9, 0.2)) == 2.1838131941187917e-06


def test_series_sweep_and_cauchy_bits_are_pinned():
    report = spherical_convergence(OmegaParam([1.0, 0.3], 0.5), 1.0, (5, 10, 20, 40))
    assert report.values == (
        0.6338485969454337,
        0.6445779209443044,
        0.6505193454299362,
        0.6536008555173498,
    )
    assert cauchy_lhs((0.3, 0.2, 0.1), (0.5, 0.4, -0.2), 12) == 1.5744680442111796


def test_series_terms_beyond_double_range_raise_range_error():
    # the spherical value is bounded by 1, but its series terms overflow
    with pytest.raises(RangeError):
        spherical_eval((30.0, 30.0), (30.0, 29.0), path="series")
    # below the 700 overflow guard of the determinant route
    with pytest.raises(RangeError):
        orbital_integral((25.0, 25.0), (25.0, 24.0), path="series")
    # one row: the log coefficient itself leaves double range
    with pytest.raises(RangeError):
        spherical_series((30.0, 0.0), (30.0, 29.0))
    # "auto" never sums the series: past its order cap the Newton-basis
    # route certifies nothing
    for evaluate, x, xi in (
        (spherical_eval, (30.0, 30.0), (30.0, 29.0)),
        (orbital_integral, (25.0, 25.0), (25.0, 24.0)),
    ):
        with pytest.raises(ConvergenceError) as info:
            evaluate(x, xi)
        assert info.value.abs_error == math.inf


RANK_ONE_POINTS = [
    ((1.3, 0.0, 0.0), (0.9, 0.5, 0.5)),
    ((1.7, 0.0), (1.2, 0.4)),
    ((2.0, 1.1, 0.3, 0.3), (0.8, 0.0, 0.0, 0.0)),
    ((3.0, 2.0, 2.0), (1.9, 0.0, 0.0)),
    ((1.1, 0.0), (0.7, 0.0)),
    ((1.5,), (0.8,)),
]


@pytest.mark.parametrize("x, xi", RANK_ONE_POINTS)
def test_rank_one_series_is_exchange_symmetric_and_within_its_bound(x, xi):
    # the one-entry side scales to exactly 1 and drops out of the one-row sum
    for kind, evaluate in (("spherical", spherical_eval), ("orbital", orbital_integral)):
        r = evaluate(x, xi, path="series")
        assert evaluate(xi, x, path="series") == r
        oracle = _oracle(kind, x, xi)
        assert abs(r.value - oracle) <= r.abs_error <= 1e-13 * max(1.0, abs(oracle))


def test_rank_one_points_skip_the_partition_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("a rank-one point left the one-row sum")

    for name in ("_partition_tuples", "_jacobi_trudi_det"):
        monkeypatch.setattr(spherical_module, name, refuse)
    spherical_convergence(OmegaParam([0.5, 0.2], 0.3), 1.5, (25, 50, 100, 200))
    for x, xi in RANK_ONE_POINTS:
        spherical_series(x, xi)
        orbital_integral(xi, x, path="series")


def test_rank_one_series_past_the_weight_cap_raises_with_its_partial_sum():
    # term ratios are about 0.99 (n / (n + j))^2: at n = 1e5 weight 240
    # leaves a tail bound of about 3
    with pytest.raises(ConvergenceError) as info:
        spherical_convergence(OmegaParam([0.99], 0.0), 2.0, (10**5,))
    partial, abs_error = info.value.partial, info.value.abs_error
    assert 0.0 < partial < 1.0
    assert 1e-10 * partial < abs_error < math.inf


def test_series_past_the_weight_cap_raises_at_two_rows():
    # the terms reach about 1e165 before they fall: nothing certifies by
    # weight 240, and the partial sum and the tail bound stay finite
    with pytest.raises(ConvergenceError, match="max weight 240") as info:
        spherical_series((14.0, 14.0), (14.0, 13.0))
    assert math.isfinite(info.value.partial)
    assert math.isfinite(info.value.abs_error)


def test_series_value_whose_bound_excludes_the_unit_interval_raises():
    # |phi| <= 1, but the Jacobi-Trudi cancellation at these two rows leaves
    # 2.854 +- 0.011 (the Newton route gives -0.00383 +- 0.00016)
    for evaluate in (spherical_series, lambda x, xi: spherical_eval(x, xi, path="series")):
        with pytest.raises(ConvergenceError, match=r"excludes \[-1, 1\]") as info:
            evaluate((4.0, 4.0), (7.0, 1.0))
        partial, abs_error = info.value.partial, info.value.abs_error
        assert partial == pytest.approx(2.854, abs=1e-3)
        assert 0.0 < abs_error < abs(partial) - 1.0


def test_series_bound_of_one_or_more_raises():
    # |phi| <= 1, so these bounds certify nothing: the series gives
    # -0.785 +- 2272 and 4.3e63 +- 1.3e66 (the Newton route at the first
    # point: -0.0058 +- 1.4e-5)
    for x, xi in (((5.0, 5.0), (5.0, 4.0)), ((10.0, 10.0), (10.0, 9.0))):
        with pytest.raises(ConvergenceError, match="at least 1") as info:
            spherical_series(x, xi)
        assert math.isfinite(info.value.partial)
        assert 1.0 <= info.value.abs_error < math.inf


def test_series_refuses_a_nonpositive_tolerance():
    for rel_tol in (0.0, -1e-10, float("nan")):
        with pytest.raises(DomainError, match="rel_tol"):
            spherical_series((1.0, 1.0), (0.5, 0.5), rel_tol=rel_tol)


@pytest.mark.parametrize("n, size", [(2, 20), (3, 16), (4, 40)])
def test_spherical_function_is_of_positive_type(n, size):
    # Gram matrix G_ij = phi_x(X_i - X_j) over complex Gaussian points with
    # real and imaginary parts N(0, 0.2^2); phi_x depends on singular values.
    # n = 4 goes through the Newton-basis route (the series would take
    # minutes); its control needs 40 points to reach -1 (at 12: -0.24)
    if n < 4:
        evaluate = spherical_series
    else:
        evaluate = functools.partial(_newton, spherical_eval)
    rng = np.random.default_rng(2)
    shape = (size, n, n)
    points = 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    x = rng.uniform(0.5, 2.0, n).tolist()
    gram = np.eye(size)
    control = np.eye(size)
    worst = 0.0
    for i in range(size):
        for j in range(i):
            s = np.linalg.svd(points[i] - points[j], compute_uv=False).tolist()
            r = evaluate(x, s)
            gram[i, j] = gram[j, i] = r.value
            worst = max(worst, r.abs_error)
            # negative control: bounded in the singular values, not of positive type
            control[i, j] = control[j, i] = math.prod(math.cos(5.0 * v) for v in s)
    assert np.linalg.eigvalsh(gram)[0] >= -(size * worst + 1e-12)
    assert np.linalg.eigvalsh(control)[0] < -1.0


def test_radial_laplacian_gaussian_closed_form():
    lam = (1.0, 0.5)
    F = lambda v: math.exp(-float(np.dot(v, v)))
    closed = -11.0 * math.exp(-1.25)
    assert radial_laplacian(F, lam) == pytest.approx(closed, rel=1e-6)


def test_radial_laplacian_constant_is_zero():
    assert radial_laplacian(lambda v: 1.0, (1.0, 0.5)) == 0.0


def test_radial_laplacian_of_squared_norm():
    F = lambda v: float(np.dot(v, v))
    assert radial_laplacian(F, (1.0, 0.5)) == pytest.approx(16.0, rel=1e-6)


def test_radial_laplacian_rejects_singular_points():
    F = lambda v: float(np.dot(v, v))
    with pytest.raises(DegeneracyError):
        radial_laplacian(F, (1.0, 1.0))
    with pytest.raises(DegeneracyError):
        radial_laplacian(F, (1.0, 0.0))


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1e-3])
def test_radial_laplacian_rejects_a_step_not_positive_and_finite(step):
    # an infinite step once gave 0.0 for every F
    with pytest.raises(DomainError, match="fd_step must be positive and finite"):
        radial_laplacian(lambda v: 1.0, (1.0, 0.5), fd_step=step)


def test_polar_constant_small_cases():
    assert weyl_c_n(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert weyl_c_n(2) == pytest.approx(2.0 * math.pi**4, rel=1e-14)


def test_polar_constant_range_limits():
    with pytest.raises(DomainError):
        weyl_c_n(0)
    with pytest.raises(RangeError):
        weyl_c_n(51)


def test_angular_density_vanishes_at_the_concentration_point():
    assert weyl_density_mn(1, 4, (math.pi / 2.0,)) <= 1e-12
    assert weyl_density_mn(1, 4, (1.2,)) > weyl_density_mn(1, 4, (math.pi / 2.0,))


def test_angular_density_is_normalized():
    total, _ = integrate.quad(
        lambda t: weyl_density_mn(1, 4, (t,)), 0.0, math.pi, limit=200
    )
    assert total == pytest.approx(1.0, abs=1e-8)
    for n in (4, 7):
        total, _ = integrate.dblquad(
            lambda t2, t1: weyl_density_mn(2, n, (t1, t2)), 0.0, math.pi, 0.0, math.pi
        )
        assert total == pytest.approx(1.0, abs=1e-8)


def test_angular_constant_is_the_selberg_closed_form():
    cmn = spherical_module._weyl_cmn
    assert cmn(3, 9) == 44100.0
    assert cmn(4, 10) == 27783000.0
    assert cmn(3, 30) == 39390439725.0
    for n in (2, 3, 10, 10_000):
        assert cmn(1, n) == (n - 1) / 2
    with pytest.raises(RangeError):
        cmn(60, 400)


def test_angular_second_moment_law():
    for n in (4, 10):
        val, _ = integrate.quad(
            lambda t: math.cos(t) ** 2 * weyl_density_mn(1, n, (t,)),
            0.0,
            math.pi,
            limit=200,
            points=[math.pi / 2.0],
        )
        assert val == pytest.approx(1.0 / n, abs=1e-8)


def test_angular_density_concentrates_with_dimension():
    def moment(n):
        val, _ = integrate.quad(
            lambda t: math.cos(t) ** 2 * weyl_density_mn(1, n, (t,)),
            0.0,
            math.pi,
            limit=200,
            points=[math.pi / 2.0],
        )
        return val

    assert moment(50) < moment(10)


def test_angular_density_requires_enough_dimensions():
    with pytest.raises(DomainError):
        weyl_density_mn(2, 3, (0.5, 1.0))
