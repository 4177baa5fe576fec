"""Large-dimension machinery: rescaling map, realizing sequences, sweeps."""

import math
import os
import random
import sys

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spherica import (
    ConvergenceError,
    DomainError,
    OmegaParam,
    RangeError,
    ShapeError,
    lambda_sequence_for,
    p_tilde,
    polya_eval,
    powersum_convergence,
    spherical_convergence,
    spherical_series,
    t_n_map,
    weyl_concentration_sweep,
    weyl_density_mn,
)
from spherica import limits
from spherica.limits import _lambda_runs
from spherica.symfunc import _runs

# the benchmark's mpmath oracle: the one-row sum of a rank-one sweep point
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from oracle import sweep_oracle  # noqa: E402

SINGLE_ATOM = OmegaParam([1.0], 0.0)
PURE_GAUSSIAN = OmegaParam([], 1.0)


def test_rescaling_map_single_spike():
    om = t_n_map((5.0, 0.0, 0.0, 0.0, 0.0))
    assert om == OmegaParam([1.0], 0.0)


def test_rescaling_map_flat_vector():
    n = 7
    om = t_n_map([math.sqrt(n)] * n)
    assert om.gamma == 0.0
    assert len(om.alpha) == n
    for a in om.alpha:
        assert a == pytest.approx(1.0 / n, rel=1e-15)


def test_rescaling_map_zero_vector():
    assert t_n_map((0.0, 0.0, 0.0)) == OmegaParam([], 0.0)


def test_rescaling_map_checks_length():
    with pytest.raises(ShapeError):
        t_n_map((1.0, 2.0), n=3)


def test_rescaling_map_beyond_double_range_is_a_range_error():
    # (1e308 / 2)^2 overflows: float pow raised a bare OverflowError
    with pytest.raises(RangeError):
        t_n_map((1e308, 1e308))


def test_realizing_sequence_single_atom():
    assert lambda_sequence_for(SINGLE_ATOM, 5) == (5.0, 0.0, 0.0, 0.0, 0.0)


def test_realizing_sequence_gaussian():
    lam = lambda_sequence_for(PURE_GAUSSIAN, 4)
    assert lam == (2.0, 2.0, 2.0, 2.0)
    assert math.fsum((v / 4.0) ** 2 for v in lam) == 1.0


def test_realizing_sequence_needs_room():
    with pytest.raises(DomainError):
        lambda_sequence_for(OmegaParam([1.0], 1.0), 1)


def test_round_trip_preserves_first_morphism_value():
    om = OmegaParam([0.5, 0.25], 0.25)
    for n in (8, 32, 128):
        image = t_n_map(lambda_sequence_for(om, n), n)
        assert p_tilde(image, 1) == pytest.approx(p_tilde(om, 1), rel=1e-14)
        bias = om.gamma**2 / (n - len(om.alpha))
        assert abs(p_tilde(image, 2) - p_tilde(om, 2)) <= bias + 1e-14


def test_powersum_sweep_single_atom_is_exact():
    report = powersum_convergence(SINGLE_ATOM, 2, (25, 50, 100, 200))
    assert report.abs_errors == (0.0, 0.0, 0.0, 0.0)


def test_powersum_sweep_gaussian_first_power():
    report = powersum_convergence(PURE_GAUSSIAN, 1, (4, 16, 64))
    assert report.abs_errors == (0.0, 0.0, 0.0)
    generic = powersum_convergence(PURE_GAUSSIAN, 1, (25, 50, 200))
    assert max(generic.abs_errors) <= 1e-13


def test_powersum_sweep_gaussian_second_power_decays():
    report = powersum_convergence(PURE_GAUSSIAN, 2, (25, 50, 100, 200))
    assert report.limit_value == 0.0
    for n, value in zip(report.n_values, report.values):
        assert abs(value - 1.0 / n) <= 1e-15
    assert report.values[-1] == pytest.approx(1.0 / 200.0, rel=1e-12)


def test_spherical_sweep_single_atom():
    report = spherical_convergence(SINGLE_ATOM, 1.0, (25, 50, 100, 200))
    assert report.limit_value == 0.8
    errs = report.abs_errors
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.02


def test_spherical_sweep_gaussian():
    report = spherical_convergence(PURE_GAUSSIAN, 1.0, (25, 50, 100, 200))
    assert report.limit_value == pytest.approx(math.exp(-0.25), rel=1e-15)
    assert report.abs_errors[-1] <= 0.02


def test_spherical_sweep_tiny_direction():
    report = spherical_convergence(SINGLE_ATOM, 1e-8, (5, 10))
    assert max(report.abs_errors) <= 1e-8


def test_spherical_sweep_sampling_route_matches_series():
    report = spherical_convergence(
        SINGLE_ATOM, 1.0, (25,), method="mc", n_samples=20_000, seed=0
    )
    lam = lambda_sequence_for(SINGLE_ATOM, 25)
    series = spherical_series(lam, (1.0,) + (0.0,) * 24).value
    assert report.std_errors is not None
    assert abs(report.values[0] - series) <= 5.0 * report.std_errors[0]


@pytest.mark.parametrize("n", [10**4, 10**5])
@pytest.mark.parametrize(
    "omega, u", [(OmegaParam([0.5], 0.3), 1.0), (OmegaParam([0.538, 0.104], 0.0), 1.05)]
)
def test_rank_one_sweep_at_large_n_is_within_its_bound(omega, u, n):
    # the series coefficients at d ~ n, where differences of lgamma values
    # lose about lgamma(n) eps (1.5e-10 here at n = 1e5); the second point
    # has n - 2 zero entries
    r = spherical_series(lambda_sequence_for(omega, n), (u,) + (0.0,) * (n - 1))
    (oracle,), _ = sweep_oracle(omega.to_json(), u, [n])
    assert abs(r.value - oracle) <= r.abs_error <= 1e-12 * abs(oracle)


def test_rank_one_tail_bound_is_tight_at_a_slowly_decaying_point():
    # at n = 909 the terms decay like (alpha_1 u^2 / 4)^j, about 0.65^j;
    # bounding s_m(Lam) by p1(Lam)^|m| made the tail decay like 0.95^j, and
    # the series ran all 64 layers to claim 4.4e-12 (8.7e-12 relative)
    omega = OmegaParam([0.38689055071199824, 0.11043597590010397], 0.4475227218986806)
    u, n = 1.728919756753612, 909
    r = spherical_series(lambda_sequence_for(omega, n), (u,) + (0.0,) * (n - 1))
    (oracle,), _ = sweep_oracle(omega.to_json(), u, [n])
    assert abs(r.value - oracle) <= r.abs_error <= 1e-12 * abs(oracle)


def test_rank_one_sweep_sums_a_slowly_decaying_point_to_rounding():
    # terms decay like 0.7^j; a sum cut where its tail first certified 1e-10
    # returned this point 1.34e-12 from the one-row oracle after 65 terms
    omega = OmegaParam([0.7762109494982836, 0.4173682715753764], 0.0)
    u, n = 1.8953577607142993, 975
    r = spherical_series(lambda_sequence_for(omega, n), (u,) + (0.0,) * (n - 1))
    (oracle,), _ = sweep_oracle(omega.to_json(), u, [n])
    assert abs(r.value - oracle) <= 1e-14
    assert abs(r.value - oracle) <= r.abs_error <= 1e-12 * abs(oracle)


def _sweep_pool(seed, sweeps):
    """Sweeps shaped like the benchmark's rank-one pool: one or two atoms in
    [0.05, 0.8], gamma zero or in [0.05, 0.5], u in [0.5, 2]."""
    rng = random.Random(seed)
    pool = []
    for k in range(sweeps):
        alpha = sorted((rng.uniform(0.05, 0.8) for _ in range(1 + k % 2)), reverse=True)
        gamma = 0.0 if k % 4 < 2 else rng.uniform(0.05, 0.5)
        pool.append((OmegaParam(alpha, gamma), rng.uniform(0.5, 2.0)))
    return pool


@pytest.mark.parametrize("omega, u", _sweep_pool(2024, 6))
def test_rank_one_sweep_points_are_within_their_bound(omega, u):
    grid = (25, 50, 100, 200)
    report = spherical_convergence(omega, u, grid)
    oracles, _ = sweep_oracle(omega.to_json(), u, grid)
    for n, value, oracle in zip(grid, report.values, oracles):
        # the sweep takes the series' bits without building the size-n xi
        r = spherical_series(lambda_sequence_for(omega, n), (u,) + (0.0,) * (n - 1))
        assert value == r.value
        assert abs(value - oracle) <= r.abs_error <= 1e-12 * abs(oracle)


# repr of the values of four series sweeps, pinned bit for bit: two atoms
# and a Gaussian part up to n = 1e5, gamma alone, two equal atoms, and an
# atom equal to the Gaussian entry at n = 4 (one merged run of four)
SWEEP_BITS = [
    (
        OmegaParam([0.5, 0.2], 0.3), 1.3, (10, 100, 1000, 10**5),
        "(0.659663940494504, 0.6694908070675516, 0.6705251733061559, 0.6706394243438375)",
    ),
    (
        PURE_GAUSSIAN, 0.7, (1, 4, 16, 64),
        "(0.8812008886074053, 0.8833419234218887, 0.884311931483076, 0.8846035332785859)",
    ),
    (
        OmegaParam([0.25, 0.25], 0.0), -2.0, (2, 3, 50),
        "(0.5767248077568734, 0.5937489517930105, 0.6369310688857622)",
    ),
    (
        OmegaParam([0.25], 0.75), 2.5, (2, 4, 9),
        "(0.09833728237473874, 0.1400951925556486, 0.1848913191653336)",
    ),
]


@pytest.mark.parametrize(
    "omega, u, grid, bits", SWEEP_BITS, ids=["two-atoms-gauss", "gauss", "equal-atoms", "tie"]
)
def test_spherical_sweep_bits_are_pinned(omega, u, grid, bits):
    assert repr(spherical_convergence(omega, u, grid).values) == bits


def _outcome(call):
    """The value of ``call``, or its error with the partial sum and bound."""
    try:
        return call()
    except ConvergenceError as e:
        return type(e), str(e), e.partial, e.abs_error
    except RangeError as e:
        return type(e), str(e)


@st.composite
def _sweep_point(draw):
    """(omega, u, n), n <= 2000: atoms drawn with repeats, gamma zero or not,
    and at times an atom moved onto the Gaussian entry n sqrt(gamma/(n-k))."""
    value = st.sampled_from([0.25, 0.5, 1.0, 1e-300, 1e100]) | st.floats(1e-6, 4.0)
    alpha = draw(st.lists(value, max_size=3))
    gamma = draw(st.sampled_from([0.0, 0.75, 1e-300, 5e-324]) | st.floats(0.0, 4.0))
    omega = OmegaParam(alpha, gamma)
    n = draw(st.integers(limits._min_size(omega), 2000))
    k = len(omega.alpha)
    if k and gamma and draw(st.booleans()) and gamma / (n - k):
        omega = OmegaParam(omega.alpha[1:] + (gamma / (n - k),), gamma)
    u = draw(st.sampled_from([0.0, -0.0, 1.3, 30.0, 1e-50]) | st.floats(-5.0, 5.0))
    return omega, u, n


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sweep_point())
@example((OmegaParam([0.25], 0.75), 2.5, 4))  # the atom is the Gaussian entry
@example((OmegaParam([0.5, 0.5, 0.5], 0.0), 1.0, 3))  # equal atoms, no zeros
@example((OmegaParam([], 0.0), 1.0, 1))  # no entries: the series is 1
@example((OmegaParam([1e100], 1e-300), 1e-50, 10))  # the Gaussian squares underflow
@example((OmegaParam([0.5], 0.3), 0.0, 7))  # u = 0
def test_sweep_runs_are_the_runs_of_the_realizing_sequence(point):
    # the sweep builds each point's runs from omega, in O(len(alpha) + 1),
    # and takes the bits, errors and partial sums of the series at the
    # size-n vectors
    omega, u, n = point
    lam = lambda_sequence_for(omega, n)
    assert _lambda_runs(omega, n) == _runs(lam)
    sweep = _outcome(lambda: spherical_convergence(omega, u, (n,)).values[0])
    series = _outcome(lambda: spherical_series(lam, (u,) + (0.0,) * (n - 1)).value)
    assert repr(sweep) == repr(series)


def test_series_sweep_never_builds_the_size_n_vector(monkeypatch):
    def refuse(omega, n):
        raise AssertionError("the series sweep built a size-n vector")

    monkeypatch.setattr(limits, "lambda_sequence_for", refuse)
    report = spherical_convergence(OmegaParam([0.5, 0.2], 0.3), 1.3, (10**7,))
    assert abs(report.values[0] - report.limit_value) <= 1e-6


def test_spherical_sweep_validates_inputs():
    with pytest.raises(DomainError):
        spherical_convergence(SINGLE_ATOM, 1.0, (50, 25))
    with pytest.raises(DomainError):
        spherical_convergence(SINGLE_ATOM, 1.0, (25,), method="bogus")


def test_angular_sweep_default_observable_follows_the_law():
    # E[cos^2 t] = 1/n exactly (Aomoto), to rounding up to the largest sizes
    grid = (2, 3, 5, 10, 50, 200, 1000, 10**4, 10**5)
    report = weyl_concentration_sweep(1, grid)
    assert abs(report.limit_value) <= 1e-30
    for n, value in zip(report.n_values, report.values):
        assert value * n == pytest.approx(1.0, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m", [*range(1, 26), 100, 10**4])
def test_angular_sweep_follows_aomoto_at_every_m(m):
    # E[mean cos^2] = m/n (Aomoto), correctly rounded
    grid = sorted(n for n in {2 * m, 2 * m + 1, 3 * m, 10 * m, 1000, 10**5, 10**8} if n >= 2 * m)
    report = weyl_concentration_sweep(m, grid)
    assert report.std_errors is None
    assert report.params == {"m": m, "observable": "mean_cos_sq"}
    for n, value in zip(report.n_values, report.values):
        assert value == m / n


@pytest.mark.parametrize("n", [4, 5, 7])
def test_two_angle_sweep_matches_the_mpmath_integral_of_the_density(n):
    # the normalized density on [0, pi]^2, split where sin 2t changes sign
    with mp.workdps(20):
        f = lambda t1, t2: (mp.cos(t1) ** 2 + mp.cos(t2) ** 2) / 2 * weyl_density_mn(
            2, n, (float(t1), float(t2))
        )
        cuts = [0, mp.pi / 2, mp.pi]
        expected = float(mp.quad(f, cuts, cuts, method="gauss-legendre", maxdegree=4))
    value = weyl_concentration_sweep(2, (n,)).values[0]
    assert value == pytest.approx(expected, rel=1e-13, abs=0.0)


def _weyl_average_mp(f, n: int) -> float:
    # the m = 1 density |sin 2t| sin(t)^(2n-4), folded onto [0, pi/2]
    with mp.workdps(30):
        dens = lambda t: mp.sin(2 * t) * mp.sin(t) ** (2 * n - 4)
        half = mp.pi / 2
        num = mp.quad(lambda t: (f(t) + f(mp.pi - t)) / 2 * dens(t), [0, half])
        return float(num / mp.quad(dens, [0, half]))


@pytest.mark.parametrize("n", [2, 3, 10, 400])
def test_angular_sweep_smooth_observable_matches_mpmath(n):
    # m = 1 against the density's own integral, not the law
    report = weyl_concentration_sweep(1, (n,))
    expected = _weyl_average_mp(lambda t: mp.cos(t) ** 2, n)
    assert report.values[0] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_angular_sweep_two_angles_concentrates():
    report = weyl_concentration_sweep(2, (8, 24))
    assert report.std_errors is None
    assert report.values[1] < report.values[0]
    again = weyl_concentration_sweep(2, (8, 24))
    assert again.values == report.values


def test_angular_sweep_validates_inputs():
    with pytest.raises(DomainError):
        weyl_concentration_sweep(0, (10,))
    with pytest.raises(DomainError):
        weyl_concentration_sweep(2.5, (10,))
    with pytest.raises(DomainError):
        weyl_concentration_sweep(2, (3, 8))
    with pytest.raises(DomainError):
        weyl_concentration_sweep(2, (8, 8))


def test_coefficient_rescaling_approaches_one():
    n = 10_000
    for parts in ((1,), (2, 1), (2, 2), (4,)):
        weight = sum(parts)
        log_coeff = 2.0 * math.fsum(
            math.lgamma(n - i + 1) - math.lgamma(p + n - i + 1)
            for i, p in enumerate(parts, start=1)
        )
        ratio = math.exp(log_coeff + 2.0 * weight * math.log(n))
        assert abs(ratio - 1.0) <= 2.0 * weight * weight / n


def test_report_serialization():
    report = powersum_convergence(PURE_GAUSSIAN, 2, (25, 50))
    obj = report.to_json()
    assert obj["kind"] == "powersum_convergence"
    assert obj["n_values"] == [25, 50]
    assert obj["std_errors"] is None
    assert obj["abs_errors"] == list(report.abs_errors)
