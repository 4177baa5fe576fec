"""Large-dimension machinery: rescaling map, realizing sequences, sweeps."""

import math
import os
import random
import sys

import mpmath as mp
import numpy as np
import pytest

from spherica import (
    DomainError,
    OmegaParam,
    ShapeError,
    lambda_sequence_for,
    p_tilde,
    polya_eval,
    powersum_convergence,
    spherical_convergence,
    spherical_series,
    t_n_map,
    weyl_concentration_sweep,
)

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
        assert value * n == pytest.approx(1.0, rel=1e-11, abs=0.0)


def _weyl_average_mp(f, n: int) -> float:
    # the m = 1 density |sin 2t| sin(t)^(2n-4), folded onto [0, pi/2]
    with mp.workdps(30):
        dens = lambda t: mp.sin(2 * t) * mp.sin(t) ** (2 * n - 4)
        half = mp.pi / 2
        num = mp.quad(lambda t: (f(t) + f(mp.pi - t)) / 2 * dens(t), [0, half])
        return float(num / mp.quad(dens, [0, half]))


@pytest.mark.parametrize("n", [2, 3, 10, 400])
def test_angular_sweep_smooth_observable_matches_mpmath(n):
    report = weyl_concentration_sweep(
        1, (n,), observable=lambda th: float(np.exp(np.sin(3.0 * th[0])))
    )
    expected = _weyl_average_mp(lambda t: mp.exp(mp.sin(3 * t)), n)
    assert report.values[0] == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m, grid", [(2, (4, 8, 16, 32)), (3, (6, 12, 24))])
def test_angular_sweep_sampled_values_follow_aomoto(m, grid):
    # E[mean cos^2] = m/n exactly; each sampled value within 4 standard errors
    report = weyl_concentration_sweep(m, grid, n_samples=20_000, seed=0)
    for n, value, se in zip(report.n_values, report.values, report.std_errors):
        assert abs(value - m / n) <= 4.0 * se


def test_angular_sweep_constant_observable_is_exact():
    report = weyl_concentration_sweep(1, (10, 50), observable=lambda th: 1.0)
    assert report.abs_errors == (0.0, 0.0)


def test_angular_sweep_mean_angle_is_centered():
    report = weyl_concentration_sweep(1, (10, 50), observable=lambda th: float(th[0]))
    assert report.limit_value == math.pi / 2.0
    assert max(report.abs_errors) <= 1e-10


def test_angular_sweep_two_angles_concentrates():
    report = weyl_concentration_sweep(2, (8, 24), n_samples=20_000, seed=0)
    assert report.std_errors is not None
    slack = 4.0 * (report.std_errors[0] + report.std_errors[1])
    assert report.values[1] + slack < report.values[0]
    again = weyl_concentration_sweep(2, (8, 24), n_samples=20_000, seed=0)
    assert again.values == report.values


def test_angular_sweep_validates_inputs():
    with pytest.raises(DomainError):
        weyl_concentration_sweep(0, (10,))
    with pytest.raises(DomainError):
        weyl_concentration_sweep(2, (3, 8))


@pytest.mark.parametrize("n_samples", [0, 1, 99])
def test_sampled_angular_sweep_refuses_fewer_than_100_samples(n_samples):
    with pytest.raises(DomainError, match="need at least 100 samples"):
        weyl_concentration_sweep(2, (4, 8), n_samples=n_samples)


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
