"""Acceptance gate: twelve pass/fail criteria, one printed line each.

Each criterion prints a single line of the form

    [criterion NN] PASS|FAIL - summary (measurements)

directly to the real stdout, so the verdicts are visible in the test log
regardless of capture settings, then asserts.
"""

import json
import math
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from spherica import (
    OmegaParam,
    ambient_laplacian_fd,
    bessel_i0,
    bessel_j0,
    enumerate_partitions,
    h_tilde,
    heat_kernel,
    lambda_sequence_for,
    mc_biinvariant_avg,
    mc_orbital_exp,
    mc_spherical,
    orbital_integral,
    phi_omega,
    polya_eval,
    powersum_convergence,
    radial_laplacian,
    s_tilde,
    schur,
    second_deriv_identity,
    spherical_convergence,
    spherical_det,
    spherical_series,
    squared_gap_product,
    weyl_c_n,
)


def _report(capsys, num: int, passed: bool, text: str) -> str:
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {text}"
    with capsys.disabled():
        print(line, file=sys.stdout, flush=True)
    return line


def test_criterion_01_one_dimensional_closed_form(capsys):
    start = time.perf_counter()
    worst = 0.0
    grid = np.linspace(0.1, 3.0, 15)
    for a in grid:
        for t in grid:
            got = spherical_det((a,), (t,)).value
            worst = max(worst, abs(got / bessel_j0(a * t) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    line = _report(
        capsys, 1, ok, f"n=1 determinant matches J0 on 15x15 grid "
        f"(max rel {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s)"
    )
    assert ok, line


def test_criterion_02_determinant_vs_series(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst_rel = 0.0
    within_bounds = True
    points = 0
    for n in (2, 3):
        drawn = 0
        while drawn < 25:
            x = rng.uniform(0.1, 3.0, n)
            xi = rng.uniform(0.1, 3.0, n)
            if any(
                np.min(np.diff(np.sort(v * v))) < 0.3 for v in (x, xi)
            ):
                continue
            drawn += 1
            points += 1
            d = spherical_det(x, xi)
            s = spherical_series(x, xi)
            gap = abs(d.value - s.value)
            within_bounds &= gap <= d.abs_error + s.abs_error
            worst_rel = max(worst_rel, gap / max(1e-300, abs(s.value)))
    elapsed = time.perf_counter() - start
    ok = points == 50 and within_bounds and worst_rel <= 1e-8 and elapsed < 10.0
    line = _report(
        capsys, 2, ok, f"determinant vs series on {points} separated points, n in (2,3) "
        f"(max rel {worst_rel:.2e} <= 1e-8, inside combined error bounds: "
        f"{within_bounds}, {elapsed:.2f}s < 10s)"
    )
    assert ok, line


def test_criterion_03_monte_carlo_oracle(capsys):
    start = time.perf_counter()
    est = mc_spherical((1.0, 2.0), (0.5, 1.5), 1_000_000, seed=0)
    closed = spherical_det((1.0, 2.0), (0.5, 1.5)).value
    elapsed = time.perf_counter() - start
    gap = abs(est.mean - closed)
    ok = gap <= 4.0 * est.std_error and est.std_error <= 2e-3 and elapsed < 60.0
    line = _report(
        capsys, 3, ok, f"sampled mean vs closed form at 1e6 samples "
        f"(|diff| {gap:.2e} <= 4se {4 * est.std_error:.2e}, "
        f"se {est.std_error:.2e} <= 2e-3, {elapsed:.1f}s < 60s)"
    )
    assert ok, line


def test_criterion_04_orbital_integral(capsys):
    one_dim = orbital_integral((1.0,), (2.0,)).value
    rel = abs(one_dim / bessel_i0(2.0) - 1.0)
    est = mc_orbital_exp((1.0, 2.0), (0.5, 1.0), 1_000_000, seed=0)
    closed = orbital_integral((1.0, 2.0), (0.5, 1.0)).value
    gap = abs(est.mean - closed)
    ok = rel <= 1e-10 and gap <= 4.0 * est.std_error
    line = _report(
        capsys, 4, ok, f"orbital integral: n=1 rel {rel:.2e} <= 1e-10; n=2 sampled "
        f"|diff| {gap:.2e} <= 4se {4 * est.std_error:.2e} at 1e6 samples"
    )
    assert ok, line


def test_criterion_05_heat_kernel_semigroup(capsys):
    start = time.perf_counter()
    t, s, lam, rho = 0.3, 0.2, 1.0, 0.7
    lhs, _ = integrate.quad(
        lambda th: heat_kernel(t, (lam,), (th,)) * heat_kernel(s, (th,), (rho,)) * th,
        0.0,
        40.0,
        limit=300,
    )
    rhs = heat_kernel(t + s, (lam,), (rho,))
    elapsed = time.perf_counter() - start
    rel = abs(lhs / rhs - 1.0)
    ok = rel <= 1e-4 and elapsed < 5.0
    line = _report(
        capsys, 5, ok, f"semigroup composition at (t,s)=(0.3,0.2) "
        f"(rel {rel:.2e} <= 1e-4, {elapsed:.2f}s < 5s)"
    )
    assert ok, line


def test_criterion_06_radial_laplacian(capsys):
    worst_formula = worst_ambient = worst_second = 0.0
    for lam in ((1.0, 0.5), (1.3, 0.8, 0.4)):
        n = len(lam)
        F = lambda v: math.exp(-float(np.dot(v, v)))
        closed = (4.0 * sum(v * v for v in lam) - 4.0 * n * n) * F(np.array(lam))
        formula = radial_laplacian(F, lam)
        worst_formula = max(worst_formula, abs(formula / closed - 1.0))

        fmat = lambda X: math.exp(-float(np.sum((X * X.conj()).real)))
        ambient = ambient_laplacian_fd(fmat, np.diag(lam).astype(complex))
        worst_ambient = max(worst_ambient, abs(ambient / closed - 1.0))

        # second display of the operator: conjugation by the gap product
        def through_gap_product(v):
            return squared_gap_product(v) * F(np.asarray(v))

        h = 2e-3
        base = np.array(lam, dtype=float)
        acc = 0.0
        for i in range(n):
            up, down = base.copy(), base.copy()
            up[i] += h
            down[i] -= h
            d2 = (
                through_gap_product(up)
                - 2.0 * through_gap_product(base)
                + through_gap_product(down)
            ) / (h * h)
            d1 = (through_gap_product(up) - through_gap_product(down)) / (2.0 * h)
            acc += d2 + d1 / base[i]
        second = acc / squared_gap_product(base)
        worst_second = max(worst_second, abs(second / formula - 1.0))
    ok = worst_formula <= 1e-6 and worst_ambient <= 1e-4 and worst_second <= 1e-4
    line = _report(
        capsys, 6, ok, f"radial Laplacian at n=2,3: formula rel {worst_formula:.2e} <= 1e-6, "
        f"ambient-differences rel {worst_ambient:.2e} <= 1e-4, "
        f"second-form rel {worst_second:.2e} <= 1e-4"
    )
    assert ok, line


def test_criterion_07_polar_constant(capsys):
    rel1 = abs(weyl_c_n(1) / (2.0 * math.pi) - 1.0)
    rel2 = abs(weyl_c_n(2) / (2.0 * math.pi**4) - 1.0)
    integral, _ = integrate.dblquad(
        lambda l2, l1: math.exp(-(l1 * l1 + l2 * l2))
        * (l1 * l1 - l2 * l2) ** 2
        * l1
        * l2,
        0.0,
        12.0,
        lambda _: 0.0,
        lambda _: 12.0,
    )
    rel_norm = abs(weyl_c_n(2) * integral / math.pi**4 - 1.0)
    ok = rel1 <= 1e-14 and rel2 <= 1e-14 and rel_norm <= 1e-6
    line = _report(
        capsys, 7, ok, f"polar constant: c1 rel {rel1:.1e} and c2 rel {rel2:.1e} at "
        f"double-precision exactness, Gaussian normalization rel {rel_norm:.2e} <= 1e-6"
    )
    assert ok, line


def test_criterion_08_product_function_identities(capsys):
    start = time.perf_counter()
    om = OmegaParam([1.0, 0.5], 0.3)
    u = 0.5
    h = h_tilde(om, 30)
    taylor = math.fsum(h[m] * (-u * u / 4.0) ** m for m in range(31))
    rel_taylor = abs(taylor / polya_eval(om, u) - 1.0)

    om2 = OmegaParam([0.8, 0.3], 0.2)
    xi = (1.1, 0.7, 0.4)
    big_xi = [-(v * v) / 4.0 for v in xi]
    total = math.fsum(
        s_tilde(om2, p) * schur(p, big_xi) for p in enumerate_partitions(30, 3)
    )
    target = phi_omega(om2, xi)
    rel_product = abs(total / target - 1.0)

    rng = np.random.default_rng(8)
    worst_curv = 0.0
    for _ in range(10):
        om3 = OmegaParam(rng.uniform(0.0, 3.0, 2).tolist(), float(rng.uniform(0.1, 2)))
        lhs, rhs = second_deriv_identity(om3)
        worst_curv = max(worst_curv, abs(lhs / rhs - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        rel_taylor <= 1e-9
        and rel_product <= 1e-6
        and worst_curv <= 1e-5
        and elapsed < 5.0
    )
    line = _report(
        capsys, 8, ok, f"product-function identities: Taylor rel {rel_taylor:.2e} <= 1e-9, "
        f"three-variable product rel {rel_product:.2e} <= 1e-6 at weight 30, "
        f"curvature rel {worst_curv:.2e} <= 1e-5 ({elapsed:.2f}s < 5s)"
    )
    assert ok, line


def test_criterion_09_spherical_convergence_sweeps(capsys):
    start = time.perf_counter()
    atom = spherical_convergence(OmegaParam([1.0], 0.0), 1.0, (25, 50, 100, 200))
    atom_errs = atom.abs_errors
    atom_ok = (
        atom.limit_value == 0.8
        and all(b < a for a, b in zip(atom_errs, atom_errs[1:]))
        and atom_errs[-1] <= 0.02
    )
    gauss = spherical_convergence(OmegaParam([], 1.0), 1.0, (25, 50, 100, 200))
    gauss_ok = (
        abs(gauss.limit_value - math.exp(-0.25)) <= 1e-15
        and gauss.abs_errors[-1] <= 0.02
    )
    elapsed = time.perf_counter() - start
    ok = atom_ok and gauss_ok and elapsed < 30.0
    line = _report(
        capsys, 9, ok, f"convergence sweeps to the limit: single-atom errors monotone "
        f"ending {atom_errs[-1]:.2e} <= 0.02, Gaussian error "
        f"{gauss.abs_errors[-1]:.2e} <= 0.02 ({elapsed:.1f}s < 30s)"
    )
    assert ok, line


def test_criterion_10_powersum_convergence(capsys):
    gauss = powersum_convergence(OmegaParam([], 1.0), 2, (25, 50, 100, 200))
    worst = max(
        abs(v - 1.0 / n) for v, n in zip(gauss.values, gauss.n_values)
    )
    atom = powersum_convergence(OmegaParam([1.0], 0.0), 2, (25, 50, 100, 200))
    ok = worst <= 1e-15 and atom.abs_errors == (0.0, 0.0, 0.0, 0.0)
    line = _report(
        capsys, 10, ok, f"power-sum convergence: Gaussian scaled values equal 1/n "
        f"(worst gap {worst:.1e}), single-atom errors exactly 0"
    )
    assert ok, line


def test_criterion_11_multiplicativity(capsys):
    rng = np.random.default_rng(21)
    exact = True
    for _ in range(20):
        om = OmegaParam(rng.uniform(0, 3, 2).tolist(), float(rng.uniform(0, 2)))
        a, b = float(rng.uniform(0, 4)), float(rng.uniform(0, 4))
        exact &= phi_omega(om, (a, b)) == phi_omega(om, (a,)) * phi_omega(om, (b,))

    om = OmegaParam([4.0], 0.0)
    est = mc_biinvariant_avg(om, [1.0], [2.0], 64, 10_000, seed=0)
    target = phi_omega(om, (1.0, 2.0))
    gap = abs(est.mean - target)
    tol = max(4.0 * est.std_error, 0.02)
    ok = exact and gap <= tol
    line = _report(
        capsys, 11, ok, f"multiplicativity exact on 20 random draws: {exact}; "
        f"bi-invariant average at n=64 within {gap:.2e} <= {tol:.2e} "
        f"of the concatenated-diagonal value"
    )
    assert ok, line


def test_criterion_12_reproducible_validation(capsys, cli_subprocess):
    argv = ["validate", "--suite", "all", "--seed", "0"]
    runs = [cli_subprocess(argv, threads) for threads in ("1", "1", "4")]
    identical = runs[0].stdout == runs[1].stdout == runs[2].stdout
    all_pass = [r.returncode for r in runs] == [0, 0, 0]
    detail = (
        f"three runs (thread counts 1,1,4) exit 0: {all_pass}, "
        f"byte-identical reports: {identical}"
    )
    ok = identical and all_pass
    line = _report(capsys, 12, ok, f"full validation suite at seed 0: {detail}")
    assert ok, line
