"""Built-in consistency suite.

Every check wires two independent routes to the same number (series vs
determinant, sampler vs closed form, finite difference vs algebraic
identity) or pins an exactly known value.  All randomness is seeded, all
reductions are ordered, so the report is identical run to run.  Each
suite imports the modules it checks, so a single suite loads no others.
"""

from __future__ import annotations

import math

from ._record import record

# first positive zero of the oscillatory kernel, standard constant
_J0_FIRST_ZERO = 2.404825557695773
# J0(20) from mpmath at 40 digits, rounded to double
_J0_AT_20 = 0.16702466434058316
# J0(40) from mpmath at 40 digits, rounded to double
_J0_AT_40 = 0.00736689058423729


@record
class CheckResult:
    name: str
    passed: bool
    detail: str


def _close(name: str, value: float, expected: float, rel: float) -> CheckResult:
    err = abs(value - expected)
    tol = rel * max(1.0, abs(expected))
    return CheckResult(
        name,
        err <= tol,
        f"value={value:.9e} expected={expected:.9e} abs_err={err:.9e} tol={tol:.9e}",
    )


def _special_checks(samples: int, seed: int) -> list[CheckResult]:
    from . import series

    out = []
    out.append(_close("special.f_at_zero", series.hyper_f(0.0), 1.0, 0.0))
    out.append(
        _close("special.f_at_one", series.hyper_f(1.0), 2.2795853023360673, 1e-14)
    )
    out.append(
        CheckResult(
            "special.j0_even",
            series.bessel_j0(1.7) == series.bessel_j0(-1.7),
            "j0(1.7) and j0(-1.7) are bitwise equal",
        )
    )
    out.append(
        CheckResult(
            "special.i0_matches_f",
            series.bessel_i0(2.0) == series.hyper_f(1.0),
            "i0(2) == f(1) bitwise",
        )
    )
    out.append(
        _close("special.j0_at_one", series.bessel_j0(1.0), 0.7651976865579666, 1e-14)
    )
    out.append(
        _close(
            "special.j0_first_zero", series.bessel_j0(_J0_FIRST_ZERO), 0.0, 1e-12
        )
    )
    out.append(_close("special.j0_at_40", series.bessel_j0(40.0), _J0_AT_40, 1e-13))
    value, est, terms = series.bessel_j0_with_error(5.0)
    # at x = 20 the estimate must cover the true error, not only be positive
    value20, est20, _ = series.bessel_j0_with_error(20.0)
    err20 = abs(value20 - _J0_AT_20)
    out.append(
        CheckResult(
            "special.error_estimate_sane",
            est > 0.0 and terms < 200 and abs(value) <= 1.0 and err20 <= est20,
            f"value={value:.9e} est={est:.9e} terms={terms}"
            f" j0(20)_abs_err={err20:.9e} est={est20:.9e}",
        )
    )
    return out


def _symfunc_checks(samples: int, seed: int) -> list[CheckResult]:
    from . import symfunc

    out = []
    out.append(_close("symfunc.h2", symfunc.complete_h(2, (1.0, 1.0)), 3.0, 0.0))
    out.append(_close("symfunc.schur_row", symfunc.schur((3,), (1.0, 2.0)), 15.0, 0.0))
    out.append(
        _close("symfunc.schur_column", symfunc.schur((1, 1), (2.0, 3.0)), 6.0, 0.0)
    )
    a = symfunc.schur((2, 1), (0.3, 1.7, 0.9))
    b = symfunc.schur((2, 1), (1.7, 0.9, 0.3))
    out.append(CheckResult("symfunc.permutation_invariance", a == b, "bitwise equal"))
    lhs = symfunc.cauchy_lhs((0.3, 0.1), (0.2, 0.4), 40)
    rhs = symfunc.cauchy_rhs((0.3, 0.1), (0.2, 0.4))
    out.append(_close("symfunc.cauchy_identity", lhs, rhs, 1e-13))
    n22 = sum(1 for _ in symfunc.enumerate_partitions(2, 2))
    n66 = sum(1 for _ in symfunc.enumerate_partitions(6, 6))
    out.append(
        CheckResult(
            "symfunc.partition_counts",
            n22 == 4 and n66 == 30,
            f"count(2,2)={n22} count(6,6)={n66}",
        )
    )
    h = symfunc.newton_h_from_p([2.0, 4.0, 8.0])
    out.append(
        CheckResult(
            "symfunc.newton_single_variable",
            h == [1.0, 2.0, 4.0, 8.0],
            f"h={h}",
        )
    )
    return out


def _spherical_checks(samples: int, seed: int) -> list[CheckResult]:
    from numpy.polynomial.legendre import leggauss

    from . import series, spherical

    out = []
    one = spherical.spherical_det((1.3,), (0.7,))
    out.append(
        _close("spherical.n1_reduces", one.value, series.bessel_j0(1.3 * 0.7), 1e-14)
    )
    # the determinant route's bound must cover its J0(40) entry's error
    r40 = spherical.spherical_eval((10.0,), (4.0,))
    err40 = abs(r40.value - _J0_AT_40)
    out.append(
        CheckResult(
            "spherical.det_bound_covers_j0_40",
            err40 <= r40.abs_error,
            f"value={r40.value:.9e} abs_err={err40:.9e} bound={r40.abs_error:.9e}",
        )
    )
    det2 = spherical.spherical_det((1.0, 0.5), (0.8, 0.3))
    ser2 = spherical.spherical_series((1.0, 0.5), (0.8, 0.3))
    out.append(_close("spherical.det_vs_series", det2.value, ser2.value, 1e-9))
    # "auto" takes the Newton-basis route at this coincident point
    nw = spherical.spherical_eval((1.0, 1.0), (0.5, 1.5))
    sr = spherical.spherical_series((1.0, 1.0), (0.5, 1.5))
    out.append(_close("spherical.newton_vs_series", nw.value, sr.value, 1e-10))

    orb1 = spherical.orbital_integral((0.9,), (1.1,))
    out.append(
        _close("spherical.orbital_n1", orb1.value, series.bessel_i0(0.99), 1e-14)
    )
    od = spherical.orbital_integral((1.2, 0.4), (0.9, 0.2), path="det")
    os_ = spherical.orbital_integral((1.2, 0.4), (0.9, 0.2), path="series")
    out.append(_close("spherical.orbital_dual_route", od.value, os_.value, 1e-9))
    oz = spherical.orbital_integral((1.5, 0.5), (0.0, 0.0), path="series")
    out.append(_close("spherical.orbital_at_zero", oz.value, 1.0, 0.0))

    hk = spherical.heat_kernel(0.5, (1.0,), (1.0,))
    out.append(_close("spherical.heat_frozen", hk, 0.4657596075936404, 1e-13))
    t, s, lam0, rho = 0.3, 0.4, 0.8, 1.1
    # 64-node Gauss-Legendre on [0, 30]; the integrand is below 1e-50 past 10
    nodes, weights = leggauss(64)
    conv = math.fsum(
        15.0 * w
        * spherical.heat_kernel(t, (lam0,), (th,))
        * spherical.heat_kernel(s, (th,), (rho,))
        * th
        for th, w in zip((15.0 * (nodes + 1.0)).tolist(), weights.tolist())
    )
    out.append(
        _close(
            "spherical.heat_semigroup",
            conv,
            spherical.heat_kernel(t + s, (lam0,), (rho,)),
            1e-7,
        )
    )

    lam = (0.9, 0.5)
    gauss = lambda v: math.exp(-sum(x * x for x in v))
    lhs = spherical.radial_laplacian(gauss, lam)
    nrm2 = sum(x * x for x in lam)
    out.append(
        _close(
            "spherical.laplacian_gaussian",
            lhs,
            (4.0 * nrm2 - 4.0 * 2 * 2) * gauss(lam),
            1e-6,
        )
    )

    ev, target = spherical._eigen_identity((1.0, 0.6), (0.7, 0.3))
    out.append(_close("spherical.eigen_identity", ev, target, 1e-4))

    out.append(_close("spherical.weyl_c1", spherical.weyl_c_n(1), 2.0 * math.pi, 1e-15))
    out.append(
        _close("spherical.weyl_c2", spherical.weyl_c_n(2), 2.0 * math.pi**4, 1e-12)
    )
    dens = spherical.weyl_density_mn(1, 6, [math.pi / 3])
    out.append(
        CheckResult("spherical.weyl_density_positive", dens > 0.0, f"value={dens:.9e}")
    )
    return out


def _polya_checks(samples: int, seed: int) -> list[CheckResult]:
    from . import polya

    out = []
    om = polya.OmegaParam([4.0], 0.0)
    out.append(_close("polya.pointwise", polya.polya_eval(om, 1.0), 0.5, 0.0))
    out.append(_close("polya.product_rule", polya.phi_omega(om, (1.0, 2.0)), 0.1, 0.0))
    mix = polya.MixtureParam(
        [(0.5, polya.OmegaParam([], 1.0)), (0.5, polya.OmegaParam([], 4.0))]
    )
    out.append(
        _close(
            "polya.mixture_frozen",
            polya.mixture_eval(mix, (1.0,)),
            0.5733401121214236,
            1e-15,
        )
    )
    om2 = polya.OmegaParam([0.5, 0.25], 0.25)
    out.append(_close("polya.first_moment", polya.p_tilde(om2, 1), 1.0, 0.0))
    ht = polya.h_tilde(polya.OmegaParam([2.0], 0.0), 4)
    out.append(
        CheckResult(
            "polya.h_single_atom",
            ht == [1.0, 2.0, 4.0, 8.0, 16.0],
            f"h_tilde={ht}",
        )
    )
    out.append(
        _close(
            "polya.rank_one_vanishing",
            polya.s_tilde(polya.OmegaParam([2.0], 0.0), (1, 1)),
            0.0,
            0.0,
        )
    )
    lhs, rhs = polya.second_deriv_identity(om2)
    out.append(_close("polya.second_derivative", lhs, rhs, 1e-5))
    cs = polya.log_deriv_coeffs(om, 3)
    out.append(
        CheckResult(
            "polya.log_deriv_coeffs",
            all(abs(c - e) <= 1e-12 for c, e in zip(cs, (-2.0, 2.0, -2.0))),
            f"coeffs={cs}",
        )
    )
    rt = polya.OmegaParam.from_json(om2.to_json())
    out.append(
        CheckResult(
            "polya.json_roundtrip",
            rt.alpha == om2.alpha and rt.gamma == om2.gamma,
            "exact roundtrip",
        )
    )
    xmat = [[1.0 + 0.0j, 0.0j], [0.0j, 2.0 + 0.0j]]
    out.append(
        _close(
            "polya.matrix_agrees_with_diagonal",
            polya.phi_omega_matrix(om, xmat),
            polya.phi_omega(om, (1.0, 2.0)),
            1e-14,
        )
    )
    # a non-normal X, where every rotation is nontrivial: for 2 x 2,
    # det(I + c X*X) = 1 + c |X|_F^2 + c^2 |det X|^2
    xmat = [[1.0 + 0.5j, -0.7 + 1.2j], [0.3 - 0.4j, 0.6 + 0.9j]]
    fro = sum(abs(v) ** 2 for row in xmat for v in row)
    det2 = abs(xmat[0][0] * xmat[1][1] - xmat[0][1] * xmat[1][0]) ** 2
    expected = math.exp(-0.25 * om2.gamma * fro)
    for a in om2.alpha:
        expected /= 1.0 + 0.25 * a * fro + (0.25 * a) ** 2 * det2
    out.append(
        _close(
            "polya.matrix_off_diagonal",
            polya.phi_omega_matrix(om2, xmat),
            expected,
            1e-14,
        )
    )
    return out


def _mc_checks(samples: int, seed: int) -> list[CheckResult]:
    import numpy as np

    from . import montecarlo, polya, series, spherical

    out = []
    e1 = montecarlo.mc_spherical((1.0,), (1.0,), samples, seed=seed + 3)
    e2 = montecarlo.mc_spherical((1.0,), (1.0,), samples, seed=seed + 3)
    out.append(
        CheckResult(
            "mc.deterministic",
            e1.mean == e2.mean and e1.std_error == e2.std_error,
            "identical estimates for identical seeds",
        )
    )
    target = series.bessel_j0(1.0)
    out.append(
        CheckResult(
            "mc.matches_series",
            abs(e1.mean - target) <= 6.0 * e1.std_error,
            f"mean={e1.mean:.9e} target={target:.9e} se={e1.std_error:.9e}",
        )
    )
    out.append(
        CheckResult(
            "mc.imag_diagnostic",
            e1.imag_mean is not None
            and abs(e1.imag_mean) <= 6.0 * max(e1.imag_std_error, 1e-15),
            f"imag_mean={e1.imag_mean:.9e} imag_se={e1.imag_std_error:.9e}",
        )
    )

    stream = montecarlo.RngStream(seed + 11, 0)
    us = montecarlo._haar_isometry_batch(stream, 512, 3, 3)
    m11 = np.abs(us[:, 0, 0]) ** 2
    se = float(np.std(m11, ddof=1)) / math.sqrt(len(m11))
    out.append(
        CheckResult(
            "mc.haar_entry_moment",
            abs(float(np.mean(m11)) - 1.0 / 3.0) <= 6.0 * se,
            f"mean={float(np.mean(m11)):.9e} expected={1/3:.9e} se={se:.9e}",
        )
    )

    orb = montecarlo.mc_orbital_exp((0.5,), (0.5,), samples, seed=seed + 5)
    tgt = series.bessel_i0(0.25)
    out.append(
        CheckResult(
            "mc.orbital_matches_series",
            abs(orb.mean - tgt) <= 6.0 * orb.std_error,
            f"mean={orb.mean:.9e} target={tgt:.9e} se={orb.std_error:.9e}",
        )
    )

    sq = lambda a: float(np.sum(np.abs(a) ** 2))
    lap = spherical.ambient_laplacian_fd(sq, np.zeros((2, 2), dtype=complex))
    out.append(_close("mc.flat_laplacian_quadratic", lap, 16.0, 1e-6))

    om = polya.OmegaParam([4.0], 0.0)
    biv = montecarlo.mc_biinvariant_avg(om, (1.0,), (0.0,), 2, 200, seed=seed + 9)
    out.append(
        _close(
            "mc.biinvariant_fixed_point",
            biv.mean,
            polya.phi_omega(om, (1.0, 0.0)),
            1e-12,
        )
    )
    return out


def _limits_checks(samples: int, seed: int) -> list[CheckResult]:
    from . import limits, polya

    out = []
    lam = limits.lambda_sequence_for(polya.OmegaParam([], 1.0), 4)
    out.append(
        CheckResult(
            "limits.lambda_sequence_exact",
            lam == (2.0, 2.0, 2.0, 2.0),
            f"lam={lam}",
        )
    )
    om = polya.OmegaParam([0.25], 0.0)
    back = limits.t_n_map(limits.lambda_sequence_for(om, 8), 8)
    out.append(
        CheckResult(
            "limits.t_n_roundtrip",
            back.alpha == om.alpha and back.gamma == 0.0,
            f"alpha={back.alpha}",
        )
    )
    om2 = polya.OmegaParam([0.5, 0.25], 0.25)
    rep = limits.powersum_convergence(om2, 2, (8, 16, 32))
    expected_last = om2.gamma**2 / (32 - 2)
    out.append(
        CheckResult(
            "limits.powersum_rate",
            all(a > b for a, b in zip(rep.abs_errors, rep.abs_errors[1:]))
            and abs(rep.abs_errors[-1] - expected_last) <= 1e-12,
            f"errors={[f'{e:.3e}' for e in rep.abs_errors]}",
        )
    )
    rep2 = limits.spherical_convergence(om2, 1.0, (4, 8, 16), method="series")
    out.append(
        CheckResult(
            "limits.spherical_trend",
            rep2.abs_errors[-1] < rep2.abs_errors[0] and rep2.abs_errors[-1] < 0.1,
            f"errors={[f'{e:.3e}' for e in rep2.abs_errors]}",
        )
    )
    rep3 = limits.weyl_concentration_sweep(1, (4, 8, 16))
    ok = all(
        abs(v - 1.0 / n) <= 1e-8 for v, n in zip(rep3.values, rep3.n_values)
    ) and abs(rep3.limit_value) <= 1e-30
    out.append(
        CheckResult(
            "limits.angular_moment_law",
            ok,
            f"values={[f'{v:.9e}' for v in rep3.values]}",
        )
    )
    # Aomoto: E[mean cos^2] = m/n, on the same rule at every m
    for m in (2, 3):
        rep = limits.weyl_concentration_sweep(m, (2 * m, 4 * m))
        rels = [abs(v * n / m - 1.0) for v, n in zip(rep.values, rep.n_values)]
        out.append(
            CheckResult(
                f"limits.angular_moment_law_m{m}",
                max(rels) <= 1e-13,
                f"values={[f'{v:.9e}' for v in rep.values]}"
                f" rel_errors={[f'{r:.3e}' for r in rels]}",
            )
        )
    return out


_SUITES = {
    "special": _special_checks,
    "symfunc": _symfunc_checks,
    "spherical": _spherical_checks,
    "polya": _polya_checks,
    "mc": _mc_checks,
    "limits": _limits_checks,
}


def validate_all(
    suites: list[str] | None = None, samples: int = 1000, seed: int = 0
) -> list[CheckResult]:
    names = list(_SUITES) if suites is None else suites
    results: list[CheckResult] = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(_SUITES[name](int(samples), int(seed)))
    return results


def render_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        tag = "ok  " if r.passed else "FAIL"
        lines.append(f"{tag} {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
