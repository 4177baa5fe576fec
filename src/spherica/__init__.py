"""Spherical functions for two-sided unitary symmetry, their
infinite-dimensional limits, and the oracles that keep both honest.

Layout:

* series    — entire-kernel power series and the derived radial kernels
* symfunc   — partitions, power sums, complete homogeneous and Schur bases
* spherical — finite-n evaluators (determinant, Newton and series routes), orbital
              integral, heat kernel, radial and flat Laplacians, angular densities
* polya     — limit parameters, pointwise products, mixtures, morphism values
* montecarlo— reproducible Haar samplers and averaging oracles
* limits    — finite-size-to-limit sweeps
* validate  — deterministic cross-check suite
* cli       — `spherica` command-line driver

Only montecarlo needs numpy at import time, so it and its six names
(McEstimate, RngStream, haar_unitary, mc_biinvariant_avg, mc_orbital_exp,
mc_spherical) load on first use; the other modules import numpy inside
the functions that build arrays.
"""

import importlib

from .errors import (
    ConvergenceError,
    DegeneracyError,
    DomainError,
    RangeError,
    ShapeError,
    SphericaError,
    ValidationError,
)
from .limits import (
    SweepReport,
    lambda_sequence_for,
    powersum_convergence,
    spherical_convergence,
    t_n_map,
    weyl_concentration_sweep,
)
from .polya import (
    MixtureParam,
    OmegaParam,
    h_tilde,
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
from .series import (
    bessel_i0,
    bessel_j0,
    bessel_j0_with_error,
    hyper_f,
    hyper_f_with_error,
)
from .spherical import (
    DiagonalPoint,
    EvalResult,
    ambient_laplacian_fd,
    heat_kernel,
    orbital_integral,
    radial_laplacian,
    spherical_det,
    spherical_eval,
    spherical_series,
    squared_gap_product,
    weyl_c_n,
    weyl_density_mn,
)
from .symfunc import (
    Partition,
    cauchy_lhs,
    cauchy_rhs,
    complete_h,
    complete_h_table,
    enumerate_partitions,
    newton_h_from_p,
    power_p,
    schur,
)
from .validate import CheckResult, render_report, validate_all

__version__ = "0.1.0"

_MONTECARLO_NAMES = frozenset(
    {
        "McEstimate",
        "RngStream",
        "haar_unitary",
        "mc_biinvariant_avg",
        "mc_orbital_exp",
        "mc_spherical",
    }
)


def __getattr__(name):
    # `from . import montecarlo` here would look the name up on this module
    # first, and so call this function again
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        module = importlib.import_module(".montecarlo", __name__)
        return module if name == "montecarlo" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CheckResult",
    "ConvergenceError",
    "DegeneracyError",
    "DiagonalPoint",
    "DomainError",
    "EvalResult",
    "McEstimate",
    "MixtureParam",
    "OmegaParam",
    "Partition",
    "RangeError",
    "RngStream",
    "ShapeError",
    "SphericaError",
    "SweepReport",
    "ValidationError",
    "ambient_laplacian_fd",
    "bessel_i0",
    "bessel_j0",
    "bessel_j0_with_error",
    "cauchy_lhs",
    "cauchy_rhs",
    "complete_h",
    "complete_h_table",
    "enumerate_partitions",
    "h_tilde",
    "haar_unitary",
    "heat_kernel",
    "hyper_f",
    "hyper_f_with_error",
    "lambda_sequence_for",
    "log_deriv_coeffs",
    "mc_biinvariant_avg",
    "mc_orbital_exp",
    "mc_spherical",
    "mixture_eval",
    "newton_h_from_p",
    "orbital_integral",
    "p_tilde",
    "phi_omega",
    "phi_omega_matrix",
    "polya_eval",
    "power_p",
    "powersum_convergence",
    "radial_laplacian",
    "render_report",
    "s_tilde",
    "schur",
    "second_deriv_identity",
    "sigma_moment",
    "spherical_convergence",
    "spherical_det",
    "spherical_eval",
    "spherical_series",
    "squared_gap_product",
    "t_n_map",
    "validate_all",
    "weyl_c_n",
    "weyl_concentration_sweep",
    "weyl_density_mn",
]
