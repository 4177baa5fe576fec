"""Spherical functions for two-sided unitary symmetry, their
infinite-dimensional limits, and the oracles that keep both honest.

Layout:

* series    — J0 and I0 by one trapezoidal sum, and F(z) = sum z^k/(k!)^2
* symfunc   — partitions, power sums, complete homogeneous and Schur bases
* spherical — finite-n evaluators (determinant, Newton and series routes), orbital
              integral, heat kernel, radial and flat Laplacians, angular densities
* polya     — limit parameters, pointwise products, mixtures, morphism values
* montecarlo— reproducible Haar samplers and averaging oracles
* limits    — finite-size-to-limit sweeps
* validate  — deterministic cross-check suite
* cli       — `spherica` command-line driver

`import spherica` loads no submodule: each public name, and each
submodule, loads on first access (PEP 562), so a caller compiles only the
modules it calls into.  `spherica.spherical_eval` loads series, symfunc
and spherical; `spherica.polya_eval` loads symfunc and polya.  Only
montecarlo needs numpy at import time; the other modules import numpy
inside the functions that build arrays.  Evaluations on every route, the
rank-one and power-sum sweeps, the Weyl sweep at every m, phi_omega_matrix
(through det(I + (a/4) X*X), without singular values) and the special,
symfunc, polya and limits validate suites build none.
"""

import importlib

__version__ = "0.1.0"

# the public names by defining submodule; every submodule name resolves too
_EXPORTS = {
    "errors": (
        "ConvergenceError", "DegeneracyError", "DomainError", "RangeError",
        "ShapeError", "SphericaError", "ValidationError",
    ),
    "limits": (
        "SweepReport", "lambda_sequence_for", "powersum_convergence",
        "spherical_convergence", "t_n_map", "weyl_concentration_sweep",
    ),
    "montecarlo": (
        "McEstimate", "RngStream", "haar_unitary", "mc_biinvariant_avg",
        "mc_orbital_exp", "mc_spherical",
    ),
    "polya": (
        "MixtureParam", "OmegaParam", "h_tilde", "log_deriv_coeffs", "mixture_eval",
        "p_tilde", "phi_omega", "phi_omega_matrix", "polya_eval", "s_tilde",
        "second_deriv_identity", "sigma_moment",
    ),
    "series": ("bessel_i0", "bessel_j0", "bessel_j0_with_error", "hyper_f", "hyper_f_with_error"),
    "spherical": (
        "DiagonalPoint", "EvalResult", "ambient_laplacian_fd", "heat_kernel",
        "orbital_integral", "radial_laplacian", "spherical_det", "spherical_eval",
        "spherical_series", "squared_gap_product", "weyl_c_n", "weyl_density_mn",
    ),
    "symfunc": (
        "Partition", "cauchy_lhs", "cauchy_rhs", "complete_h", "complete_h_table",
        "enumerate_partitions", "newton_h_from_p", "power_p", "schur",
    ),
    "validate": ("CheckResult", "render_report", "validate_all"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    # `from . import x` here would look the name up on this module first,
    # and so call this function again
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name in _ORIGIN:
        value = getattr(importlib.import_module("." + _ORIGIN[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
