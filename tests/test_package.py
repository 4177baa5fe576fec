"""The package namespace: every exported name and every submodule resolves
on first access, each name to the object its defining submodule holds, and
`dir` lists the names before they load.  Every integer argument of the
public functions passes one rule, and each refusal names its cause."""

import json
import math
import sys

import numpy as np
import pytest

import spherica
from spherica import (
    DomainError,
    MixtureParam,
    OmegaParam,
    RangeError,
    RngStream,
    ShapeError,
    ValidationError,
    limits,
    montecarlo,
)
from spherica.validate import validate_all


def test_every_exported_name_resolves():
    # to the very object of the submodule that defines it
    for name in spherica.__all__:
        value = getattr(spherica, name)
        module = value.__module__
        assert module.startswith("spherica."), name
        assert getattr(sys.modules[module], name) is value, name


def test_monte_carlo_names_are_the_submodule_objects():
    assert spherica.montecarlo is montecarlo
    for name in ("McEstimate", "RngStream", "haar_unitary", "mc_biinvariant_avg",
                 "mc_orbital_exp", "mc_spherical"):
        assert getattr(spherica, name) is getattr(montecarlo, name)


def test_dir_lists_every_exported_name(python_subprocess):
    # in a fresh interpreter, where no submodule has loaded yet; a submodule
    # name resolves to the submodule too
    child = (
        "import json, sys\n"
        "import spherica\n"
        "missing = sorted(set(spherica.__all__) - set(dir(spherica)))\n"
        "loaded = sorted(m for m in sys.modules if 'spherica.' in m)\n"
        "polya = spherica.polya is sys.modules['spherica.polya']\n"
        "print(json.dumps([missing, loaded, polya]))\n"
    )
    proc = python_subprocess(["-c", child])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.decode()) == [[], [], True]
    assert set(spherica.__all__) <= set(dir(spherica))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spherica import *", namespace)
    assert set(spherica.__all__) <= set(namespace)
    assert namespace["mc_spherical"] is montecarlo.mc_spherical


@pytest.mark.parametrize("module", [spherica, limits], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_limits_keeps_its_monte_carlo_names():
    assert limits.mc_spherical is montecarlo.mc_spherical


_ATOM = OmegaParam([0.5], 0.0)

# (call with the integer argument k, a valid k)
_INTEGER_ARGUMENTS = {
    "limits.spherical_convergence n_values": (
        lambda k: spherica.spherical_convergence(_ATOM, 0.5, (k, 4)), 2),
    "limits.spherical_convergence n_samples": (
        lambda k: spherica.spherical_convergence(_ATOM, 0.5, (2,), "mc", k), 150),
    "limits.spherical_convergence seed": (
        lambda k: spherica.spherical_convergence(_ATOM, 0.5, (2,), "mc", 150, k), 2),
    "limits.t_n_map": (lambda k: spherica.t_n_map((1.0, 2.0), k), 2),
    "limits.lambda_sequence_for": (lambda k: spherica.lambda_sequence_for(_ATOM, k), 2),
    "limits.powersum_convergence m": (
        lambda k: spherica.powersum_convergence(_ATOM, k, (2, 4)), 2),
    "limits.powersum_convergence n_values": (
        lambda k: spherica.powersum_convergence(_ATOM, 2, (k, 4)), 2),
    "limits.weyl_concentration_sweep m": (
        lambda k: spherica.weyl_concentration_sweep(k, (4, 8)), 2),
    "limits.weyl_concentration_sweep n_values": (
        lambda k: spherica.weyl_concentration_sweep(1, (k, 8)), 2),
    "montecarlo.RngStream master_seed": (lambda k: RngStream(k).uniforms(3).tolist(), 2),
    "montecarlo.RngStream stream_id": (lambda k: RngStream(0, k).uniforms(3).tolist(), 2),
    "montecarlo.haar_unitary": (
        lambda k: spherica.haar_unitary(k, RngStream(0)).tolist(), 2),
    "montecarlo.mc_spherical n_samples": (
        lambda k: spherica.mc_spherical((0.5,), (0.5,), k), 150),
    "montecarlo.mc_spherical seed": (
        lambda k: spherica.mc_spherical((0.5,), (0.5,), 150, k), 2),
    "montecarlo.mc_orbital_exp n_samples": (
        lambda k: spherica.mc_orbital_exp((0.5,), (0.5,), k), 150),
    "montecarlo.mc_orbital_exp seed": (
        lambda k: spherica.mc_orbital_exp((0.5,), (0.5,), 150, k), 2),
    "montecarlo.mc_biinvariant_avg n": (
        lambda k: spherica.mc_biinvariant_avg(_ATOM, (1.0,), (0.5,), k, 150), 2),
    "montecarlo.mc_biinvariant_avg n_samples": (
        lambda k: spherica.mc_biinvariant_avg(_ATOM, (1.0,), (0.5,), 2, k), 150),
    "montecarlo.mc_biinvariant_avg seed": (
        lambda k: spherica.mc_biinvariant_avg(_ATOM, (1.0,), (0.5,), 2, 150, k), 2),
    "polya.p_tilde": (lambda k: spherica.p_tilde(_ATOM, k), 2),
    "polya.sigma_moment": (lambda k: spherica.sigma_moment(_ATOM, k), 2),
    "polya.log_deriv_coeffs": (lambda k: spherica.log_deriv_coeffs(_ATOM, k), 2),
    "polya.h_tilde": (lambda k: spherica.h_tilde(_ATOM, k), 2),
    "symfunc.Partition": (lambda k: spherica.Partition((k, 1)), 2),
    "symfunc.power_p": (lambda k: spherica.power_p(k, [1.0, 2.0]), 2),
    "symfunc.complete_h_table": (lambda k: spherica.complete_h_table([1.0, 2.0], k), 2),
    "symfunc.complete_h": (lambda k: spherica.complete_h(k, [1.0, 2.0]), 2),
    "symfunc.cauchy_lhs max_weight": (
        lambda k: spherica.cauchy_lhs((0.3, 0.2), (0.4,), k), 2),
    "symfunc.enumerate_partitions max_weight": (
        lambda k: list(spherica.enumerate_partitions(k, 2)), 2),
    "symfunc.enumerate_partitions max_length": (
        lambda k: list(spherica.enumerate_partitions(2, k)), 2),
    "spherical.weyl_c_n": (lambda k: spherica.weyl_c_n(k), 2),
    "spherical.weyl_density_mn m": (
        lambda k: spherica.weyl_density_mn(k, 4, (1.0, 1.2)), 2),
    "spherical.weyl_density_mn n": (lambda k: spherica.weyl_density_mn(1, k, (1.0,)), 2),
    "validate.validate_all samples": (lambda k: validate_all(["mc"], samples=k), 150),
    "validate.validate_all seed": (lambda k: validate_all(["mc"], 150, seed=k), 2),
}


@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_follow_one_rule(name):
    # a fraction, inf or nan is refused, never truncated to another object;
    # an integral float or a numpy integer is the integer itself
    call, k = _INTEGER_ARGUMENTS[name]
    for bad in (k + 0.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            call(bad)
    expected = call(k)
    assert call(float(k)) == expected
    assert call(np.int64(k)) == expected


# (call, exception class, message) of the library's refusals that no other
# test reaches
_REFUSALS = {
    "polya.polya_eval infinite u": (
        lambda: spherica.polya_eval(_ATOM, math.inf), DomainError,
        "polya_eval requires finite u"),
    "polya.OmegaParam.from_json gamma": (
        lambda: OmegaParam.from_json({"alpha": [0.5], "gamma": "0"}), ValidationError,
        '"gamma" must be a number'),
    "polya.MixtureParam component": (
        lambda: MixtureParam([(1.0, {"alpha": [0.5], "gamma": 0.0})]), ValidationError,
        "mixture components must pair weight and omega"),
    "polya.MixtureParam.from_json keys": (
        lambda: MixtureParam.from_json({"components": [], "weights": []}), ValidationError,
        'mixture must be an object with key "components"'),
    "polya.MixtureParam.from_json component keys": (
        lambda: MixtureParam.from_json({"components": [{"weight": 1.0}]}), ValidationError,
        'each component must have keys "weight" and "omega"'),
    "polya.MixtureParam.from_json weight": (
        lambda: MixtureParam.from_json(
            {"components": [{"weight": "1", "omega": _ATOM.to_json()}]}),
        ValidationError, '"weight" must be a number'),
    "limits.powersum_convergence empty grid": (
        lambda: spherica.powersum_convergence(_ATOM, 1, ()), DomainError,
        "empty size grid"),
    "limits.t_n_map empty vector": (
        lambda: spherica.t_n_map(()), DomainError, "empty parameter vector"),
    "limits.spherical_convergence infinite u": (
        lambda: spherica.spherical_convergence(_ATOM, math.inf, (4,)), DomainError,
        "u must be finite"),
    "spherical.radial_laplacian empty point": (
        lambda: spherica.radial_laplacian(lambda v: 0.0, ()), DomainError,
        "empty diagonal point"),
    "spherical.ambient_laplacian_fd shape": (
        lambda: spherica.ambient_laplacian_fd(lambda x: 0.0, [[1, 2, 3]]), ShapeError,
        "expected a square matrix, got shape (1, 3)"),
    "spherical.weyl_density_mn theta length": (
        lambda: spherica.weyl_density_mn(2, 6, [0.1]), ShapeError,
        "theta must have length 2"),
    "spherical.weyl_density_mn theta range": (
        lambda: spherica.weyl_density_mn(1, 6, [4.0]), DomainError,
        "theta entries must lie in [0, pi]"),
    "spherical.spherical_series term overflow": (
        lambda: spherica.spherical_series((30.0,), (30.0,)), RangeError,
        "series term at weight 196 exceeds double range"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_refusals_name_their_cause(name):
    call, error, message = _REFUSALS[name]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
