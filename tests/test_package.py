"""The package namespace: every exported name resolves, and the Monte Carlo
names (the only ones that need numpy at import) resolve on first access."""

import pytest

import spherica
from spherica import limits, montecarlo


def test_every_exported_name_resolves():
    for name in spherica.__all__:
        assert getattr(spherica, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from spherica import *", namespace)
    assert set(spherica.__all__) <= set(namespace)
    assert namespace["mc_spherical"] is montecarlo.mc_spherical


def test_monte_carlo_names_are_the_submodule_objects():
    assert spherica.montecarlo is montecarlo
    for name in ("McEstimate", "RngStream", "haar_unitary", "mc_biinvariant_avg",
                 "mc_orbital_exp", "mc_spherical"):
        assert getattr(spherica, name) is getattr(montecarlo, name)


@pytest.mark.parametrize("module", [spherica, limits], ids=lambda m: m.__name__)
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_limits_keeps_its_monte_carlo_names():
    assert limits.mc_spherical is montecarlo.mc_spherical
