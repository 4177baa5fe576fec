"""The package namespace: every exported name and every submodule resolves
on first access, each name to the object its defining submodule holds, and
`dir` lists the names before they load."""

import json
import sys

import pytest

import spherica
from spherica import limits, montecarlo


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
