"""The package's lazy export table (``sphex._EXPORTS``)."""

import importlib

import pytest

import sphex

SUBMODULES = sorted(set(sphex._EXPORTS.values()))


@pytest.mark.parametrize("name", sorted(sphex._EXPORTS))
def test_every_export_resolves_to_its_submodule_object(name):
    module = importlib.import_module(f"sphex.{sphex._EXPORTS[name]}")
    assert getattr(sphex, name) is getattr(module, name)


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_exports_match_the_submodule_all(module_name):
    module = importlib.import_module(f"sphex.{module_name}")
    # REGISTRY and KINDS are tables read from their own modules
    public = set(module.__all__) - {"REGISTRY", "KINDS"}
    exported = {n for n, m in sphex._EXPORTS.items() if m == module_name}
    assert public == exported


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulate_field'"):
        sphex.simulate_field
