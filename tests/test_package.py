"""The public names: each submodule's ``__all__`` is their only list."""

import importlib
import inspect
import pkgutil

import pytest

import sphex

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sphex.__path__)
                    if hasattr(importlib.import_module(f"sphex.{m.name}"), "__all__"))
OWNER = {name: module_name for module_name in SUBMODULES
         for name in importlib.import_module(f"sphex.{module_name}").__all__}


@pytest.mark.parametrize("name", sorted(OWNER))
def test_every_export_resolves_to_its_submodule_object(name):
    module = importlib.import_module(f"sphex.{OWNER[name]}")
    value = getattr(module, name)
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == module.__name__  # defined, not re-exported


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_exports_match_the_submodule_all(module_name):
    # a public name is listed once, by the submodule that defines it
    names = importlib.import_module(f"sphex.{module_name}").__all__
    assert len(set(names)) == len(names)
    assert all(OWNER[name] == module_name for name in names)


def test_unknown_name_is_an_attribute_error():
    # the package re-exports nothing; names come from their submodule
    with pytest.raises(AttributeError, match="no attribute 'simulate_field'"):
        sphex.simulate_field
