"""The public surface: each name has one import path, its defining submodule."""

import importlib
import pkgutil
import types

import pytest

import geosink

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(geosink.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_all_entry_is_defined_in_its_module(name):
    # an entry a deletion leaves behind would break `from geosink.<name> import *`
    module = importlib.import_module(f"geosink.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if n not in vars(module)] == []
    elsewhere = [n for n in exported
                 if getattr(vars(module)[n], "__module__", module.__name__) != module.__name__]
    assert elsewhere == []


def test_the_package_re_exports_no_names():
    for name in SUBMODULES:
        importlib.import_module(f"geosink.{name}")
    names = [n for n, value in vars(geosink).items()
             if not n.startswith("_") and not isinstance(value, types.ModuleType)]
    assert names == []
    assert not hasattr(geosink, "__all__")
    with pytest.raises(AttributeError):
        geosink.run_until
