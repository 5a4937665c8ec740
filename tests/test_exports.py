"""Every name a textda module exports through __all__ exists in it."""

import importlib
import pkgutil

import pytest

import textda

MODULES = [
    module
    for module in (importlib.import_module(f"textda.{info.name}")
                   for info in sorted(pkgutil.iter_modules(textda.__path__), key=lambda info: info.name))
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_all_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
