"""The public surface: every name a module exports in ``__all__`` exists."""

import importlib

import pytest

import nvfp4sim

MODULES = [name for name in nvfp4sim.__all__ if name != "__version__"]


def test_package_names_resolve():
    assert all(hasattr(nvfp4sim, name) for name in nvfp4sim.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"nvfp4sim.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
