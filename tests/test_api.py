"""The public API surface: every name a ggp module exports resolves."""

import importlib
import pkgutil

import pytest

import ggp

MODULES = sorted(info.name for info in pkgutil.iter_modules(ggp.__path__, "ggp."))


def test_the_package_has_its_modules():
    assert {"ggp.festoon", "ggp.hull", "ggp.rescale", "ggp.sampling"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
