"""Every module's ``__all__`` names only what the module defines, once."""

import importlib
import pkgutil

import pytest

import sumfree


def _modules():
    names = ["sumfree"] + [m.name for m in pkgutil.walk_packages(sumfree.__path__, "sumfree.")]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", _modules())
def test_all_resolves_without_duplicates(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
