"""Every public name a module declares exists."""

import importlib
import pkgutil

import pytest

import fracrte

MODULES = sorted(f"fracrte.{info.name}" for info in pkgutil.iter_modules(fracrte.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and misleads every reader of the list
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
