import importlib

import pytest


@pytest.mark.parametrize("module", ["cayley", "cayley.symmetry"])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from cayley import *", namespace)
    assert set(importlib.import_module("cayley").__all__) <= namespace.keys()
