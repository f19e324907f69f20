"""Every name a package `__all__` lists resolves, so `import *` works."""

import importlib

import pytest

MODULES = ["yangian", "yangian.series"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec("from %s import *" % name, namespace)
    assert set(module.__all__) <= set(namespace)
