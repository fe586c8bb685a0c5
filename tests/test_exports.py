"""Every name a vineshift module exports in __all__ exists.

A stale entry left behind by a deletion would break
`from vineshift.<module> import *` without failing any other test.
"""

import importlib
import pkgutil

import pytest

import vineshift

MODULES = ["vineshift"] + [f"vineshift.{m.name}" for m in pkgutil.iter_modules(vineshift.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
