"""Every name a module exports in ``__all__`` imports, so a stale export
fails here and not at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import poolshrink

MODULES = ["poolshrink"] + [
    f"poolshrink.{info.name}" for info in pkgutil.iter_modules(poolshrink.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_binds_every_export(name):
    exports = importlib.import_module(name).__all__
    assert len(set(exports)) == len(exports)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exports) <= set(namespace)
