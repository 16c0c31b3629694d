"""The package's public names: every name a module's ``__all__`` lists,
and so every name a star-import takes, is an attribute of that module."""

import importlib
import pkgutil

import pytest

import ctflex

MODULES = ["ctflex"] + [f"ctflex.{info.name}"
                        for info in pkgutil.iter_modules(ctflex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    if name == "ctflex.cli":        # the command line, never star-imported
        assert not hasattr(module, "__all__")
        return
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
