"""Every name a gravsim module exports must exist.

A deletion that leaves its name in ``__all__`` breaks ``from gravsim.x
import *`` and documentation tools, but no direct import notices it.
"""

import importlib
import pkgutil

import pytest

import gravsim

MODULES = ["gravsim"] + [
    f"gravsim.{info.name}" for info in pkgutil.iter_modules(gravsim.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
