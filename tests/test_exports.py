"""Every name that ``lefdist`` and its modules list in ``__all__`` resolves.

A deletion that leaves a stale ``__all__`` entry fails here, not at a later
``from lefdist import *``.  Modules without ``__all__`` (``cli``, ``errors``,
``verify``) have nothing to check.
"""

import importlib
import pkgutil

import pytest

import lefdist

MODULES = ["lefdist"] + [f"lefdist.{m.name}" for m in pkgutil.iter_modules(lefdist.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [e for e in getattr(module, "__all__", []) if not hasattr(module, e)] == []
