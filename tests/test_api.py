"""Package surface: every library module's public names reach the root."""

from __future__ import annotations

import importlib

import pytest

import ramsey_toolkit

LIBRARY_MODULES = ("spectral", "diagnostics", "combinatorics", "primes",
                   "cnf", "qsim", "reporting")


@pytest.mark.parametrize("module_name", LIBRARY_MODULES)
def test_module_exports_are_reexported_from_root(module_name):
    module = importlib.import_module(f"ramsey_toolkit.{module_name}")
    missing = [name for name in module.__all__
               if name not in ramsey_toolkit.__all__]
    assert missing == []
    for name in module.__all__:
        assert getattr(ramsey_toolkit, name) is getattr(module, name)


def test_root_exports_resolve():
    for name in ramsey_toolkit.__all__:
        assert hasattr(ramsey_toolkit, name), name
