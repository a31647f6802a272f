"""Every exported name of the package and its modules exists."""

import importlib

import pytest

MODULES = ["grossone"] + [
    f"grossone.{name}" for name in ("arith", "linalg", "polyexpr", "simplex", "penalty", "cli")
]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
