"""Fresh import of the program under test, so set-up can be repeated."""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

MODULES = ("arith", "linalg", "polyexpr", "simplex", "penalty", "cli")


def load(src_dir: str) -> SimpleNamespace:
    """Import ``grossone`` from src_dir anew and return its modules by name.

    Earlier imports are dropped from ``sys.modules`` first, so each call
    pays the whole import again.
    """
    src_dir = os.path.abspath(src_dir)
    if sys.path[:1] != [src_dir]:
        sys.path.insert(0, src_dir)
    for name in [m for m in sys.modules if m == "grossone" or m.startswith("grossone.")]:
        del sys.modules[name]
    package = importlib.import_module("grossone")
    if not os.path.abspath(package.__file__).startswith(src_dir + os.sep):
        raise ImportError(f"grossone was imported from {package.__file__}, not {src_dir}")
    modules = {name: importlib.import_module(f"grossone.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **modules)
