"""Every public export resolves: a name left in `__all__` after its definition
is deleted breaks `from module import *` and misleads readers."""

import importlib
import pkgutil

import pytest

import maxcool

_NAMES = ["maxcool"] + [f"maxcool.{m.name}" for m in pkgutil.iter_modules(maxcool.__path__)]
DECLARING = [n for n in _NAMES if hasattr(importlib.import_module(n), "__all__")]


def test_solver_modules_declare_all():
    # the check below is vacuous for a module that declares no __all__
    assert {"maxcool", "maxcool.kinematics", "maxcool.spectral", "maxcool.dsmc",
            "maxcool.realspace", "maxcool.harness"} <= set(DECLARING)


@pytest.mark.parametrize("name", DECLARING)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
