"""Each module's ``__all__`` lists only what the module defines, so that a
deleted function cannot leave a stale entry behind and no name is exported
from two modules."""
import importlib

import pytest

import fluidsar
from fluidsar import solver

MODULES = ("balance", "baselines", "channel", "exposure", "fixed", "harness", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_where_it_is_defined(name):
    module = importlib.import_module(f"fluidsar.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from fluidsar.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    # a function or class is exported by the module that defines it
    elsewhere = [n for n in module.__all__
                 if getattr(namespace[n], "__module__", module.__name__) != module.__name__]
    assert not elsewhere, elsewhere


def test_position_wrappers_are_gone():
    # the position block's residual, gradient and curvature bound live in
    # ``_residual``, ``_Geometry.kernel`` and ``_majorizers`` only
    for name in ("position_objective", "position_gradient", "position_majorizer"):
        assert not hasattr(fluidsar, name) and not hasattr(solver, name)
