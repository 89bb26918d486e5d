"""Every exported name resolves: the package and each module's ``__all__``."""

import importlib

import pytest

MODULES = ("classifier", "experiments", "kernels", "measures", "potentials", "simulate")


@pytest.mark.parametrize("name", ("bigmeasure",) + tuple(f"bigmeasure.{m}" for m in MODULES))
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
