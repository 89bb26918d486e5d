"""Every exported name resolves: the package and each module's ``__all__``."""

import importlib
import subprocess
import sys

import pytest

MODULES = ("classifier", "experiments", "kernels", "measures", "potentials", "simulate")


@pytest.mark.parametrize("name", ("bigmeasure",) + tuple(f"bigmeasure.{m}" for m in MODULES))
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_import_leaves_scipy_integrate_out():
    # every quadrature is the package's own panel rule; scipy.integrate
    # alone took about a third of the import time
    code = "import sys, bigmeasure; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
