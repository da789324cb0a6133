import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pulsefront


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from pulsefront.<module> import *`; __main__ is skipped, it runs the CLI
    for info in pkgutil.iter_modules(pulsefront.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"pulsefront.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"pulsefront.{info.name}.__all__ names undefined {missing}"


def _heavy_modules_loaded(module: str) -> str:
    # each costs tens to hundreds of ms of startup; only the ODE orbit defers
    # to scipy.integrate, and nothing needs scipy.optimize or scipy.sparse
    heavy = "{'scipy.optimize', 'scipy.integrate', 'scipy.sparse'}"
    code = f"import sys, {module}; print(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(pulsefront.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_loads_no_optimize_or_integrate():
    assert _heavy_modules_loaded("pulsefront.cli") == "[]"


def test_package_import_loads_no_optimize_integrate_or_sparse():
    # the package imports periodic, whose frozen-interval kernel lives in solver
    assert _heavy_modules_loaded("pulsefront") == "[]"
