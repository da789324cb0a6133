import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pulsefront
from pulsefront.config import config_to_json_dict
from pulsefront.presets import preset


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from pulsefront.<module> import *`; __main__ is skipped, it runs the CLI
    for info in pkgutil.iter_modules(pulsefront.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"pulsefront.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"pulsefront.{info.name}.__all__ names undefined {missing}"


def _heavy_modules_loaded(module: str, then: str = "") -> str:
    # each costs tens to hundreds of ms of startup; only a solve loads
    # scipy.linalg (for LAPACK), and nothing needs scipy.integrate,
    # scipy.optimize, scipy.sparse or scipy.special
    heavy = "{'scipy.optimize', 'scipy.integrate', 'scipy.sparse', 'scipy.special', 'scipy.linalg'}"
    code = f"import sys, {module}\n{then}\nprint(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(pulsefront.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_optimize_or_integrate():
    assert _heavy_modules_loaded("pulsefront.cli") == "[]"


def test_package_import_loads_no_optimize_integrate_or_sparse():
    # the package imports periodic, whose frozen-interval kernel lives in solver
    assert _heavy_modules_loaded("pulsefront") == "[]"


def test_ode_orbit_loads_no_integrate_optimize_sparse_or_special():
    # the homogeneous map is a Taylor integrator in Python floats; the orbit's
    # Newton steps load scipy.linalg for one LAPACK rotation
    then = ("from pulsefront.presets import base_params_a\n"
            "assert pulsefront.periodic.ode_periodic_orbit(base_params_a()).is_positive")
    assert _heavy_modules_loaded("pulsefront.periodic", then) == "['scipy.linalg']"


def test_no_source_file_imports_scipy_integrate():
    sources = Path(pulsefront.__file__).parent.glob("*.py")
    assert [path.name for path in sources if "scipy.integrate" in path.read_text()] == []


@pytest.mark.parametrize("command", [["validate"], ["eigen", "--interval", "4"], ["classify"]],
                         ids=["validate", "eigen", "classify"])
def test_commands_that_solve_nothing_load_no_lapack(tmp_path, command):
    # fig-c is threshold dependent, so classify bisects for the critical length too
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_to_json_dict(preset("fig-c").config)))
    then = f"assert pulsefront.cli.main({[*command, '--config', str(path)]!r}) == 0"
    assert _heavy_modules_loaded("pulsefront.cli", then) == "[]"


def test_every_benchmark_span_target_resolves():
    # the benchmark's tracer skips a target it cannot find, so a renamed
    # function would make its traced metrics read 0 rather than fail
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for name, module_name, attr in spans.TARGETS:
        module = importlib.import_module(module_name)
        if isinstance(attr, tuple):
            ok = all("__call__" in vars(getattr(module, cls, object)) for cls in attr)
        else:
            ok = callable(getattr(module, attr, None))
        if not ok:
            unresolved.append(name)
    assert not unresolved, f"perfbench/spans.py TARGETS that no longer resolve: {unresolved}"
