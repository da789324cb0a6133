import importlib
import pkgutil

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
