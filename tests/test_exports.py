import importlib
import pkgutil

import singwald


def test_every_export_resolves():
    # A deletion that leaves its name in an __all__ fails here, not at the
    # first `from singwald import *`.
    names = ["singwald"] + [
        f"singwald.{info.name}" for info in pkgutil.iter_modules(singwald.__path__)
    ]
    stale = [
        f"{name}.{attr}"
        for name in names
        for module in [importlib.import_module(name)]
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ]
    assert len(names) > 1 and not stale
