"""Modules imported on first attribute access.

The stdlib lazy-import recipe (`importlib.util.LazyLoader`), as in Scientific
Python SPEC 1: `lazy_import(name)` returns the real module if it is already
loaded, else a module in `sys.modules` whose code runs on first use.  A
missing module still raises ModuleNotFoundError at once.
"""

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """`name`, loaded now or on first use; a submodule is also bound on its
    package, as `import` would bind it."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
