"""numpy, imported on first attribute access.

The stdlib lazy-import recipe (`importlib.util.LazyLoader`): `np` is the real
module if it is already loaded, else a module whose import runs on first use,
so that `import blockspin` and the pure-Python tiling code never pay for it.
A missing numpy still raises ModuleNotFoundError at import.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
