"""numpy, imported on first attribute access.

`import blockspin` and the pure-Python layers never pay for it; a missing
numpy still raises ModuleNotFoundError at import.
"""

from ._lazy import lazy_import

np = lazy_import("numpy")
