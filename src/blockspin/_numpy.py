"""numpy, imported on first attribute access.

`import blockspin` and the pure-Python layers never pay for it; a missing
numpy still raises ModuleNotFoundError at import.
"""

import os

from ._lazy import lazy_import

np = lazy_import("numpy")

# the thread counts that OpenBLAS, OpenMP and MKL read once, when numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def default_to_one_blas_thread() -> None:
    """Set every BLAS thread count to 1, unless the environment sets any.

    Acts on numpy only if it has not loaded yet.  The CLI's matrices are at
    most 64 x 64 and its Gram systems at most 400 unknowns, where a second
    thread buys little, and on a shared host it can stall a call for up to a
    second.  The library leaves the counts alone: its 1024-unknown eigh runs
    faster on two.
    """
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
