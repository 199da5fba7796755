"""Tests run numpy's BLAS on the CLI's default of one thread.

Collected before any test module imports numpy.  With the library's default
of one thread per core, `test_dfs.py` took 49.6 s instead of 4.0 s while
another process shared the two cores.  A caller-set count still wins.
"""

from blockspin._numpy import default_to_one_blas_thread

default_to_one_blas_thread()
