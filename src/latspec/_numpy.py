"""The one module through which latspec imports numpy.

The lattice layer (`lattice`, `gf`) is pure order theory and loads no
numpy; arrays enter with the operators.  So numpy starts when the first
name or verb that needs it loads this module, with OpenBLAS limited to one
thread unless the caller set a thread variable or imported numpy first.
The one LAPACK call, eigh of an (r+1)x(r+1) Jacobi matrix, is far below the
size at which OpenBLAS splits work, so a BLAS worker thread could only cost
start-up time and a spinning core.  The limit holds for numpy's import
only: OpenBLAS reads it once, and subprocesses see the caller's environment.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np  # noqa: E402
