"""Exact spectral toolkit for finite geometric and semimodular lattices.

Builds subset, uniform, projective, affine, product, and user-supplied
lattices; realizes the disjointness product and its atom creation and
annihilation operators as exact rational sparse matrices; compresses the
resulting Hamiltonian to the rank-radial Jacobi matrix; and computes
determinant recurrences, vacuum resolvents and moments, spectral
measures, and the product/convolution laws, with every rational quantity
exact.

Importing latspec starts numpy with OpenBLAS limited to one thread; set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, or import
numpy first, to keep the BLAS default.
"""

import os as _os
import sys as _sys
from types import ModuleType as _ModuleType

# The one LAPACK call, eigh of an (r+1)x(r+1) Jacobi matrix, is far below the
# size at which OpenBLAS splits work, so a BLAS worker thread could only cost
# start-up time and a spinning core.  The limit holds for numpy's import only:
# OpenBLAS reads it once, and subprocesses see the caller's environment.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules and not any(var in _os.environ for var in _BLAS_THREAD_VARS):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .diamond import (
    ZERO,
    OperatorMatrix,
    annihilation_operator,
    creation_operator,
    diamond,
    diamond_table,
    hamiltonian,
    nonassociativity_witness,
)
from .gf import gaussian_binomial, q_int
from .lattice import (
    CheckResult,
    FiniteLattice,
    LatticeError,
    NotALatticeError,
    NotAPosetError,
    NotGradedError,
    ParseError,
    SizeBoundError,
    ValidationReport,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    parse_lattice,
    read_lattice_file,
    validate,
)
from .product import (
    convolve_measures,
    convolve_moments,
    kronecker_sum,
    kronecker_sum_check,
    product_law_checks,
    shuffle_entry,
)
from .radial import (
    InvarianceReport,
    JacobiData,
    RankLayers,
    cover_weight_sums,
    jacobi_from_compression,
    jacobi_from_formula,
    radial_invariance,
)
from .spectral import (
    MomentSequence,
    RationalFunction,
    RationalPolynomial,
    SpectralMeasure,
    affine_jacobi,
    boolean_closed_form,
    boolean_jacobi,
    determinant_polynomials,
    eigendecompose,
    projective_jacobi,
    reduced_resolvent,
    resolvent,
    vacuum_moments_full,
    vacuum_moments_radial,
)
from .verify import SuiteResult, run_invariant_suite

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))]
