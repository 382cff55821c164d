"""Exact spectral toolkit for finite geometric and semimodular lattices.

Builds subset, uniform, projective, affine, product, and user-supplied
lattices; realizes the disjointness product and its atom creation and
annihilation operators as exact rational sparse matrices; compresses the
resulting Hamiltonian to the rank-radial Jacobi matrix; and computes
determinant recurrences, vacuum resolvents and moments, spectral
measures, and the product/convolution laws, with every rational quantity
exact.

Each public name is imported from its module on first use, so the lattice
layer (building, parsing, validating, the product) loads no numpy.  The
first name that needs numpy starts it with OpenBLAS limited to one thread;
set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, or import
numpy first, to keep the BLAS default (see `latspec._numpy`).
"""

from importlib import import_module as _import_module

# Each public name, by the module that defines it.
_PUBLIC = {
    "gf": "gaussian_binomial q_int",
    "lattice": """CheckResult FiniteLattice LatticeError NotALatticeError NotAPosetError NotGradedError ParseError
        SizeBoundError ValidationReport ZERO build_affine build_boolean build_product build_projective build_uniform
        cover_weight_sums diamond diamond_table nonassociativity_witness parse_lattice read_lattice_file validate""",
    "operators": "OperatorMatrix annihilation_operator creation_operator hamiltonian",
    "product": "convolve_measures convolve_moments kronecker_sum kronecker_sum_check product_law_checks shuffle_entry",
    "radial": "InvarianceReport JacobiData RankLayers jacobi_from_compression jacobi_from_formula radial_invariance",
    "spectral": """MomentSequence RationalFunction RationalPolynomial SpectralMeasure affine_jacobi boolean_closed_form
        boolean_jacobi determinant_polynomials eigendecompose projective_jacobi reduced_resolvent resolvent
        vacuum_moments_full vacuum_moments_radial""",
    "verify": "SuiteResult run_invariant_suite",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its module on first use (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value
