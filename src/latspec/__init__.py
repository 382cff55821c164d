"""Exact spectral toolkit for finite geometric and semimodular lattices.

Builds subset, uniform, projective, affine, product, and user-supplied
lattices; realizes the disjointness product and its atom creation and
annihilation operators as exact rational sparse matrices; compresses the
resulting Hamiltonian to the rank-radial Jacobi matrix; and computes
determinant recurrences, vacuum resolvents and moments, spectral
measures, and the product/convolution laws, with every rational quantity
exact.
"""

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

__all__ = [
    "ZERO",
    "CheckResult",
    "FiniteLattice",
    "InvarianceReport",
    "JacobiData",
    "LatticeError",
    "MomentSequence",
    "NotALatticeError",
    "NotAPosetError",
    "NotGradedError",
    "OperatorMatrix",
    "ParseError",
    "RankLayers",
    "RationalFunction",
    "RationalPolynomial",
    "SizeBoundError",
    "SpectralMeasure",
    "SuiteResult",
    "ValidationReport",
    "affine_jacobi",
    "annihilation_operator",
    "boolean_closed_form",
    "boolean_jacobi",
    "build_affine",
    "build_boolean",
    "build_product",
    "build_projective",
    "build_uniform",
    "convolve_measures",
    "convolve_moments",
    "cover_weight_sums",
    "creation_operator",
    "determinant_polynomials",
    "diamond",
    "diamond_table",
    "eigendecompose",
    "gaussian_binomial",
    "hamiltonian",
    "jacobi_from_compression",
    "jacobi_from_formula",
    "kronecker_sum",
    "kronecker_sum_check",
    "nonassociativity_witness",
    "parse_lattice",
    "product_law_checks",
    "projective_jacobi",
    "q_int",
    "radial_invariance",
    "read_lattice_file",
    "reduced_resolvent",
    "resolvent",
    "run_invariant_suite",
    "shuffle_entry",
    "vacuum_moments_full",
    "vacuum_moments_radial",
    "validate",
]
