"""Rank layers and the radial Jacobi compression.

The radial subspace is spanned by the normalized rank-layer sums; the
compression of the Hamiltonian to it has zero diagonal, and J is its tridiagonal part.
All computations here use the *unnormalized* layer sums s_k so that every
quantity stays an exact rational: the off-diagonal coefficients enter as

    beta_k^2 = <s_k, H s_{k+1}>^2 / (n_k * n_{k+1}),

which avoids the square roots of the normalized basis.  The compression
and the invariance test compute on the integer numerators N = 2H held by
`OperatorMatrix`; floats appear only in the derived `beta` view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np
from .lattice import FiniteLattice, cover_weight_sums
from .operators import OperatorMatrix, check_dim, fit, hamiltonian


@dataclass(frozen=True)
class RankLayers:
    """Layer sizes n_k for k = 0..r."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError("layer sizes must be positive and start at rank 0")

    @property
    def r(self) -> int:
        return len(self.sizes) - 1

    def __getitem__(self, k: int) -> int:
        return self.sizes[k]


@dataclass(frozen=True)
class JacobiData:
    """Radial Jacobi coefficients of a lattice.

    beta_sq[k] is the exact square of the k-th off-diagonal coefficient,
    W[k] the integer cover weight sum feeding it, layers the rank profile.
    A rank-0 lattice has r = 0 and no coefficients.  Boundary conventions:
    coefficients exist for 0 <= k <= r-1 only.
    """

    beta_sq: tuple[Fraction, ...]
    W: tuple[int, ...]
    layers: RankLayers

    @classmethod
    def from_weights(cls, sizes, W) -> "JacobiData":
        """The coefficients beta_k^2 = W_k^2 / (4 n_k n_{k+1}) of layer sizes n and weight sums W."""
        layers = RankLayers(tuple(sizes))
        beta_sq = (Fraction(W[k] * W[k], 4 * layers[k] * layers[k + 1]) for k in range(min(layers.r, len(W))))
        return cls(tuple(beta_sq), tuple(W), layers)

    def __post_init__(self):
        if len(self.beta_sq) != self.r or len(self.W) != self.r:
            raise ValueError("expected one coefficient per adjacent layer pair")
        if any(b < 0 for b in self.beta_sq):
            raise ValueError("beta squares must be non-negative")

    @property
    def r(self) -> int:
        return self.layers.r

    @property
    def beta(self) -> tuple[float, ...]:
        return tuple(math.sqrt(b) for b in self.beta_sq)


@dataclass(frozen=True)
class InvarianceReport:
    """Whether the radial subspace is invariant under the Hamiltonian.

    When it is not, failing_level is the first k at which H s_k leaves
    span{s_{k-1}, s_{k+1}} and residual_support lists the element ids
    carrying the off-radial residual at that level.
    """

    failing_level: int | None
    residual_support: tuple[int, ...]

    @property
    def invariant(self) -> bool:
        return self.failing_level is None


def jacobi_from_formula(L: FiniteLattice) -> JacobiData:
    """Jacobi data via the combinatorial formula beta_k^2 = W_k^2 / (4 n_k n_{k+1})."""
    return JacobiData.from_weights(L.layer_sizes(), cover_weight_sums(L))


def jacobi_from_compression(L: FiniteLattice, H: OperatorMatrix | None = None) -> JacobiData:
    """Jacobi data by compressing H = N / denom to the radial subspace.

    Summing N by the ranks of each entry's row and column gives every
    <s_m, N s_k> at once; <s_k, H s_{k+1}> is read off exactly, and the
    compression diagonal <s_k, H s_k>, which vanishes on any graded
    lattice, is checked.  The integer W_k = 2<s_k, H s_{k+1}> (every entry
    of H is a half-integer) then gives beta_k^2 through `from_weights`.
    Where an atom raises rank by two, the compression also has entries two
    levels apart, and the result is its tridiagonal part only (`verify`)."""
    if H is None:
        H = hamiltonian(L)
    check_dim(L, H)
    rank = np.asarray(L.rank, np.min_scalar_type(L.top_rank))  # narrow, so the two rank gathers stay small
    nums = fit(H.nums, H.nnz())
    block = np.zeros((L.top_rank + 1, L.top_rank + 1), dtype=nums.dtype)
    np.add.at(block, (rank[H.rows], rank[H.cols]), nums)
    for k in range(L.top_rank + 1):
        if block[k, k]:
            raise ArithmeticError(
                f"nonzero radial diagonal {Fraction(int(block[k, k]), H.denom)} at level {k}: "
                "the lattice is not graded or the Hamiltonian is corrupt"
            )
    W = [2 * Fraction(int(block[k, k + 1]), H.denom) for k in range(L.top_rank)]
    if fractional := [w for w in W if w.denominator != 1]:
        raise ArithmeticError(f"cover weight sum 2<s_k, H s_(k+1)> = {fractional[0]} is not an integer")
    return JacobiData.from_weights(L.layer_sizes(), [int(w) for w in W])


def radial_invariance(L: FiniteLattice, H: OperatorMatrix | None = None) -> InvarianceReport:
    """Exact test of whether H maps each layer sum into the span of the
    adjacent layer sums, i.e. whether H s_k is constant on each adjacent
    layer.  No tolerances: N s_k, summed from N's entries in the columns of
    rank k alone, is an integer array, and on a layer of size m a value v
    differs from the mean exactly when m * v differs from the layer's sum."""
    if H is None:
        H = hamiltonian(L)
    check_dim(L, H)
    col_rank, nums = np.asarray(L.rank, np.min_scalar_type(L.top_rank))[H.cols], fit(H.nums, H.nnz())
    for k in range(L.top_rank + 1):
        np.add.at(image := np.zeros(L.n, nums.dtype), H.rows[level := col_rank == k], nums[level])
        residual = image != 0
        for layer in (np.asarray(L.layers[kk]) for kk in (k - 1, k + 1) if 0 <= kk <= L.top_rank):
            values = fit(image[layer], len(layer))
            residual[layer] = values * len(layer) != values.sum()
        if residual.any():
            return InvarianceReport(k, tuple(np.flatnonzero(residual).tolist()))
    return InvarianceReport(None, ())
