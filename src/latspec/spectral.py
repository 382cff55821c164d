"""Determinant recurrences, vacuum resolvents, moments, and spectral measures.

Everything downstream of the Jacobi data is exact rational arithmetic
except the eigendecomposition, whose eigenvalues and weights are floats.
The characteristic polynomials follow the continuant recurrence

    D_{k+1}(t) = D_k(t) - beta_k^2 t^2 D_{k-1}(t),   D_{-1} = D_0 = 1,

for D_k(t) = det(I - t J_k) of the leading (k+1) x (k+1) minor.  The
vacuum resolvent is the complementary-minor quotient det(I - t J') /
det(I - t J) with J' the block obtained by deleting the *first* row and
column (coefficients beta_1..beta_{r-1}), and its Taylor coefficients are
the vacuum moments (`vacuum_moments_radial`).  For palindromic coefficient
sequences, such as every subset lattice, that numerator coincides with the
leading minor D_{r-1}.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile, zip_longest
from math import comb, isfinite
from typing import Iterable, Mapping

from ._numpy import np
from .gf import gaussian_binomial, q_int
from .lattice import FiniteLattice
from .operators import OperatorMatrix, check_dim
from .radial import JacobiData


class RationalPolynomial:
    """Polynomial with exact rational coefficients, ascending degree.

    Canonical form: trailing zeros trimmed, so the zero polynomial is the
    empty coefficient tuple and otherwise the last coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return RationalPolynomial(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            if self.is_zero() or other.is_zero():
                return RationalPolynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial(out)
        return RationalPolynomial(tuple(Fraction(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RationalPolynomial({[str(c) for c in self.coeffs]})"


_ONE = RationalPolynomial((1,))


class RationalFunction:
    """Quotient of rational polynomials whose denominator is 1 at t = 0."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: RationalPolynomial, denominator: RationalPolynomial):
        if denominator.coefficient(0) != 1:
            raise ValueError("the denominator must be 1 at t = 0")
        self.numerator = numerator
        self.denominator = denominator

    def series(self, order: int) -> tuple[Fraction, ...]:
        """Taylor coefficients c_0..c_order at t = 0 (denominator(0) = 1)."""
        out: list[Fraction] = []
        den = self.denominator
        for k in range(order + 1):
            c = self.numerator.coefficient(k)
            for j in range(1, min(k, den.degree) + 1):
                c -= den.coefficient(j) * out[k - j]
            out.append(c)
        return tuple(out)

    def __call__(self, t) -> Fraction:
        return self.numerator(t) / self.denominator(t)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.numerator * other.denominator == other.numerator * self.denominator

    def __repr__(self) -> str:
        return f"RationalFunction({self.numerator!r} / {self.denominator!r})"


@dataclass(frozen=True)
class MomentSequence:
    """Vacuum moments m_0..m_K as exact rationals; m_0 is always 1."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("a moment sequence starts with m_0 = 1")

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    @property
    def order(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class SpectralMeasure:
    """Finitely supported probability measure: (eigenvalue, weight) pairs
    sorted by eigenvalue.  Every value is finite, the weights are
    non-negative, sum to 1, and the mean is zero (zero-diagonal Jacobi
    matrices are centered); the last two facts are enforced at 1e-10, a
    comparison that a NaN or an infinity would pass."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not all(isfinite(v) for atom in self.atoms for v in atom):
            raise ValueError("eigenvalues and weights must be finite")
        eigs = [a[0] for a in self.atoms]
        if eigs != sorted(eigs):
            raise ValueError("atoms must be sorted by eigenvalue")
        weights = [a[1] for a in self.atoms]
        if any(w < -1e-12 for w in weights):
            raise ValueError("weights must be non-negative")
        if abs(sum(weights) - 1.0) > 1e-10:
            raise ValueError(f"weights sum to {sum(weights)}, not 1")
        mean = sum(l * w for l, w in self.atoms)
        if abs(mean) > 1e-10:
            raise ValueError(f"first moment {mean} is not zero")

    def moment(self, k: int) -> float:
        return sum(w * l**k for l, w in self.atoms)

    def to_document(self) -> dict:
        return {"atoms": [[l, w] for l, w in self.atoms]}

    @classmethod
    def from_document(cls, document: Mapping) -> "SpectralMeasure":
        """Read {"atoms": [[eigenvalue, weight], ...]}, each value a JSON number in
        the float range (`float` reads true, false and strings too); any other
        value or shape, and atoms not a centred probability measure, raise ValueError."""
        try:
            atoms = [(l, w) for l, w in document["atoms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f'expected {{"atoms": [[eigenvalue, weight], ...]}} ({exc!r})') from exc
        for kind, v in ((kind, v) for atom in atoms for kind, v in zip(("eigenvalue", "weight"), atom)):
            if type(v) not in (int, float) or type(v) is int and abs(v) > sys.float_info.max:
                raise ValueError(f"{kind} {reprlib.repr(v)} is {'past the float range' if type(v) is int else 'not a number'}")
        return cls(tuple((float(l), float(w)) for l, w in atoms))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _continuant(beta_sq: tuple[Fraction, ...]) -> list[RationalPolynomial]:
    """D_{-1} = D_0 = 1, D_{k+1} = D_k - beta_k^2 t^2 D_{k-1}: each step
    subtracts a multiple of t^2, so every D_k(0) = 1."""
    out = [_ONE, _ONE]
    for b in beta_sq:
        out.append(out[-1] - b * RationalPolynomial((0, 0, *out[-2].coeffs)))
    return out


def determinant_polynomials(J: JacobiData) -> tuple[RationalPolynomial, ...]:
    """The sequence D_{-1}, D_0, ..., D_r; index k lives at position k + 1."""
    return tuple(_continuant(J.beta_sq))


def resolvent(J: JacobiData) -> RationalFunction:
    """Vacuum resolvent: its Taylor coefficients are the vacuum moments.

    Numerator: det(I - tJ') for the minor J' deleting the first row and
    column (coefficients beta_1..beta_{r-1}); denominator: det(I - tJ).
    At r = 0 both are the empty continuant 1.
    """
    return _quotient(J.beta_sq)


def reduced_resolvent(J: JacobiData) -> RationalFunction:
    """The vacuum resolvent in lowest terms: the resolvent of beta_0..beta_(j-1),
    cut before the first zero beta_j^2 (j = r when none is zero).

    beta_j = 0 splits J into two blocks, and e_0 lies in the first, J_j on
    coordinates 0..j, so the function is unchanged.  J_j has positive
    coefficients, so its eigenvalues are simple and those of J_j' strictly
    interlace them (Cauchy): none is shared.  As det(I - tA) is the product
    of (1 - t lambda) over the eigenvalues of A, numerator and denominator
    share no factor, and the denominator's degree 2 floor((j+1)/2) counts
    the nonzero eigenvalues of J_j, a spectrum symmetric about 0."""
    return _quotient(tuple(takewhile(bool, J.beta_sq)))


def _quotient(beta_sq: tuple[Fraction, ...]) -> RationalFunction:
    return RationalFunction(_continuant(beta_sq[1:])[-1], _continuant(beta_sq)[-1])


def vacuum_moments_full(L: FiniteLattice, H: OperatorMatrix, K: int) -> MomentSequence:
    """<e_bottom, H^k e_bottom> = (N^k e_0)_0 / denom^k for k = 0..K, read
    off the walk of the integer numerator N = denom * H from the bottom,
    which rejects a negative K."""
    check_dim(L, H)
    return MomentSequence(tuple(Fraction(int(v[0]), H.denom**k) for k, v in enumerate(H.walk(0, K))))


def vacuum_moments_radial(J: JacobiData, K: int) -> MomentSequence:
    """<e_0, J^k e_0> for k = 0..K, the Taylor coefficients of `resolvent`.

    (I - tJ)^-1_00 is the sum of t^k <e_0, J^k e_0>, and by Cramer's rule it
    is det(I - tJ') / det(I - tJ), J' deleting the first row and column, for
    every zero-diagonal tridiagonal J, zero beta^2 included.  So the series
    of that quotient of continuants is the moment sequence, exact and free
    of square roots."""
    if K < 0:
        raise ValueError("K must be non-negative")
    return MomentSequence(resolvent(J).series(K))


def eigendecompose(J: JacobiData) -> SpectralMeasure:
    """Eigenvalues of the symmetric tridiagonal matrix with zero diagonal and
    off-diagonals beta_k; the weight of an eigenvalue is the squared first
    component of its normalized eigenvector; at r = 0, eigh of the 1 x 1
    zero matrix gives the point mass at 0."""
    r = J.r
    T = np.zeros((r + 1, r + 1))
    for k, b in enumerate(J.beta):
        T[k, k + 1] = T[k + 1, k] = b
    eigenvalues, eigenvectors = np.linalg.eigh(T)
    return SpectralMeasure(tuple((float(eigenvalues[j]), float(eigenvectors[0, j] ** 2)) for j in range(r + 1)))


def boolean_closed_form(n: int) -> SpectralMeasure:
    """The binomial measure: eigenvalue n/2 - j with weight C(n, j) / 2^n."""
    if n < 0:
        raise ValueError("n must be non-negative")
    atoms = tuple((n / 2 - j, comb(n, j) / 2**n) for j in range(n, -1, -1))
    return SpectralMeasure(atoms)


def boolean_jacobi(n: int) -> JacobiData:
    """Exact Jacobi data of the subset lattice without building it."""
    sizes = [comb(n, k) for k in range(n + 1)]
    W = [comb(n, k) * (n - k) for k in range(n)]
    return JacobiData.from_weights(sizes, W)


def projective_jacobi(r: int, q: int) -> JacobiData:
    """Exact Jacobi data of the subspace lattice of F_q^r: layer k counts
    (r choose k)_q, and each cover at level k carries weight q^k."""
    sizes = [gaussian_binomial(r, k, q) for k in range(r + 1)]
    W = [gaussian_binomial(r, k, q) * q_int(r - k, q) * q**k for k in range(r)]
    return JacobiData.from_weights(sizes, W)


def affine_jacobi(r: int, q: int) -> JacobiData:
    """Exact Jacobi data of the affine-flat lattice with adjoined bottom.

    Level 0 pairs the bottom with the q^r points (weight 1 per point);
    level k >= 1 pairs (k-1)-flats with k-flats, each such cover carrying
    weight q^{k-1}(q - 1), the number of points gained."""
    m = [q ** (r - k) * gaussian_binomial(r, k, q) for k in range(r + 1)]
    W = [q**r, *(m[k - 1] * q_int(r - k + 1, q) * q ** (k - 1) * (q - 1) for k in range(1, r + 1))]
    return JacobiData.from_weights([1, *m], W)
