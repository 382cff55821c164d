"""The disjointness product on a lattice basis and its atom operators.

For lattice elements x, y the product is x ∨ y when x ∧ y is the bottom
and the algebra zero otherwise.  The zero is the zero *vector* of the
free span of lattice elements; it is distinct from the lattice bottom,
which acts as the multiplicative unit.  Left multiplication by an atom
raises rank by exactly one (semimodularity), which makes the atom
operators a creation/annihilation system and the summed Hamiltonian
rank-bipartite.

All matrices are exact: `OperatorMatrix` stores integer numerators over
one shared denominator, and `fractions.Fraction` appears only at its API.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Iterator

import numpy as np

from .lattice import FiniteLattice, SizeBoundError


class _AlgebraZero:
    """Singleton sentinel for the vector-space zero. Never a lattice element."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "0"

    def __bool__(self) -> bool:
        return False


ZERO = _AlgebraZero()

DiamondResult = int | _AlgebraZero

# Largest lattice whose full product table `diamond_table` prints.
TABLE_LIMIT = 64


def diamond(L: FiniteLattice, x: int, y: int) -> DiamondResult:
    """x ∨ y when x ∧ y is the bottom, else the algebra zero.

    Commutative on every lattice, since `meet` and `join` look up the AND
    of two masks and AND is symmetric.  Unital on every lattice: the
    bottom's join-irreducible mask J(0) is empty, which only the bottom
    has, so 0 ∧ x = 0; its meet-irreducible mask M(0) contains M(x), so
    0 ∨ x looks up M(x), which names x.  The bilinear extension to the
    span of the basis is associative on every modular lattice: (x ⋄ y) ⋄ z
    and x ⋄ (y ⋄ z) are both nonzero exactly when r(x ∨ y ∨ z) = r(x) +
    r(y) + r(z), by rank additivity, and then both equal x ∨ y ∨ z.
    Boolean, projective, and rank <= 2 uniform lattices are modular, so
    they admit no associativity violation.

    On a geometric lattice the converse holds too.  If the lattice is not
    modular, relative complements give x, y with x ∧ y the bottom and
    r(x ∨ y) < r(x) + r(y).  Write x as the join of r(x) atoms a_1..a_k.
    The left-nested product ((a_1 ⋄ a_2) ⋄ ... ⋄ a_k) ⋄ y is x ∨ y, while
    a_1 ⋄ (a_2 ⋄ (... ⋄ (a_k ⋄ y))) would need each atom to raise the rank
    by one and so vanishes; some triple therefore breaks associativity.
    Affine lattices (two parallel lines meet at the adjoined bottom) and
    uniform(r, m) with 3 <= r < m are such cases.  For lattices that are
    not atomistic, such as some custom documents, the converse is open.
    """
    if not (0 <= x < L.n and 0 <= y < L.n):
        raise ValueError(f"({x}, {y}) names no element of {L.family_tag}")
    return L.join(x, y) if L.meet(x, y) == 0 else ZERO


def _diamond_absorbing(L: FiniteLattice, u, v):
    if u is ZERO or v is ZERO:
        return ZERO
    return diamond(L, u, v)


def nonassociativity_witness(L: FiniteLattice) -> tuple[int, int, int] | None:
    """Exhaustive search for a triple with (x ⋄ y) ⋄ z != x ⋄ (y ⋄ z).

    Returns the lexicographically first witness, or None when the product
    is associative on the basis (hence, by bilinearity, on the whole span).
    """
    for x in range(L.n):
        for y in range(L.n):
            xy = diamond(L, x, y)
            for z in range(L.n):
                lhs = _diamond_absorbing(L, xy, z)
                rhs = _diamond_absorbing(L, x, diamond(L, y, z))
                if lhs is not rhs and lhs != rhs:
                    return (x, y, z)
    return None


def diamond_table(L: FiniteLattice) -> list[list]:
    """Full product table (list of rows); entries are element ids or ZERO."""
    if L.n > TABLE_LIMIT:
        raise SizeBoundError(f"product tables are limited to {TABLE_LIMIT} elements")
    return [[diamond(L, x, y) for y in range(L.n)] for x in range(L.n)]


# ---------------------------------------------------------------------------
# Sparse exact matrices
# ---------------------------------------------------------------------------

# Integer arrays stay int64 while every product and partial sum provably
# fits; past that bound they hold Python ints (numpy object arrays).
_INT64_LIMIT = 2**63


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


def fit(a: np.ndarray, factor: int = 1) -> np.ndarray:
    """`a` as int64 when max(|a|, 1) * max(factor, 1) < 2^63, else as Python ints."""
    return a.astype(object if max(_max_abs(a), 1) * max(factor, 1) >= _INT64_LIMIT else np.int64, copy=False)


class OperatorMatrix:
    """Column-sparse matrix over the rationals, indexed by lattice elements.

    The matrix is N / denom with N held as entry arrays `rows`, `cols`,
    `nums` sorted by (col, row), zeros dropped, and gcd(N, denom) = 1, so
    equal matrices have equal arrays.  `nums` is int64 unless an entry
    needs more bits, then Python ints.  The Hamiltonian has denom 2,
    creation and annihilation operators denom 1.  The layers above compute
    on N through `matvec`, and `walk` iterates it from a basis vector;
    `Fraction` appears only at the API boundary.  Immutable after
    construction.
    """

    __slots__ = ("dim", "denom", "rows", "cols", "nums", "_row_bound")

    def __init__(self, dim: int, rows, cols, nums, denom: int = 1):
        """N / denom from unsorted (row, col, numerator) arrays: duplicates
        are summed, zeros dropped and the common gcd divided out."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        outside = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))
        if outside.size:
            raise ValueError(f"entry ({rows[outside[0]]}, {cols[outside[0]]}) out of range for dim {dim}")
        key, where = np.unique(cols * dim + rows, return_inverse=True)
        nums = fit(np.asarray(nums), where.size)
        summed = np.zeros(key.size, dtype=nums.dtype)
        np.add.at(summed, where, nums)
        key, nums = key[summed != 0], summed[summed != 0]
        g = math.gcd(denom, int(np.gcd.reduce(nums)))
        self.dim, self.denom, self.nums = dim, denom // g, fit(nums // g)
        self.cols, self.rows = np.divmod(key, dim)
        magnitudes = np.abs(fit(self.nums, key.size))
        row_sums = np.zeros(dim, dtype=magnitudes.dtype)
        np.add.at(row_sums, self.rows, magnitudes)
        self._row_bound = int(row_sums.max(initial=0))

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[tuple[int, int, Fraction]]) -> "OperatorMatrix":
        entries = list(entries)
        values = [Fraction(v) for _, _, v in entries]
        denom = math.lcm(*(v.denominator for v in values))
        nums = np.array([v.numerator * (denom // v.denominator) for v in values], dtype=object)
        return cls(dim, [r for r, _, _ in entries], [c for _, c, _ in entries], nums, denom)

    def _check_index(self, *indices: int) -> None:
        for i in indices:
            if not 0 <= i < self.dim:
                raise ValueError(f"index {i} out of range for dim {self.dim}")

    def entry(self, row: int, col: int) -> Fraction:
        self._check_index(row, col)
        lo, hi = np.searchsorted(self.cols, [col, col + 1])
        i = lo + int(np.searchsorted(self.rows[lo:hi], row))
        return Fraction(int(self.nums[i]), self.denom) if i < hi and self.rows[i] == row else Fraction(0)

    def entries(self) -> Iterator[tuple[int, int, Fraction]]:
        """All nonzero entries, sorted by (col, row)."""
        for row, col, num in zip(self.rows.tolist(), self.cols.tolist(), self.nums.tolist()):
            yield row, col, Fraction(num, self.denom)

    def nnz(self) -> int:
        return self.nums.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """N v for an integer array v, so that M v = matvec(v) / denom.

        Stays int64 while max|v| * (largest row sum of |N|) < 2^63, which
        bounds every product and partial sum; past that it computes and
        returns Python ints, so a walk that crosses the bound stays exact."""
        products = self.nums * fit(v, self._row_bound)[self.cols]
        out = np.zeros(self.dim, dtype=products.dtype)
        np.add.at(out, self.rows, products)
        return out

    def walk(self, col: int, length: int) -> Iterator[np.ndarray]:
        """N^0 e_col, ..., N^length e_col as integer arrays, one held at a
        time, so that M^k e_col = N^k e_col / denom^k.  Each step is a
        `matvec`, so a walk past int64 goes on in Python ints."""
        self._check_index(col)
        if length < 0:
            raise ValueError(f"walk length {length} is negative")
        start = (np.arange(self.dim) == col).astype(np.int64)
        return accumulate(range(length), lambda v, _: self.matvec(v), initial=start)

    def power_entry(self, row: int, col: int, power: int) -> Fraction:
        """<e_row, M^power e_col>, read off the walk from e_col."""
        self._check_index(row)
        for v in self.walk(col, power):
            pass
        return Fraction(int(v[row]), self.denom**power)

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(self.dim, self.cols, self.rows, self.nums, self.denom)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        denom = math.lcm(self.denom, other.denom)
        parts = [(M, denom // M.denom) for M in (self, other)]
        nums = np.concatenate([fit(M.nums, f) * f for M, f in parts])
        return OperatorMatrix(self.dim, np.r_[self.rows, other.rows], np.r_[self.cols, other.cols], nums, denom)

    def scale(self, c: Fraction) -> "OperatorMatrix":
        c = Fraction(c)
        nums = fit(self.nums, abs(c.numerator)) * c.numerator
        return OperatorMatrix(self.dim, self.rows, self.cols, nums, self.denom * c.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.dim, self.denom) == (other.dim, other.denom) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("rows", "cols", "nums")
        )

    def __repr__(self) -> str:
        return f"OperatorMatrix(dim={self.dim}, nnz={self.nnz()})"

    def to_dense(self) -> list[list[Fraction]]:
        dense = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for row, col, value in self.entries():
            dense[row][col] = value
        return dense

    def to_document(self) -> dict:
        return {"dim": self.dim, "entries": [[r, c, str(v)] for r, c, v in self.entries()]}


def check_dim(L: FiniteLattice, H: OperatorMatrix) -> None:
    """Raise ValueError unless H acts on the span of L's elements."""
    if H.dim != L.n:
        raise ValueError(f"an operator of dimension {H.dim} does not act on {L.family_tag} with {L.n} elements")


def _creation_pairs(L: FiniteLattice, a: int) -> np.ndarray:
    """(a ⋄ x, x) for every x whose product with the atom a is a lattice
    element, as a 2 x m array in x order: the rows over the columns.  One
    `diamond` per element: the definition side, which `creation_operator`,
    `verify` and the tests read; `hamiltonian` reads the covers instead."""
    products = np.fromiter((-1 if (y := diamond(L, a, x)) is ZERO else y for x in range(L.n)), np.int64, L.n)
    lower = np.flatnonzero(products >= 0)
    return np.stack([products[lower], lower])


def _lowering_pairs(L: FiniteLattice) -> list[np.ndarray]:
    """Per atom a, in `L.atoms` order, the (y, x) of each cover x ⋖ y that
    gains it (a <= y, a ≰ x) as a 2 x m array in x order: one pass over the
    covers reads the gained atoms J(y) & ~J(x), where atom i holds bit i.
    On a lattice an atom has at most one pair per lower element x: if
    covers y1 != y2 of x both gained a, then a <= y1 ∧ y2 = x."""
    below = [L.atoms_below(x) for x in range(L.n)]
    found: list[list[int]] = [[] for _ in L.atoms]  # y0, x0, y1, x1, ... per atom
    for x, y in L.covers():
        gained = below[y] & ~below[x]
        while gained:
            found[(gained & -gained).bit_length() - 1] += (y, x)
            gained &= gained - 1
    return [np.array(pairs, dtype=np.int64).reshape(-1, 2).T for pairs in found]


def creation_operator(L: FiniteLattice, a: int) -> OperatorMatrix:
    """Left multiplication by the atom a: column x holds a single 1 at row
    a ⋄ x when the product is a lattice element, and is empty otherwise."""
    if a not in L.atoms:
        raise ValueError(f"element {a} is not an atom")
    rows, cols = _creation_pairs(L, a)
    return OperatorMatrix(L.n, rows, cols, np.ones(rows.size, dtype=np.int64))


def annihilation_operator(L: FiniteLattice, a: int) -> OperatorMatrix:
    """Lowering by the atom a: column y holds a 1 at each lower cover x of
    y with a <= y and a ≰ x, from the covers and atom masks, never `diamond`.

    On any lattice each entry is a term of the adjoint's defining sum,
    a ∨ x = y and a ∧ x = 0: x < a ∨ x <= y with x ⋖ y, and a ∧ x < a.
    A term (x, a ⋄ x) is an entry iff r(a ⋄ x) = r(x) + 1, which upper
    semimodularity ensures (Stanley, EC1, Prop. 3.3.2); so this is the
    creation transpose exactly when a raises no rank by more than one."""
    if a not in L.atoms:
        raise ValueError(f"element {a} is not an atom")
    upper, lower = _lowering_pairs(L)[L.atoms.index(a)]
    return OperatorMatrix(L.n, lower, upper, np.ones(upper.size, dtype=np.int64))


def _assemble(L: FiniteLattice, pairs: Iterable[np.ndarray]) -> OperatorMatrix:
    """(1/2) * sum over atoms of (P_a + P_a^t), P_a holding a 1 at each pair of a."""
    upper, lower = np.hstack([np.empty((2, 0), np.int64), *pairs])
    return OperatorMatrix(L.n, np.r_[upper, lower], np.r_[lower, upper], np.ones(2 * upper.size, np.int64), 2)


def _cover_arrays(L: FiniteLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, gained, a): the covers x ⋖ y in `L.covers()` order as
    arrays of x and y, the a(y) - a(x) atoms each gains, and a(.), the count
    of atoms below each element.  As J(x) ⊆ J(y), a cover gains exactly the
    atoms of J(y) ∖ J(x)."""
    a = np.fromiter(map(L.count_atoms_below, range(L.n)), np.int64, L.n)
    lower = np.repeat(np.arange(L.n), [len(ups) for ups in L.covers_up])
    upper = np.fromiter(chain.from_iterable(L.covers_up), np.int64, lower.size)
    return lower, upper, a[upper] - a[lower], a


def hamiltonian(L: FiniteLattice) -> OperatorMatrix:
    """(1/2) sum over atoms a of (L_a + L_a^t), L_a left multiplication by
    a, read from the covers by the cover rule; defined on lattices only:

        H = 1/2 sum over covers x ⋖ y of (a(y) - a(x)) (e_y e_x^t + e_x e_y^t)
          + 1/2 sum over skipping atoms b of x of (e_(x∨b) e_x^t + e_x e_(x∨b)^t)

    L_a has a 1 at (x ∨ a, x) for each atom a ≰ x, as then a ∧ x = 0.  Those
    with x ∨ a covering x are the covers x ⋖ y, each with an atom of
    J(y) ∖ J(x): given those, x < x ∨ a <= y, so x ∨ a = y.  Distinct covers
    of x gain disjoint atoms, as one gained by y1 and y2 lies below
    y1 ∧ y2 = x.  The other atoms a ≰ x, len(atoms) - a(x) - (atoms gained by
    x's covers) in number, skip a rank (none does under semimodularity), and
    only they need a `join`.  So H is `_assemble` of the creation pairs, the
    definition `verify` reads, with one entry per cover, not one per pair."""
    lower, upper, gained, a = _cover_arrays(L)
    unreached = len(L.atoms) - a
    np.subtract.at(unreached, lower, gained)
    skips: list[int] = []  # x ∨ b, x, ... per skipping atom b of x
    for x in np.flatnonzero(unreached).tolist():
        reached = L.atoms_below(x)
        for y in L.covers_up[x]:
            reached |= L.atoms_below(y)
        free = ((1 << len(L.atoms)) - 1) & ~reached
        while free:
            skips += (L.join(x, L.atoms[(free & -free).bit_length() - 1]), x)
            free &= free - 1
    upper_skip, lower_skip = np.array(skips, np.int64).reshape(-1, 2).T
    ones = np.ones(upper_skip.size, np.int64)
    rows, cols = np.r_[upper, lower, upper_skip, lower_skip], np.r_[lower, upper, lower_skip, upper_skip]
    nums = np.r_[gained, gained, ones, ones]
    del lower, upper, gained, a, unreached  # freed before the constructor sorts the entries
    return OperatorMatrix(L.n, rows, cols, nums, 2)
