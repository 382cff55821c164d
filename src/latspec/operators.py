"""Exact sparse operators on the span of a lattice's elements: the atom
creation and annihilation operators and their Hamiltonian.

Creation by the atom a is left multiplication by a under the product
`lattice.diamond`.  It raises rank by exactly one (semimodularity), which
makes the atom operators a creation/annihilation system and the summed
Hamiltonian rank-bipartite.

All matrices are exact: `OperatorMatrix` stores integer numerators over
one shared denominator, and `fractions.Fraction` appears only at its API.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Iterator

from ._numpy import np
from .lattice import ZERO, FiniteLattice, _diamond_row


# Integer arrays stay int64 while every product and partial sum provably
# fits; past that bound they hold Python ints (numpy object arrays).
_INT64_LIMIT = 2**63
_MATVEC_SLICE = 16_000  # entries per `matvec` slice: int64 temporaries under glibc's 128 KiB mmap threshold


def fit(a: np.ndarray, factor: int = 1) -> np.ndarray:
    """`a` as int64 when max(|a|, 1) * max(factor, 1) < 2^63, else as Python ints."""
    bound = max(int(a.max()), -int(a.min()), 1) if a.size else 1
    return a.astype(object if bound * max(factor, 1) >= _INT64_LIMIT else np.int64, copy=False)


def _keys(dim: int, *pairs) -> np.ndarray:
    """The keys col·dim + row of each (rows, cols) pair in turn, written into one int64 array."""
    key, end = np.empty(sum(len(rows) for rows, _ in pairs), np.int64), 0
    for rows, cols in pairs:  # int64 loops: NumPy keeps int32 times an int in int32, which wraps
        part = key[end : (end := end + len(rows))]
        np.add(np.multiply(cols, dim, out=part, dtype=np.int64, casting="unsafe"), rows, out=part, dtype=np.int64, casting="unsafe")
    return key


def _integers(a, what: str) -> np.ndarray:
    """`a` as an array; ValueError unless its dtype, or each element of an object array, is an integer."""
    a = np.asarray(a)
    ints = a.dtype.kind in "iu" or a.dtype == object and all(isinstance(v, (int, np.integer)) for v in a.flat)
    if a.size and not ints:
        raise ValueError(f"{what} must be integers")
    return a


class OperatorMatrix:
    """Column-sparse matrix over the rationals, indexed by lattice elements.

    The matrix is N / denom with N held as entry arrays `rows`, `cols`,
    `nums` sorted by (col, row), zeros dropped, and gcd(N, denom) = 1, so
    equal matrices have equal arrays.  `nums` is int64 unless an entry
    needs more bits, then Python ints.  The Hamiltonian has denom 2,
    creation and annihilation operators denom 1.  The layers above compute
    on N through `matvec`, and `walk` iterates it from a basis vector;
    `Fraction` appears only at the API boundary.  Immutable after
    construction, which sorts one int64 key array col·dim + row in place into
    the stored cols.  Beside the key and the numerators handed in it holds the
    argsort and reordered numerators (none if all are equal), then the stored
    rows and nums; repeated keys, zeros and negative entries take more.
    """

    __slots__ = ("dim", "denom", "rows", "cols", "nums", "_row_bound")

    def __init__(self, dim: int, rows, cols, nums, denom: int = 1):
        """N / denom from unsorted integer (row, col, numerator) arrays, 1-D and of
        one length, and denom >= 1, else ValueError (rationals: `from_entries`)."""
        if denom < 1:
            raise ValueError(f"denominator {denom} is not positive")
        rows, cols, nums = _integers(rows, "indices"), _integers(cols, "indices"), _integers(nums, "numerators")
        if rows.ndim != 1 or not rows.shape == cols.shape == nums.shape:
            raise ValueError(f"rows, cols and nums must be 1-D of one length: {rows.shape}, {cols.shape}, {nums.shape}")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            i = np.flatnonzero((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim))[0]
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) out of range for dim {dim}")
        self._store(dim, _keys(dim, (rows, cols)), fit(nums), denom)

    def _store(self, dim: int, key: np.ndarray, nums: np.ndarray, denom: int) -> "OperatorMatrix":
        """Self as N / denom from unsorted int64 keys col·dim + row, which it consumes, and integer numerators."""
        if nums.size and nums.min() != nums.max():
            nums = nums[np.argsort(key)]
        key.sort()
        if not (key[1:] != key[:-1]).all():
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            nums, key = np.add.reduceat(fit(nums, key.size), starts), key[starts]
        if not nums.all():
            key, nums = key[nums != 0], nums[nums != 0]
        self.dim, self.denom = dim, denom // (g := math.gcd(denom, int(np.gcd.reduce(nums))))
        nums = self.nums = fit(nums // g if g > 1 else nums)  # rebound: reordered numerators go before rows are decoded
        self.rows, self.cols = np.remainder(key, dim), np.floor_divide(key, dim, out=key)
        magnitudes = fit(self.nums, self.nums.size)
        row_sums = np.zeros(dim, dtype=magnitudes.dtype)
        np.add.at(row_sums, self.rows, magnitudes if magnitudes.min(initial=0) >= 0 else np.abs(magnitudes))
        self._row_bound = int(row_sums.max(initial=0))
        return self

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
        """N v for an integer array v of shape (dim,) (else ValueError), so that M v = matvec(v) / denom.

        Stays int64 while max|v| * (largest row sum of |N|) < 2^63, which
        bounds every product and partial sum; past that it computes and
        returns Python ints, so a walk that crosses the bound stays exact.
        Beside v and the result a step holds one slice of `_MATVEC_SLICE` entries."""
        if (v := _integers(v, "vector entries")).shape != (self.dim,):
            raise ValueError(f"a vector of shape {v.shape} does not match dim {self.dim}")
        out = np.zeros(self.dim, dtype=np.result_type(self.nums, v := fit(v, self._row_bound)))
        for part in (slice(i, i + _MATVEC_SLICE) for i in range(0, self.nums.size, _MATVEC_SLICE)):
            np.add.at(out, self.rows[part], self.nums[part] * v[self.cols[part]])
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

    def transpose(self) -> "OperatorMatrix":
        return OperatorMatrix(self.dim, self.cols, self.rows, self.nums, self.denom)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return (self.dim, self.denom) == (other.dim, other.denom) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in ("rows", "cols", "nums")
        )

    def __repr__(self) -> str:
        return f"OperatorMatrix(dim={self.dim}, nnz={self.nnz()})"

    def to_document(self) -> dict:
        return {"dim": self.dim, "entries": [[r, c, str(v)] for r, c, v in self.entries()]}


def check_dim(L: FiniteLattice, H: OperatorMatrix) -> None:
    """Raise ValueError unless H acts on the span of L's elements."""
    if H.dim != L.n:
        raise ValueError(f"an operator of dimension {H.dim} does not act on {L.family_tag} with {L.n} elements")


def _creation_pairs(L: FiniteLattice, a: int) -> np.ndarray:
    """(a ⋄ x, x) for every x whose product with the atom a is a lattice
    element, as a 2 x m array in x order: the rows over the columns.  The
    atom's row of the product table (`_diamond_row`): the definition side,
    which `creation_operator`, `verify` and the tests read; `hamiltonian`
    reads the covers instead."""
    products = np.array(_diamond_row(L, a), object)
    lower = np.flatnonzero(products != ZERO)
    return np.stack([products[lower].astype(np.int64), lower])


def _lowering_pairs(L: FiniteLattice, i: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The (y, x) of each cover x ⋖ y, given as `_cover_arrays`' lower and
    upper, that gains the atom L.atoms[i] (bit i set in J(y), clear in J(x)),
    as a 2 x m array in x order.  On a lattice an atom has at most one pair
    per lower element x: if covers y1 != y2 of x both gained a, then
    a <= y1 ∧ y2 = x."""
    holds = np.fromiter(map((1 << i).__and__, L._down), bool, L.n)
    gains = holds[upper] & ~holds[lower]
    return np.stack([upper[gains], lower[gains]])


def creation_operator(L: FiniteLattice, a: int) -> OperatorMatrix:
    """Left multiplication by the atom a: column x holds a single 1 at row
    a ⋄ x when the product is a lattice element, and is empty otherwise."""
    if a not in L.atoms:
        raise ValueError(f"element {a} is not an atom")
    rows, cols = _creation_pairs(L, a)
    return OperatorMatrix(L.n, rows, cols, np.ones(rows.size, dtype=np.int64))


def annihilation_operator(L: FiniteLattice, a: int) -> OperatorMatrix:
    """Lowering by the atom a: column y holds a 1 at each lower cover x of
    y with a <= y and a ≰ x, the pairs `_lowering_pairs` selects from the
    covers and atom masks, never `diamond`; `verify` reads the same pairs.

    On any lattice each entry is a term of the adjoint's defining sum,
    a ∨ x = y and a ∧ x = 0: x < a ∨ x <= y with x ⋖ y, and a ∧ x < a.
    A term (x, a ⋄ x) is an entry iff r(a ⋄ x) = r(x) + 1, which upper
    semimodularity ensures (Stanley, EC1, Prop. 3.3.2); so this is the
    creation transpose exactly when a raises no rank by more than one."""
    if a not in L.atoms:
        raise ValueError(f"element {a} is not an atom")
    upper, lower = _lowering_pairs(L, L.atoms.index(a), *_cover_arrays(L)[:2])
    return OperatorMatrix(L.n, lower, upper, np.ones(upper.size, dtype=np.int64))


def _assemble(L: FiniteLattice, pairs: Iterable[np.ndarray]) -> OperatorMatrix:
    """(1/2) * (C + C^t), C the sum over atoms of P_a, a 1 at each pair of a; C sums repeats before mirroring."""
    key = _keys(L.n, *pairs)
    C = OperatorMatrix.__new__(OperatorMatrix)._store(L.n, key, np.broadcast_to(np.int64(1), key.size), 1)
    key, nums = _keys(L.n, (C.rows, C.cols), (C.cols, C.rows)), np.r_[C.nums, C.nums]
    del C  # freed before the mirrored keys are sorted
    return OperatorMatrix.__new__(OperatorMatrix)._store(L.n, key, nums, 2)


def _cover_arrays(L: FiniteLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, gained, a): the covers x ⋖ y in `L.covers()` order as
    arrays of x and y, the a(y) - a(x) atoms each gains, and a(.), the count
    of atoms below each element.  As J(x) ⊆ J(y), a cover gains exactly the
    atoms of J(y) ∖ J(x).  All are int32 when n < 2^31, else int64."""
    a = np.fromiter(L._atom_counts(), np.int32 if L.n < 2**31 else np.int64, L.n)
    lower = np.repeat(np.arange(L.n, dtype=a.dtype), np.fromiter(map(len, L.covers_up), np.intp, L.n))
    upper = np.fromiter(chain.from_iterable(L.covers_up), a.dtype, lower.size)
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
    x's covers) in number, skip a rank (none does under semimodularity; see
    `lattice.validate`), and only they need a `join`.  So H is `_assemble` of
    the creation pairs `verify` reads, with one entry per cover, not per pair."""
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
    upper_skip, lower_skip = np.array(skips, a.dtype).reshape(-1, 2).T
    key = _keys(L.n, (upper, lower), (lower, upper), (upper_skip, lower_skip), (lower_skip, upper_skip))
    nums = np.r_[gained, gained, np.ones(2 * upper_skip.size, a.dtype)]
    del lower, upper, gained, a, unreached  # freed before the keys are sorted; the numerators stay narrow
    return OperatorMatrix.__new__(OperatorMatrix)._store(L.n, key, nums, 2)
