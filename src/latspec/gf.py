"""Linear algebra over prime fields and q-analog counting.

Subspaces of F_q^r are represented by their reduced row-echelon basis
(a tuple of row tuples), which is a canonical form: two subspaces are
equal iff their representations compare equal, so the tuples double as
dictionary keys.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator

Vec = tuple[int, ...]
Rref = tuple[Vec, ...]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def q_int(m: int, q: int) -> int:
    """The q-integer [m]_q = 1 + q + ... + q^(m-1)."""
    return (q**m - 1) // (q - 1)


def gaussian_binomial(r: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^r (exact integer)."""
    if k < 0 or k > r:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (r - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rref(rows: Iterable[Vec], q: int) -> Rref:
    """Reduced row-echelon form over F_q; zero rows are dropped."""
    mat = [list(row) for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        mat[pivot_row], mat[piv] = mat[piv], mat[pivot_row]
        inv = pow(mat[pivot_row][col], -1, q)
        mat[pivot_row] = [(inv * v) % q for v in mat[pivot_row]]
        lead = mat[pivot_row]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col] % q:
                c = mat[i][col]
                mat[i] = [(v - c * w) % q for v, w in zip(mat[i], lead)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row])


def pivot_columns(basis: Rref) -> tuple[int, ...]:
    return tuple(next(j for j, v in enumerate(row) if v) for row in basis)


def reduce_vector(v: Vec, basis: Rref, q: int) -> Vec:
    """Canonical residue of v modulo the row space: zero at every pivot column."""
    out = list(v)
    for row in basis:
        p = next(j for j, x in enumerate(row) if x)
        if out[p]:
            c = out[p]
            out = [(a - c * b) % q for a, b in zip(out, row)]
    return tuple(out)


def in_rowspace(v: Vec, basis: Rref, q: int) -> bool:
    return not any(reduce_vector(v, basis, q))


def rowspace_contains(big: Rref, small: Rref, q: int) -> bool:
    """True when every row of `small` lies in the row space of `big`."""
    return all(in_rowspace(row, big, q) for row in small)


def subspaces_of_dim(r: int, q: int, k: int) -> Iterator[Rref]:
    """All k-dimensional subspaces of F_q^r as canonical echelon bases.

    Enumeration: choose pivot columns, then fill the free cells (entries to
    the right of a row's pivot, outside the pivot columns) with all field
    values.
    """
    if k == 0:
        yield ()
        return
    if k > r:
        return
    for pivots in combinations(range(r), k):
        pivot_set = set(pivots)
        cells = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, r)
            if j not in pivot_set
        ]
        for values in product(range(q), repeat=len(cells)):
            rows = [[0] * r for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(cells, values):
                rows[i][j] = val
            yield tuple(tuple(row) for row in rows)


def coset_representatives(basis: Rref, r: int, q: int) -> Iterator[Vec]:
    """Canonical coset representatives of a subspace: vectors supported off
    the pivot columns.  Matches the residues produced by reduce_vector."""
    pivots = set(pivot_columns(basis))
    free = [j for j in range(r) if j not in pivots]
    for values in product(range(q), repeat=len(free)):
        v = [0] * r
        for j, val in zip(free, values):
            v[j] = val
        yield tuple(v)
