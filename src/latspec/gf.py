"""Linear algebra over prime fields and q-analog counting.

Subspaces of F_q^r are represented by their reduced row-echelon basis
(a tuple of row tuples), which is a canonical form: two subspaces are
equal iff their representations compare equal, so the tuples double as
dictionary keys.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable

Vec = tuple[int, ...]
Rref = tuple[Vec, ...]


def is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


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
