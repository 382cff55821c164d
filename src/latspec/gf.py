"""Linear algebra over prime fields and q-analog counting.

Subspaces of F_q^r are represented by their reduced row-echelon basis
(a tuple of row tuples), which is a canonical form: two subspaces are
equal iff their representations compare equal, so the tuples double as
dictionary keys.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

Vec = tuple[int, ...]
Rref = tuple[Vec, ...]

PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981  # psi_13 (Sorenson & Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q: int) -> bool:
    """Deterministic Miller–Rabin on the prime bases 2..41: every composite
    below PRIME_TEST_BOUND fails the strong test to one of them, so the
    answer is exact there; a larger q is the caller's to refuse."""
    if q < 2 or any(q % a == 0 for a in _BASES):
        return q in _BASES
    s = ((q - 1) & (1 - q)).bit_length() - 1
    d = (q - 1) >> s  # q - 1 = d * 2^s with d odd
    # q passes base a iff a^d = 1 or a^(d * 2^i) = -1 for some i < s
    return all(pow(a, d, q) == 1 or q - 1 in (pow(a, d << i, q) for i in range(s)) for a in _BASES)


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


def extend(basis: Rref, v: Vec, q: int) -> Rref:
    """The reduced echelon basis of the span of `basis` and v, with v's
    entries in range(q): v is reduced at the pivots, scaled to a leading 1,
    and its pivot column is cleared from the other rows."""
    v = reduce_vector(v, basis, q)
    p = next((j for j, x in enumerate(v) if x), None)
    if p is None:
        return basis
    inv = pow(v[p], -1, q)
    v = tuple(inv * x % q for x in v)
    rows = [tuple((a - row[p] * b) % q for a, b in zip(row, v)) if row[p] else row for row in basis]
    return tuple(sorted(rows + [v], reverse=True))  # a row with an earlier pivot compares greater


def rref(rows: Iterable[Vec], q: int) -> Rref:
    """Reduced row-echelon form over F_q; zero rows are dropped."""
    return reduce(lambda basis, row: extend(basis, tuple(x % q for x in row), q), rows, ())


def reduce_vector(v: Vec, basis: Rref, q: int) -> Vec:
    """Canonical residue of v modulo the row space: zero at every pivot column."""
    out = list(v)
    for row in basis:
        if c := out[row.index(1)]:  # a row's pivot is its first 1
            out = [(a - c * b) % q for a, b in zip(out, row)]
    return tuple(out)


def in_rowspace(v: Vec, basis: Rref, q: int) -> bool:
    return not any(reduce_vector(v, basis, q))
