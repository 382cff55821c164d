"""Tensor structure of product lattices.

The Hamiltonian of a product lattice is the Kronecker sum of the factor
Hamiltonians under the identification e_(x1,x2) <-> e_x1 (x) e_x2, its
minimal-power matrix entries obey a shuffle (binomial) formula, and the
vacuum spectral measure of the product is the classical convolution of
the factor measures.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from fractions import Fraction
from math import comb, lcm

from ._numpy import np
from .lattice import FiniteLattice, build_product
from .operators import OperatorMatrix, fit, hamiltonian
from .spectral import MomentSequence, SpectralMeasure, vacuum_moments_full

log = logging.getLogger(__name__)

# Largest minimal power (rank gap) at which product_law_checks compares
# shuffle-formula entries with direct ones.
SHUFFLE_MAX_POWER = 4

# Convolved atoms closer than this merge: float eigenvalues can collide.
MERGE_TOL = 1e-9


def kronecker_sum(H1: OperatorMatrix, H2: OperatorMatrix) -> OperatorMatrix:
    """H1 (x) I + I (x) H2 over lcm(denom1, denom2), with (x1, x2) at
    x1 n2 + x2: entry (r, c) of H1 lands at (r n2 + x2, c n2 + x2) for every
    x2, and entry (r, c) of H2 at (x1 n2 + r, x1 n2 + c) for every x1."""
    n1, n2 = H1.dim, H2.dim
    denom = lcm(H1.denom, H2.denom)
    f1, f2 = denom // H1.denom, denom // H2.denom
    x1, x2 = np.arange(n1)[:, None], np.arange(n2)
    rows = np.r_[(H1.rows[:, None] * n2 + x2).ravel(), (x1 * n2 + H2.rows).ravel()]
    cols = np.r_[(H1.cols[:, None] * n2 + x2).ravel(), (x1 * n2 + H2.cols).ravel()]
    nums = np.r_[np.repeat(fit(H1.nums, f1) * f1, n2), np.tile(fit(H2.nums, f2) * f2, n1)]
    return OperatorMatrix(n1 * n2, rows, cols, nums, denom)


def _kronecker_agrees(direct: OperatorMatrix, H1: OperatorMatrix, H2: OperatorMatrix) -> bool:
    """Whether `direct` is H1's Kronecker sum with H2; if not, log where they first differ."""
    assembled = kronecker_sum(H1, H2)
    if direct == assembled:
        return True
    pairs = itertools.zip_longest(direct.entries(), assembled.entries(), fillvalue=(direct.dim, direct.dim, 0))
    row, col, _ = min(next(p for p in pairs if p[0] != p[1]), key=lambda e: (e[1], e[0]))
    value = direct.entry(row, col) - assembled.entry(row, col)
    log.warning("Kronecker sum mismatch at %s: direct minus assembled is %s", (row, col), value)
    return False


def kronecker_sum_check(L1: FiniteLattice, L2: FiniteLattice) -> bool:
    """Build the product Hamiltonian from the product lattice's own covers
    and independently as a Kronecker sum of the factors', then compare
    entry for entry.  Exact equality or bust."""
    return _kronecker_agrees(hamiltonian(build_product(L1, L2)), hamiltonian(L1), hamiltonian(L2))


def _shuffle_holds(d: int, d1: int, w1: int, w2: int, wP: int, denoms: tuple[int, int, int]) -> bool:
    """`shuffle_entry`'s formula on the integer walk entries w = (N^d e_y)_x of
    the factors and the product, each M = N / denom with denoms = (denom1,
    denom2, denomP): C(d, d1) w1 w2 denomP^d = wP denom1^d1 denom2^(d - d1)."""
    denom1, denom2, denomP = denoms
    return comb(d, d1) * w1 * w2 * denomP**d == wP * denom1**d1 * denom2 ** (d - d1)


def shuffle_entry(
    L1: FiniteLattice,
    L2: FiniteLattice,
    x: tuple[int, int],
    y: tuple[int, int],
    *,
    product_hamiltonian: OperatorMatrix | None = None,
) -> Fraction:
    """Minimal-power Hamiltonian entry of a product lattice via the shuffle
    formula, with d1, d2 the component rank gaps and d = d1 + d2:

        <e_x, H^d e_y> = C(d, d1) <e_x1, H1^d1 e_y1> <e_x2, H2^d2 e_y2>

    (at any other power the entry is forced to zero or involves non-minimal
    walks, outside this formula's scope).  It is also computed directly on the
    product lattice, where (x1, x2) has id x1 * L2.n + x2 (`build_product`),
    from `product_hamiltonian` when given, and the two are asserted equal."""
    (x1, x2), (y1, y2) = x, y
    if not (0 <= x1 < L1.n and 0 <= y1 < L1.n and 0 <= x2 < L2.n and 0 <= y2 < L2.n):
        raise ValueError(f"{x} or {y} names no element of {L1.family_tag} x {L2.family_tag}")
    if not (L1.leq(x1, y1) and L2.leq(x2, y2)):
        raise ValueError(f"{x} is not componentwise below {y}")
    d1, d2 = L1.rank[y1] - L1.rank[x1], L2.rank[y2] - L2.rank[x2]
    H1, H2 = hamiltonian(L1), hamiltonian(L2)
    HP = hamiltonian(build_product(L1, L2)) if product_hamiltonian is None else product_hamiltonian
    if HP.dim != L1.n * L2.n:
        raise ValueError(f"an operator of dimension {HP.dim} does not act on the {L1.n * L2.n} elements of the product")
    ends = (H1, x1, y1, d1), (H2, x2, y2, d2), (HP, x1 * L2.n + x2, y1 * L2.n + y2, d1 + d2)
    w1, w2, wP = (int(deque(H.walk(col, d), maxlen=1)[0][row]) for H, row, col, d in ends)
    value = Fraction(comb(d1 + d2, d1) * w1 * w2, H1.denom**d1 * H2.denom**d2)
    if not _shuffle_holds(d1 + d2, d1, w1, w2, wP, (H1.denom, H2.denom, HP.denom)):
        direct = Fraction(wP, HP.denom ** (d1 + d2))
        raise AssertionError(f"shuffle formula {value} disagrees with direct entry {direct} for {x} -> {y}")
    return value


def _shuffle_agrees(
    L1: FiniteLattice, L2: FiniteLattice, H1: OperatorMatrix, H2: OperatorMatrix, HP: OperatorMatrix
) -> bool:
    """`_shuffle_holds` on every pair x <= y of the product with rank gap d <= SHUFFLE_MAX_POWER, y and
    then x ascending.  Each factor column keeps only the entries compared; one product walk is held at a time."""
    p, denoms = SHUFFLE_MAX_POWER, (H1.denom, H2.denom, HP.denom)

    def columns(L: FiniteLattice, H: OperatorMatrix):
        """Per y, (x, d, (N^d e_y)_x) for x <= y at rank gap d <= p in x order; gap d is gap d - 1's lower covers."""
        for y in range(L.n):
            gaps = itertools.accumulate(range(p), lambda s, _: {x for z in s for x in L.covers_down[z]}, initial={y})
            yield sorted((x, d, int(v[x])) for d, (v, gap) in enumerate(zip(H.walk(y, p), gaps)) for x in gap)
    below2 = list(columns(L2, H2))
    for y1, below1 in enumerate(columns(L1, H1)):
        for y2, below in enumerate(below2):
            walk = list(HP.walk(y1 * L2.n + y2, p))
            for (x1, d1, w1), (x2, d2, w2) in itertools.product(below1, below):
                if d1 + d2 <= p and not _shuffle_holds(d1 + d2, d1, w1, w2, int(walk[d1 + d2][x1 * L2.n + x2]), denoms):
                    log.warning("shuffle formula fails for %s -> %s", (x1, x2), (y1, y2))
                    return False
    return True


def product_law_checks(
    L1: FiniteLattice, L2: FiniteLattice, K: int, *, cap: int | None = None
) -> tuple[bool, bool, bool]:
    """The three product laws on L1 x L2: (Kronecker sum, shuffle formula
    up to power SHUFFLE_MAX_POWER, moment convolution up to order K).

    The product lattice is built once under `cap`, and each of the three
    Hamiltonians once; every law reads them.
    """
    if K < 0:
        raise ValueError("K must be non-negative")
    LP = build_product(L1, L2, cap=cap)
    H1, H2, HP = hamiltonian(L1), hamiltonian(L2), hamiltonian(LP)
    kron_ok, shuffle_ok = _kronecker_agrees(HP, H1, H2), _shuffle_agrees(L1, L2, H1, H2, HP)
    m1, m2, mP = (vacuum_moments_full(L, H, K) for L, H in ((L1, H1), (L2, H2), (LP, HP)))
    return kron_ok, shuffle_ok, convolve_moments(m1, m2, K).values == mP.values


def convolve_moments(m1: MomentSequence, m2: MomentSequence, K: int) -> MomentSequence:
    """Binomial convolution c_k = sum_j C(k, j) m1_j m2_{k-j}, the moment
    law of a sum of commuting independent parts."""
    if K < 0:
        raise ValueError("K must be non-negative")
    if m1.order < K or m2.order < K:
        raise ValueError(f"need moments up to order {K} on both inputs")
    return MomentSequence(tuple(sum((comb(k, j) * m1[j] * m2[k - j] for j in range(k + 1)), Fraction(0))
                                for k in range(K + 1)))


def convolve_measures(mu1: SpectralMeasure, mu2: SpectralMeasure) -> SpectralMeasure:
    """Convolution of finitely supported measures: atoms at all pairwise
    sums, weights multiplied; atoms closer than MERGE_TOL are merged."""
    raw = sorted((l1 + l2, w1 * w2) for l1, w1 in mu1.atoms for l2, w2 in mu2.atoms)
    merged: list[list[float]] = []
    for l, w in raw:
        if merged and l - merged[-1][0] <= MERGE_TOL:
            total = merged[-1][1] + w
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + l * w) / total
            merged[-1][1] = total
        else:
            merged.append([l, w])
    return SpectralMeasure(tuple((l, w) for l, w in merged))
