"""Shared test utilities: independent oracles and a random-lattice source.

The oracles here deliberately avoid the code paths they check: dense
matrix powering instead of sparse application, explicit walk enumeration
instead of the transfer recursion, matching enumeration instead of the
continuant recurrence, and the rank law instead of the product.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import combinations

import numpy as np

from latspec import ZERO, FiniteLattice, NotALatticeError, OperatorMatrix, RationalPolynomial, diamond, parse_lattice
from latspec.gf import in_rowspace, rref
from latspec.lattice import _subset_label
from latspec.operators import _cover_arrays, _lowering_pairs, fit


# ---------------------------------------------------------------------------
# Dense exact linear algebra (oracle for matvec / walk)
# ---------------------------------------------------------------------------


def dense_of(dim: int, entries) -> list[list[Fraction]]:
    """The dim x dim matrix summing (row, col, value) entries, e.g. `M.entries()`."""
    dense = [[Fraction(0)] * dim for _ in range(dim)]
    for r, c, v in entries:
        dense[r][c] += Fraction(v)
    return dense


def dense_matmul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            a = A[i][k]
            if a == 0:
                continue
            row_b = B[k]
            row_o = out[i]
            for j in range(n):
                if row_b[j]:
                    row_o[j] += a * row_b[j]
    return out


def dense_power(A: list[list[Fraction]], k: int) -> list[list[Fraction]]:
    n = len(A)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = dense_matmul(out, A)
    return out


def dense_power_entry(H, row: int, col: int, k: int) -> Fraction:
    return dense_power(dense_of(H.dim, H.entries()), k)[row][col]


# ---------------------------------------------------------------------------
# Walk-sum oracle for radial moments
# ---------------------------------------------------------------------------


def walk_moment_bruteforce(beta_sq: tuple[Fraction, ...], k: int) -> Fraction:
    """Sum over closed walks of length k on the path graph, starting and
    ending at 0, of the product of beta_{level}^2 over up-steps."""
    r = len(beta_sq)

    def recurse(level: int, remaining: int, acc: Fraction) -> Fraction:
        if remaining == 0:
            return acc if level == 0 else Fraction(0)
        if level > remaining:  # cannot return to 0 in time
            return Fraction(0)
        total = Fraction(0)
        if level < r:
            total += recurse(level + 1, remaining - 1, acc * beta_sq[level])
        if level > 0:
            total += recurse(level - 1, remaining - 1, acc)
        return total

    return recurse(0, k, Fraction(1))


# ---------------------------------------------------------------------------
# Matching-sum oracle for tridiagonal determinants
# ---------------------------------------------------------------------------


def det_by_matchings(beta_sq: tuple[Fraction, ...], size: int) -> RationalPolynomial:
    """det(I - tJ) for the leading size x size block, via the permutation
    expansion: only involutions built from disjoint adjacent transpositions
    survive, so the determinant is a sum over matchings of the path graph."""
    edges = list(range(size - 1))  # edge i joins vertices i, i+1
    total = RationalPolynomial()
    for count in range(size // 2 + 1):
        for subset in combinations(edges, count):
            if any(b - a == 1 for a, b in zip(subset, subset[1:])):
                continue  # adjacent edges share a vertex
            weight = Fraction(1)
            for e in subset:
                weight *= beta_sq[e]
            coeffs = [Fraction(0)] * (2 * count) + [weight * (-1) ** count]
            total = total + RationalPolynomial(coeffs)
    return total


def traced_peak(f, *args) -> tuple:
    """(f(*args), the peak bytes `tracemalloc` saw during the call).  NumPy
    reports its array buffers to `tracemalloc`, so the peak counts them."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# Summation oracle for the OperatorMatrix constructor (no sort by the caller)
# ---------------------------------------------------------------------------


def operator_arrays_by_unique(dim: int, rows, cols, nums, denom: int = 1) -> tuple:
    """(rows, cols, nums, denom, row bound) as `OperatorMatrix(dim, rows,
    cols, nums, denom)` stores them, for valid integer input, with equal
    keys col·dim + row summed through `np.unique(return_inverse=True)` and
    `np.add.at` rather than one sort and `np.add.reduceat`."""
    rows, cols = (np.asarray(a).astype(np.int64) for a in (rows, cols))
    key, where = np.unique(cols * dim + rows, return_inverse=True)
    nums = fit(np.asarray(nums), where.size)
    summed = np.zeros(key.size, dtype=nums.dtype)
    np.add.at(summed, where, nums)
    key, nums = key[summed != 0], summed[summed != 0]
    g = math.gcd(denom, int(np.gcd.reduce(nums)))
    nums = fit(nums // g)
    cols, rows = np.divmod(key, dim)
    magnitudes = np.abs(fit(nums, nums.size))
    row_sums = np.zeros(dim, dtype=magnitudes.dtype)
    np.add.at(row_sums, rows, magnitudes)
    return rows, cols, nums, denom // g, int(row_sums.max(initial=0))


# ---------------------------------------------------------------------------
# Subset lattices by a closure search (oracle for `_build_subsets`)
# ---------------------------------------------------------------------------


def subsets_by_closure(tag: str, m: int, r: int) -> FiniteLattice:
    """boolean(m) (r = m) or uniform(r, m), tagged `tag`, generated as a
    lattice of flats by a generic closure search that shares no code with
    the builders: the join of a flat F with point i is F ∪ {i}, or the full
    set once that has r points.  Every cover of F is F ∨ i for a point
    i ∉ F, and every i in G ∖ F gives F ∨ i = G, so once a cover G is found
    its points are skipped.  Each rank is sorted by bitmask after its
    covers are found, fixing the ids."""
    full = (1 << m) - 1
    rank, masks, covers_up, layer = [0], [0], [], [0]
    while layer:
        ups, found = [], set()
        for F in layer:
            up, rest = [], full & ~F
            while rest:
                G = F | (rest & -rest)
                G = G if G.bit_count() < r else full
                up.append(G)
                found.add(G)
                rest &= ~G
            ups.append(up)
        layer = sorted(found)
        ids = {G: j for j, G in enumerate(layer, len(rank))}
        covers_up.extend(tuple(sorted(map(ids.__getitem__, up))) for up in ups)
        rank += [rank[-1] + 1] * len(layer)
        masks += layer
    return FiniteLattice(rank, covers_up, tag, [_subset_label(G) for G in masks])


# ---------------------------------------------------------------------------
# Witness-search oracle (no product table)
# ---------------------------------------------------------------------------


def diamond_row_by_pair(L, x: int) -> list:
    """Row x of the product table by the per-pair rule, x ⋄ y = `join` when
    `meet` is the bottom, else ZERO, one `meet` and `join` call per y in id
    order; the first pair whose meet or join no element holds raises."""
    return [L.join(x, y) if L.meet(x, y) == 0 else ZERO for y in range(L.n)]


def unchecked_poset(n: int, covers) -> FiniteLattice:
    """The bounded graded poset (n, covers) handed straight to the
    `FiniteLattice` constructor, ids renumbered rank-major, so that no
    lattice check runs: its masks exist even where meets or joins do not."""
    rank = [0] * n
    for _ in range(n):  # longest chains from the bottom, by relaxation
        for lo, hi in covers:
            rank[hi] = max(rank[hi], rank[lo] + 1)
    order = sorted(range(n), key=rank.__getitem__)
    new = {old: i for i, old in enumerate(order)}
    ups = [sorted(new[hi] for lo, hi in covers if lo == old) for old in order]
    return FiniteLattice([rank[old] for old in order], ups)


def nonassociativity_witness_by_search(L) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order with (x ⋄ y) ⋄ z !=
    x ⋄ (y ⋄ z), or None: each grouping evaluated with `diamond` where it
    is needed, up to 3n³ calls and no product table."""
    for x in range(L.n):
        for y in range(L.n):
            xy = diamond(L, x, y)
            for z in range(L.n):  # ZERO absorbs
                lhs = ZERO if xy is ZERO else diamond(L, xy, z)
                rhs = ZERO if (yz := diamond(L, y, z)) is ZERO else diamond(L, x, yz)
                if lhs is not rhs and lhs != rhs:
                    return (x, y, z)
    return None


# ---------------------------------------------------------------------------
# Modularity oracle (independent of the disjointness product)
# ---------------------------------------------------------------------------


def is_modular(L) -> bool:
    """All-pairs modular law: r(x) + r(y) = r(x ∨ y) + r(x ∧ y) for every
    pair, read from the lattice's ranks, joins and meets only."""
    r = L.rank
    return all(
        r[x] + r[y] == r[L.join(x, y)] + r[L.meet(x, y)]
        for x in range(L.n)
        for y in range(x + 1, L.n)
    )


# ---------------------------------------------------------------------------
# Defining-sum oracle for the annihilation operator (no covers)
# ---------------------------------------------------------------------------


def annihilation_by_defining_sum(L, a: int) -> OperatorMatrix:
    """The adjoint of creation by the atom a from its defining sum: column
    y collects every x <= y with a ∨ x = y and a ∧ x = bottom, found by
    walking all pairs x <= y with y >= a and reading meets and joins."""
    pairs = [(x, y, 1) for y in range(L.n) if L.leq(a, y) for x in range(L.n)
             if L.leq(x, y) and L.join(a, x) == y and L.meet(a, x) == 0]
    return OperatorMatrix.from_entries(L.n, pairs)


def annihilation_by_leq(L, a: int) -> OperatorMatrix:
    """The annihilation operator by its cover form, read through `leq`:
    column y holds a 1 at each lower cover x of y with a <= y and a ≰ x.
    One `leq` per element and a pass over `L.covers()`, with neither the
    cover arrays nor the atom bit that `_lowering_pairs` selects on."""
    above = [L.leq(a, x) for x in range(L.n)]
    lower, upper = np.array([(x, y) for x, y in L.covers() if above[y] and not above[x]], np.int64).reshape(-1, 2).T
    return OperatorMatrix(L.n, lower, upper, np.ones(upper.size, dtype=np.int64))


def lowering_pairs_by_atom(L) -> list[np.ndarray]:
    """`_lowering_pairs` of every atom, in `L.atoms` order."""
    lower, upper = _cover_arrays(L)[:2]
    return [_lowering_pairs(L, i, lower, upper) for i in range(len(L.atoms))]


# ---------------------------------------------------------------------------
# Irreducible masks by pushing along the covers (oracle for the mask fill)
# ---------------------------------------------------------------------------


def irreducible_masks_by_push(L) -> tuple[list[int], list[int]]:
    """(J, M): per element, the masks of the join-irreducibles at or below
    it and of the meet-irreducibles at or above it.  Each mask is pushed to
    the elements above (below) it along the covers, layer by layer from the
    bottom (top), the layers read off the ranks; an element is irreducible
    when exactly one mask is pushed to it, and gets the next bit when it is
    visited.  Within a layer, elements are visited in id order."""
    layers = [[x for x in range(L.n) if L.rank[x] == k] for k in range(L.top_rank + 1)]
    below: list[list[int]] = [[] for _ in range(L.n)]
    for x, ups in enumerate(L.covers_up):
        for y in ups:
            below[y].append(x)

    def fill(layers, above):
        masks, pushed, bit = [0] * L.n, [0] * L.n, 1
        for layer in layers:
            for x in layer:
                if pushed[x] == 1:
                    masks[x] |= bit
                    bit <<= 1
                for y in above[x]:
                    masks[y] |= masks[x]
                    pushed[y] += 1
        return masks

    return fill(layers, L.covers_up), fill(layers[::-1], below)


# ---------------------------------------------------------------------------
# Lattice oracle from the transitive closure (independent of FiniteLattice)
# ---------------------------------------------------------------------------


def closure_lattice(n: int, covers: list[tuple[int, int]]):
    """(rank, meet, join) of the poset whose cover list is `covers`, or None
    when some pair lacks a greatest lower bound or a least upper bound.

    The order is the transitive closure of the covers, as explicit sets;
    for every pair the common lower (upper) bounds are intersected and
    searched for one element above (below) all of them.  Ranks are
    longest-chain lengths from the minimal elements."""
    down: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in covers:
        down[hi].append(lo)
    below = []  # below[y] = {x : x <= y}
    for y in range(n):
        seen, stack = {y}, [y]
        while stack:
            for x in down[stack.pop()]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        below.append(seen)
    above = [{y for y in range(n) if x in below[y]} for x in range(n)]
    rank = [0] * n
    for y in sorted(range(n), key=lambda y: len(below[y])):
        rank[y] = max((rank[x] + 1 for x in down[y]), default=0)
    meet, join = {}, {}
    for x in range(n):
        for y in range(n):
            lower, upper = below[x] & below[y], above[x] & above[y]
            m = next((g for g in lower if lower <= below[g]), None)
            j = next((g for g in upper if upper <= above[g]), None)
            if m is None or j is None:
                return None
            meet[x, y], join[x, y] = m, j
    return rank, meet, join


def closure_semimodular(n: int, covers: list[tuple[int, int]]) -> bool:
    """All-pairs rank inequality r(x) + r(y) >= r(x ∨ y) + r(x ∧ y) on a
    lattice given by its cover list, read from `closure_lattice`."""
    rank, meet, join = closure_lattice(n, covers)
    return all(rank[x] + rank[y] >= rank[join[x, y]] + rank[meet[x, y]] for x, y in meet)


def validation_by_pair_survey(L) -> tuple[tuple[str, bool, tuple | None], ...]:
    """(name, passed, counterexample) of each of `validate`'s checks on a
    lattice, from the definitions and the joins of `closure_lattice`.

    semimodular is the pair survey: for z in id order and each two upper
    covers x < y of z, x ∨ y must cover x; the first failing pair is the
    counterexample.  atomic: the first element above rank 1 that is not
    the join of the atoms below it."""
    rank, meet, join = closure_lattice(L.n, list(L.covers()))
    semi = next(((x, y) for z in range(L.n) for x, y in combinations(L.covers_up[z], 2)
                 if rank[join[x, y]] != rank[x] + 1), None)
    atoms = [a for a in range(L.n) if rank[a] == 1]

    def join_of_atoms_below(x: int) -> int:
        j = 0
        for a in atoms:
            if meet[a, x] == a:
                j = join[j, a]
        return j

    atomic = next(((x,) for x in range(L.n) if rank[x] > 1 and join_of_atoms_below(x) != x), None)
    return ("lattice-pairs", True, None), ("semimodular", semi is None, semi), ("atomic", atomic is None, atomic)


def random_bounded_graded_poset(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """(n, covers) of a random graded poset with one bottom and one top.

    Ranks 1..r-1 get one to four elements each; every element covers a
    random nonempty set of the rank below and is covered by something, and
    the top covers all of rank r-1.  Many of these posets are not lattices.
    Element ids are shuffled."""
    r = rng.randint(2, 4)
    layers = [[0]]
    for k in range(1, r):
        start = layers[-1][-1] + 1
        layers.append(list(range(start, start + rng.randint(1, 4))))
    layers.append([layers[-1][-1] + 1])
    covers = set()
    for lower, upper in zip(layers, layers[1:]):
        for y in upper:
            covers.update((x, y) for x in rng.sample(lower, rng.randint(1, len(lower))))
        for x in lower:
            if not any((x, y) in covers for y in upper):
                covers.add((x, rng.choice(upper)))
    n = layers[-1][0] + 1
    ids = list(range(n))
    rng.shuffle(ids)
    return n, sorted((ids[lo], ids[hi]) for lo, hi in covers)


# ---------------------------------------------------------------------------
# Random geometric lattices (flats of random prime-field point sets)
# ---------------------------------------------------------------------------


def random_flats_document(rng: random.Random) -> dict:
    """Interchange document for the lattice of flats of a random simple
    matroid realized by points over a small prime field.  Element ids are
    shuffled so that parsing also exercises id canonicalization."""
    q = rng.choice((2, 3))
    dim = rng.choice((2, 3))
    all_points = []
    for code in range(1, q**dim):
        v = tuple((code // q**i) % q for i in range(dim))
        lead = next(x for x in v if x)
        if lead == 1:  # scalar-normalized: one representative per direction
            all_points.append(v)
    npoints = rng.randint(dim, min(6, len(all_points)))
    points = rng.sample(all_points, npoints)

    def closure(subset: frozenset[int]) -> frozenset[int]:
        basis = rref([points[i] for i in subset], q)
        return frozenset(
            i for i, p in enumerate(points) if in_rowspace(p, basis, q)
        )

    bottom = closure(frozenset())
    flats = {bottom}
    covers: set[tuple[frozenset, frozenset]] = set()
    queue = [bottom]
    while queue:
        flat = queue.pop()
        for i in range(npoints):
            if i in flat:
                continue
            bigger = closure(flat | {i})
            covers.add((flat, bigger))
            if bigger not in flats:
                flats.add(bigger)
                queue.append(bigger)

    ordered = sorted(flats, key=lambda f: (len(f), sorted(f)))
    ids = list(range(len(ordered)))
    rng.shuffle(ids)
    id_of = {flat: ids[i] for i, flat in enumerate(ordered)}
    elements = [
        {"id": id_of[flat], "label": "{" + ",".join(map(str, sorted(flat))) + "}"}
        for flat in ordered
    ]
    return {
        "elements": sorted(elements, key=lambda e: e["id"]),
        "covers": sorted([id_of[lo], id_of[hi]] for lo, hi in covers),
    }


@cache
def random_lattices() -> tuple[FiniteLattice, ...]:
    """The 1,075 lattices among `random_bounded_graded_poset` seeds 0..1499,
    then `random_flats_document` seeds 0..59; built once per session."""
    lattices = []
    for seed in range(1500):
        n, covers = random_bounded_graded_poset(random.Random(seed))
        try:
            lattices.append(FiniteLattice.from_covers(n, covers))
        except NotALatticeError:
            continue
    return (*lattices, *(parse_lattice(random_flats_document(random.Random(seed))) for seed in range(60)))
