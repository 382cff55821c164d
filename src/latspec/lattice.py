"""Finite graded lattices: construction, built-in families, parsing,
validation, and the disjointness product on the lattice basis.

Elements are dense integer ids with id 0 the bottom, rank-major in every
built-in family.  Subsets (boolean, uniform) are generated directly by
`_build_subsets` in bitmask order within a rank, their ids known before
any cover is found.  Projective and affine flats, point masks in
PG(r - 1, q) and PG(r, q), are closed by `_build_flats` from the joins
F ∨ p with atoms p over the line-table rows of F's points, and ordered within
a rank by an echelon key read from each mask; products, by component ids.

Every finite lattice is ordered by its irreducibles (Davey & Priestley,
Introduction to Lattices and Order, 2nd ed., 2002, ch. 2; Birkhoff,
Lattice Theory, 3rd ed., 1967).  An element is join-irreducible when it
has exactly one lower cover and meet-irreducible when it has exactly one
upper cover; write J(x) for the join-irreducibles below x and M(x) for the
meet-irreducibles above it.  Then x <= y iff J(x) ⊆ J(y), J(x ∧ y) =
J(x) ∩ J(y) and M(x ∨ y) = M(x) ∩ M(y).  `FiniteLattice` stores J(x) and
M(x) as bitmasks, so `leq` is a subset test and `meet` and `join` are one
AND and one lookup each; both are filled from the upper covers alone.  On
an atomistic lattice the join-irreducibles are the atoms, so a mask costs
a bit per atom, not a bit per element.

The masks order an element set exactly only when it is a lattice, so
`leq`, `meet` and `join` are defined only on lattices.  Built-in families
and products are lattices by construction; `from_covers` and `validate`
certify every other input.  The product reads only `meet` and `join`: x ⋄ y
is x ∨ y when x ∧ y is the bottom and the algebra zero `ZERO` otherwise,
the zero *vector* of the free span of the elements, distinct from the
bottom, which is the unit.

Lattice-ness is certified exactly from co-cover pairs, two elements that
cover, or are covered by, a common element, and semimodularity from the
covers on atomistic input; no pair survey over all n² pairs is needed.

* Lattice-ness.  A finite poset with a top is a lattice iff every two lower
  covers of a common element have a meet.  Proof, by induction on u: every
  x, y <= u have a meet.  If x = u or y = u, the meet is the other element.
  Otherwise pick lower covers x' >= x and y' >= y of u.  If x' = y', use
  the hypothesis at x'.  Otherwise m = x' ∧ y' exists by assumption; then
  p = x ∧ m exists by the hypothesis at x', and s = y ∧ p by the hypothesis
  at y'.  Every common lower bound of x and y lies below x' and y', so
  below m, so below p and below s; and s <= y, s <= p <= x.  Hence
  s = x ∧ y.  At u = top every pair has a meet, and the join of x and y is
  the meet of their common upper bounds, which include the top.
  `FiniteLattice.first_meetless_pair` checks the condition by descent.
  For lower covers x, y of u, let s = J(x) ∩ J(y); from x, step down
  through any lower cover whose mask contains s until the mask equals s,
  and do the same from y.  The pair passes iff both walks reach the same
  element.  Pairs are visited with u in rank order, a linear extension,
  so at the first failing pair every pair below x and below y has passed
  and, by induction, has a meet: the down-sets of x and y are lattices,
  in which the masks are exact.  If x ∧ y = m exists, J(m) = s, every
  element on a walk lies above m, and a walk can always step towards m,
  so both walks end at m.  If both walks end at one element e, then
  J(e) = s and every common lower bound z of x and y has J(z) ⊆ s, so
  z <= e and e = x ∧ y.  So the descent decides each pair exactly,
  whichever covers the walks take, and the first failing pair is the
  first meetless one.
* Upper semimodularity.  A finite lattice is upper semimodular iff,
  whenever x and y both cover z, x ∨ y covers both, iff r(x) + r(y) >=
  r(x ∨ y) + r(x ∧ y) (Stanley, EC1, Prop. 3.3.2); a failing pair has
  x ∧ y = z and r(x ∨ y) > r(z) + 2.  An atomistic lattice is semimodular
  iff x ⋖ x ∨ a for every x and atom a ≰ x.  ⇒: a ∧ x = 0 ⋖ a, so
  r(x ∨ a) <= r(x) + 1.  ⇐: if x, y cover z, take an atom a <= y, a ≰ z;
  then y = z ∨ a, and x ∨ y = x ∨ a covers x, as a ≰ x (else y <= x), and
  likewise y.  `validate` counts this from the covers: an atom a gained by
  a cover y of x (a <= y, a ≰ x) has x < x ∨ a <= y, so x ∨ a = y, and no
  other cover of x gains it, as two meet in x.  So with a(x) the atoms
  below x, a(x) + Σ_{x⋖y} (a(y) - a(x)) <= |atoms|, with equality iff every
  atom a ≰ x has x ⋖ x ∨ a.  Summed over x, the cover terms are Σ_k W_k
  (`cover_weight_sums`): semimodular iff Σ_x a(x) + Σ_k W_k = n·|atoms|.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, combinations, groupby, islice, product
from math import comb
from operator import ne
from typing import Callable, Iterable, Iterator, Sequence

from . import gf

DEFAULT_SIZE_CAP = 200_000
SIZE_CAP_ENV = "LATTICE_SIZE_CAP"
BOOLEAN_MAX_GROUND = 20


class LatticeError(Exception):
    """Base class for all lattice construction and parsing failures."""


class SizeBoundError(LatticeError):
    pass


class ParseError(LatticeError):
    pass


class NotAPosetError(LatticeError):
    pass


class NotGradedError(LatticeError):
    pass


class NotALatticeError(LatticeError):
    pass


def size_cap(override: int | None = None) -> int:
    """Effective element cap: explicit override, else LATTICE_SIZE_CAP, else default."""
    if override is not None:
        return override
    env = os.environ.get(SIZE_CAP_ENV)
    try:
        cap = int(env) if env else DEFAULT_SIZE_CAP
    except ValueError:
        raise SizeBoundError(f"{SIZE_CAP_ENV}={env!r} is not an integer") from None
    if cap < 0:
        raise SizeBoundError(f"{SIZE_CAP_ENV}={env!r} is negative")
    return cap


def _check_size(sizes: Iterable[int], cap: int | None) -> None:
    """Refuse layer sizes that sum past the cap, summing no further than max(cap, 2^64)."""
    limit = size_cap(cap)
    stop, n = max(limit, 2**64), 0
    for n in accumulate(sizes):
        if n > stop:
            raise SizeBoundError(f"lattice would have more than {stop} elements, exceeding the cap of {limit}")
    if n > limit:
        raise SizeBoundError(f"lattice would have {n} elements, exceeding the cap of {limit}")


class FiniteLattice:
    """Immutable finite graded lattice.

    Attributes
    ----------
    n : element count
    rank : tuple of ranks, rank[0] == 0 for the bottom
    top_rank : rank of the unique top element
    covers_up : covers_up[x] lists the elements covering x, ascending
    covers_down : inverse of covers_up, computed on first read
    atoms : ids of the rank-1 elements, ascending
    layers : layers[k] lists the ids of rank k
    family_tag : provenance label, e.g. "boolean(3)" or "custom"
    labels : display label per element, rendered on first read

    `leq`, `meet` and `join` read join- and meet-irreducible masks (module
    docstring), which order the elements exactly only on a lattice: they
    are defined only when `first_meetless_pair` is None.  Built-in families
    and products are lattices by construction; `from_covers` and `validate`
    certify every other input.  The constructor keeps each cover tuple it
    is handed and raises, naming the first failure, unless id 0 is the
    only rank-0 element, each element's covers are strictly ascending ids
    in range(n), each one rank up (read in layer order, in the pass that
    fills J(x)), every other element covers something, and exactly one
    element, of top rank, has no upper cover, checked in that order; so
    `validate` need not check these.
    `leq`, `meet`, `join` and `atoms_below` expect ids in range(n) and do
    not check them: a negative id indexes from the end.

    `labels`, `covers_down`, `first_meetless_pair`, `validation`, M(x) and
    the indexes that `join` and `meet` read are computed on first read.
    The object is immutable after construction and thread-safe: all query
    methods are pure, and a racing first read computes the same value.
    """

    def __init__(
        self,
        rank: Sequence[int],
        covers_up: Sequence[Sequence[int]],
        family_tag: str = "custom",
        labels: Sequence[str] | Callable[[], Iterable[str]] | None = None,
    ):
        n = len(rank)
        if n == 0:
            raise NotALatticeError("empty element list: no bottom element")
        self.n = n
        self.rank = rank = tuple(rank)
        self.covers_up = covers = tuple(map(tuple, covers_up))  # a tuple is kept, not copied
        self.family_tag = family_tag
        if labels is None or callable(labels):  # rendered on first read; a partial keeps L picklable
            self._labels = labels or partial(map, "e{}".format, range(n))
        elif len(labels := tuple(labels)) == n:
            self.labels = labels  # an instance value shadows the cached property
        else:
            raise LatticeError(f"{len(labels)} labels given for {n} elements")
        if len(covers) != n:
            raise LatticeError("rank and covers_up must have equal length")
        self.top_rank = max(rank)
        if rank.count(0) != 1 or rank[0] != 0:
            raise NotALatticeError("the bottom must be the unique rank-0 element and have id 0")
        # One pass in layer order (ids ascending within a rank) checks each cover, counts lower covers
        # and pushes J(x), completed by x's lower covers a layer down, up x's covers; atoms get the low bits.
        layers = tuple(tuple(layer) for _, layer in groupby(sorted(range(n), key=rank.__getitem__), rank.__getitem__))
        down, count, bit = [0] * n, [0] * n, 1
        for x in chain.from_iterable(layers):
            if count[x] == 1:
                down[x] |= bit
                bit <<= 1
            m, step, last = down[x], rank[x] + 1, -1
            for y in covers[x]:
                if not last < y < n:
                    fault = "references an unknown element id" if not 0 <= y < n else "is repeated" if y == last else "is out of order"
                    raise LatticeError(f"cover [{x}, {y}] {fault}")
                if rank[y] != step:
                    raise NotGradedError(f"cover [{x}, {y}] spans ranks {rank[x]} -> {rank[y]}")
                down[y] |= m
                count[y] += 1
                last = y
        if count[0] or count.count(0) > 1:  # nothing is below the bottom, and every other element covers something
            raise NotALatticeError(f"element {(i := count.index(0, 1))} has rank {rank[i]} but covers nothing")
        if covers.count(()) != 1:
            raise NotALatticeError(f"expected a unique top element, found {covers.count(())}")
        self.top = covers.index(())
        self._down, self._lower_count, self.layers = down, count, layers
        self.atoms = layers[1] if self.top_rank >= 1 else ()

    labels = cached_property(lambda self: tuple(self._labels()))
    _down_index = cached_property(lambda self: {m: i for i, m in enumerate(self._down)})
    _up_index = cached_property(lambda self: {m: i for i, m in enumerate(self._up)})

    @cached_property
    def _up(self) -> list[int]:
        """M(x), pulled from the upper covers top layer first; bits go to one-cover elements in that order."""
        up, bit, covers = [0] * self.n, 1, self.covers_up
        for x in chain.from_iterable(reversed(self.layers)):
            m = 0
            for y in covers[x]:
                m |= up[y]
            if len(covers[x]) == 1:
                m |= bit
                bit <<= 1
            up[x] = m
        return up

    @cached_property
    def covers_down(self) -> tuple[tuple[int, ...], ...]:
        """The inverse of `covers_up`, computed when `first_meetless_pair` or the shuffle check first reads it."""
        down: list[list[int]] = [[] for _ in range(self.n)]
        for x, ups in enumerate(self.covers_up):
            for y in ups:
                down[y].append(x)
        return tuple(map(tuple, down))  # appended in ascending x, so sorted

    # -- order queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return (self._down[x] & self._down[y]) == self._down[x]

    def meet(self, x: int, y: int) -> int:
        down = self._down  # each mask list read once: `meet` and `join` are `verify`'s hot path
        try:
            return self._down_index[down[x] & down[y]]
        except KeyError:
            raise NotALatticeError(f"elements {x} and {y} have no unique meet") from None

    def join(self, x: int, y: int) -> int:
        up = self._up
        try:
            return self._up_index[up[x] & up[y]]
        except KeyError:
            raise NotALatticeError(f"elements {x} and {y} have no unique join") from None

    def atoms_below(self, x: int) -> int:
        return self._down[x] & ((1 << len(self.atoms)) - 1)

    def count_atoms_below(self, x: int) -> int:
        return self.atoms_below(x).bit_count()

    def _atom_counts(self) -> Iterator[int]:
        """a(x) = `count_atoms_below(x)` for every x in id order, read in bulk."""
        return map(int.bit_count, map(((1 << len(self.atoms)) - 1).__and__, self._down))

    def covers(self) -> Iterator[tuple[int, int]]:
        """All cover pairs (x, y) with x covered by y."""
        return ((x, y) for x, ups in enumerate(self.covers_up) for y in ups)

    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(lay) for lay in self.layers)

    @cached_property
    def first_meetless_pair(self) -> tuple[int, int] | None:
        """The first two lower covers of a common element that have no meet,
        with the element in rank order, or None, which certifies every meet
        and join.  Decided by descent (module docstring); both walks end at
        once when the element indexed by s is a lower cover of x and of y.
        Computed once, on first read."""
        down, index, lower = self._down, self._down_index, self.covers_down

        def descend(x: int | None, s: int) -> int | None:
            while x is not None and down[x] != s:
                x = next((c for c in lower[x] if (down[c] & s) == s), None)
            return x

        for u in chain.from_iterable(self.layers):
            for x, y in combinations(lower[u], 2):
                t = index.get(s := down[x] & down[y])
                if not (t in lower[x] and t in lower[y]) and ((m := descend(x, s)) is None or m != descend(y, s)):
                    return x, y
        return None

    @cached_property
    def validation(self) -> "ValidationReport":
        """The `validate` report, computed once, on first read."""
        return validate(self)

    # -- construction from raw cover data ----------------------------------

    @classmethod
    def from_covers(cls, n: int, covers: Sequence[Sequence[int]], family_tag: str = "custom",
                    labels: Sequence[str] | None = None, cap: int | None = None) -> "FiniteLattice":
        """Build a lattice from a sequence of [lo, hi] cover pairs, read twice; a repeat is dropped.

        Ranks are inferred as longest-chain length from the unique minimal
        element; ids are remapped to rank-major order (stable in the input
        ids) so that the bottom receives id 0.  Raises NotAPosetError on
        cycles, NotGradedError when a cover jumps ranks (the first in input
        order), and NotALatticeError when bottom/top are not unique or two
        lower covers of a common element lack a meet (`first_meetless_pair`).
        """
        if n == 0:
            raise NotALatticeError("empty element list: no bottom element")
        _check_size((n,), cap)
        succ: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ParseError(f"cover [{lo}, {hi}] references an unknown element id")
            if lo == hi:
                raise NotAPosetError(f"cover [{lo}, {hi}] is a self-loop")
            succ[lo].append(hi)
        indeg = [0] * n
        for lo, ups in enumerate(succ):
            succ[lo] = ups = sorted(set(ups))  # ascending ids, so ascending new ids within the rank above
            for hi in ups:
                indeg[hi] += 1
        if indeg.count(0) != 1:
            raise NotALatticeError(f"expected a unique bottom element, found {indeg.count(0)} minimal elements")

        # Kahn's toposort by ranks: y's last lower cover x has the top rank, so y's longest chain is rank[x] + 1
        rank = [0] * n
        layer = [indeg.index(0)]
        while layer:
            below, layer = layer, []
            for x in below:
                for y in succ[x]:
                    indeg[y] -= 1
                    if not indeg[y]:
                        rank[y] = rank[x] + 1
                        layer.append(y)
        if any(indeg):  # a node never released
            raise NotAPosetError("cover relation contains a cycle")

        if (pair := next(((lo, hi) for lo, hi in covers if rank[hi] != rank[lo] + 1), None)) is not None:
            lo, hi = pair
            raise NotGradedError(f"cover [{lo}, {hi}] spans ranks {rank[lo]} -> {rank[hi]}; the poset is not graded")
        perm = sorted(range(n), key=rank.__getitem__)  # stable: ties keep the input order
        new_id = sorted(range(n), key=perm.__getitem__)  # the inverse of perm
        if labels is not None and len(labels) == n:  # a wrong count is the constructor's to reject
            labels = [labels[old] for old in perm]
        new_covers = [tuple(map(new_id.__getitem__, succ[old])) for old in perm]
        L = cls([rank[old] for old in perm], new_covers, family_tag, labels)
        if (pair := L.first_meetless_pair) is not None:
            raise NotALatticeError(f"elements {perm[pair[0]]} and {perm[pair[1]]} have no unique meet")
        return L

    # -- serialization ------------------------------------------------------

    def to_document(self) -> dict:
        """The interchange document: element list plus cover pairs."""
        return {
            "elements": [{"id": i, "label": self.labels[i]} for i in range(self.n)],
            "covers": [[x, y] for x, y in self.covers()],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.rank == other.rank and self.covers_up == other.covers_up

    def __repr__(self) -> str:
        return f"FiniteLattice({self.family_tag}, n={self.n}, top_rank={self.top_rank})"


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _build_flats(tag: str, lines: list[list[int]], block: list[int], zero: list[int], atoms: int,
                 affine: bool, label: Callable[[tuple[int, ...]], str]) -> FiniteLattice:
    """A q-family's lattice of flats, generated rank by rank from the empty
    flat: a flat is the mask of its points, `atoms` masks the atoms, and
    `lines`, `block` and `zero` are `_projective_space`'s.  In a geometric
    lattice every cover of F is F ∨ p for an atom p ∉ F, and every p in
    G ∖ F gives F ∨ p = G; so once a cover G is found its points are
    skipped.  F ∨ p_i ORs 1 << i with lines[u][i] (= lines[i][u]) over the
    rows lines[u] of F's points, collected once per F.  Each new flat's
    `_echelon_key` orders its rank, fixing the ids; `label` renders it."""
    rank, keys, covers_up, layer = [0], [()], [], [0]
    while layer:
        ups = []
        for F in layer:
            rows, up, rest = [], [], atoms & ~F
            while F:
                rows.append(lines[(F & -F).bit_length() - 1])
                F &= F - 1
            while rest:
                i = (G := rest & -rest).bit_length() - 1
                for row in rows:
                    G |= row[i]
                up.append(G)
                rest &= ~G
            ups.append(up)
        order = sorted((_echelon_key(G, block, zero, affine), G) for G in set(chain.from_iterable(ups)))
        layer = {G: j for j, (_, G) in enumerate(order, len(rank))}  # the new flats and their ids
        covers_up.extend(tuple(sorted(map(layer.__getitem__, up))) for up in ups)
        rank += [rank[-1] + 1] * len(layer)
        keys += [key for key, _ in order]
    return FiniteLattice(rank, covers_up, tag, partial(map, label, keys))


def _echelon_key(G: int, block: list[int], zero: list[int], affine: bool) -> tuple[int, ...]:
    """Flat G's reduced echelon rows as point ids, pivot ascending: from the
    last column c down, c is a pivot if G meets block[c], and its row is the
    point there that is 0 at every later pivot; an affine key puts the row at
    pivot 0, (1, x), last (`_projective_space`, `build_affine`)."""
    rows, z = [], G
    for c in reversed(range(len(block))):
        if p := z & block[c]:
            rows.append(p.bit_length() - 1)
            z &= zero[c]
    return (*rows[-2::-1], rows[-1]) if affine else tuple(reversed(rows))


def _build_subsets(tag: str, m: int, r: int) -> FiniteLattice:
    """The subsets of {1..m} of size < r and the full set as top of rank r,
    in colex order: rank k starts at Σ_{j<k} C(m, j), and its position
    C(h, k) + j holds T_j ∪ {h}, T_j the j-th subset of rank k - 1, for the
    C(h, k - 1) below h.  F = T_j ∪ {h} is covered by F ∪ {i}: for i < h at
    C(h, k + 1) plus the position of T_j ∪ {i}, a cover of T_j listed before
    F; for i > h at C(i, k + 1) + C(h, k) + j, past those: each tuple ascends."""
    start = list(accumulate((comb(m, k) for k in range(r)), initial=0))  # start[k]: the first id of rank k
    covers_up = [tuple(range(1, m + 1))] * (r > 1)
    for k in range(1, r - 1):  # ids: one int object per id of rank k + 1, shared by every cover tuple that holds it
        binom, ids = [comb(i, k + 1) for i in range(m)], list(range(start[k + 1], start[k + 2]))
        for h in range(k - 1, m):  # one column per i, over all j: T_j's covers shifted for i < h, a slice of ids for i > h
            t, below, low, base = start[k - 1], comb(h, k - 1), binom[h] - start[k], comb(h, k)
            shifted = (map(ids.__getitem__, map(low.__add__, col)) for col in zip(*covers_up[t:t + below]))
            covers_up += zip(*islice(shifted, h - k + 1), *(ids[base + b:base + b + below] for b in binom[h + 1:]))
    if r:  # the top, the full set, covers all of rank r - 1
        covers_up += [(start[r],)] * comb(m, r - 1)
    covers_up.append(())
    rank = [*chain.from_iterable([k] * comb(m, k) for k in range(r)), r]  # r = 0: the bottom is the top
    L = FiniteLattice(rank, covers_up, tag)
    L._labels = partial(_subset_labels, L._down, (1 << m) - 1)
    return L


def _subset_labels(down: list[int], full: int) -> Iterator[str]:
    """Each subset's label from J(x), its mask, as atom {h} holds bit h; the top is the full set, an atom at r = 1."""
    return map(_subset_label, chain(islice(down, len(down) - 1), (full,)))


def _subset_label(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def build_boolean(n: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of all subsets of {1..n}: rank = cardinality, join = union,
    meet = intersection, atoms = singletons; generated by `_build_subsets`."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > BOOLEAN_MAX_GROUND:
        raise SizeBoundError(f"boolean ground sets are limited to {BOOLEAN_MAX_GROUND} elements")
    _check_size((2**n,), cap)
    return _build_subsets(f"boolean({n})", n, n)


def build_uniform(r: int, m: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of flats of the uniform matroid U_{r,m}: all subsets of
    {1..m} of size < r, plus the full set as top.  build_uniform(2, 3) is
    the diamond with three atoms.  Generated by `_build_subsets`."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if m < r:
        raise ValueError("m must be at least r")
    _check_size(chain((1,), (comb(m, k) for k in range(r))), cap)
    return _build_subsets(f"uniform({r},{m})", m, r)


def _projective_space(r: int, q: int, cap: int | None, affine: bool) -> tuple[list[gf.Vec], list[list[int]], list[int], list[int]]:
    """The front end of both q-families: check r ≥ 1, q ≥ 2, the cap on the
    layer sizes (summed lazily), the bound on q and q's primality, in that
    order; then return the P points of PG(d - 1, q), d = r (+ 1 when affine),
    the vectors of F_q^d with leading 1 in lexicographic order (pivot d - 1
    first), each indexed once; lines[i][u], the mask of the line through
    points i and u, one shared object per line; and, in O(P·d), block[c] and
    zero[c], the points with leading 1 at c, a run of ids, and those 0 at c.
    Every vector of U + ⟨p⟩ is u + c·p (Oxley, Matroid Theory, §6.1), so
    F ∨ p is p with the lines through p and each point of F.  `combinations`
    first meets a line at its two lowest ids u < p.  Exactly one point of a
    line has its later pivot j2, and it has the lowest id; so u is zero at
    p's pivot j1 < j2, and the other points c·u + p, c = 1..q - 1, have a
    leading 1 at j1: they are normalized.  A subspace's echelon row at pivot
    c is its one vector with 1 at c and 0 at every other pivot, as a vector
    Σ v_c'·row_c' reads v_c' at each pivot c'."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if q < 2:
        raise ValueError(f"q = {q} must be prime")
    # the k-flats: (r choose k)_q subspaces, times q^(r - k) cosets above the adjoined bottom when affine
    sizes = (q ** ((r - k) * affine) * gf.gaussian_binomial(r, k, q) for k in range(r + 1))
    _check_size(chain((1,) * affine, sizes), cap)
    if q >= gf.PRIME_TEST_BOUND:  # only r = 1 passes the cap with such a q
        raise SizeBoundError(f"q = {q} is past {gf.PRIME_TEST_BOUND}, below which primality is decided exactly")
    if not gf.is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    d = r + affine
    points = [(0,) * j + (1,) + tail for j in reversed(range(d)) for tail in product(range(q), repeat=d - 1 - j)]
    index = {v: i for i, v in enumerate(points)}
    lines = [[0] * len(points) for _ in points]
    for u, p in combinations(range(len(points)), 2):
        if not lines[u][p]:
            line = [u, p, *(index[tuple((c * a + b) % q for a, b in zip(points[u], points[p]))] for c in range(1, q))]
            mask = sum(1 << a for a in line)
            for a, b in product(line, repeat=2):
                lines[a][b] = mask
    block = [((1 << q ** (d - 1 - c)) - 1) << gf.q_int(d - 1 - c, q) for c in range(d)]
    zero = [int("".join("0" if v[c] else "1" for v in reversed(points)), 2) for c in range(d)]
    return points, lines, block, zero


def _rref_label(basis: Iterable[gf.Vec]) -> str:
    return "[" + ";".join("".join(str(v) for v in row) for row in basis) + "]"


def _projective_label(points: list[gf.Vec], key: tuple[int, ...]) -> str:
    return _rref_label(map(points.__getitem__, key))


def _affine_label(points: list[gf.Vec], key: tuple[int, ...]) -> str:
    *basis, rep = [points[i][1:] for i in key] or [()]  # the bottom's key is ()
    return "".join(map(str, rep)) + "+" + _rref_label(basis) if key else "empty"


def build_projective(r: int, q: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of linear subspaces of F_q^r (q prime): rank = dimension,
    join = subspace sum, meet = intersection.  Layer k has Gaussian-binomial
    size (r choose k)_q.  Generated by `_build_flats`: a subspace is the
    mask of its points in PG(r - 1, q), labelled and, within a rank, ordered
    by its reduced echelon basis, which `_echelon_key` reads from the mask."""
    points, *space = _projective_space(r, q, cap, affine=False)
    return _build_flats(f"projective({r},{q})", *space, (1 << len(points)) - 1, False, partial(_projective_label, points))


def build_affine(r: int, q: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of affine flats (cosets x + U) of F_q^r, all dimensions 0..r,
    with an adjoined bottom.  A k-flat has lattice rank k + 1; the atoms are
    the q^r points.  Meets of disjoint flats land on the adjoined bottom.
    Generated by `_build_flats` inside PG(r, q), whose last q^r points are
    the chart points (1, x), the atoms: a flat x + U is the mask of all
    projective points of the span of (1, x) and (0, U), its points at
    infinity included.  Its reduced echelon basis is (1, x), x reduced
    modulo U, with (0, U)'s rows, so its `_echelon_key` orders a rank by
    (basis of U, x) and gives the label, "empty" for the bottom."""
    points, lines, block, zero = _projective_space(r, q, cap, affine=True)  # block[0]: the chart points
    return _build_flats(f"affine({r},{q})", lines, block, zero, block[0], True, partial(_affine_label, points))


def build_product(L1: FiniteLattice, L2: FiniteLattice, *, cap: int | None = None) -> FiniteLattice:
    """Direct product with componentwise order: element (x1, x2) gets id
    x1 * L2.n + x2 (lexicographic), rank is the sum of component ranks, and
    the atoms are exactly the pairs (a, bottom) and (bottom, b)."""
    n1, n2 = L1.n, L2.n
    _check_size((n1 * n2,), cap)
    rank = [L1.rank[x1] + L2.rank[x2] for x1 in range(n1) for x2 in range(n2)]
    covers_up = [(*(x1 * n2 + y2 for y2 in L2.covers_up[x2]), *(y1 * n2 + x2 for y1 in L1.covers_up[x1]))
                 for x1 in range(n1) for x2 in range(n2)]  # ascending tuples, which the constructor keeps
    return FiniteLattice(rank, covers_up, f"product({L1.family_tag},{L2.family_tag})", partial(_product_labels, L1, L2))


def _product_labels(L1: FiniteLattice, L2: FiniteLattice) -> Iterator[str]:
    return (f"({a},{b})" for a in L1.labels for b in L2.labels)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_lattice(document: str | bytes | dict, *, cap: int | None = None) -> FiniteLattice:
    """Parse the interchange document {"elements": [...], "covers": [...]}.

    Ranks are inferred from cover chains; ids must be JSON integers dense
    from 0 (true and false, which Python reads as ints, are rejected) and
    are remapped to rank-major order.  Non-posets, non-lattices, and
    non-graded posets are rejected with distinguishing errors.  The
    lattice's `validation` report is computed on first read, not here.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    return _lattice_from_tree(document, cap)


def _lattice_from_tree(document: object, cap: int | None) -> FiniteLattice:
    """`parse_lattice` on a decoded JSON value, which is never decoded again."""
    if not isinstance(document, dict):
        raise ParseError("document must be a JSON object")
    elements = document.get("elements")
    covers = document.get("covers", [])
    if not isinstance(elements, list):
        raise ParseError('document must contain an "elements" list')
    if not isinstance(covers, list):
        raise ParseError('"covers" must be a list of [lo, hi] pairs')
    if not elements:
        raise NotALatticeError("empty element list: no bottom element")

    n = len(elements)
    labels: list[str | None] = [None] * n  # n distinct ids in range(n) fill every slot
    for entry in elements:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
            raise ParseError('each element must be an object with an integer "id"')
        i = entry["id"]
        if not 0 <= i < n or labels[i] is not None:
            raise ParseError(f"element ids must be dense from 0; offending id {i}")
        labels[i] = str(entry.get("label", f"e{i}"))

    for pair in covers:  # every entry's shape first, then the list itself is handed on
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or (type(pair[0]), type(pair[1])) != (int, int):
            raise ParseError(f"malformed cover entry {pair!r}; expected [lo, hi]")
    return FiniteLattice.from_covers(n, covers, "custom", labels, cap=cap)


def read_lattice_file(path: str, *, cap: int | None = None) -> FiniteLattice:
    """Parse the UTF-8 lattice document at `path`, dropping the text once its
    JSON tree is built; a BOM is refused, as in a `str` given to `parse_lattice`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    return _lattice_from_tree(document, cap)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the structural checks run by validate().

    A finite lattice is geometric exactly when it is atomistic and
    semimodular, so `passed()` is both verdicts; `lattice validate` prints
    it under both names.
    """

    checks: tuple[CheckResult, ...]
    notes: tuple[str, ...] = ()

    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def cover_weight_sums(L: FiniteLattice) -> tuple[int, ...]:
    """W_k = sum over covers x ⋖ y with rank(x) = k of (a(y) - a(x)), a(.)
    counting atoms below: the lowering pairs (y, x) with rank(x) = k.  Split
    by endpoint, W_k = sum over r(y) = k+1 of a(y) down(y) - sum over r(x) = k
    of a(x) up(x), up and down counting upper and lower covers (the latter
    kept by the constructor): per-element counts summed in Python ints."""
    W = [0] * (L.top_rank + 1)  # W[top_rank] collects the bottom's a(0) down(0) = 0 and is dropped
    for k, a, d, u in zip(L.rank, L._atom_counts(), L._lower_count, map(len, L.covers_up)):
        W[k] -= a * u
        W[k - 1] += a * d
    return tuple(W[:-1])


def validate(L: FiniteLattice) -> ValidationReport:
    """Run the structural checks; each is exact at every size, and each
    failure carries a first counterexample.

    lattice-pairs: every two lower covers of a common element have a meet,
    which holds iff every pair has a meet and a join (proof in the module
    docstring).  atomic: every join-irreducible is an atom; a counterexample
    is the first one above rank 1 in id order, which, when ids are a linear
    extension, is the first element that is not the join of its atoms.
    semimodular: if x and y both cover z, x ∨ y covers both; a
    counterexample (x, y) has r(x) + r(y) < r(x ∨ y) + r(x ∧ y).
    Associativity and absorption are not checked: `meet` and `join` return
    the greatest lower and least upper bound in the order `leq` reads, so
    once lattice-pairs passes they obey every lattice identity.  On a
    non-lattice the checks that need joins, semimodular and atomic, are not
    run, and a note says so.

    Cost: `first_meetless_pair` (cached), one pass over the elements and, on
    atomistic input, `cover_weight_sums`: Σ_x a(x) + Σ_k W_k = n·|atoms|
    certifies semimodularity by the atoms each cover gains (module docstring),
    with no join.  Only when that fails, or the lattice is not atomistic, are
    the upper covers of each z joined in pairs, to name the first counterexample.
    """
    meetless = L.first_meetless_pair
    lattice = CheckResult("lattice-pairs", meetless is None, meetless)
    if meetless is not None:
        return ValidationReport((lattice,), ("not a lattice: the semimodular and atomic checks were not run",))
    atomic_ce = next(((x,) for x in range(L.n) if L.rank[x] > 1 and L._lower_count[x] == 1), None)
    certified = atomic_ce is None and sum(L._atom_counts()) + sum(cover_weight_sums(L)) == L.n * len(L.atoms)
    pairs = (p for z in range(L.n) for p in combinations(L.covers_up[z], 2))
    semi_ce = None if certified else next(((x, y) for x, y in pairs if L.rank[L.join(x, y)] != L.rank[x] + 1), None)
    semi = CheckResult("semimodular", semi_ce is None, semi_ce)
    return ValidationReport((lattice, semi, CheckResult("atomic", atomic_ce is None, atomic_ce)))


# ---------------------------------------------------------------------------
# The disjointness product
# ---------------------------------------------------------------------------


class _AlgebraZero:
    """Singleton sentinel for the vector-space zero. Never a lattice element."""

    __slots__ = ()

    def __new__(cls):
        return ZERO

    def __repr__(self) -> str:
        return "0"

    def __bool__(self) -> bool:
        return False


ZERO = object.__new__(_AlgebraZero)  # the one instance, which `_AlgebraZero()` returns

# Largest lattices whose product table `diamond_table` prints and `nonassociativity_witness` fills (4.2M slots).
TABLE_LIMIT, WITNESS_LIMIT = 64, 2048


def diamond(L: FiniteLattice, x: int, y: int) -> int | _AlgebraZero:
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
    This is the per-pair rule; the creation pairs of an atom (the definition
    side of `verify`), `diamond_table` and the witness search read rows.
    """
    if not (0 <= x < L.n and 0 <= y < L.n):
        raise ValueError(f"({x}, {y}) names no element of {L.family_tag}")
    return L.join(x, y) if L.meet(x, y) == 0 else ZERO


def _diamond_row(L: FiniteLattice, x: int) -> list[int | _AlgebraZero]:
    """Row x of the product table, x ⋄ y for every y in id order, for x in
    range; J(x), M(x) and both mask indexes are read once.  Only the bottom
    has an empty J(·), so M(x) ∩ M(y) is looked up only where J(x) ∩ J(y) is
    empty, and the row is `diamond`'s pair by pair, up to the first meet or
    join that no element holds, which raises with `diamond`'s text."""
    dx, ux, meets, joins = L._down[x], L._up[x], L._down_index, L._up_index
    row = [(ZERO if s in meets else None) if (s := dx & d) else joins.get(ux & u) for d, u in zip(L._down, L._up)]
    if None in row:
        y = row.index(None)
        raise NotALatticeError(f"elements {x} and {y} have no unique {'meet' if dx & L._down[y] else 'join'}")
    return row


def nonassociativity_witness(L: FiniteLattice) -> tuple[int, int, int] | None:
    """Exhaustive search for a triple with (x ⋄ y) ⋄ z != x ⋄ (y ⋄ z).

    Returns the lexicographically first witness, or None when the product
    is associative on the basis (hence, by bilinearity, on the whole span).
    Each of the n² products is evaluated once, in rows (`_diamond_row`) of
    n² list slots in all (8 MB at n = 1,000; past `WITNESS_LIMIT` elements,
    SizeBoundError first); each (x, y) compares the groupings as rows over z.
    """
    if L.n > WITNESS_LIMIT:
        raise SizeBoundError(f"the witness search is limited to {WITNESS_LIMIT} elements")
    table, zeros = [_diamond_row(L, x) for x in range(L.n)], [ZERO] * L.n
    for x, row in enumerate(table):
        for y, xy in enumerate(row):
            lhs = zeros if xy is ZERO else table[xy]  # ZERO absorbs
            rhs = [ZERO if yz is ZERO else row[yz] for yz in table[y]]
            if lhs != rhs:
                return x, y, list(map(ne, lhs, rhs)).index(True)
    return None


def diamond_table(L: FiniteLattice) -> list[list[int | _AlgebraZero]]:
    """Full product table (list of rows); entries are element ids or ZERO."""
    if L.n > TABLE_LIMIT:
        raise SizeBoundError(f"product tables are limited to {TABLE_LIMIT} elements")
    return [_diamond_row(L, x) for x in range(L.n)]
