"""Finite graded lattices: construction, built-in families, parsing, validation.

Elements are dense integer ids with id 0 the bottom.  Every built-in
family except the product is generated as the lattice of flats of a
matroid by one builder, `_build_flats`, in which a flat is the mask of the
points it holds.  Starting from the empty flat, the covers of a flat F are
the distinct joins F ∨ p with an atom p; once a cover is found its points
are skipped, so each cover is closed once and named once.  Boolean and
uniform flats are subsets of the ground set.  Projective and affine flats
are point sets of a projective space, PG(r - 1, q) and PG(r, q), and F ∨ p
is closed through a table of line masks.  Ids are rank-major and, within a
rank, follow each family's canonical name: the subset bitmask for boolean
and uniform, the reduced echelon basis for projective, and the (echelon
basis, reduced representative) pair for affine, computed once per flat.
Products are ordered lexicographically by component ids.

Every finite lattice is ordered by its irreducibles (Davey & Priestley,
Introduction to Lattices and Order, 2nd ed., 2002, ch. 2; Birkhoff,
Lattice Theory, 3rd ed., 1967).  An element is join-irreducible when it
has exactly one lower cover and meet-irreducible when it has exactly one
upper cover; write J(x) for the join-irreducibles below x and M(x) for the
meet-irreducibles above it.  Then x <= y iff J(x) ⊆ J(y), J(x ∧ y) =
J(x) ∩ J(y) and M(x ∨ y) = M(x) ∩ M(y).  `FiniteLattice` stores J(x) and
M(x) as bitmasks, so `leq` is a subset test and `meet` and `join` are one
AND and one lookup each.  On an atomistic lattice the join-irreducibles
are the atoms, so a mask costs a bit per atom, not a bit per element.

The masks order an element set exactly only when it is a lattice, so
`leq`, `meet` and `join` are defined only on lattices.  Built-in families
and products are lattices by construction; `from_covers` and `validate`
certify every other input.

Lattice-ness and semimodularity are certified exactly from co-cover pairs,
two elements that cover, or are covered by, a common element; no pair
survey over all n² pairs is needed.

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
  whenever x and y both cover z, x ∨ y covers both (Stanley, Enumerative
  Combinatorics I, Prop. 3.3.2).  In a graded lattice a failing pair has
  x ∧ y = z and r(x ∨ y) > r(z) + 2, so r(x) + r(y) < r(x ∨ y) + r(x ∧ y).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Callable, Hashable, Iterable, Iterator, Sequence

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
        return int(env) if env else DEFAULT_SIZE_CAP
    except ValueError:
        raise SizeBoundError(f"{SIZE_CAP_ENV}={env!r} is not an integer") from None


def _check_size(n: int, cap: int | None) -> None:
    limit = size_cap(cap)
    if n > limit:
        raise SizeBoundError(f"lattice would have {n} elements, exceeding the cap of {limit}")


def _irreducible_masks(layers: Sequence[Sequence[int]], below: Sequence[Sequence[int]]) -> list[int]:
    """Per element, the mask of the irreducibles at or under it, where
    below[y] lists the elements y covers in the chosen direction and an
    element is irreducible when it covers exactly one.  `layers` must list
    every element after the ones below it; bits are numbered in that order."""
    masks = [0] * len(below)
    bit = 1
    for layer in layers:
        for y in layer:
            m = 0
            for x in below[y]:
                m |= masks[x]
            if len(below[y]) == 1:
                m |= bit
                bit <<= 1
            masks[y] = m
    return masks


class FiniteLattice:
    """Immutable finite graded lattice.

    Attributes
    ----------
    n : element count
    rank : tuple of ranks, rank[0] == 0 for the bottom
    top_rank : rank of the unique top element
    covers_up : covers_up[x] lists the elements covering x, ascending
    covers_down : inverse of covers_up
    atoms : ids of the rank-1 elements, ascending
    layers : layers[k] lists the ids of rank k
    family_tag : provenance label, e.g. "boolean(3)" or "custom"
    labels : display label per element

    `leq`, `meet` and `join` read join- and meet-irreducible masks (module
    docstring), which order the elements exactly only on a lattice: they
    are defined only when `first_meetless_pair` is None.  Built-in families
    and products are lattices by construction; `from_covers` and `validate`
    certify every other input.  The constructor raises unless id 0 is the
    only rank-0 element, exactly one element, of top rank, has no upper
    cover, and every cover steps up one rank, so `validate` need not check
    these.  `leq`, `meet`, `join` and `atoms_below` expect ids in
    range(n) and do not check them: a negative id indexes from the end.

    The object is immutable after construction and safe to share across
    threads; all query methods are pure.
    """

    def __init__(
        self,
        rank: Sequence[int],
        covers_up: Sequence[Sequence[int]],
        family_tag: str = "custom",
        labels: Sequence[str] | None = None,
    ):
        n = len(rank)
        if n == 0:
            raise NotALatticeError("empty element list: no bottom element")
        self.n = n
        self.rank = tuple(rank)
        self.covers_up = tuple(tuple(sorted(ups)) for ups in covers_up)
        self.family_tag = family_tag
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.covers_up) != n or len(self.labels) != n:
            raise LatticeError("rank, covers_up, and labels must have equal length")
        self.top_rank = max(self.rank)

        covers_down: list[list[int]] = [[] for _ in range(n)]
        for x, ups in enumerate(self.covers_up):
            for y in ups:
                # the rank-ordered layers and mask fill below rely on this
                if self.rank[y] != self.rank[x] + 1:
                    raise NotGradedError(
                        f"cover [{x}, {y}] spans ranks {self.rank[x]} -> {self.rank[y]}"
                    )
                covers_down[y].append(x)
        self.covers_down = tuple(tuple(sorted(downs)) for downs in covers_down)

        if [i for i in range(n) if self.rank[i] == 0] != [0]:
            raise NotALatticeError("the bottom must be the unique rank-0 element and have id 0")
        for i in range(1, n):
            if not covers_down[i]:
                raise NotALatticeError(f"element {i} has rank {self.rank[i]} but covers nothing")
        tops = [i for i in range(n) if not self.covers_up[i]]
        if len(tops) != 1:
            raise NotALatticeError(f"expected a unique top element, found {len(tops)}")
        self.top = tops[0]
        if self.rank[self.top] != self.top_rank:
            raise NotGradedError("the unique maximal element does not have the maximal rank")

        layers: list[list[int]] = [[] for _ in range(self.top_rank + 1)]
        for i, rk in enumerate(self.rank):
            layers[rk].append(i)
        self.layers = tuple(tuple(lay) for lay in layers)
        self.atoms = self.layers[1] if self.top_rank >= 1 else ()

        # J(x) and M(x) masks, filled in rank order (ids need not be
        # rank-sorted: product lattices are ordered lexicographically).  The
        # atoms are the first join-irreducibles, so they hold the low bits.
        self._down = _irreducible_masks(self.layers, self.covers_down)
        self._up = _irreducible_masks(self.layers[::-1], self.covers_up)
        self._down_index = {m: i for i, m in enumerate(self._down)}
        self._up_index = {m: i for i, m in enumerate(self._up)}

    # -- order queries ----------------------------------------------------

    def leq(self, x: int, y: int) -> bool:
        return (self._down[x] & self._down[y]) == self._down[x]

    def meet(self, x: int, y: int) -> int:
        m = self._down[x] & self._down[y]
        try:
            return self._down_index[m]
        except KeyError:
            raise NotALatticeError(f"elements {x} and {y} have no unique meet") from None

    def join(self, x: int, y: int) -> int:
        m = self._up[x] & self._up[y]
        try:
            return self._up_index[m]
        except KeyError:
            raise NotALatticeError(f"elements {x} and {y} have no unique join") from None

    def atoms_below(self, x: int) -> int:
        return self._down[x] & ((1 << len(self.atoms)) - 1)

    def count_atoms_below(self, x: int) -> int:
        return self.atoms_below(x).bit_count()

    def covers(self) -> Iterator[tuple[int, int]]:
        """All cover pairs (x, y) with x covered by y."""
        for x, ups in enumerate(self.covers_up):
            for y in ups:
                yield x, y

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

        def has_meet(x: int, y: int) -> bool:
            s = down[x] & down[y]
            t = index.get(s)
            return (t in lower[x] and t in lower[y]) or (
                (m := descend(x, s)) is not None and m == descend(y, s))

        pairs = (p for layer in self.layers for u in layer for p in combinations(lower[u], 2))
        return next(((x, y) for x, y in pairs if not has_meet(x, y)), None)

    @cached_property
    def validation(self) -> "ValidationReport":
        """The `validate` report, computed once, on first read."""
        return validate(self)

    # -- construction from raw cover data ----------------------------------

    @classmethod
    def from_covers(
        cls,
        n: int,
        covers: Iterable[tuple[int, int]],
        family_tag: str = "custom",
        labels: Sequence[str] | None = None,
        cap: int | None = None,
    ) -> "FiniteLattice":
        """Build a lattice from an explicit cover list.

        Ranks are inferred as longest-chain length from the unique minimal
        element; ids are remapped to rank-major order (stable in the input
        ids) so that the bottom receives id 0.  Raises NotAPosetError on
        cycles, NotGradedError when some cover jumps more than one rank,
        and NotALatticeError when bottom/top are not unique or two lower
        covers of a common element lack a meet (`first_meetless_pair`).
        """
        if n == 0:
            raise NotALatticeError("empty element list: no bottom element")
        _check_size(n, cap)
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        seen = set()
        for lo, hi in covers:
            if not (0 <= lo < n and 0 <= hi < n):
                raise ParseError(f"cover [{lo}, {hi}] references an unknown element id")
            if lo == hi:
                raise NotAPosetError(f"cover [{lo}, {hi}] is a self-loop")
            if (lo, hi) in seen:
                continue
            seen.add((lo, hi))
            succ[lo].append(hi)
            indeg[hi] += 1

        sources = [i for i in range(n) if indeg[i] == 0]
        if len(sources) != 1:
            raise NotALatticeError(f"expected a unique bottom element, found {len(sources)} minimal elements")

        # Kahn toposort with longest-path ranks; leftover nodes mean a cycle.
        rank = [0] * n
        pending = list(indeg)
        queue = [sources[0]]
        visited = 0
        while queue:
            x = queue.pop()
            visited += 1
            for y in succ[x]:
                rank[y] = max(rank[y], rank[x] + 1)
                pending[y] -= 1
                if pending[y] == 0:
                    queue.append(y)
        if visited != n:
            raise NotAPosetError("cover relation contains a cycle")

        for lo, hi in seen:
            if rank[hi] != rank[lo] + 1:
                raise NotGradedError(
                    f"cover [{lo}, {hi}] spans ranks {rank[lo]} -> {rank[hi]}; the poset is not graded"
                )

        perm = sorted(range(n), key=lambda i: (rank[i], i))
        new_id = {old: new for new, old in enumerate(perm)}
        new_rank = [rank[old] for old in perm]
        new_covers: list[list[int]] = [[] for _ in range(n)]
        for lo, hi in seen:
            new_covers[new_id[lo]].append(new_id[hi])
        new_labels = None if labels is None else [labels[old] for old in perm]
        L = cls(new_rank, new_covers, family_tag, new_labels)
        pair = L.first_meetless_pair
        if pair is not None:
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


def _build_flats(tag: str, bottom: Hashable, atoms: int, close: Callable[[int, int], int],
                 name: Callable[[Hashable, int], Hashable], label: Callable[[Hashable], str]) -> FiniteLattice:
    """Lattice of flats generated upward from the empty flat, one rank at a
    time.  A flat is the mask of the points it holds; `atoms` masks the
    points that are atoms and `bottom` names the empty flat.

    `close(F, i)` is the mask of F ∨ p_i and `name(N, i)` the canonical
    name of that join, given the name N of F.  In a geometric lattice every
    cover of F is F ∨ p for an atom p not in F, and every p in G ∖ F gives
    F ∨ p = G; so once a cover G is found, its points are skipped, and each
    cover of F is closed once and named once, when first found.  Within a
    rank, flats are ordered by their names, which fixes the ids: the bottom
    is 0 and the top is n - 1.
    """
    rank, labels, covers_up = [0], [label(bottom)], []
    layer, k = {0: bottom}, 0
    while layer:
        ups, found = [], {}
        for F, N in layer.items():
            up, rest = [], atoms & ~F
            while rest:
                i = (rest & -rest).bit_length() - 1
                up.append(G := close(F, i))
                if G not in found:
                    found[G] = name(N, i)
                rest &= ~G
            ups.append(up)
        layer, k = dict(sorted(found.items(), key=lambda flat: flat[1])), k + 1
        ids = {G: j for j, G in enumerate(layer, len(rank))}
        covers_up.extend([ids[G] for G in up] for up in ups)
        rank += [k] * len(layer)
        labels += map(label, layer.values())
    return FiniteLattice(rank, covers_up, tag, labels)


def _subset_label(mask: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def build_boolean(n: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of all subsets of {1..n}: rank = cardinality, join = union,
    meet = intersection, atoms = singletons.  Generated as the flats of the
    free matroid, a subset being its own point mask and name; within a
    rank, elements are ordered by bitmask (colex)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > BOOLEAN_MAX_GROUND:
        raise SizeBoundError(f"boolean ground sets are limited to {BOOLEAN_MAX_GROUND} elements")
    _check_size(2**n, cap)

    def join(mask: int, i: int) -> int:
        return mask | 1 << i

    return _build_flats(f"boolean({n})", 0, (1 << n) - 1, join, join, _subset_label)


def build_uniform(r: int, m: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of flats of the uniform matroid U_{r,m}: all subsets of
    {1..m} of size < r, plus the full set as top.  build_uniform(2, 3) is
    the diamond with three atoms.  Generated as a lattice of flats, a
    subset being its own point mask and name; within a rank, elements are
    ordered by bitmask."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if m < r:
        raise ValueError("m must be at least r")
    _check_size(sum(comb(m, k) for k in range(r)) + 1, cap)
    full = (1 << m) - 1

    def join(mask: int, i: int) -> int:
        joined = mask | 1 << i
        return joined if joined.bit_count() < r else full

    return _build_flats(f"uniform({r},{m})", 0, full, join, join, _subset_label)


def _projective_space(r: int, q: int) -> tuple[list[gf.Vec], Callable[[int, int], int]]:
    """The points of PG(r - 1, q), the vectors of F_q^r with leading
    coordinate 1 in lexicographic order, and `close(F, i)`, the mask of the
    span of a subspace's point mask F and point i.  Every vector of U + ⟨p⟩
    is u + c·p (Oxley, Matroid Theory, §6.1), so F ∨ p is p together with
    the lines through p and each point of F, read from a table of line
    masks: lines[i][u] is the mask of the line through points i and u,
    one shared object per line."""
    points = [v for v in product(range(q), repeat=r) if next((x for x in v if x), 0) == 1]
    # every nonzero vector, to the point it spans
    index = {tuple(c * x % q for x in v): i for i, v in enumerate(points) for c in range(1, q)}
    lines = [[0] * len(points) for _ in points]
    for u, p in combinations(range(len(points)), 2):
        if not lines[u][p]:
            line = [u, p] + [index[tuple((a + c * b) % q for a, b in zip(points[u], points[p]))]
                             for c in range(1, q)]
            mask = sum(1 << a for a in line)
            for a, b in product(line, repeat=2):
                lines[a][b] = mask

    def close(F: int, i: int) -> int:
        row, G = lines[i], 1 << i
        while F:
            G |= row[(F & -F).bit_length() - 1]
            F &= F - 1
        return G

    return points, close


def _rref_label(basis: gf.Rref) -> str:
    return "[" + ";".join("".join(str(v) for v in row) for row in basis) + "]"


def build_projective(r: int, q: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of linear subspaces of F_q^r (q prime): rank = dimension,
    join = subspace sum, meet = intersection.  Layer k has Gaussian-binomial
    size (r choose k)_q.  Generated as a lattice of flats: a subspace is the
    mask of its points in PG(r - 1, q), closed through the line table of
    `_projective_space`, and is named by its reduced echelon basis, one
    `gf.rref` per subspace; within a rank, elements are ordered by basis."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if not gf.is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    total = sum(gf.gaussian_binomial(r, k, q) for k in range(r + 1))
    _check_size(total, cap)
    points, close = _projective_space(r, q)

    def name(basis: gf.Rref, i: int) -> gf.Rref:
        return gf.rref(basis + (points[i],), q)

    return _build_flats(f"projective({r},{q})", (), (1 << len(points)) - 1, close, name, _rref_label)


def build_affine(r: int, q: int, *, cap: int | None = None) -> FiniteLattice:
    """Lattice of affine flats (cosets x + U) of F_q^r, all dimensions 0..r,
    with an adjoined bottom.  A k-flat has lattice rank k + 1; the atoms are
    the q^r points.  Meets of disjoint flats land on the adjoined bottom.
    Generated as a lattice of flats inside PG(r, q), whose last q^r points
    are the chart points (1, x), the atoms: a flat x + U is the mask of all
    projective points of the span of (1, x) and (0, U), its points at
    infinity included, closed through the line table of
    `_projective_space`.  It is named by (echelon basis of U,
    representative reduced modulo U), with None for the bottom, one
    `gf.rref` and `gf.reduce_vector` per flat; within a rank, elements are
    ordered by that (basis, rep) tuple."""
    if r < 1:
        raise ValueError("r must be at least 1")
    if not gf.is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    total = 1 + sum(q ** (r - k) * gf.gaussian_binomial(r, k, q) for k in range(r + 1))
    _check_size(total, cap)
    points, close = _projective_space(r + 1, q)

    def name(flat: tuple[gf.Rref, gf.Vec] | None, i: int) -> tuple[gf.Rref, gf.Vec]:
        point = points[i][1:]
        if flat is None:
            return (), point
        basis, rep = flat
        basis = gf.rref(basis + (tuple((a - b) % q for a, b in zip(point, rep)),), q)
        return basis, gf.reduce_vector(rep, basis, q)

    def label(flat: tuple[gf.Rref, gf.Vec] | None) -> str:
        return "empty" if flat is None else "".join(map(str, flat[1])) + "+" + _rref_label(flat[0])

    chart = ((1 << q**r) - 1) << (len(points) - q**r)
    return _build_flats(f"affine({r},{q})", None, chart, close, name, label)


def build_product(L1: FiniteLattice, L2: FiniteLattice, *, cap: int | None = None) -> FiniteLattice:
    """Direct product with componentwise order: element (x1, x2) gets id
    x1 * L2.n + x2 (lexicographic), rank is the sum of component ranks, and
    the atoms are exactly the pairs (a, bottom) and (bottom, b)."""
    n1, n2 = L1.n, L2.n
    _check_size(n1 * n2, cap)
    rank = [L1.rank[x1] + L2.rank[x2] for x1 in range(n1) for x2 in range(n2)]
    covers_up = [
        [y1 * n2 + x2 for y1 in L1.covers_up[x1]]
        + [x1 * n2 + y2 for y2 in L2.covers_up[x2]]
        for x1 in range(n1)
        for x2 in range(n2)
    ]
    labels = [
        f"({L1.labels[x1]},{L2.labels[x2]})" for x1 in range(n1) for x2 in range(n2)
    ]
    return FiniteLattice(rank, covers_up, f"product({L1.family_tag},{L2.family_tag})", labels)


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
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
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
    labels = [f"e{i}" for i in range(n)]
    seen_ids = set()
    for entry in elements:
        if not isinstance(entry, dict) or type(entry.get("id")) is not int:
            raise ParseError('each element must be an object with an integer "id"')
        i = entry["id"]
        if i in seen_ids or not 0 <= i < n:
            raise ParseError(f"element ids must be dense from 0; offending id {i}")
        seen_ids.add(i)
        labels[i] = str(entry.get("label", f"e{i}"))

    pairs = []
    for pair in covers:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(type(v) is int for v in pair)
        ):
            raise ParseError(f"malformed cover entry {pair!r}; expected [lo, hi]")
        pairs.append((pair[0], pair[1]))

    return FiniteLattice.from_covers(n, pairs, "custom", labels, cap=cap)


def read_lattice_file(path: str, *, cap: int | None = None) -> FiniteLattice:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lattice(fh.read(), cap=cap)


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


def validate(L: FiniteLattice) -> ValidationReport:
    """Run the structural checks; each is exact at every size, and each
    failure carries a first counterexample.

    lattice-pairs: every two lower covers of a common element have a meet,
    which holds iff every pair has a meet and a join (proof in the module
    docstring).  semimodular: if x and y both cover z, x ∨ y covers both
    (Stanley, EC1, Prop. 3.3.2); a counterexample (x, y) has r(x) + r(y) <
    r(x ∨ y) + r(x ∧ y).  atomic: every element is the join of the atoms
    below it, that is, every join-irreducible is an atom; a counterexample
    is the first join-irreducible above rank 1 in id order, which, when ids
    are a linear extension, is the first element that is not the join of
    its atoms.  Associativity and absorption are not checked: `meet` and
    `join` return the greatest lower and least upper bound in the order
    `leq` reads, so once lattice-pairs passes they obey every lattice
    identity.  On a non-lattice the checks that need joins, semimodular and
    atomic, are not run, and a note says so.
    """
    meetless = L.first_meetless_pair
    lattice = CheckResult("lattice-pairs", meetless is None, meetless)
    if meetless is not None:
        return ValidationReport((lattice,), ("not a lattice: the semimodular and atomic checks were not run",))
    pairs = (p for z in range(L.n) for p in combinations(L.covers_up[z], 2))
    semi_ce = next(((x, y) for x, y in pairs if L.rank[L.join(x, y)] != L.rank[x] + 1), None)
    atomic_ce = next(((x,) for x in range(L.n) if L.rank[x] > 1 and len(L.covers_down[x]) == 1), None)
    return ValidationReport((
        lattice,
        CheckResult("semimodular", semi_ce is None, semi_ce),
        CheckResult("atomic", atomic_ce is None, atomic_ce),
    ))
