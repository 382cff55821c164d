"""The built-in families as lattices of flats.

Four guards on the builders.  A digest table pins every family's ids,
labels, covers and tag on a ladder of small parameters: the sha256 of
`json.dumps(L.to_document())`, recorded while the builders still found
covers by a pairwise search, or, for the larger projective and affine
entries, while they still reduced an echelon basis for every flat and
point, or, for boolean(12), uniform(3,40) and uniform(2,300), while the
subset families were still closed as flats, so the generated lattices
must match it.  The subset families, which are generated directly, are
compared element by element with `tests/helpers.py`'s
`subsets_by_closure`, a generic closure search of its own.  An
independent oracle reads each element's subspace (and coset
representative) back from its label and checks that y covers x exactly
when rank(y) = rank(x) + 1 and x's flat lies in y's, testing membership
with `tests/helpers.py`'s `in_rowspace`, not the builder; it runs on
fields with q in {3, 5, 7}, where a line has more than three points.
The echelon key that orders and labels the q-families is compared with
`gf.rref` of each subspace's points, and the affine order with (basis,
representative) pairs that `gf` computes from each flat's points.  A
closure fault must end the build with an error, not loop.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from helpers import in_rowspace, subsets_by_closure
from latspec import build_affine, build_boolean, build_projective, build_uniform, gf
from latspec.gf import reduce_vector, rref
from latspec.lattice import _echelon_key, _projective_space

BUILDERS = {
    "boolean": build_boolean,
    "uniform": build_uniform,
    "projective": build_projective,
    "affine": build_affine,
}

DOCUMENT_DIGESTS = (
    ("boolean(0)", "63b297cde774ba7a92378cb8a2197bfd3fae3a7d6a7e934c5a28f9637479c09c"),
    ("boolean(1)", "223f75ca686810e43b01747d53e2b53efce4cdd1399ebc40980ba5e4f5f74459"),
    ("boolean(2)", "5083fc63ebea8151a133072b97b7f82e3af45903ed05de8ae6845aa6f2d247ed"),
    ("boolean(3)", "362e69e774a76602c802c20040801ec64afe0412a84e09ed1f692535b09b025b"),
    ("boolean(4)", "14781d930f90ed81672c6791b1ffd822f1a9b25902ef41498bde7db6e87a0ab0"),
    ("boolean(5)", "06b0506760493b005bba5305e3edff0a3cb0836297514e7076b0b495de8aee58"),
    ("boolean(6)", "ce51a79e339e0a92effb34c690f48a59ba7bbac97c950443def428d7dd5784b3"),
    ("boolean(7)", "fc69c3e9bb971b1bbbd50094c4856da095d5595ecb8f164b4b2a221ce4846ea5"),
    ("boolean(12)", "975341749e9b1ddba99d5daa484586b3b3a6f1c10d794dcdda12d8ea408d48ac"),
    ("uniform(1,1)", "223f75ca686810e43b01747d53e2b53efce4cdd1399ebc40980ba5e4f5f74459"),
    ("uniform(1,2)", "82553c6acc681cf2f8d3e810d26bf286f3a71dd7018f1605a7953f37355b6e26"),
    ("uniform(2,2)", "5083fc63ebea8151a133072b97b7f82e3af45903ed05de8ae6845aa6f2d247ed"),
    ("uniform(1,3)", "f9fa660c50ff171c302f0545acbac0e51662081cf2fde9ca49808534076f4a89"),
    ("uniform(2,3)", "0c1bf7a07871674197c7c02193621ec736e22188671249a07f2d35908ea2ccd6"),
    ("uniform(3,3)", "362e69e774a76602c802c20040801ec64afe0412a84e09ed1f692535b09b025b"),
    ("uniform(1,4)", "de6469e421ef1f5ba9e13d12a909a239747796ec81dfb00d9d8fd7260caacdbb"),
    ("uniform(2,4)", "18553dcfc6c6f0250450806a1fe52c6fa689f521c1a2d066f910e9343bb6ad06"),
    ("uniform(3,4)", "f63fd0febe10e88684f73815aa146b1287f0e95a8aa2b0258a2df17d94164c5f"),
    ("uniform(4,4)", "14781d930f90ed81672c6791b1ffd822f1a9b25902ef41498bde7db6e87a0ab0"),
    ("uniform(1,5)", "6d12d107d08c98f3cce95e413ef6078cfe43baeaa9a395c01aee45caeb0c9549"),
    ("uniform(2,5)", "8a3b5c399eee96b07bab00e2b519ae2cc4a7229da636eb0236ecda9aa605ca0f"),
    ("uniform(3,5)", "c08eda5df2bf39e47853ea784aef25cf6a0f495c14d21ec0fa6ce60d1093c03f"),
    ("uniform(4,5)", "339947e3fca0f5f706116f4ac082cda468feb403b978a1f20f52e61f5b718402"),
    ("uniform(5,5)", "06b0506760493b005bba5305e3edff0a3cb0836297514e7076b0b495de8aee58"),
    ("uniform(1,6)", "4e2539c089580979d67c622a4228a271f4db530c18b36a2f5339b1a2cdc99007"),
    ("uniform(2,6)", "9f54bebf9a37460350f92c82d817c4b8ccfbc2749c3c6b522f91b9fa5abea984"),
    ("uniform(3,6)", "195f3725e0b6dc3482bab2d9a5e4673d2d8f368f5ffdccabde8beb18ce305e58"),
    ("uniform(4,6)", "6077b2cd0c8a297c9d49f276fccf4ebce220813e612f572555aecd83876b0ff4"),
    ("uniform(5,6)", "c910022ea4f68fc5b99b6d41d82c72fdd4772e20daf69932818229593e64bb13"),
    ("uniform(6,6)", "ce51a79e339e0a92effb34c690f48a59ba7bbac97c950443def428d7dd5784b3"),
    ("uniform(3,40)", "1f2b3b6d37a8b749809aa3ff94fa9a4f94ca6bda6a4d08cc45e8c416023d7414"),
    ("uniform(2,300)", "e3ac7257b13f06a6e0c8348e9d21fe51a120adaefa16bd48fc058122b6d51e29"),
    ("projective(1,2)", "07c4d90b432c96d4293b40795bcbaa9d35ffe3c7d3b7db3ee4cce44bd2c84665"),
    ("projective(2,2)", "833681c6fd66ce25e4a885984b740eb20fdb55e3660fac4b74f4c73d20e3ea5c"),
    ("projective(3,2)", "d37da3f50904225ceb3662145b72aaf1ee33b1a4a2a6c290f46c7bad3b6dd319"),
    ("projective(4,2)", "8aa348938dfc8eb585cf425073dc2d0758d718018ad991dc70417b2810f0a425"),
    ("projective(1,3)", "07c4d90b432c96d4293b40795bcbaa9d35ffe3c7d3b7db3ee4cce44bd2c84665"),
    ("projective(2,3)", "624c7c103910d5471c1d7ec85654bdeaf7fd27b59c6edd4e6f29082430c53211"),
    ("projective(3,3)", "492ee5b1460b5b2db4771ab0d5b7c223637f845ca17ad8b6ba5471ab5db9813d"),
    ("projective(2,5)", "e1a8a143f6e243e0a0f6d8a35718a262eff165f1b6e30177b1478a98cacc3657"),
    ("projective(5,2)", "a69764585edb530f44d68f50e09e2d950abd8a20188560eb8f25425a840625dd"),
    ("projective(6,2)", "420f9da6021781dedbe23f5ca89a2bf9f0f1be71a4a4b2048a7a1b75faee56f3"),
    ("projective(4,3)", "b0c0cc68b8747872f3844dd5445d6cc5a7ba7301e9758fb7f5e084160c20e3f3"),
    ("projective(3,5)", "31dd007eb0b94948ed33523fc5052f68bbbe30c53211af864a2cb88a589c6841"),
    ("projective(2,7)", "6c1680eb022c8599476d063b4208263d038aee4e83fe055c85e0f7a915ed2c74"),
    ("affine(1,2)", "e569d05575e7d9e7ca7dc4b93bf16922cff394ccbb1fa3179e1bb5b374275d47"),
    ("affine(2,2)", "56dfc0d1ed675f3c7137038f13cf1a5cdc77c5194cc70c696493fcb643c02a5f"),
    ("affine(3,2)", "00033ac683fa9afd07f17ba21c7917c236118adceb841878602d8709d9fc2988"),
    ("affine(1,3)", "7312f17cc437f4e33d3260847efc86916fae6b2b9c1eebb17f741ae2fd533b19"),
    ("affine(2,3)", "654ccf4a9a3e95b73cec47d45d233698bc8d9882fbedee82a092c40122746884"),
    ("affine(2,5)", "df0e7d8a455c4dda265d0de851244240e5e834c02d99e55e829d1860da92f928"),
    ("affine(4,2)", "e486fe38c46d270a80fe5eed3a801245b80a5674e001cc5c7123c0617bfc1eb7"),
    ("affine(5,2)", "86d1a12d91bf26527bea380b8160f4f075f16a352caf77a81458d03b5122b8e4"),
    ("affine(3,3)", "da605705e1b524795db72d136da06b54e2827f8607ce0402470b9bf7a880acd6"),
    ("affine(2,7)", "5613a821c0f85ea1879d6fa5d9461f0aa78e8bb9727974f7d37655666c66c24c"),
)


@pytest.mark.parametrize("tag,digest", DOCUMENT_DIGESTS, ids=[tag for tag, _ in DOCUMENT_DIGESTS])
def test_document_digest(tag, digest):
    family, params = re.fullmatch(r"(\w+)\(([\d,]+)\)", tag).groups()
    L = BUILDERS[family](*map(int, params.split(",")))
    assert L.family_tag == tag
    assert hashlib.sha256(json.dumps(L.to_document()).encode()).hexdigest() == digest


SUBSET_CASES = (
    *(("boolean", (n,)) for n in range(13)),
    *(("uniform", (r, m)) for m in range(1, 10) for r in range(1, m + 1)),
    ("uniform", (2, 300)), ("uniform", (3, 40)), ("uniform", (5, 12)),
)


def test_subsets_match_the_closure_oracle():
    for family, args in SUBSET_CASES:
        L = BUILDERS[family](*args)
        m, r = args * 2 if family == "boolean" else args[::-1]
        oracle = subsets_by_closure(L.family_tag, m, r)
        assert L.rank == oracle.rank, L.family_tag
        assert L.covers_up == oracle.covers_up, L.family_tag
        assert L.labels == oracle.labels, L.family_tag
        assert (L.family_tag, L._down) == (oracle.family_tag, oracle._down), L.family_tag


def _basis(text: str) -> tuple[tuple[int, ...], ...]:
    """Rows of an echelon-basis label such as "[1002;0110]"."""
    return tuple(tuple(map(int, row)) for row in text[1:-1].split(";") if row)


def _assert_covers_are_containments(L, contains):
    for x in range(L.n):
        above = L.layers[L.rank[x] + 1] if L.rank[x] < L.top_rank else ()
        assert set(L.covers_up[x]) == {y for y in above if contains(y, x)}, L.labels[x]


@pytest.mark.parametrize("r,q", [(4, 3), (3, 5), (2, 7)])
def test_projective_covers_against_subspace_containment(r, q):
    L = build_projective(r, q)
    bases = [_basis(label) for label in L.labels]
    assert len(set(bases)) == L.n
    assert all(len(bases[x]) == L.rank[x] for x in range(L.n))
    _assert_covers_are_containments(
        L, lambda y, x: all(in_rowspace(row, bases[y], q) for row in bases[x])
    )


@pytest.mark.parametrize("r,q", [(3, 3), (2, 5), (2, 7)])
def test_affine_covers_against_coset_containment(r, q):
    L = build_affine(r, q)
    assert L.labels[0] == "empty"
    flats = [None] + [
        (_basis(basis), tuple(map(int, rep)))
        for rep, basis in (label.split("+") for label in L.labels[1:])
    ]
    assert len(set(flats)) == L.n
    assert all(len(flats[x][0]) + 1 == L.rank[x] for x in range(1, L.n))

    def contains(y, x):
        if x == 0:
            return True
        (u, s), (v, t) = flats[x], flats[y]
        offset = tuple((a - b) % q for a, b in zip(s, t))
        return in_rowspace(offset, v, q) and all(in_rowspace(row, v, q) for row in u)

    _assert_covers_are_containments(L, contains)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_echelon_key_equals_the_reduced_basis_of_every_subspace(q):
    """Each subspace's key, read from its point mask, is its reduced echelon
    basis from `gf.rref` of all its points, as point ids, pivot ascending."""
    for d in range(1, 5):
        points, _, block, zero = _projective_space(d, q, None, affine=False)
        index = {v: i for i, v in enumerate(points)}
        L = build_projective(d, q)
        for x in range(L.n):
            mask = L.atoms_below(x)
            rows = rref([points[i] for i in range(len(points)) if mask >> i & 1], q)
            assert _echelon_key(mask, block, zero, False) == tuple(map(index.__getitem__, rows)), (d, q, x)


@pytest.mark.parametrize("r,q", [(2, 5), (3, 3)])
def test_affine_ranks_are_ordered_by_basis_then_representative(r, q):
    """Within a rank, affine flats ascend in (echelon basis of U, x reduced
    modulo U), computed by `gf` from the points below each flat."""
    points = list(product(range(q), repeat=r))
    L = build_affine(r, q)
    for layer in L.layers[1:]:
        names = []
        for x in layer:
            first, *rest = (points[i] for i in range(len(points)) if L.atoms_below(x) >> i & 1)
            basis = rref([tuple((a - b) % q for a, b in zip(p, first)) for p in rest], q)
            names.append((basis, reduce_vector(first, basis, q)))
        assert names == sorted(names) and len(set(names)) == len(names)


def test_flat_builders_take_no_echelon_step(monkeypatch):
    calls = []
    for name in ("extend", "reduce_vector"):
        monkeypatch.setattr(gf, name, lambda *args, name=name: calls.append(name))
    assert build_projective(6, 2).n == 2825
    assert build_affine(4, 3).layer_sizes() == (1, 81, 1080, 1170, 120, 1)
    assert calls == []


# Builds a family from a line table whose entries holding the line through the
# last two points read 0, in a child limited to 512 MB of address space.
# Those points then join each other to single points, a cycle of covers that
# never reaches a larger flat, so only the rank bound ends the build.  (A zeroed
# single row makes no cycle: every flat without that row's point grows.)
CORRUPTED_BUILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from latspec import lattice
space = lattice._projective_space

def corrupted(*args, **kwargs):
    points, lines, block, zero = space(*args, **kwargs)
    line = lines[-1][-2]
    for row in lines:
        row[:] = [0 if mask == line else mask for mask in row]
    return points, lines, block, zero

lattice._projective_space = corrupted
try:
    getattr(lattice, sys.argv[1])(3, 2)
except lattice.LatticeError as exc:
    print(exc)
"""


@pytest.mark.parametrize("builder, message", [
    ("build_projective", "projective(3,2): found flats of rank 4, past the top rank 3"),
    ("build_affine", "affine(3,2): found flats of rank 5, past the top rank 4"),
], ids=["projective", "affine"])
def test_a_closure_fault_ends_the_build_at_the_top_rank(builder, message):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    child = subprocess.run([sys.executable, "-c", CORRUPTED_BUILD, builder], capture_output=True, text=True, env=env, timeout=30)
    assert (child.returncode, child.stdout, child.stderr) == (0, message + "\n", "")
