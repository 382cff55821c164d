import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latspec.lattice
import latspec.operators
from helpers import (
    annihilation_by_defining_sum,
    annihilation_by_leq,
    dense_of,
    diamond_row_by_pair,
    lowering_pairs_by_atom,
    nonassociativity_witness_by_search,
    random_bounded_graded_poset,
    random_flats_document,
    random_lattices,
    unchecked_poset,
)
from latspec import (
    ZERO,
    FiniteLattice,
    NotALatticeError,
    OperatorMatrix,
    SizeBoundError,
    annihilation_operator,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    creation_operator,
    diamond,
    diamond_table,
    hamiltonian,
    nonassociativity_witness,
    parse_lattice,
    vacuum_moments_full,
)
from latspec.lattice import _diamond_row
from latspec.operators import _assemble, _cover_arrays, _creation_pairs, _lowering_pairs

HALF = Fraction(1, 2)


def column(M: OperatorMatrix, col: int) -> dict[int, Fraction]:
    """The nonzero entries of M e_col, read with `entry`."""
    return {row: v for row in range(M.dim) if (v := M.entry(row, col))}


class TestDiamond:
    def test_m3_full_table(self, m3):
        # rows/cols ordered bottom, a, b, c, top
        bot, a, b, c, top = range(5)
        Z = ZERO
        expected = [
            [bot, a, b, c, top],
            [a, Z, top, top, Z],
            [b, top, Z, top, Z],
            [c, top, top, Z, Z],
            [top, Z, Z, Z, Z],
        ]
        assert diamond_table(m3) == expected

    def test_bottom_is_unit(self, small_lattices):
        for L in small_lattices:
            for x in range(L.n):
                assert diamond(L, 0, x) == x
                assert diamond(L, x, 0) == x

    def test_self_product_of_atom_is_zero(self, m3):
        assert diamond(m3, 1, 1) is ZERO

    @pytest.mark.parametrize("x, y", [(0, 99), (1, -1), (-1, 1), (4, 0)])
    def test_ids_out_of_range_are_rejected(self, b2, x, y):
        # before the check, (0, 99) raised IndexError and (1, -1) read -1 as the top
        with pytest.raises(ValueError, match="names no element"):
            diamond(b2, x, y)

    def test_algebra_zero_is_falsy_singleton(self):
        assert not ZERO
        assert repr(ZERO) == "0"
        assert ZERO is type(ZERO)()

    def test_commutative(self, small_lattices):
        for L in small_lattices:
            if L.n > 20:
                continue
            for x in range(L.n):
                for y in range(L.n):
                    assert diamond(L, x, y) == diamond(L, y, x)


def _row_or_error(row, L, x):
    """Row x, or the type and text of the error it raises."""
    try:
        return row(L, x)
    except NotALatticeError as exc:
        return type(exc), str(exc)


class TestRows:
    """Each row of the product table equals the per-pair rule, value for
    value, or raises that rule's first error with its text."""

    def test_rows_equal_the_per_pair_rule_on_random_lattices_and_non_lattices(self):
        non_lattices, errors = 0, []
        for L in random_lattices():
            for x in range(L.n):
                assert _diamond_row(L, x) == diamond_row_by_pair(L, x), (L.to_document(), x)
        for seed in range(1500):
            n, covers = random_bounded_graded_poset(random.Random(seed))
            if (L := unchecked_poset(n, covers)).first_meetless_pair is None:
                continue
            non_lattices += 1
            for x in range(L.n):
                assert (got := _row_or_error(_diamond_row, L, x)) == _row_or_error(diamond_row_by_pair, L, x), covers
                if isinstance(got, tuple):
                    errors.append(got[1].rsplit(" ", 1)[1])
        # both error texts are reached
        assert non_lattices == 425 and errors.count("meet") == 85 and errors.count("join") == 145

    @pytest.mark.parametrize("build, params", [
        (build_projective, (3, 31)),
        (build_boolean, (12,)),
        (build_affine, (3, 3)),
        (build_uniform, (4, 7)),
        (build_product, (build_uniform(2, 3), build_boolean(1))),
    ])
    def test_rows_equal_the_per_pair_rule_on_families(self, build, params):
        # every atom's row, which the creation pairs read, then every 97th element's (n² pairs would take minutes)
        L = build(*params)
        for x in (*L.atoms, *range(0, L.n, 97), L.top):
            assert _diamond_row(L, x) == diamond_row_by_pair(L, x), x


class TestWitness:
    def test_none_on_boolean(self):
        for n in range(4):
            assert nonassociativity_witness(build_boolean(n)) is None

    def test_refused_past_the_limit_before_the_table_is_filled(self, monkeypatch):
        # patched low: the real limit exists to stop sizes a test must not run
        filled = []
        row = latspec.lattice._diamond_row
        monkeypatch.setattr(latspec.lattice, "WITNESS_LIMIT", 7)
        monkeypatch.setattr(latspec.lattice, "_diamond_row", lambda L, x: filled.append(x) or row(L, x))
        with pytest.raises(SizeBoundError, match="^the witness search is limited to 7 elements$"):
            nonassociativity_witness(build_boolean(3))
        assert filled == []
        assert nonassociativity_witness(build_uniform(2, 5)) is None and filled == list(range(7))

    def test_none_on_modular_families(self, m3, fano):
        # pairwise meets/joins in modular lattices force both groupings to
        # the triple join or annihilate them together
        assert nonassociativity_witness(m3) is None
        assert nonassociativity_witness(fano) is None

    @pytest.mark.parametrize("r,q", [(2, 2), (2, 3)])
    def test_affine_lattices_break_associativity(self, r, q):
        L = build_affine(r, q)
        witness = nonassociativity_witness(L)
        assert witness is not None
        x, y, z = witness

        def dia(u, v):
            if u is ZERO or v is ZERO:
                return ZERO
            return diamond(L, u, v)

        lhs = dia(diamond(L, x, y), z)
        rhs = dia(x, diamond(L, y, z))
        assert lhs != rhs or (lhs is ZERO) != (rhs is ZERO)

    def test_equals_the_search_oracle(self, small_lattices):
        criterion_11 = [build_uniform(2, 3), build_projective(3, 2), *map(build_boolean, range(6)), build_affine(2, 2),
                        build_affine(3, 2), build_uniform(3, 4), build_uniform(4, 5)]
        sample = random.Random(24).sample(random_lattices(), 400)
        witnesses = [(nonassociativity_witness(L), nonassociativity_witness_by_search(L))
                     for L in (*small_lattices, *criterion_11, *sample)]
        assert all(found == oracle for found, oracle in witnesses)
        assert sum(oracle is not None for _, oracle in witnesses) >= 20  # both verdicts are compared

    def test_searches_past_the_table_limit(self):
        L = build_boolean(7)  # 128 elements: `diamond_table` refuses it, the search does not
        with pytest.raises(SizeBoundError):
            diamond_table(L)
        assert nonassociativity_witness(L) is None


class TestCreation:
    def test_unit_column(self, m3):
        C = creation_operator(m3, 1)
        assert column(C, 0) == {1: Fraction(1)}

    def test_atom_on_other_atom(self, m3):
        C = creation_operator(m3, 1)
        assert column(C, 2) == {m3.top: Fraction(1)}

    def test_atom_on_itself_annihilates(self, m3):
        C = creation_operator(m3, 1)
        assert column(C, 1) == {}

    def test_columns_have_at_most_one_entry(self, small_lattices):
        for L in small_lattices:
            for a in L.atoms:
                C = creation_operator(L, a)
                cols = {}
                for row, col, value in C.entries():
                    assert value == 1
                    assert col not in cols
                    cols[col] = row

    def test_rank_raising(self, small_lattices):
        for L in small_lattices:
            for a in L.atoms:
                for x in range(L.n):
                    y = diamond(L, a, x)
                    if y is not ZERO:
                        assert L.rank[y] == L.rank[x] + 1

    def test_non_atom_rejected(self, m3):
        with pytest.raises(ValueError):
            creation_operator(m3, 0)
        with pytest.raises(ValueError):
            annihilation_operator(m3, m3.top)


class TestAnnihilation:
    def test_atom_drops_to_bottom(self, m3):
        A = annihilation_operator(m3, 1)
        assert column(A, 1) == {0: Fraction(1)}

    def test_top_spreads_to_other_atoms(self, m3):
        A = annihilation_operator(m3, 1)
        assert column(A, m3.top) == {2: Fraction(1), 3: Fraction(1)}

    def test_bottom_annihilated(self, small_lattices):
        for L in small_lattices:
            for a in L.atoms:
                assert column(annihilation_operator(L, a), 0) == {}

    def test_equals_transpose_of_creation(self, small_lattices):
        for L in small_lattices:
            for a in L.atoms:
                assert annihilation_operator(L, a) == creation_operator(L, a).transpose()

    def test_cover_form_equals_the_defining_sum(self, small_lattices):
        lattices = small_lattices + [parse_lattice(random_flats_document(random.Random(seed))) for seed in range(60)]
        for L in lattices:
            for a in L.atoms:
                assert annihilation_operator(L, a) == annihilation_by_defining_sum(L, a), L.family_tag

    def test_differs_from_creation_where_an_atom_raises_rank_by_two(self):
        # hexagon 0 < 1 < 3 < 5, 0 < 2 < 4 < 5: 1 ⋄ 2 is the top, two ranks up,
        # so the creation transpose has (2, 5) and the covers do not
        L = parse_lattice({"elements": [{"id": i} for i in range(6)],
                           "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]]})
        A, C = annihilation_operator(L, 1), creation_operator(L, 1).transpose()
        assert A != C
        assert (A.entry(2, 5), C.entry(2, 5)) == (0, 1)
        assert [(r, c) for r, c, _ in C.entries() if A.entry(r, c) != 1] == [(2, 5)]
        assert A.nnz() == C.nnz() - 1


class TestHamiltonian:
    def test_b1_matrix(self, b1):
        assert dense_of(b1.n, hamiltonian(b1).entries()) == [
            [Fraction(0), HALF],
            [HALF, Fraction(0)],
        ]

    def test_m3_bottom_row(self, m3):
        H = hamiltonian(m3)
        assert [H.entry(0, j) for j in range(5)] == [0, HALF, HALF, HALF, 0]

    def test_diagonal_vanishes(self, small_lattices):
        for L in small_lattices:
            H = hamiltonian(L)
            for x in range(L.n):
                assert H.entry(x, x) == 0

    def test_bipartite_and_half_integer(self, small_lattices):
        for L in small_lattices:
            for row, col, value in hamiltonian(L).entries():
                assert abs(L.rank[row] - L.rank[col]) == 1
                assert (2 * value).denominator == 1 and value > 0

    def test_assembly_methods_agree(self, small_lattices):
        for L in small_lattices:
            assert hamiltonian(L) == _assemble(L, lowering_pairs_by_atom(L))

    def test_symmetric(self, small_lattices):
        for L in small_lattices:
            H = hamiltonian(L)
            assert H == H.transpose()

    def test_entry_formula_against_cover_weights(self, fano):
        H = hamiltonian(fano)
        for x, y in fano.covers():
            w = fano.count_atoms_below(y) - fano.count_atoms_below(x)
            assert H.entry(y, x) == Fraction(w, 2)
            assert H.entry(x, y) == Fraction(w, 2)

    def test_odd_moments_vanish(self, small_lattices):
        for L in small_lattices:
            moments = vacuum_moments_full(L, hamiltonian(L), 11)
            assert all(moments[k] == 0 for k in range(1, 12, 2))


class TestApply:
    def test_hamiltonian_on_bottom(self, m3):
        H = hamiltonian(m3)
        assert column(H, 0) == {1: HALF, 2: HALF, 3: HALF}

    def test_zero_matrix(self):
        Z = OperatorMatrix.from_entries(3, [])
        assert Z.matvec(np.array([1, 0, 5])).tolist() == [0, 0, 0]

    def test_b2_top_annihilation(self, b2):
        H = hamiltonian(b2)
        one = b2.labels.index("{1}")
        two = b2.labels.index("{2}")
        assert column(H, b2.top) == {one: HALF, two: HALF}

    def test_dimension_mismatch(self, m3):
        H = hamiltonian(m3)
        for index in (7, m3.n, -1):
            with pytest.raises(ValueError):
                H.walk(index, 1)

    def test_out_of_range_reads_raise(self, fano):
        H = hamiltonian(fano)
        assert H.dim == 16
        reads = [(16, 0), (0, 16), (-1, 0), (0, -1)]
        for row, col in reads:
            with pytest.raises(ValueError):
                H.entry(row, col)
        with pytest.raises(ValueError):
            H.walk(0, -1)


class TestOperatorMatrix:
    def test_entries_sorted_and_nonzero(self, fano):
        H = hamiltonian(fano)
        seen = list(H.entries())
        assert seen == sorted(seen, key=lambda e: (e[1], e[0]))
        assert all(v != 0 for _, _, v in seen)

    def test_duplicate_entries_merge_and_cancel(self):
        M = OperatorMatrix.from_entries(
            2, [(0, 1, Fraction(1)), (0, 1, Fraction(-1)), (1, 0, Fraction(2))]
        )
        assert M.nnz() == 1
        assert M.entry(0, 1) == 0
        assert M.entry(1, 0) == 2

    def test_document_roundtrip_format(self, m3):
        doc = hamiltonian(m3).to_document()
        assert doc["dim"] == 5
        assert all(isinstance(v, str) for _, _, v in doc["entries"])
        pairs = [(c, r) for r, c, _ in doc["entries"]]
        assert pairs == sorted(pairs)

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError):
            OperatorMatrix.from_entries(2, [(0, 5, Fraction(1))])

    def test_negative_entries_retrievable(self):
        M = OperatorMatrix.from_entries(3, [(0, 1, Fraction(-3, 2)), (2, 1, Fraction(1))])
        assert M.entry(0, 1) == Fraction(-3, 2)
        assert M.entry(2, 1) == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_hamiltonian_sums_atom_parts(data):
    lattices = [build_boolean(2), build_uniform(2, 3), build_projective(2, 2)]
    L = data.draw(st.sampled_from(lattices))
    x = data.draw(st.integers(0, L.n - 1))
    H = hamiltonian(L)
    total = {}
    for a in L.atoms:
        C = creation_operator(L, a)
        for vec in (column(C, x), column(C.transpose(), x)):
            for i, v in vec.items():
                total[i] = total.get(i, Fraction(0)) + v / 2
    assert {i: v for i, v in total.items() if v} == column(H, x)


def test_assemblies_equal_public_operator_sums(small_lattices):
    """hamiltonian(L) is (1/2) sum_a (C_a + C_a^t) over `creation_operator`
    and `_assemble` of the lowering pairs the same sum over the transposed
    `annihilation_operator`, including on the lattices where an atom raises
    rank by two and the two differ.  Each annihilation operator equals its
    cover form read through `leq`, and holds at most one entry per lower
    element x, which `run_invariant_suite`'s comparison of the pair arrays
    relies on."""

    def half_sum(L, parts):
        halves = [(r, c, HALF * v) for P in parts for M in (P, P.transpose()) for r, c, v in M.entries()]
        return OperatorMatrix.from_entries(L.n, halves)

    lattices = list(small_lattices)
    for seed in range(500):
        n, covers = random_bounded_graded_poset(random.Random(seed))
        try:
            lattices.append(FiniteLattice.from_covers(n, covers))
        except NotALatticeError:
            continue
    rank_two = 0
    for L in lattices:
        rank = np.asarray(L.rank)
        creation = [creation_operator(L, a) for a in L.atoms]
        lowering = [annihilation_operator(L, a).transpose() for a in L.atoms]
        assert lowering == [annihilation_by_leq(L, a).transpose() for a in L.atoms]
        assert hamiltonian(L) == half_sum(L, creation)
        assert _assemble(L, lowering_pairs_by_atom(L)) == half_sum(L, lowering)
        assert all(np.unique(P.cols).size == P.nnz() for P in lowering)
        rank_two += any((rank[C.rows] == rank[C.cols] + 2).any() for C in creation)
    assert len(lattices) == len(small_lattices) + 360 and rank_two == 23


def test_assemble_forms_int32_pair_keys_in_int64():
    """NumPy 2 keeps int32 times a Python int in int32 and wraps it silently
    (NEP 50); on boolean(16) the key y·n + x passes 2^31 once y > 32,767."""
    L = build_boolean(16)
    pairs = _lowering_pairs(L, 0, *_cover_arrays(L)[:2])
    assert pairs.dtype == np.int32 and int(pairs[0].max()) * L.n >= 2**31
    H = _assemble(L, [pairs])
    assert H == _assemble(L, [pairs.astype(np.int64)])
    assert H.nnz() == 2 * pairs.shape[1] and H.entry(int(pairs[0, -1]), int(pairs[1, -1])) == HALF


def _by_definition(L):
    """(1/2) sum over atoms of (L_a + L_a^t), L_a read from `diamond`."""
    return _assemble(L, [_creation_pairs(L, a) for a in L.atoms])


def test_cover_rule_equals_the_definition_on_random_lattices():
    skipping = 0
    for L in random_lattices():
        H = hamiltonian(L)
        assert H == _by_definition(L), L.to_document()
        rank = np.asarray(L.rank)
        skipping += bool((np.abs(rank[H.rows] - rank[H.cols]) > 1).any())
    # the lattices with an atom that skips a rank, read through `join`
    assert skipping == 81


@pytest.mark.parametrize(
    "build, params",
    [
        (build_projective, (6, 2)),
        (build_affine, (5, 2)),
        (build_boolean, (14,)),
        (build_boolean, (15,)),
        (build_uniform, (4, 7)),
        (build_affine, (3, 3)),
        (build_projective, (3, 31)),
        (build_product, (build_uniform(2, 3), build_boolean(1))),
    ],
)
def test_cover_rule_equals_the_definition_on_families(build, params):
    L = build(*params)
    assert hamiltonian(L) == _by_definition(L)


def test_hamiltonian_reads_no_product(monkeypatch):
    calls = []
    patched = ((latspec.lattice, "diamond"), (latspec.operators, "_diamond_row"), (latspec.operators, "_creation_pairs"))
    for module, name in patched:
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=original, name=name: calls.append(name) or f(*args))
    # in the hexagon 1 ∨ 2 is the top, two ranks above 2: the skipping branch runs
    hexagon = parse_lattice({"elements": [{"id": i} for i in range(6)],
                             "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]]})
    for L in (build_boolean(4), build_projective(3, 3), build_affine(2, 3), hexagon):
        assert hamiltonian(L).nnz() > 0
    assert calls == []
