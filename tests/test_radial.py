import random
from fractions import Fraction
from math import comb

import pytest

from helpers import lowering_pairs_by_atom, random_bounded_graded_poset, random_flats_document, traced_peak
from latspec import (
    FiniteLattice,
    JacobiData,
    NotALatticeError,
    RankLayers,
    affine_jacobi,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    cover_weight_sums,
    hamiltonian,
    jacobi_from_compression,
    jacobi_from_formula,
    parse_lattice,
    radial_invariance,
    q_int,
)


def affine_beta_sq(r: int, q: int, k: int) -> Fraction:
    """beta_k^2 of affine(r, q): q^r / 4 at the adjoined-bottom level k = 0,
    and (q-1)^2 q^(2k-1) [k]_q [r-k+1]_q / 4 for the flat-to-flat levels
    1 <= k <= r."""
    if k == 0:
        return Fraction(q**r, 4)
    return Fraction((q - 1) ** 2 * q ** (2 * k - 1) * q_int(k, q) * q_int(r - k + 1, q), 4)


class TestRankLayers:
    def test_m3(self, m3):
        assert RankLayers(m3.layer_sizes()).sizes == (1, 3, 1)

    def test_boolean(self):
        assert RankLayers(build_boolean(4).layer_sizes()).sizes == (1, 4, 6, 4, 1)

    def test_fano(self, fano):
        assert RankLayers(fano.layer_sizes()).sizes == (1, 7, 7, 1)

    def test_totals(self, small_lattices):
        for L in small_lattices:
            layers = RankLayers(L.layer_sizes())
            assert sum(layers.sizes) == L.n
            assert layers[0] == 1 and layers[layers.r] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RankLayers(())


class TestCoverWeights:
    def test_m3(self, m3):
        assert cover_weight_sums(m3) == (3, 6)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boolean_formula(self, n):
        # every cover gains exactly one atom
        W = cover_weight_sums(build_boolean(n))
        assert W == tuple(comb(n, k) * (n - k) for k in range(n))

    def test_fano(self, fano):
        assert cover_weight_sums(fano) == (7, 42, 28)

    def test_two_summation_orders_agree(self, small_lattices):
        for L in small_lattices:
            by_level = sum(cover_weight_sums(L))
            by_cover = sum(
                L.count_atoms_below(y) - L.count_atoms_below(x) for x, y in L.covers()
            )
            assert by_level == by_cover

    def test_equal_the_lowering_pairs_counted_by_rank(self, small_lattices):
        # the oracle: every atom's lowering pairs (y, x), counted at rank(x)
        lattices = [*small_lattices, build_projective(3, 5), build_projective(3, 7), build_affine(2, 5)]
        for seed in range(1500):
            try:
                lattices.append(FiniteLattice.from_covers(*random_bounded_graded_poset(random.Random(seed))))
            except NotALatticeError:
                pass
        lattices += [parse_lattice(random_flats_document(random.Random(seed))) for seed in range(60)]
        assert len(lattices) == 1152
        for L in lattices:
            W = [0] * L.top_rank
            for _, lower in lowering_pairs_by_atom(L):
                for x in lower.tolist():
                    W[L.rank[x]] += 1
            assert cover_weight_sums(L) == tuple(W), list(L.covers())

    def test_hold_less_than_one_int64_array_of_the_covers(self):
        """W_k is summed from per-element counts, so the formula side holds
        no cover-sized array."""
        L = build_boolean(12)
        _, peak = traced_peak(jacobi_from_formula, L)
        assert peak < 8 * sum(map(len, L.covers_up))


class TestJacobiFormula:
    def test_m3_coefficients(self, m3):
        J = jacobi_from_formula(m3)
        assert J.beta_sq == (Fraction(3, 4), Fraction(3))
        assert J.W == (3, 6)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boolean_law(self, n):
        J = jacobi_from_formula(build_boolean(n))
        for k in range(n):
            assert J.beta_sq[k] == Fraction((k + 1) * (n - k), 4)

    @pytest.mark.parametrize("r,q", [(2, 2), (3, 2), (2, 3)])
    def test_projective_law(self, r, q):
        J = jacobi_from_formula(build_projective(r, q))
        for k in range(r):
            assert J.beta_sq[k] == Fraction(q ** (2 * k) * q_int(k + 1, q) * q_int(r - k, q), 4)

    def test_rank_zero_lattice_is_empty(self):
        J = jacobi_from_formula(build_boolean(0))
        assert J.r == 0
        assert J.beta_sq == () and J.W == ()

    def test_beta_floats_are_roots(self, m3):
        J = jacobi_from_formula(m3)
        for b, bsq in zip(J.beta, J.beta_sq):
            assert abs(b * b - float(bsq)) < 1e-12


class TestJacobiCompression:
    def test_matches_formula_exactly(self, small_lattices):
        for L in small_lattices:
            Jf = jacobi_from_formula(L)
            Jc = jacobi_from_compression(L)
            assert Jf.beta_sq == Jc.beta_sq, L.family_tag
            assert Jf.W == Jc.W, L.family_tag
            assert Jf.layers == Jc.layers

    def test_b1_single_coefficient(self, b1):
        J = jacobi_from_compression(b1)
        assert J.beta_sq == (Fraction(1, 4),)

    def test_matches_formula_on_random_flats_lattices(self):
        for seed in range(8):
            doc = random_flats_document(random.Random(seed))
            L = parse_lattice(doc)
            assert L.validation.passed()
            assert jacobi_from_formula(L).beta_sq == jacobi_from_compression(L).beta_sq

    def test_affine_ground_truth_vs_closed_form(self):
        for r, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
            expected = tuple(affine_beta_sq(r, q, k) for k in range(r + 1))
            J = jacobi_from_compression(build_affine(r, q))
            assert J.r == r + 1
            assert J.beta_sq == expected, (r, q)
            assert affine_jacobi(r, q).beta_sq == expected, (r, q)


class TestJacobiData:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            JacobiData((Fraction(1),), (1, 1), RankLayers((1, 2, 1)))
        for W in ([2], [2, 2, 2]):  # W shorter, then longer, than the two layer pairs
            with pytest.raises(ValueError, match="^expected one coefficient per adjacent layer pair$"):
                JacobiData.from_weights([1, 2, 1], W)

    def test_negative_beta_sq_rejected(self):
        with pytest.raises(ValueError):
            JacobiData((Fraction(-1),), (1,), RankLayers((1, 1)))


class TestInvariance:
    @pytest.mark.parametrize("n", range(7))
    def test_boolean_invariant(self, n):
        assert radial_invariance(build_boolean(n)).invariant

    @pytest.mark.parametrize("r,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_projective_invariant(self, r, q):
        assert radial_invariance(build_projective(r, q)).invariant

    def test_m3_invariant(self, m3):
        report = radial_invariance(m3)
        assert report.invariant
        assert report.failing_level is None
        assert report.residual_support == ()

    def test_products_mix_layer_coefficients(self, m3, b1, b2):
        # Boolean x Boolean stays layer-transitive, but M3 x B2 does not:
        # the rank-2 image coefficient is 3 on (top, bottom) and 1 on
        # (atom, atom) pairs, so invariance is lost under products
        assert radial_invariance(build_product(b2, b2)).invariant
        report = radial_invariance(build_product(m3, b2))
        assert not report.invariant
        assert report.failing_level == 1

    def test_mixed_line_lengths_break_invariance(self):
        # flats of the points {e1, e2, e3, e1+e2} in F_2^3: the rank-2 layer
        # mixes one three-point line with three two-point lines, so the
        # image of the atom layer sum is not constant on it
        doc = {
            "elements": [{"id": i, "label": str(i)} for i in range(10)],
            "covers": [
                [0, 1], [0, 2], [0, 3], [0, 4],
                [1, 5], [2, 5], [3, 5],          # {e1, e2, e1+e2}
                [1, 6], [4, 6],                  # {e1, e3}
                [2, 7], [4, 7],                  # {e2, e3}
                [3, 8], [4, 8],                  # {e1+e2, e3}
                [5, 9], [6, 9], [7, 9], [8, 9],
            ],
        }
        L = parse_lattice(doc)
        assert L.validation.passed()
        report = radial_invariance(L)
        assert not report.invariant
        assert report.failing_level == 1
        assert report.residual_support
        # compression is still well-defined and matches the formula
        assert jacobi_from_formula(L).beta_sq == jacobi_from_compression(L).beta_sq

    def test_compression_diagonal_is_zero(self, small_lattices):
        for L in small_lattices:
            jacobi_from_compression(L, hamiltonian(L))  # raises on nonzero diagonal
