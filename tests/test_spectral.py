import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import det_by_matchings, walk_moment_bruteforce
from latspec import (
    MomentSequence,
    RationalFunction,
    RationalPolynomial,
    SpectralMeasure,
    affine_jacobi,
    boolean_closed_form,
    boolean_jacobi,
    build_affine,
    build_boolean,
    build_projective,
    determinant_polynomials,
    eigendecompose,
    hamiltonian,
    jacobi_from_compression,
    jacobi_from_formula,
    parse_lattice,
    projective_jacobi,
    q_int,
    reduced_resolvent,
    resolvent,
    vacuum_moments_full,
    vacuum_moments_radial,
)

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)
small_polys = st.lists(fractions_st, max_size=6).map(RationalPolynomial)
beta_sq_lists = st.lists(
    st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8),
    min_size=1,
    max_size=6,
).map(tuple)
beta_sq_with_zeros = st.lists(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)),
    max_size=7,
).map(tuple)


def _poly(*coeffs) -> RationalPolynomial:
    return RationalPolynomial([Fraction(c) for c in coeffs])


def _jacobi_of(beta_sq):
    from latspec import JacobiData, RankLayers

    r = len(beta_sq)
    return JacobiData(tuple(beta_sq), (1,) * r, RankLayers((1,) * (r + 1)))


class TestRationalPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert _poly(1, 0, 0).coeffs == (Fraction(1),)
        assert _poly(0, 0).coeffs == ()
        assert _poly().is_zero()

    def test_evaluation(self):
        p = _poly(1, 2, 3)
        assert p(Fraction(2)) == 1 + 4 + 12

    @settings(max_examples=80, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == RationalPolynomial()


class TestDeterminants:
    def test_boolean_displays(self):
        # leading determinant polynomials of the first three subset lattices
        expected = {
            1: _poly(1, 0, Fraction(-1, 4)),
            2: _poly(1, 0, -1),
            3: _poly(1, 0, Fraction(-5, 2), 0, Fraction(9, 16)),
        }
        for n, poly in expected.items():
            D = determinant_polynomials(boolean_jacobi(n))
            assert D[n + 1] == poly

    def test_boundary_values(self):
        D = determinant_polynomials(boolean_jacobi(0))
        assert D == (_poly(1), _poly(1))

    def test_m3_leading_minors(self, m3):
        D = determinant_polynomials(jacobi_from_formula(m3))
        assert D[2] == _poly(1, 0, Fraction(-3, 4))
        assert D[3] == _poly(1, 0, Fraction(-15, 4))

    def test_even_polynomials_of_full_degree(self, small_lattices):
        for L in small_lattices:
            D = determinant_polynomials(jacobi_from_formula(L))
            for k, poly in enumerate(D[1:]):  # D_0 .. D_r, sizes 1 .. r+1
                assert all(poly.coefficient(i) == 0 for i in range(1, poly.degree + 1, 2))
                assert poly.degree == 2 * ((k + 1) // 2)

    @settings(max_examples=50, deadline=None)
    @given(beta_sq_lists)
    def test_recurrence_matches_matching_expansion(self, beta_sq):
        D = determinant_polynomials(_jacobi_of(beta_sq))
        for k in range(len(beta_sq) + 1):
            assert D[k + 1] == det_by_matchings(beta_sq, k + 1)


class TestResolvent:
    def test_m3_value(self, m3):
        G = resolvent(jacobi_from_formula(m3))
        assert G.denominator == _poly(1, 0, Fraction(-15, 4))
        assert G.numerator == _poly(1, 0, -3)

    def test_b1_value(self, b1):
        G = resolvent(jacobi_from_compression(b1))
        assert G.numerator == _poly(1)
        assert G.denominator == _poly(1, 0, Fraction(-1, 4))

    def test_m3_series(self, m3):
        G = resolvent(jacobi_from_formula(m3))
        assert G.series(4) == (1, 0, Fraction(3, 4), 0, Fraction(45, 16))

    def test_rank_zero_is_constant_one(self):
        G = resolvent(boolean_jacobi(0))
        assert G.numerator == _poly(1) and G.denominator == _poly(1)

    def test_normalized_at_zero(self, small_lattices):
        for L in small_lattices:
            G = resolvent(jacobi_from_formula(L))
            assert G.denominator.coefficient(0) == 1
            assert G(Fraction(0)) == 1

    def test_duality_with_radial_moments(self, small_lattices):
        for L in small_lattices:
            J = jacobi_from_formula(L)
            G = resolvent(J)
            order = 2 * J.r
            assert G.series(order) == vacuum_moments_radial(J, order).values, L.family_tag

    def test_denominator_must_be_one_at_zero(self):
        with pytest.raises(ValueError):
            RationalFunction(_poly(1), _poly(2, 1))


class TestReducedResolvent:
    @settings(max_examples=150, deadline=None)
    @given(beta_sq_with_zeros)
    def test_cut_at_the_first_zero_is_the_same_function_in_lowest_terms(self, beta_sq):
        J = _jacobi_of(beta_sq)
        G, reduced = resolvent(J), reduced_resolvent(J)
        assert reduced == G  # cross-multiplied equality
        j = beta_sq.index(0) if 0 in beta_sq else J.r
        # J_j and J_j' have simple spectra symmetric about 0, so their
        # determinants det(I - tA) count the nonzero eigenvalues
        assert reduced.denominator.degree == 2 * ((j + 1) // 2)
        assert reduced.numerator.degree == 2 * (j // 2)
        if j == J.r:
            assert (reduced.numerator, reduced.denominator) == (G.numerator, G.denominator)

    def test_hexagon_keeps_the_first_level(self):
        # two chains of length 3 glued at their ends: the middle covers gain
        # no atom, so beta_1 = 0 and only the bottom block is seen
        L = parse_lattice({
            "elements": [{"id": i} for i in range(6)],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]],
        })
        J = jacobi_from_compression(L)
        assert J.beta_sq == (Fraction(1, 2), 0, Fraction(1, 2))
        G = reduced_resolvent(J)
        assert (G.numerator, G.denominator) == (_poly(1), _poly(1, 0, Fraction(-1, 2)))
        assert resolvent(J).denominator == _poly(1, 0, Fraction(-1, 2)) * _poly(1, 0, Fraction(-1, 2))


class TestMoments:
    def test_m3_full(self, m3):
        H = hamiltonian(m3)
        moments = vacuum_moments_full(m3, H, 4)
        assert moments.values == (1, 0, Fraction(3, 4), 0, Fraction(45, 16))

    def test_m3_radial_against_walk_enumeration(self, m3):
        J = jacobi_from_formula(m3)
        got = vacuum_moments_radial(J, 8)
        for k in range(9):
            assert got[k] == walk_moment_bruteforce(J.beta_sq, k)

    def test_b1_radial(self):
        got = vacuum_moments_radial(boolean_jacobi(1), 4)
        assert got.values == (1, 0, Fraction(1, 4), 0, Fraction(1, 16))

    @settings(max_examples=50, deadline=None)
    @given(beta_sq_lists, st.integers(0, 8))
    def test_radial_matches_walk_oracle(self, beta_sq, K):
        J = _jacobi_of(beta_sq)
        assert vacuum_moments_radial(J, K)[K] == walk_moment_bruteforce(beta_sq, K)

    def test_full_equals_radial_when_invariant(self, small_lattices):
        from latspec import radial_invariance

        for L in small_lattices:
            H = hamiltonian(L)
            if radial_invariance(L, H).invariant:
                full = vacuum_moments_full(L, H, 10)
                rad = vacuum_moments_radial(jacobi_from_compression(L, H), 10)
                assert full.values == rad.values, L.family_tag

    def test_moment_zero_is_one(self, m3):
        assert vacuum_moments_full(m3, hamiltonian(m3), 0).values == (1,)
        with pytest.raises(ValueError):
            vacuum_moments_full(m3, hamiltonian(m3), -1)

    def test_sequence_requires_unit_start(self):
        with pytest.raises(ValueError):
            MomentSequence((Fraction(2),))


class TestEigendecompose:
    @pytest.mark.parametrize("n", range(13))
    def test_boolean_matches_closed_form(self, n):
        got = eigendecompose(boolean_jacobi(n))
        expected = boolean_closed_form(n)
        assert len(got.atoms) == n + 1
        for (l1, w1), (l2, w2) in zip(got.atoms, expected.atoms):
            assert abs(l1 - l2) <= 1e-10
            assert abs(w1 - w2) <= 1e-10

    def test_b1_pair(self):
        got = eigendecompose(boolean_jacobi(1))
        assert got.atoms[0][0] == pytest.approx(-0.5)
        assert got.atoms[1][0] == pytest.approx(0.5)
        assert got.atoms[0][1] == pytest.approx(0.5)

    def test_m3_spectrum(self, m3):
        got = eigendecompose(jacobi_from_formula(m3))
        lam = math.sqrt(15) / 2
        assert [a[0] for a in got.atoms] == pytest.approx([-lam, 0.0, lam], abs=1e-12)
        assert [a[1] for a in got.atoms] == pytest.approx([0.1, 0.8, 0.1], abs=1e-12)

    def test_rank_zero(self):
        assert eigendecompose(boolean_jacobi(0)).atoms == ((0.0, 1.0),)

    def test_measure_moments_match_radial(self, small_lattices):
        for L in small_lattices:
            J = jacobi_from_compression(L)
            measure = eigendecompose(J)
            rad = vacuum_moments_radial(J, 10)
            for k in range(11):
                assert abs(measure.moment(k) - float(rad[k])) < 1e-8


class TestClosedForms:
    def test_boolean_measure_small(self):
        assert boolean_closed_form(0).atoms == ((0.0, 1.0),)
        n2 = boolean_closed_form(2)
        assert n2.atoms == ((-1.0, 0.25), (0.0, 0.5), (1.0, 0.25))
        n3 = boolean_closed_form(3)
        assert [a[0] for a in n3.atoms] == [-1.5, -0.5, 0.5, 1.5]
        assert [a[1] for a in n3.atoms] == [0.125, 0.375, 0.375, 0.125]

    def test_beta_boolean(self):
        J = boolean_jacobi(4)
        assert J.beta_sq[1] == Fraction(3, 2)
        assert J.beta[1] == pytest.approx(math.sqrt(6) / 2)

    def test_beta_projective(self):
        J = projective_jacobi(3, 2)
        assert J.beta_sq[1] == 9 and J.beta[1] == 3.0
        for r, q in [(2, 2), (4, 2), (3, 3)]:
            assert projective_jacobi(r, q).beta_sq[0] == Fraction(q_int(r, q), 4)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boolean_jacobi_matches_lattice(self, n):
        assert boolean_jacobi(n) == jacobi_from_compression(build_boolean(n))

    @pytest.mark.parametrize("r,q", [(2, 2), (3, 2), (2, 3)])
    def test_projective_jacobi_matches_lattice(self, r, q):
        assert projective_jacobi(r, q) == jacobi_from_compression(build_projective(r, q))

    @pytest.mark.parametrize("r,q", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_affine_jacobi_matches_lattice(self, r, q):
        assert affine_jacobi(r, q) == jacobi_from_compression(build_affine(r, q))


class TestSpectralMeasure:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((-1.0, 0.5), (1.0, 0.2)))

    def test_centering_enforced(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((1.0, 1.0),))

    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            SpectralMeasure(((1.0, 0.5), (-1.0, 0.5)))

    @pytest.mark.parametrize(
        "atoms",
        [
            # every epsilon comparison is False on NaN, and the mean of ±inf is NaN
            ((0.0, math.nan),),
            ((math.nan, 1.0),),
            ((-math.inf, 0.5), (math.inf, 0.5)),
            ((0.0, math.inf),),
        ],
    )
    def test_non_finite_rejected(self, atoms):
        with pytest.raises(ValueError, match="must be finite"):
            SpectralMeasure(atoms)

    def test_document_roundtrip(self):
        mu = boolean_closed_form(3)
        again = SpectralMeasure.from_document(mu.to_document())
        assert again == mu
