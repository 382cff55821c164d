import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_power_entry
import latspec.product
from latspec import (
    MomentSequence,
    OperatorMatrix,
    SizeBoundError,
    boolean_closed_form,
    boolean_jacobi,
    build_boolean,
    build_product,
    convolve_measures,
    convolve_moments,
    eigendecompose,
    hamiltonian,
    kronecker_sum,
    kronecker_sum_check,
    product_law_checks,
    shuffle_entry,
    vacuum_moments_full,
)


def _moments(L, K):
    return vacuum_moments_full(L, hamiltonian(L), K)


class TestTensorIdentification:
    def test_rank_additive(self, m3, b2):
        # `build_product` gives (x1, x2) the id x1 * n2 + x2
        P = build_product(m3, b2)
        for x in range(P.n):
            x1, x2 = divmod(x, b2.n)
            assert P.rank[x] == m3.rank[x1] + b2.rank[x2]


class TestKroneckerSum:
    def test_b1_square_equals_b2_hamiltonian(self, b1, b2):
        # B1 x B1 and B2 coincide element for element, so the assembled
        # Kronecker sum must equal the directly built B2 Hamiltonian
        H1 = hamiltonian(b1)
        assembled = kronecker_sum(H1, H1)
        assert assembled == hamiltonian(build_product(b1, b1))
        assert assembled == hamiltonian(b2)

    @pytest.mark.parametrize("pair", [("b1", "b1"), ("m3", "b1"), ("b2", "b2")])
    def test_check_passes(self, pair, m3, b1, b2):
        named = {"m3": m3, "b1": b1, "b2": b2}
        assert kronecker_sum_check(named[pair[0]], named[pair[1]])

    def test_one_element_factor_is_identity(self, m3):
        b0 = build_boolean(0)
        assert kronecker_sum_check(b0, m3)
        assert kronecker_sum_check(m3, b0)


class TestShuffle:
    def test_b1_square_top_entry(self, b1):
        value = shuffle_entry(b1, b1, (0, 0), (1, 1))
        assert value == Fraction(1, 2)
        # equals the direct two-step entry of the B2 Hamiltonian
        H2 = hamiltonian(build_boolean(2))
        assert dense_power_entry(H2, 0, 3, 2) == value

    def test_equal_endpoints_give_one(self, m3, b1):
        assert shuffle_entry(m3, b1, (2, 1), (2, 1)) == 1

    def test_m3_times_b1_top(self, m3, b1):
        # d1 = 2, d2 = 1: C(3,2) * <bottom, H^2 top>_M3 * 1/2
        value = shuffle_entry(m3, b1, (0, 0), (m3.top, 1))
        H_m3 = hamiltonian(m3)
        assert value == 3 * dense_power_entry(H_m3, 0, m3.top, 2) * Fraction(1, 2)
        assert value == Fraction(9, 4)

    def test_incomparable_rejected(self, m3, b1):
        with pytest.raises(ValueError):
            shuffle_entry(m3, b1, (1, 0), (2, 1))

    @pytest.mark.parametrize("x, y", [((0, 0), (0, 99)), ((0, -1), (1, 3)), ((-1, 0), (1, 3)), ((0, 0), (2, 0))])
    def test_ids_outside_a_factor_rejected(self, b1, x, y):
        # checked before `leq`, which reads -1 as the last element
        with pytest.raises(ValueError, match="names no element"):
            shuffle_entry(b1, build_boolean(2), x, y)

    def test_product_hamiltonian_of_another_dimension_rejected(self, m3, b1):
        # boolean(1) x boolean(1) has 4 elements and m3 x boolean(1) has 10:
        # the wrong Hamiltonian gave (0, 0) -> (0, 1) the value 1/2
        with pytest.raises(ValueError, match="dimension 4 does not act on the 10 elements"):
            shuffle_entry(m3, b1, (0, 0), (0, 1), product_hamiltonian=hamiltonian(build_product(b1, b1)))

    @pytest.mark.parametrize("factors", [(1, 1), (2, 1)])
    def test_exhaustive_small_products(self, factors, m3):
        L1 = build_boolean(factors[0])
        L2 = build_boolean(factors[1])
        HP = hamiltonian(build_product(L1, L2))
        for x1 in range(L1.n):
            for y1 in range(L1.n):
                if not L1.leq(x1, y1):
                    continue
                for x2 in range(L2.n):
                    for y2 in range(L2.n):
                        if not L2.leq(x2, y2):
                            continue
                        # shuffle_entry asserts agreement with the direct entry
                        shuffle_entry(L1, L2, (x1, x2), (y1, y2), product_hamiltonian=HP)


class TestMomentConvolution:
    def test_b1_with_b1_equals_b2(self, b1, b2):
        got = convolve_moments(_moments(b1, 4), _moments(b1, 4), 4)
        assert got.values == (1, 0, Fraction(1, 2), 0, Fraction(1, 2))
        assert got.values == _moments(b2, 4).values

    def test_matches_product_lattice(self, m3, b1, b2):
        for L1, L2 in [(b1, b1), (m3, b1), (b2, b2)]:
            P = build_product(L1, L2)
            got = convolve_moments(_moments(L1, 8), _moments(L2, 8), 8)
            assert got.values == _moments(P, 8).values

    def test_delta_is_identity(self, m3):
        delta = MomentSequence((Fraction(1),) + (Fraction(0),) * 6)
        m = _moments(m3, 6)
        assert convolve_moments(m, delta, 6).values == m.values

    def test_insufficient_length(self, b1):
        with pytest.raises(ValueError):
            convolve_moments(_moments(b1, 2), _moments(b1, 8), 4)

    def test_negative_order_rejected(self, b1):
        with pytest.raises(ValueError, match="^K must be non-negative$"):
            convolve_moments(_moments(b1, 2), _moments(b1, 2), -1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=4, max_size=4),
        st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=6), min_size=4, max_size=4),
    )
    def test_commutative(self, tail1, tail2):
        m1 = MomentSequence((Fraction(1), *tail1))
        m2 = MomentSequence((Fraction(1), *tail2))
        assert convolve_moments(m1, m2, 4).values == convolve_moments(m2, m1, 4).values


class TestMeasureConvolution:
    def test_b1_squared(self):
        mu = eigendecompose(boolean_jacobi(1))
        got = convolve_measures(mu, mu)
        expected = [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]
        assert len(got.atoms) == 3
        for (l1, w1), (l2, w2) in zip(got.atoms, expected):
            assert abs(l1 - l2) < 1e-12 and abs(w1 - w2) < 1e-12

    def test_delta_is_identity(self, m3):
        from latspec import SpectralMeasure, jacobi_from_compression

        mu = eigendecompose(jacobi_from_compression(m3))
        delta = SpectralMeasure(((0.0, 1.0),))
        got = convolve_measures(mu, delta)
        for (l1, w1), (l2, w2) in zip(got.atoms, mu.atoms):
            assert abs(l1 - l2) < 1e-12 and abs(w1 - w2) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_iterated_b1_recovers_binomial_family(self, n):
        mu = eigendecompose(boolean_jacobi(1))
        acc = mu
        for _ in range(n - 1):
            acc = convolve_measures(acc, mu)
        expected = boolean_closed_form(n)
        assert len(acc.atoms) == n + 1
        for (l1, w1), (l2, w2) in zip(acc.atoms, expected.atoms):
            assert abs(l1 - l2) <= 1e-9
            assert abs(w1 - w2) <= 1e-9

    def test_moments_match_convolved_moments(self, m3, b2):
        from latspec import jacobi_from_compression

        J1 = jacobi_from_compression(m3)
        J2 = jacobi_from_compression(b2)
        mu = convolve_measures(eigendecompose(J1), eigendecompose(J2))
        from latspec import vacuum_moments_radial

        m1 = vacuum_moments_radial(J1, 8)
        m2 = vacuum_moments_radial(J2, 8)
        conv = convolve_moments(m1, m2, 8)
        for k in range(9):
            assert abs(mu.moment(k) - float(conv[k])) < 1e-8

    def test_merges_colliding_atoms(self):
        # integer spectra collide: the 3-atom measure squared has 5 atoms
        mu = boolean_closed_form(2)
        got = convolve_measures(mu, mu)
        assert len(got.atoms) == 5
        assert abs(got.moment(0) - 1.0) < 1e-12


class TestProductLawChecks:
    def test_all_laws_hold(self, m3, b1, b2, fano):
        b0 = build_boolean(0)  # Hamiltonian denominator 1 against 2
        for L1, L2 in [(b1, b1), (m3, b1), (b2, b2), (fano, b2), (b0, fano), (m3, b0)]:
            assert product_law_checks(L1, L2, 8) == (True, True, True)

    def test_doubled_product_hamiltonian_fails_every_law(self, m3, b1, monkeypatch):
        real = latspec.product.hamiltonian

        def doubled_on_product(L):
            H = real(L)
            if not L.family_tag.startswith("product("):
                return H
            return OperatorMatrix(H.dim, H.rows, H.cols, 2 * H.nums, H.denom)

        monkeypatch.setattr(latspec.product, "hamiltonian", doubled_on_product)
        assert product_law_checks(m3, b1, 8) == (False, False, False)

    @pytest.mark.parametrize("drop", [None, 7, -1], ids=["doubled", "eighth-dropped", "last-dropped"])
    def test_kronecker_mismatch_warning_names_the_first_differing_entry(self, drop, m3, b1, monkeypatch, caplog):
        # doubled, the product Hamiltonian first differs at its first entry, by
        # that entry; with an entry dropped, the direct list runs ahead (or
        # ends) there, and direct minus assembled is minus that entry
        real = latspec.product.hamiltonian

        def corrupt_on_product(L):
            H = real(L)
            if not L.family_tag.startswith("product("):
                return H
            if drop is None:
                return OperatorMatrix(H.dim, H.rows, H.cols, 2 * H.nums, H.denom)
            return OperatorMatrix(H.dim, *(np.delete(a, drop) for a in (H.rows, H.cols, H.nums)), H.denom)

        monkeypatch.setattr(latspec.product, "hamiltonian", corrupt_on_product)
        with caplog.at_level(logging.WARNING, logger="latspec.product"):
            assert not product_law_checks(m3, b1, 8)[0]
        row, col, value = list(real(build_product(m3, b1)).entries())[drop or 0]
        want = f"Kronecker sum mismatch at {(row, col)}: direct minus assembled is {value if drop is None else -value}"
        kronecker = [(r.name, r.levelno, r.getMessage()) for r in caplog.records if "Kronecker" in r.getMessage()]
        assert kronecker == [("latspec.product", logging.WARNING, want)]

    @pytest.mark.parametrize("drop", [None, 18, -1], ids=["doubled", "lowering-dropped", "last-dropped"])
    def test_shuffle_warning_names_the_first_failing_pair(self, drop, m3, b1, monkeypatch, caplog):
        # entry 18 of H on m3 x b1 lowers (2, 1) to (2, 0), so the first pair
        # to fail is (0, 0) -> (2, 1), where one of two minimal walks is lost;
        # the expected pair is the first one, with y and then x ascending,
        # on which `shuffle_entry` raises against the corrupted Hamiltonian
        real = latspec.product.hamiltonian
        H = real(build_product(m3, b1))
        if drop is None:
            corrupt = OperatorMatrix(H.dim, H.rows, H.cols, 2 * H.nums, H.denom)
        else:
            corrupt = OperatorMatrix(H.dim, *(np.delete(a, drop) for a in (H.rows, H.cols, H.nums)), H.denom)

        def fails(x, y):
            if not (m3.leq(x[0], y[0]) and b1.leq(x[1], y[1])):
                return False
            if m3.rank[y[0]] + b1.rank[y[1]] - m3.rank[x[0]] - b1.rank[x[1]] > latspec.product.SHUFFLE_MAX_POWER:
                return False
            try:
                shuffle_entry(m3, b1, x, y, product_hamiltonian=corrupt)
            except AssertionError:
                return True
            return False

        ids = [(e1, e2) for e1 in range(m3.n) for e2 in range(b1.n)]
        x, y = next((x, y) for y in ids for x in ids if fails(x, y))
        monkeypatch.setattr(latspec.product, "hamiltonian", lambda L: corrupt if L.n == H.dim else real(L))
        with caplog.at_level(logging.WARNING, logger="latspec.product"):
            assert not product_law_checks(m3, b1, 8)[1]
        shuffle = [(r.name, r.levelno, r.getMessage()) for r in caplog.records if "shuffle" in r.getMessage()]
        assert shuffle == [("latspec.product", logging.WARNING, f"shuffle formula fails for {x} -> {y}")]
        if drop == 18:
            assert (x, y) == ((0, 0), (2, 1))

    def test_shuffle_compares_every_pair_up_to_the_max_power_in_order(self, fano, b2, monkeypatch):
        # fano x b2 has rank 5, so pairs at gaps 0 to SHUFFLE_MAX_POWER = 4 are
        # compared, y and then x ascending, and the bottom-to-top pair is not
        real = latspec.product._shuffle_holds
        calls = []

        def recording(d, d1, *rest):
            calls.append((d, d1))
            return real(d, d1, *rest)

        monkeypatch.setattr(latspec.product, "_shuffle_holds", recording)
        assert product_law_checks(fano, b2, 2)[1]
        ids = [(e1, e2) for e1 in range(fano.n) for e2 in range(b2.n)]
        want = []
        for y1, y2 in ids:
            for x1, x2 in ids:
                d1, d2 = fano.rank[y1] - fano.rank[x1], b2.rank[y2] - b2.rank[x2]
                if fano.leq(x1, y1) and b2.leq(x2, y2) and d1 + d2 <= latspec.product.SHUFFLE_MAX_POWER:
                    want.append((d1 + d2, d1))
        assert calls == want and max(want) == (4, 3)

    def test_builds_each_hamiltonian_once(self, fano, b2, monkeypatch):
        real = latspec.product.hamiltonian
        built = []

        def counting(L):
            built.append(L.family_tag)
            return real(L)

        monkeypatch.setattr(latspec.product, "hamiltonian", counting)
        product_law_checks(fano, b2, 6)
        assert sorted(built) == sorted(["projective(3,2)", "boolean(2)", "product(projective(3,2),boolean(2))"])

    def test_negative_order_rejected_before_any_hamiltonian_is_built(self, b2, monkeypatch):
        def unexpected(L):
            raise AssertionError(f"built the Hamiltonian of {L.family_tag}")

        monkeypatch.setattr(latspec.product, "hamiltonian", unexpected)
        with pytest.raises(ValueError, match="^K must be non-negative$"):
            product_law_checks(b2, b2, -1)

    def test_cap_applies_before_any_hamiltonian_is_built(self, b2, monkeypatch):
        def unexpected(L):
            raise AssertionError(f"built the Hamiltonian of {L.family_tag}")

        monkeypatch.setattr(latspec.product, "hamiltonian", unexpected)
        with pytest.raises(SizeBoundError):
            product_law_checks(b2, b2, 4, cap=10)
