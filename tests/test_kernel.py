"""The integer kernel of OperatorMatrix: H = N / denom with N an integer
array that switches from int64 to Python ints before any product or sum
can overflow.  Values are checked against dense `Fraction` arithmetic,
the radial moments or the closed forms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_matmul, dense_of, operator_arrays_by_unique, random_flats_document, traced_peak
from latspec import (
    OperatorMatrix,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    hamiltonian,
    jacobi_from_compression,
    parse_lattice,
    projective_jacobi,
    radial_invariance,
    resolvent,
    vacuum_moments_full,
    vacuum_moments_radial,
)
from latspec.operators import _MATVEC_SLICE


def dense_apply(dense: list[list[Fraction]], vec) -> list[Fraction]:
    return [sum((row[j] * c for j, c in enumerate(vec)), Fraction(0)) for row in dense]


def applied(M: OperatorMatrix, v: np.ndarray, times: int = 1) -> list[Fraction]:
    """M^times v for an integer array v, through `matvec`: N^times v / denom^times."""
    for _ in range(times):
        v = M.matvec(v)
    return [Fraction(int(x), M.denom**times) for x in v]


class TestStoredForm:
    def test_hamiltonian_is_twice_h_over_two(self, fano):
        H = hamiltonian(fano)
        assert H.denom == 2
        assert H.nums.dtype == np.int64
        for (row, col, value), num in zip(H.entries(), H.nums.tolist()):
            assert value == Fraction(num, 2)

    def test_integer_matrix_has_denominator_one(self, b2):
        H = hamiltonian(b2)
        twice = OperatorMatrix(b2.n, H.rows, H.cols, H.nums)  # 2H = N / 1
        assert twice.denom == 1
        assert twice == OperatorMatrix.from_entries(b2.n, [(r, c, 2 * v) for r, c, v in H.entries()])

    def test_equality_is_structural_across_common_factors(self):
        A = OperatorMatrix.from_entries(2, [(0, 1, Fraction(2, 6)), (1, 0, Fraction(4, 6))])
        B = OperatorMatrix.from_entries(2, [(0, 1, Fraction(1, 3)), (1, 0, Fraction(2, 3))])
        assert A == B
        assert (A.denom, A.nums.tolist()) == (3, [2, 1])

    def test_wide_entries_fall_back_to_python_ints_and_back(self):
        big = Fraction(2**70)
        M = OperatorMatrix.from_entries(2, [(0, 1, big), (1, 0, 3 * big)])
        assert M.nums.dtype == object
        assert M.entry(1, 0) == 3 * big
        narrow = OperatorMatrix(2, M.rows, M.cols, M.nums, 2**70)  # the gcd 2^70 is divided out
        assert narrow == OperatorMatrix.from_entries(2, [(0, 1, 1), (1, 0, 3)])
        assert narrow.nums.dtype == np.int64
        assert OperatorMatrix(2, M.rows, M.cols, M.nums * 0) == OperatorMatrix.from_entries(2, [])


class TestConstructorRejectsInexactInput:
    """The constructor stores integers exactly or refuses them: rationals go
    through `from_entries`, and denom >= 1 keeps the stored form canonical."""

    @pytest.mark.parametrize("rows, cols, nums, denom", [
        ([0], [1], [Fraction(1, 2)], 1),
        ([0], [1], [0.5], 1),
        ([0], [1], [Fraction(3, 2)], 1),
        ([0], [1], [1.9], 1),
        ([0.7], [1], [1], 1),
        ([0], [1], [1], -2),
        ([0], [1], [1], 0),
    ], ids=["half-fraction", "half-float", "three-halves", "float-1.9", "float-row", "negative-denom", "zero-denom"])
    def test_rejected(self, rows, cols, nums, denom):
        with pytest.raises(ValueError):
            OperatorMatrix(2, rows, cols, nums, denom)

    def test_integer_inputs_are_kept(self):
        want = OperatorMatrix.from_entries(2, [(0, 1, Fraction(3, 2)), (1, 0, Fraction(2**70, 2))])
        wide = np.array([3, 2**70], dtype=object)
        assert OperatorMatrix(2, np.array([0, 1], np.int32), [1, np.int64(0)], wide, 2) == want
        assert OperatorMatrix(2, [], [], []) == OperatorMatrix.from_entries(2, [])

    @pytest.mark.parametrize("vec", [
        np.array([0.0, 0.5]),
        np.array([1.0, 2.0]),
        np.array([0, Fraction(1, 2)], dtype=object),
    ], ids=["half-float", "integral-float", "fraction-object"])
    def test_matvec_rejects_a_vector_that_is_not_integer(self, vec):
        # a float vector was cast to int64, so [0.0, 0.5] was applied as [0, 0]
        with pytest.raises(ValueError, match="^vector entries must be integers$"):
            OperatorMatrix(2, [0], [1], [1]).matvec(vec)


class TestShapesAreChecked:
    """The entry arrays must be 1-D and of one length, and a vector must have
    shape (dim,): a short `cols` was broadcast, a long `nums` lost its tail,
    and `matvec` read a long vector's prefix."""

    @pytest.mark.parametrize("rows, cols, nums", [
        ([0, 1], [0], [1, 1]),
        ([0, 1], [0, 1], [1, 1, 5]),
    ], ids=["short-cols", "long-nums"])
    def test_constructor_rejects_unequal_lengths(self, rows, cols, nums):
        with pytest.raises(ValueError, match="must be 1-D of one length"):
            OperatorMatrix(3, rows, cols, nums)

    @pytest.mark.parametrize("vec", [np.array([1, 2, 3]), np.array([1])], ids=["long", "short"])
    def test_matvec_rejects_a_vector_of_another_dim(self, vec):
        with pytest.raises(ValueError, match=f"^a vector of shape \\({len(vec)},\\) does not match dim 2$"):
            OperatorMatrix(2, [0, 1], [1, 0], [1, 1]).matvec(vec)


class TestConstructorAgainstUniqueOracle:
    """One argsort (none for equal numerators), an in-place key sort and
    `np.add.reduceat` store exactly the arrays, dtypes and row bound that
    `np.unique` and `np.add.at` stored."""

    @staticmethod
    def assert_oracle(*args, M=None):
        M = OperatorMatrix(*args) if M is None else M
        rows, cols, nums, denom, row_bound = operator_arrays_by_unique(*args)
        for got, want in ((M.rows, rows), (M.cols, cols), (M.nums, nums)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (M.denom, M._row_bound) == (denom, row_bound)

    @pytest.mark.parametrize("args", [
        (3, [0, 0, 1, 2], [1, 1, 2, 0], [2, -2, 5, 4], 2),  # a pair that cancels, and a common factor
        (2, [0, 0, 1, 1], [1, 1, 0, 0], [1, -1, 3, -3], 1),  # every sum cancels
        (2, [0, 1, 0], [1, 0, 1], np.array([-(2**70), 3, -(2**70)], dtype=object), 4),
        (2, [0, 0], [1, 1], np.array([2**62, 2**62]), 1),  # an int64 sum past int64
        (3, np.array([2, 0, 2], np.int32), np.array([1, 1, 1], np.int32), [7, 7, -7], 7),
        (1, [0, 0, 0], [0, 0, 0], [1, 2, 3], 6),
        (4, [], [], [], 3),
        # equal numerators skip the argsort; a run of k equal keys sums to k times the numerator
        (3, [2, 0, 2, 1, 0], [1, 1, 1, 0, 1], [5, 5, 5, 5, 5], 2),
        (2, [0, 0, 1], [1, 1, 0], np.array([-(2**62)] * 3), 3),  # a sum of magnitude 2^63
        (2, [1, 1], [0, 0], np.array([2**70, 2**70], dtype=object), 1),
        (4, np.array([3, 3, 0], np.int32), np.array([2, 2, 1], np.int32), np.ones(3, np.int8), 2),
    ], ids=["cancelling-pair", "all-cancel", "wide-negative", "sum-past-int64", "int32", "dim-1", "empty",
            "equal-repeats", "equal-sum-2-to-63", "equal-wide", "equal-int8"])
    def test_cases(self, args):
        self.assert_oracle(*args)

    def test_seeded_random_inputs(self):
        rng = random.Random(2025)
        for _ in range(400):
            dim, m = rng.choice([1, 2, 3, 5, 8]), rng.choice([0, 1, 2, 5, 12, 30])
            index = rng.choice([np.int32, np.int64])
            rows, cols = (np.array([rng.randrange(dim) for _ in range(m)], index) for _ in "rc")
            sizes = rng.choice([[1, 2, 3], [1, 2**62, 2**62 - 3], [1, 2**70, 3 * 2**69]])  # small, near 2^62, wide
            values = [rng.choice([-1, 0, 1]) * rng.choice(sizes) for _ in range(m)]
            nums = np.array(values, object if max(sizes) >= 2**63 else np.int64)
            self.assert_oracle(dim, rows, cols, nums, rng.choice([1, 2, 3, 4, 6, 12]))

    def test_int32_indices_whose_keys_pass_2_to_the_31(self):
        # NumPy 2 keeps int32 times a Python int in int32 and wraps it silently (NEP 50)
        dim, rng = 70_000, np.random.default_rng(26)
        rows, cols = rng.integers(0, dim, (2, 400))
        rows, cols = np.r_[rows, rows[:40], dim - 1], np.r_[cols, cols[:40], dim - 1]  # repeats, and the last key
        nums = rng.integers(-3, 4, rows.size)
        assert int(cols.max()) * dim + int(rows.max()) >= 2**31
        narrow = OperatorMatrix(dim, rows.astype(np.int32), cols.astype(np.int32), nums.astype(np.int32), 2)
        assert narrow == OperatorMatrix(dim, rows, cols, nums, 2)
        self.assert_oracle(dim, rows.astype(np.int32), cols.astype(np.int32), nums.astype(np.int32), 2)

    def test_hamiltonian_is_unchanged(self, monkeypatch):
        """`hamiltonian` hands the private path its keys; it stores what the
        oracle stores from the rows and cols those keys decode to."""
        handed = []
        store = OperatorMatrix._store
        def capture(M, dim, key, nums, denom):  # the keys are sorted in place, so keep a copy
            handed.append((dim, key.copy(), nums.copy(), denom))
            return store(M, dim, key, nums, denom)
        monkeypatch.setattr(OperatorMatrix, "_store", capture)
        product = build_product(build_uniform(2, 3), build_boolean(2))
        for L in (build_boolean(10), build_projective(4, 2), build_affine(3, 2), build_uniform(3, 5), product):
            handed.clear()
            H = hamiltonian(L)
            assert type(H) is OperatorMatrix
            ((dim, key, nums, denom),) = handed
            cols, rows = np.divmod(key, dim)
            self.assert_oracle(dim, rows, cols, nums, denom, M=H)


class TestConstructionMemory:
    def test_hamiltonian_peaks_within_1_3_times_its_arrays(self):
        """`hamiltonian` hands over one int64 key array and int32 numerators,
        and the key becomes the stored cols, so no rows or cols copy is alive
        while the keys are sorted."""
        L = build_boolean(12)
        H, peak = traced_peak(hamiltonian, L)
        assert peak <= 1.3 * (H.rows.nbytes + H.cols.nbytes + H.nums.nbytes)

    def test_matvec_step_holds_one_slice(self):
        """Beside its result a step holds one slice's gather and products,
        however many entries N has (boolean(14) has 229,376, several slices),
        and sums every slice: the result equals one unsliced scatter."""
        L = build_boolean(14)
        H = hamiltonian(L)
        assert H.nnz() > 3 * _MATVEC_SLICE
        v = np.random.default_rng(35).integers(-3, 4, L.n)
        got, peak = traced_peak(H.matvec, v)
        assert peak - got.nbytes <= 3 * 8 * _MATVEC_SLICE
        expected = np.zeros(L.n, np.int64)
        np.add.at(expected, H.rows, H.nums * v[H.cols])
        assert np.array_equal(got, expected)


class TestOverflowBoundary:
    def test_guard_trips_at_k_11_on_projective_5_2(self):
        L = build_projective(5, 2)
        H = hamiltonian(L)
        v = np.zeros(L.n, dtype=np.int64)
        v[0] = 1
        dtypes = []
        for _ in range(12):
            v = H.matvec(v)
            dtypes.append(v.dtype)
        assert dtypes[:10] == [np.int64] * 10
        assert dtypes[10:] == [object, object]

    def test_full_moments_across_the_fallback(self):
        L = build_projective(5, 2)
        H = hamiltonian(L)
        full = vacuum_moments_full(L, H, 12)
        radial = vacuum_moments_radial(jacobi_from_compression(L, H), 12)
        assert full.values == radial.values
        assert full.values == resolvent(projective_jacobi(5, 2)).series(12)

    def test_full_moments_past_int64(self):
        L = build_projective(5, 2)
        full = vacuum_moments_full(L, hamiltonian(L), 14)
        assert full.values == resolvent(projective_jacobi(5, 2)).series(14)
        assert full[14] * 2**14 > 2**63  # a wrapped int64 walk would differ

    def test_entries_near_2_62_applied_twice(self):
        c = 2**62
        entries = [(0, 0, c - 1), (0, 2, c), (1, 0, -c), (1, 1, c - 3), (2, 1, 5), (2, 2, -(c - 7))]
        M = OperatorMatrix.from_entries(3, entries)
        assert M.denom == 1 and M.nums.dtype == np.int64
        vec = np.array([7, -2, 21])  # 7 * (1, -2/7, 3)
        dense = dense_of(3, entries)
        twice = dense_matmul(dense, dense)
        assert applied(M, vec, 2) == dense_apply(twice, vec)
        *_, walked = M.walk(2, 2)
        assert Fraction(int(walked[0]), M.denom**2) == twice[0][2]

    def test_wide_numerators_applied_twice(self):
        c = 2**62
        entries = [(0, 0, c - 1), (0, 2, c), (1, 0, -c), (2, 1, Fraction(c, 3)), (2, 2, -(c - 7))]
        M = OperatorMatrix.from_entries(3, entries)
        assert M.nums.dtype == object  # c - 1 over the denominator 3 needs 64 bits
        vec = np.array([7 * (c + 1), -5, 7 * (c - 11)], dtype=object)  # 7 * (c + 1, -5/7, c - 11)
        dense = dense_of(3, entries)
        twice = dense_matmul(dense, dense)
        assert applied(M, vec, 2) == dense_apply(twice, vec)
        *_, walked = M.walk(0, 2)
        assert Fraction(int(walked[2]), M.denom**2) == twice[2][0]

    def test_int64_entries_with_a_wide_vector(self):
        M = OperatorMatrix.from_entries(3, [(0, 1, 3), (1, 2, -5), (2, 0, 7), (2, 2, 1)])
        assert M.nums.dtype == np.int64
        vec = np.array([2**62, 2**62 - 1, -(2**61)])
        dense = dense_of(3, M.entries())
        assert vec.dtype == np.int64
        assert applied(M, vec) == dense_apply(dense, vec)
        assert applied(M, vec, 2) == dense_apply(dense_matmul(dense, dense), vec)
        assert applied(OperatorMatrix.from_entries(3, []), np.array([2**70, 0, 0], dtype=object)) == [0, 0, 0]

    def test_duplicates_summing_past_int64(self):
        c = 2**62
        M = OperatorMatrix.from_entries(2, [(0, 1, c), (0, 1, c), (1, 0, -c), (1, 0, -c), (1, 0, -c)])
        assert (M.entry(0, 1), M.entry(1, 0)) == (2 * c, -3 * c)

    def test_sum_over_a_common_denominator_past_int64(self):
        c = 2**62
        assert OperatorMatrix.from_entries(2, [(0, 1, c)]).nums.dtype == np.int64
        total = OperatorMatrix.from_entries(2, [(0, 1, c), (1, 0, Fraction(1, 3)), (0, 1, Fraction(1, 3))])
        assert (total.entry(0, 1), total.entry(1, 0)) == (c + Fraction(1, 3), Fraction(1, 3))


def residual_support_oracle(L, H) -> tuple[int | None, tuple[int, ...]]:
    """First level k at which the dense image H s_k is not constant on each
    adjacent layer, with the support of H s_k minus its layer means."""
    dense = dense_of(H.dim, H.entries())
    for k, layer in enumerate(L.layers):
        image = [sum((row[x] for x in layer), Fraction(0)) for row in dense]
        residual = list(image)
        for kk in (k - 1, k + 1):
            if 0 <= kk <= L.top_rank:
                mean = sum(image[x] for x in L.layers[kk]) / len(L.layers[kk])
                for x in L.layers[kk]:
                    residual[x] -= mean
        support = tuple(x for x, v in enumerate(residual) if v)
        if support:
            return k, support
    return None, ()


class TestLayerChecks:
    def test_nonzero_radial_diagonal_is_rejected(self, b2):
        H = OperatorMatrix.from_entries(b2.n, [*hamiltonian(b2).entries(), (0, 0, Fraction(1))])
        with pytest.raises(ArithmeticError, match="radial diagonal"):
            jacobi_from_compression(b2, H)

    def test_non_half_integer_weights_are_rejected(self, b2):
        H = hamiltonian(b2)
        with pytest.raises(ArithmeticError, match="not an integer"):
            jacobi_from_compression(b2, OperatorMatrix(b2.n, H.rows, H.cols, H.nums, 3))  # (2/3) H = N / 3

    def test_residual_support_matches_the_dense_oracle(self, m3, b1, b2, fano):
        lattices = [build_product(m3, b1), build_product(m3, b2), build_product(fano, m3), build_uniform(3, 5), build_affine(2, 3)]
        lattices += [parse_lattice(random_flats_document(random.Random(seed))) for seed in range(12)]
        seen_failure = 0
        for L in lattices:
            H = hamiltonian(L)
            level, support = residual_support_oracle(L, H)
            report = radial_invariance(L, H)
            assert (report.invariant, report.failing_level, report.residual_support) == (
                level is None, level, support
            )
            seen_failure += level is not None
        assert seen_failure >= 3

    def test_compression_sums_past_int64(self):
        L, c = build_boolean(4), 2**62
        H = hamiltonian(L)
        cH = OperatorMatrix(L.n, H.rows, H.cols, H.nums * c, H.denom)
        J, scaled = jacobi_from_compression(L), jacobi_from_compression(L, cH)
        assert cH.nums.dtype == np.int64
        assert scaled.W == tuple(c * w for w in J.W)
        assert scaled.beta_sq == tuple(c * c * b for b in J.beta_sq)

    def test_residual_support_past_int64(self, m3, b3):
        # on m3's atom layer the image is (c, -c, -c): 3c and -3c wrap in
        # int64 to the layer sum -c and to c, so a wrapped test would drop
        # the first atom from the support.  On b3's rank-2 layer each image
        # entry sums two entries, (2c, -2c, -2c): 2c = 2^63 wraps to -2c,
        # so a wrapped sum would read the layer as constant
        c = 2**62
        for L, entries, expected in (
            (m3, [(1, 0, c), (2, 0, -c), (3, 0, -c)], (0, (1, 2, 3))),
            (b3, [(y, x, c if y == 4 else -c) for y in (4, 5, 6) for x in (1, 2)], (1, (4, 5, 6))),
        ):
            H = OperatorMatrix.from_entries(L.n, entries)
            report = radial_invariance(L, H)
            assert (report.failing_level, report.residual_support) == residual_support_oracle(L, H) == expected

    def test_residual_support_of_a_corrupted_hamiltonian(self, fano):
        # an entry inside a layer and one skipping a layer both leave the
        # radial span and must show up in the support
        H = OperatorMatrix.from_entries(fano.n, [
            *hamiltonian(fano).entries(),
            (1, 2, 1), (2, 1, 1), (0, fano.top, Fraction(1, 3)), (fano.top, 0, Fraction(1, 3)),
        ])
        report = radial_invariance(fano, H)
        assert (report.failing_level, report.residual_support) == residual_support_oracle(fano, H)


class TestForeignHamiltonian:
    def test_compression_rejects_a_foreign_hamiltonian(self, b2, b3):
        with pytest.raises(ValueError):
            jacobi_from_compression(b3, hamiltonian(b2))

    def test_invariance_rejects_a_foreign_hamiltonian(self, b2, b3):
        with pytest.raises(ValueError):
            radial_invariance(b3, hamiltonian(b2))

    def test_full_moments_reject_a_foreign_hamiltonian(self, b3):
        with pytest.raises(ValueError):
            vacuum_moments_full(b3, hamiltonian(build_projective(2, 2)), 3)


# ---------------------------------------------------------------------------
# Random sparse rational matrices against the dense Fraction oracle
# ---------------------------------------------------------------------------

_values = st.builds(
    Fraction,
    st.integers(-(2**65), 2**65) | st.integers(-9, 9),
    st.sampled_from([1, 2, 3, 4, 6, 7, 12]),
)


@st.composite
def sparse_matrices(draw):
    dim = draw(st.integers(1, 6))
    index = st.integers(0, dim - 1)
    entries = draw(st.lists(st.tuples(index, index, _values), max_size=14))
    return dim, entries


@settings(max_examples=120, deadline=None)
@given(sparse_matrices(), st.data())
def test_kernel_matches_dense_oracle(matrix, data):
    dim, entries = matrix
    M = OperatorMatrix.from_entries(dim, entries)
    dense = dense_of(dim, entries)

    expected = sorted(
        ((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v),
        key=lambda e: (e[1], e[0]),
    )
    assert list(M.entries()) == expected
    assert M.nnz() == len(expected)

    support = data.draw(st.dictionaries(st.integers(0, dim - 1), _values, max_size=dim))
    vec = [support.get(i, Fraction(0)) for i in range(dim)]
    scale = math.lcm(*(c.denominator for c in vec))
    integer_vec = np.array([int(c * scale) for c in vec], dtype=object)
    assert [c / scale for c in applied(M, integer_vec)] == dense_apply(dense, vec)

    col = data.draw(st.integers(0, dim - 1))
    column = [Fraction(int(i == col)) for i in range(dim)]
    for k, v in enumerate(M.walk(col, 3)):
        assert [Fraction(int(x), M.denom**k) for x in v] == column
        column = dense_apply(dense, column)
    assert k == 3

    assert dense_of(dim, M.transpose().entries()) == [list(col) for col in zip(*dense)]
