import importlib
import json
import random

import pytest

import latspec.verify
from helpers import random_bounded_graded_poset, random_lattices, traced_peak
from latspec import (
    FiniteLattice,
    MomentSequence,
    NotALatticeError,
    OperatorMatrix,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    eigendecompose,
    hamiltonian,
    jacobi_from_compression,
    jacobi_from_formula,
    parse_lattice,
    radial_invariance,
    run_invariant_suite,
    vacuum_moments_full,
    vacuum_moments_radial,
)
from latspec.verify import MOMENT_ORDER, measure_moment_bound


def test_suite_passes_on_families(small_lattices):
    for L in small_lattices:
        results = run_invariant_suite(L)
        bad = [r for r in results if not r.passed]
        assert not bad, (L.family_tag, bad)


def _full_and_radial(L, extra=0):
    """The first non-invariant level l, and the full and radial moments
    through order 2l+1+extra, or MOMENT_ORDER+extra when there is no l."""
    H = hamiltonian(L)
    level = radial_invariance(L, H).failing_level
    K = (MOMENT_ORDER if level is None else 2 * level + 1) + extra
    return level, vacuum_moments_full(L, H, K), vacuum_moments_radial(jacobi_from_compression(L, H), K)


@pytest.mark.parametrize(
    "left, right, level",
    [
        ((build_uniform, 2, 3), (build_boolean, 1), 1),
        ((build_projective, 4, 2), (build_boolean, 4), 1),
        ((build_affine, 2, 2), (build_boolean, 1), 2),
        ((build_uniform, 3, 4), (build_boolean, 2), 2),
    ],
)
def test_full_and_radial_moments_agree_exactly_through_the_krylov_bound(left, right, level):
    L = build_product(left[0](*left[1:]), right[0](*right[1:]))
    found, full, radial = _full_and_radial(L, extra=1)
    assert found == level
    assert full.values[: 2 * level + 2] == radial.values[: 2 * level + 2]
    # m_(2l+2) = ||H^(l+1) e_0||^2 exceeds ||J^(l+1) e_0||^2, the squared norm
    # of its radial part, once H^(l+1) e_0 leaves the radial span
    assert full[2 * level + 2] > radial[2 * level + 2]


def test_full_and_radial_moments_agree_through_the_krylov_bound_on_random_lattices():
    levels = []
    for L in random_lattices():
        level, full, radial = _full_and_radial(L)
        assert full == radial, L.to_document()
        levels.append(level)
    assert len(levels) == 1135 and len(levels) - levels.count(None) == 185


def test_suite_reports_every_moment_order_it_compares(m3, b1):
    entry = next(r for r in run_invariant_suite(build_product(m3, b1)) if r.name == "moments:full-equals-radial")
    assert (entry.passed, entry.detail) == (True, "orders 0..3: radial subspace not invariant at level 1")


def test_full_equals_radial_fails_on_a_non_invariant_lattice_when_a_moment_is_wrong(m3, b1, monkeypatch):
    exact = latspec.verify.vacuum_moments_radial

    def perturbed(J, K):
        values = list(exact(J, K).values)
        values[2] += 1
        return MomentSequence(tuple(values))

    monkeypatch.setattr(latspec.verify, "vacuum_moments_radial", perturbed)
    results = {r.name: r.passed for r in run_invariant_suite(build_product(m3, b1))}
    assert results["moments:full-equals-radial"] is False


def test_suite_reports_validation_failures():
    # hexagon: graded lattice violating the semimodular inequality
    doc = {
        "elements": [{"id": i} for i in range(6)],
        "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]],
    }
    L = parse_lattice(doc)
    results = run_invariant_suite(L)
    semi = next(r for r in results if r.name == "validate:semimodular")
    assert not semi.passed
    # 1 ⋄ 2 is the top, two ranks above 2, so no cover carries that pair
    transpose = next(r for r in results if r.name == "operators:transpose-consistency")
    assert (transpose.passed, transpose.detail) == (False, "atom 1")


def test_transpose_consistency_fails_exactly_where_an_atom_raises_rank_by_more():
    verdicts = []
    for seed in range(500):
        n, covers = random_bounded_graded_poset(random.Random(seed))
        try:
            L = FiniteLattice.from_covers(n, covers)
        except NotALatticeError:
            continue
        results = {r.name: r.passed for r in run_invariant_suite(L)}
        assert results["operators:transpose-consistency"] == results["diamond:atom-raises-rank"], covers
        verdicts.append(results["operators:transpose-consistency"])
    assert len(verdicts) == 360 and verdicts.count(False) == 23


def test_assembly_agreement_passes_on_random_lattices():
    # skipping atoms included: the cover rule is the creation-pair assembly
    for L in random_lattices():
        results = {r.name: r.passed for r in run_invariant_suite(L)}
        assert results["hamiltonian:assembly-agreement"], L.to_document()


def test_assembly_agreement_fails_when_the_cover_rule_is_wrong(m3, monkeypatch):
    exact = latspec.verify.hamiltonian

    def perturbed(L):
        H = exact(L)
        nums = H.nums.copy()
        nums[0] += 1
        return OperatorMatrix(H.dim, H.rows, H.cols, nums, H.denom)

    monkeypatch.setattr(latspec.verify, "hamiltonian", perturbed)
    results = {r.name: r.passed for r in run_invariant_suite(m3)}
    assert results["hamiltonian:assembly-agreement"] is False


def test_suite_stops_after_validation_on_a_non_lattice():
    # bowtie with a top: the rank-2 elements 3 and 4 have no meet
    L = FiniteLattice([0, 1, 1, 2, 2, 3], [[1, 2], [3, 4], [3, 4], [5], [5], []])
    results = run_invariant_suite(L)
    assert [r.name for r in results] == ["validate:lattice-pairs"]
    assert [r.passed for r in results] == [False]
    assert results[-1].detail == "counterexample (3, 4)"


SUITE_NAMES = [
    "validate:lattice-pairs",
    "validate:semimodular",
    "validate:atomic",
    "diamond:atom-raises-rank",
    "operators:transpose-consistency",
    "hamiltonian:assembly-agreement",
    "moments:odd-vanish",
    "jacobi:formula-equals-compression",
    "moments:full-equals-radial",
    "spectral:measure-moments",
]


def test_suite_check_names_in_order(m3):
    for L in (m3, parse_lattice(m3.to_document())):
        assert [r.name for r in run_invariant_suite(L)] == SUITE_NAMES


def test_suite_reuses_the_report_of_a_parsed_document(m3, monkeypatch):
    # the report is computed once per lattice, whoever reads it first
    calls = []
    validate = latspec.lattice.validate

    def counted(L):
        calls.append(L)
        return validate(L)

    monkeypatch.setattr(latspec.lattice, "validate", counted)
    L = parse_lattice(m3.to_document())
    assert calls == []
    for _ in range(2):
        results = run_invariant_suite(L)
        assert [r.name for r in results] == SUITE_NAMES
        assert all(r.passed for r in results)
    assert L.validation.passed()
    assert calls == [L]


def _count_lowering_selections(monkeypatch) -> list:
    """Patch `_lowering_pairs` in every module that holds it; return the
    (lattice, atom index) of each call."""
    calls = []
    modules = [importlib.import_module(f"latspec.{name}") for name in ("operators", "radial", "verify")]
    lowering = modules[0]._lowering_pairs

    def counted(L, i, lower, upper):
        calls.append((L, i))
        return lowering(L, i, lower, upper)

    for module in modules:
        if hasattr(module, "_lowering_pairs"):
            monkeypatch.setattr(module, "_lowering_pairs", counted)
    return calls


def test_formula_makes_no_lowering_pass(monkeypatch):
    calls = _count_lowering_selections(monkeypatch)
    for L in (build_boolean(5), build_projective(3, 3), build_affine(2, 3)):
        jacobi_from_formula(L)
    assert calls == []


def test_suite_selects_each_atoms_lowering_pairs_once(monkeypatch):
    calls = _count_lowering_selections(monkeypatch)
    for L in (build_boolean(5), build_projective(3, 3), build_product(build_uniform(2, 3), build_boolean(1))):
        calls.clear()
        assert len(run_invariant_suite(L)) == len(SUITE_NAMES)
        assert calls == [(L, i) for i in range(len(L.atoms))]


def test_suite_frees_the_creation_pairs_and_covers_once_assembled():
    """The creation pairs (16 bytes a pair) and the cover arrays are freed
    as soon as nothing reads them, before the moments and the Jacobi data:
    the suite on boolean(12) peaks at about 3.2 times the bytes of H, and
    at 3.7 times while both stayed alive until it returned."""
    L = build_boolean(12)
    H = hamiltonian(L)
    results, peak = traced_peak(run_invariant_suite, build_boolean(12))
    assert all(r.passed for r in results)
    assert peak <= 3.45 * (H.rows.nbytes + H.cols.nbytes + H.nums.nbytes)


class TestDocumentRoundTrip:
    def test_rank_major_families_round_trip_exactly(self, m3, b3, fano, ag22):
        for L in (m3, b3, fano, ag22, build_uniform(2, 4), build_affine(1, 3)):
            again = parse_lattice(json.dumps(L.to_document()))
            assert again == L
            assert again.labels == L.labels

    def test_product_round_trip_preserves_spectral_data(self, m3, b2):
        # products are ordered lexicographically, so parsing re-sorts ids;
        # the lattice is relabeled but all isomorphism invariants survive
        P = build_product(m3, b2)
        again = parse_lattice(json.dumps(P.to_document()))
        assert again.layer_sizes() == P.layer_sizes()
        J1, J2 = jacobi_from_compression(P), jacobi_from_compression(again)
        assert J1.beta_sq == J2.beta_sq
        assert J1.W == J2.W


def test_uniform_full_rank_is_boolean():
    assert build_uniform(3, 3) == build_boolean(3)
    assert build_uniform(2, 2) == build_boolean(2)


def test_kronecker_check_works_across_representations(fano, b1):
    from latspec import kronecker_sum_check

    assert kronecker_sum_check(fano, b1)
    assert kronecker_sum_check(b1, build_projective(2, 3))


@pytest.mark.parametrize(
    "build, params",
    [(build_projective, (4, 2)), (build_projective, (5, 2)), (build_projective, (3, 3)), (build_affine, (4, 2))],
)
def test_measure_moments_pass_within_a_bound_that_still_catches_wrong_moments(build, params):
    # These four failed spectral:measure-moments under an absolute 1e-8
    # tolerance although every exact law holds.
    L = build(*params)
    results = run_invariant_suite(L)
    entry = next(r for r in results if r.name == "spectral:measure-moments")
    assert entry.passed, entry.detail

    J = jacobi_from_compression(L)
    rho = max(abs(eig) for eig, _ in eigendecompose(J).atoms)
    exact = vacuum_moments_radial(J, 10)
    for k in range(0, 11, 2):
        assert measure_moment_bound(k, J.r, rho) < 1e-5 * float(exact[k])
