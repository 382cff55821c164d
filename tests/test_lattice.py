import itertools
import json
import math
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latspec.lattice
from helpers import (
    closure_lattice,
    closure_semimodular,
    irreducible_masks_by_push,
    random_bounded_graded_poset,
    random_flats_document,
    random_lattices,
    validation_by_pair_survey,
)
from latspec import (
    FiniteLattice,
    LatticeError,
    NotALatticeError,
    NotAPosetError,
    NotGradedError,
    ParseError,
    SizeBoundError,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    eigendecompose,
    gaussian_binomial,
    hamiltonian,
    jacobi_from_compression,
    jacobi_from_formula,
    parse_lattice,
    q_int,
    radial_invariance,
    read_lattice_file,
    vacuum_moments_full,
    validate,
)
from latspec import gf

M3_DOCUMENT = {
    "elements": [
        {"id": 0, "label": "bot"},
        {"id": 1, "label": "a"},
        {"id": 2, "label": "b"},
        {"id": 3, "label": "c"},
        {"id": 4, "label": "top"},
    ],
    "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]],
}


class TestBoolean:
    def test_empty_ground_set(self):
        L = build_boolean(0)
        assert L.n == 1
        assert L.top_rank == 0
        assert L.atoms == ()

    def test_three_atoms(self, b3):
        assert b3.n == 8
        assert b3.layer_sizes() == (1, 3, 3, 1)
        assert len(b3.atoms) == 3

    def test_join_meet_are_union_intersection(self, b2):
        one = b2.labels.index("{1}")
        two = b2.labels.index("{2}")
        assert b2.labels[b2.join(one, two)] == "{1,2}"
        assert b2.join(one, two) == b2.top
        assert b2.meet(one, two) == 0

    def test_ground_set_bound(self):
        with pytest.raises(SizeBoundError):
            build_boolean(21)


class TestUniform:
    def test_m3_join_meet(self, m3):
        a, b = m3.atoms[0], m3.atoms[1]
        assert m3.join(a, b) == m3.top
        assert m3.meet(a, b) == 0
        assert m3.layer_sizes() == (1, 3, 1)

    def test_rank_one_chain(self):
        L = build_uniform(1, 1)
        assert L.n == 2
        assert L.rank == (0, 1)
        assert L.covers_up == ((1,), ())

    def test_two_four(self):
        L = build_uniform(2, 4)
        assert L.n == 6
        assert L.layer_sizes() == (1, 4, 1)

    def test_large_ground_set_builds_only_its_flats(self):
        # 2^40 subsets, of which 822 are flats
        L = build_uniform(3, 40)
        assert L.layer_sizes() == (1, 40, 780, 1)

    def test_cap_is_checked_before_building(self):
        with pytest.raises(SizeBoundError, match="822 elements"):
            build_uniform(3, 40, cap=100)


class TestProjective:
    def test_fano_layers(self, fano):
        assert fano.layer_sizes() == (1, 7, 7, 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_rank_one_chain(self, q):
        L = build_projective(1, q)
        assert L.n == 2
        assert L.rank == (0, 1)

    def test_atom_count_is_q_int(self):
        assert len(build_projective(2, 3).atoms) == q_int(2, 3) == 4

    @pytest.mark.parametrize("r,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_layers_are_gaussian_binomials(self, r, q):
        L = build_projective(r, q)
        assert L.layer_sizes() == tuple(gaussian_binomial(r, k, q) for k in range(r + 1))

    def test_composite_q_rejected(self):
        with pytest.raises(ValueError):
            build_projective(2, 4)

    def test_rank_one_over_a_huge_prime_builds_at_once(self):
        # the points are generated, not found by a scan over q^r vectors, and
        # primality is Miller-Rabin, so r = 1 costs O(1) for every q
        start = time.perf_counter()
        L = build_projective(1, 10**18 + 3)
        assert time.perf_counter() - start < 1
        assert L.n == 2 and L.labels == ("[]", "[1]")


class TestPrimeFields:
    def test_is_prime_equals_trial_division(self):
        def trial(q):
            return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))

        assert [q for q in range(-10, 50_000) if gf.is_prime(q)] == [q for q in range(-10, 50_000) if trial(q)]

    @pytest.mark.parametrize("q, prime", [
        (3215031751, False),  # a strong pseudoprime to the bases 2, 3, 5 and 7
        (3825123056546413051, False),  # ... to every prime base up to 31
        (318665857834031151167461, False),  # ... up to 37
        (10**18 + 3, True),
        (2**61 - 1, True),
    ])
    def test_is_prime_on_strong_pseudoprimes_and_large_primes(self, q, prime):
        assert gf.is_prime(q) is prime

    def test_q_past_the_exact_primality_bound_is_refused_before_any_work(self, monkeypatch):
        def unreachable(*_):
            raise AssertionError("reached past the bound on q")

        monkeypatch.setattr(latspec.lattice.gf, "is_prime", unreachable)
        for q in (gf.PRIME_TEST_BOUND, 10**40 + 1):
            with pytest.raises(SizeBoundError, match=f"^q = {q} is past {gf.PRIME_TEST_BOUND}, below which"):
                build_projective(1, q)

    @staticmethod
    def _row_space(rows, q, r):
        """Every combination of the rows, enumerated."""
        return {tuple(sum(c * row[j] for c, row in zip(cs, rows)) % q for j in range(r))
                for cs in itertools.product(range(q), repeat=len(rows))}

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_rref_and_extend_against_enumerated_row_spaces(self, q, r):
        # a reduced echelon basis is the unique basis of its row space whose
        # rows have a leading 1, in rising pivot columns, each the only
        # nonzero entry of its column; entries outside range(q) are read mod q
        rng = random.Random(q * 10 + r)
        for _ in range(40):
            rows = [tuple(rng.randint(-q, 2 * q) for _ in range(r)) for _ in range(rng.randint(0, 4))]
            space = self._row_space(rows, q, r)
            basis = gf.rref(rows, q)
            pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
            assert pivots == sorted(set(pivots))
            assert all(row[p] == (i == k) for i, row in enumerate(basis) for k, p in enumerate(pivots))
            assert q ** len(basis) == len(space) and self._row_space(basis, q, r) == space
            v = tuple(rng.randrange(q) for _ in range(r))
            assert gf.extend(basis, v, q) == gf.rref(rows + [v], q)
            assert (gf.extend(basis, v, q) == basis) == (v in space)


class TestAffine:
    def test_line_of_two_points(self):
        L = build_affine(1, 2)
        assert L.n == 4
        assert L.rank == (0, 1, 1, 2)

    def test_plane_layers(self, ag22):
        assert ag22.layer_sizes() == (1, 4, 6, 1)

    @pytest.mark.parametrize("r,q", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_flat_counts(self, r, q):
        L = build_affine(r, q)
        expected = (1,) + tuple(
            q ** (r - k) * gaussian_binomial(r, k, q) for k in range(r + 1)
        )
        assert L.layer_sizes() == expected

    def test_parallel_lines_meet_at_adjoined_bottom(self, ag22):
        lines = ag22.layers[2]
        disjoint_pairs = [
            (x, y)
            for i, x in enumerate(lines)
            for y in lines[i + 1 :]
            if ag22.meet(x, y) == 0
        ]
        # three parallel classes of two lines each
        assert len(disjoint_pairs) == 3
        for x, y in disjoint_pairs:
            assert ag22.join(x, y) == ag22.top


class TestProduct:
    def test_square_of_b1_is_b2(self, b1, b2):
        assert build_product(b1, b1) == b2

    def test_atoms_are_bottom_pairs(self, m3, b1):
        P = build_product(m3, b1)
        expected = sorted(
            [a * b1.n + 0 for a in m3.atoms] + [0 * b1.n + b for b in b1.atoms]
        )
        assert list(P.atoms) == expected
        assert len(P.atoms) == 4

    def test_rank_additivity(self, m3, b1):
        P = build_product(m3, b1)
        assert P.rank[m3.top * b1.n + b1.top] == 3
        assert P.top_rank == m3.top_rank + b1.top_rank

    def test_layer_convolution(self, m3, b2):
        P = build_product(m3, b2)
        n1, n2 = m3.layer_sizes(), b2.layer_sizes()
        for k in range(P.top_rank + 1):
            expected = sum(
                n1[j] * n2[k - j]
                for j in range(len(n1))
                if 0 <= k - j < len(n2)
            )
            assert P.layer_sizes()[k] == expected


class TestParse:
    def test_m3_document_equals_uniform(self, m3):
        L = parse_lattice(json.dumps(M3_DOCUMENT))
        assert L == m3
        assert L.validation is not None and L.validation.passed()

    def test_shuffled_ids_are_canonicalized(self):
        doc = {
            "elements": [{"id": i, "label": f"x{i}"} for i in range(5)],
            # same diamond, with the top listed as id 0 and the bottom as id 2
            "covers": [[2, 1], [2, 3], [2, 4], [1, 0], [3, 0], [4, 0]],
        }
        L = parse_lattice(doc)
        assert L.rank == (0, 1, 1, 1, 2)
        assert L.labels[0] == "x2"

    def test_empty_elements(self):
        with pytest.raises(NotALatticeError):
            parse_lattice({"elements": [], "covers": []})

    def test_two_minimal_elements(self):
        doc = {
            "elements": [{"id": i} for i in range(4)],
            "covers": [[0, 1], [1, 3], [2, 3]],
        }
        with pytest.raises(NotALatticeError):
            parse_lattice(doc)

    def test_cycle_is_not_a_poset(self):
        doc = {
            "elements": [{"id": i} for i in range(3)],
            "covers": [[0, 1], [1, 2], [2, 1]],
        }
        with pytest.raises(NotAPosetError):
            parse_lattice(doc)

    def test_rank_jump_is_not_graded(self):
        doc = {
            "elements": [{"id": i} for i in range(4)],
            "covers": [[0, 1], [1, 2], [0, 2], [2, 3]],
        }
        with pytest.raises(NotGradedError):
            parse_lattice(doc)

    def test_missing_join_rejected(self):
        # two incomparable tops: no join for the atoms
        doc = {
            "elements": [{"id": i} for i in range(4)],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        }
        L = parse_lattice(doc)  # this one is fine (diamond)
        assert L.n == 4
        bad = {
            "elements": [{"id": i} for i in range(5)],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3], [1, 4], [2, 4]],
        }
        with pytest.raises(NotALatticeError):
            parse_lattice(bad)

    def test_meetless_pair_is_named_in_document_ids(self):
        # a bowtie under a top, listed with the bottom as id 2 and the atoms
        # as 3 and 4: the rank-2 elements 0 and 1 have no meet
        doc = {
            "elements": [{"id": i} for i in range(6)],
            "covers": [[2, 3], [2, 4], [3, 0], [3, 1], [4, 0], [4, 1], [0, 5], [1, 5]],
        }
        with pytest.raises(NotALatticeError, match=r"^elements 0 and 1 have no unique meet$"):
            parse_lattice(doc)

    @pytest.mark.parametrize("L", [
        build_projective(3, 2), build_boolean(4), build_product(build_uniform(2, 3), build_boolean(1)),
    ], ids=["projective(3,2)", "boolean(4)", "uniform(2,3)xboolean(1)"])
    def test_repeated_and_shuffled_covers_parse_as_the_plain_document(self, L):
        rng = random.Random(L.n)
        perm = list(range(L.n))
        rng.shuffle(perm)
        elements = [{"id": perm[x], "label": L.labels[x]} for x in range(L.n)]
        covers = [[perm[x], perm[y]] for x, y in L.covers()]
        doubled = covers * 2
        rng.shuffle(doubled)
        plain, repeated = parse_lattice({"elements": elements, "covers": covers}), parse_lattice(
            {"elements": elements, "covers": doubled})
        assert (repeated.rank, repeated.covers_up, repeated.labels) == (plain.rank, plain.covers_up, plain.labels)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_lattice("{not json")

    @pytest.mark.parametrize("content, message", [
        (b"\x80", "can't decode byte 0x80"),
        ('{"elements": [{"id": 0, "label": "\xe9"}]}'.encode("latin-1"), "can't decode byte 0xe9"),
    ], ids=["binary", "latin-1"])
    def test_bytes_that_are_not_utf8(self, tmp_path, content, message):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        for parse in (parse_lattice, read_lattice_file):
            with pytest.raises(ParseError, match=f"^invalid JSON: 'utf-8' codec {message}"):
                parse(content if parse is parse_lattice else str(path))

    def test_file_with_a_utf8_bom_is_refused(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('\ufeff{"elements": [{"id": 0}]}', encoding="utf-8")
        with pytest.raises(ParseError, match="Unexpected UTF-8 BOM"):
            read_lattice_file(str(path))

    def test_file_holding_a_json_string_is_decoded_once(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(json.dumps(M3_DOCUMENT)), encoding="utf-8")
        with pytest.raises(ParseError, match="^document must be a JSON object$"):
            read_lattice_file(str(path))

    def test_sparse_ids_rejected(self):
        doc = {"elements": [{"id": 0}, {"id": 2}], "covers": [[0, 2]]}
        with pytest.raises(ParseError):
            parse_lattice(doc)

    @pytest.mark.parametrize(
        "elements, covers, message",
        [
            # JSON true and false are Python ints; read as ids they would make boolean(1)
            ('[{"id": false}, {"id": true}]', "[[false, true]]", "integer \"id\""),
            ('[{"id": 0}, {"id": 1}]', "[[false, true]]", "malformed cover entry"),
            ('[{"id": 0}, {"id": 1}]', "[[0, true]]", "malformed cover entry"),
        ],
    )
    def test_boolean_ids_rejected(self, elements, covers, message):
        with pytest.raises(ParseError, match=message):
            parse_lattice(f'{{"elements": {elements}, "covers": {covers}}}')

    @pytest.mark.parametrize(
        "document, error, message",
        [
            ("[]", ParseError, "document must be a JSON object"),
            ({"covers": []}, ParseError, 'document must contain an "elements" list'),
            ({"elements": [{"id": 0}], "covers": {}}, ParseError, '"covers" must be a list of [lo, hi] pairs'),
            ({"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 2]]}, ParseError,
             "cover [0, 2] references an unknown element id"),
            ({"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1], [1, 1]]}, NotAPosetError,
             "cover [1, 1] is a self-loop"),
            # every entry's shape is checked before any id is read
            ({"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 5], [0, True]]}, ParseError,
             "malformed cover entry [0, True]; expected [lo, hi]"),
        ],
    )
    def test_shape_rejections(self, document, error, message):
        with pytest.raises(error) as excinfo:
            parse_lattice(document)
        assert type(excinfo.value) is error and str(excinfo.value) == message


class TestValidate:
    def test_boolean_is_geometric(self, b3):
        report = validate(b3)
        assert report.passed()
        assert report.notes == ()

    def test_affine_passes_with_note(self, ag22):
        report = validate(ag22)
        assert report.passed()
        assert report.notes == ()

    def test_hexagon_fails_semimodularity(self):
        # 0 < a, b; a < c; b < d; c, d < top -- ranks 0,1,1,2,2,3
        doc = {
            "elements": [{"id": i} for i in range(6)],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]],
        }
        L = parse_lattice(doc)
        report = L.validation
        semi = next(c for c in report.checks if c.name == "semimodular")
        assert not semi.passed
        assert semi.counterexample is not None
        x, y = semi.counterexample
        assert L.rank[x] + L.rank[y] < L.rank[L.join(x, y)] + L.rank[L.meet(x, y)]

    def test_built_families_validate(self, small_lattices):
        for L in small_lattices:
            report = validate(L)
            assert report.passed(), (L.family_tag, [c for c in report.checks if not c.passed])


class TestCoCoverCertificate:
    """Lattice-ness and semimodularity are read from co-cover pairs only;
    these tests compare both verdicts with the all-pairs closure oracle."""

    @pytest.fixture(scope="class")
    def posets(self):
        return [random_bounded_graded_poset(random.Random(seed)) for seed in range(2000)]

    def test_from_covers_rejects_exactly_the_non_lattices(self, posets):
        rejected = 0
        for n, covers in posets:
            is_lattice = closure_lattice(n, covers) is not None
            try:
                FiniteLattice.from_covers(n, covers)
            except NotALatticeError:
                rejected += 1
                assert not is_lattice, covers
            else:
                assert is_lattice, covers
        assert 300 < rejected < 1700

    def test_semimodular_verdict_equals_all_pairs_rank_inequality(self, posets):
        cases = [(n, covers, FiniteLattice.from_covers(n, covers))
                 for n, covers in posets if closure_lattice(n, covers) is not None]
        for seed in range(60):
            doc = random_flats_document(random.Random(seed))
            cases.append((len(doc["elements"]), doc["covers"], parse_lattice(doc)))
        verdicts = []
        for n, covers, L in cases:
            semi = next(c for c in validate(L).checks if c.name == "semimodular")
            assert semi.passed == closure_semimodular(n, covers), covers
            if not semi.passed:
                x, y = semi.counterexample
                assert L.rank[x] + L.rank[y] < L.rank[L.join(x, y)] + L.rank[L.meet(x, y)]
            verdicts.append(semi.passed)
        assert 50 < verdicts.count(False) < len(verdicts) - 50

    def test_bowtie_with_top_fails_lattice_pairs_without_raising(self):
        L = FiniteLattice([0, 1, 1, 2, 2, 3], [[1, 2], [3, 4], [3, 4], [5], [5], []])
        report = validate(L)
        lattice = next(c for c in report.checks if c.name == "lattice-pairs")
        assert not lattice.passed and lattice.counterexample == (3, 4)
        assert not report.passed()
        assert report.notes == ("not a lattice: the semimodular and atomic checks were not run",)


class TestSemimodularFromGainedAtoms:
    """On atomistic input `validate` certifies semimodularity by counting
    the atoms each cover gains, and joins pairs of upper covers only when
    the count fails; the verdicts and counterexamples are those of the
    pair survey."""

    def test_checks_equal_the_pair_survey_oracle(self):
        verdicts = []
        for L in random_lattices():
            report = validate(L)
            assert tuple((c.name, c.passed, c.counterexample) for c in report.checks) == validation_by_pair_survey(L)
            verdicts.append((report.checks[1].passed, report.checks[2].passed))
        atomistic = [semimodular for semimodular, atomic in verdicts if atomic]
        assert len(atomistic) > 400 and 10 <= atomistic.count(False) < 50

    def test_geometric_lattices_validate_without_a_join(self, monkeypatch):
        doc = build_projective(5, 2).to_document()
        perm = list(range(len(doc["elements"])))
        random.Random(7).shuffle(perm)
        relabelled = {
            "elements": [{"id": perm[e["id"]], "label": e["label"]} for e in doc["elements"]],
            "covers": [[perm[x], perm[y]] for x, y in doc["covers"]],
        }
        lattices = [build_projective(6, 2), build_affine(4, 2), build_boolean(10), parse_lattice(relabelled)]

        def no_join(self, x, y):
            raise AssertionError(f"join({x}, {y}) called")

        weights, read = latspec.lattice.cover_weight_sums, []
        monkeypatch.setattr(FiniteLattice, "join", no_join)
        monkeypatch.setattr(latspec.lattice, "cover_weight_sums", lambda L: read.append(L) or weights(L))
        for L in lattices:
            assert validate(L).passed(), L.family_tag
            assert read == [L], L.family_tag  # the certificate reads the W_k once
            read.clear()

    @pytest.mark.parametrize("rank, covers_up, message", [
        ([0, 1], [[1, 1], []], r"^cover \[0, 1\] is repeated$"),
        ([0, 1], [[-1], []], r"^cover \[0, -1\] references an unknown element id$"),
        ([0, 1], [[5], []], r"^cover \[0, 5\] references an unknown element id$"),
        # the constructor keeps the tuples it is handed, so a descending pair is refused, not re-sorted
        ([0, 1, 1, 2], [[2, 1], [3], [3], []], r"^cover \[0, 1\] is out of order$"),
    ])
    def test_constructor_rejects_repeated_and_unknown_cover_ids(self, rank, covers_up, message):
        with pytest.raises(LatticeError, match=message):
            FiniteLattice(rank, covers_up)

    def test_constructor_keeps_the_cover_tuples_it_is_handed(self):
        given = ((1, 2), (3,), (3,), ())
        L = FiniteLattice([0, 1, 1, 2], given)
        assert all(L.covers_up[x] is given[x] for x in range(L.n))
        assert FiniteLattice([0, 1, 1, 2], [[1, 2], [3], [3], []]).covers_up == given

    @pytest.mark.parametrize("rank, covers_up, error, message", [
        ([0, 1, 2, 2, 3], [[3, 1], [4, 2], [4], [4], []], NotGradedError, r"^cover \[0, 3\] spans ranks 0 -> 2$"),
        ([0, 0, 1], [[2], [2], []], NotALatticeError, r"^the bottom must be the unique rank-0 element and have id 0$"),
        ([1, 0], [[], [0]], NotALatticeError, r"^the bottom must be the unique rank-0 element and have id 0$"),
        ([0, 1, 1, 1, 2], [[1], [4], [4], [4], []], NotALatticeError, r"^element 2 has rank 1 but covers nothing$"),
        ([0, 1, 1], [[1, 2], [], []], NotALatticeError, r"^expected a unique top element, found 2$"),
    ], ids=["rank-jump", "two-bottoms", "bottom-not-id-0", "covers-nothing", "two-tops"])
    def test_constructor_names_the_first_counterexample(self, rank, covers_up, error, message):
        with pytest.raises(error, match=message):
            FiniteLattice(rank, covers_up)

    @pytest.mark.parametrize("rank, covers_up, error, message", [
        # element 2, of rank 1, is read before element 1, of rank 2, though its id is higher
        ([0, 2, 1, 3], [[2], [3, 3], [1, 9], []], LatticeError, r"^cover \[2, 9\] references an unknown element id$"),
        ([0, 0, 1], [[2], [5], []], NotALatticeError, r"^the bottom must be the unique rank-0 element and have id 0$"),
    ], ids=["covers-in-layer-order", "bottom-before-covers"])
    def test_constructor_names_the_first_of_two_defects(self, rank, covers_up, error, message):
        with pytest.raises(error, match=message):
            FiniteLattice(rank, covers_up)

    def test_constructor_rejects_an_element_below_the_bottom(self):
        # the cover [1, 0] steps up one rank into the bottom, and element 1 itself covers nothing
        with pytest.raises(NotALatticeError, match=r"^element 1 has rank -1 but covers nothing$"):
            FiniteLattice([0, -1, 1], [[2], [0], []])

    def test_from_covers_still_merges_repeated_covers(self):
        assert FiniteLattice.from_covers(2, [(0, 1), (0, 1)]) == FiniteLattice([0, 1], [[1], []])


def test_validation_is_computed_once_on_first_read(monkeypatch):
    calls = []
    validate_ = latspec.lattice.validate

    def counted(L):
        calls.append(L)
        return validate_(L)

    monkeypatch.setattr(latspec.lattice, "validate", counted)
    L = parse_lattice(build_projective(3, 2).to_document())
    assert calls == []
    first = L.validation
    assert L.validation is first and first.passed()
    assert calls == [L]


def test_one_parse_computes_the_lattice_certificate_once(monkeypatch):
    # from_covers and validate both read the certificate; it is cached
    calls = []
    certify = FiniteLattice.first_meetless_pair.func

    def counted(L):
        calls.append(L)
        return certify(L)

    monkeypatch.setattr(FiniteLattice.first_meetless_pair, "func", counted)
    L = parse_lattice(build_projective(3, 2).to_document())
    assert L.validation.passed()
    assert calls == [L]


def test_masks_have_one_bit_per_irreducible(small_lattices, m3, b1):
    # one bit per join-irreducible in `_down` and per meet-irreducible in `_up`
    for L in [*small_lattices, build_product(m3, b1), build_boolean(10)]:
        join_irreducible = sum(len(lower) == 1 for lower in L.covers_down)
        meet_irreducible = sum(len(upper) == 1 for upper in L.covers_up)
        assert max(L._down).bit_length() == join_irreducible, L.family_tag
        assert max(L._up).bit_length() == meet_irreducible, L.family_tag


class TestMasksAgainstThePushOracle:
    """J(x) is pushed up the covers as the constructor checks them and M(x)
    pulled from the upper covers on first read; both equal the masks pushed
    along the covers and their lower-cover inverse, bit for bit."""

    @pytest.fixture(scope="class")
    def lattices(self, small_lattices, m3, b2, fano, ag22):
        q_families = [build(r, q) for build, top in ((build_projective, 4), (build_affine, 3))
                      for r in range(1, top + 1) for q in (2, 3)]
        products = [build_product(ag22, fano), build_product(fano, m3), build_product(b2, build_affine(1, 3))]
        return [*small_lattices, *random_lattices(), *products, *q_families]

    def test_masks_equal_the_oracle_bit_for_bit(self, lattices):
        for L in lattices:
            assert (L._down, L._up) == irreducible_masks_by_push(L), L.family_tag

    def test_meet_and_join_agree_with_the_oracle_on_all_pairs(self, lattices):
        small = [L for L in lattices if L.n <= 128]
        assert max(L.n for L in small) > 64 and len(small) > 1000
        for L in small:
            down, up = irreducible_masks_by_push(L)
            meet_of, join_of = {m: i for i, m in enumerate(down)}, {m: i for i, m in enumerate(up)}
            for x, y in itertools.product(range(L.n), repeat=2):
                assert L.meet(x, y) == meet_of[down[x] & down[y]] and L.join(x, y) == join_of[up[x] & up[y]]


N5_COVERS = [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]  # 0 < 1 < 2 < 4 and 0 < 3 < 4
HEXAGON_COVERS = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


class TestOrderQueriesAgainstClosure:
    """leq, meet, join and count_atoms_below read join- and meet-irreducible
    masks; here they are compared on every pair with the transitive-closure
    oracle, on lattices that are mostly not atomistic."""

    @pytest.fixture(scope="class")
    def cases(self):
        cases = [random_bounded_graded_poset(random.Random(seed)) for seed in range(2000)]
        for seed in range(60):
            doc = random_flats_document(random.Random(seed))
            cases.append((len(doc["elements"]), [tuple(c) for c in doc["covers"]]))
        cases += [(4, [(0, 1), (1, 2), (2, 3)]), (6, HEXAGON_COVERS)]
        return [(n, covers, oracle) for n, covers in cases if (oracle := closure_lattice(n, covers))]

    def test_cases_include_non_atomistic_lattices(self, cases):
        atomic = [next(c for c in validate(FiniteLattice.from_covers(n, covers)).checks if c.name == "atomic")
                  for n, covers, _ in cases]
        assert len(cases) > 1000 and sum(not c.passed for c in atomic) > 500

    def test_pentagon_is_a_lattice_but_not_graded(self):
        # N5's maximal chains have lengths 3 and 2; the hexagon above is its
        # graded subdivision
        assert closure_lattice(5, N5_COVERS) is not None
        with pytest.raises(NotGradedError):
            FiniteLattice.from_covers(5, N5_COVERS)

    @pytest.mark.parametrize("covers", [
        [(0, 1), (1, 2), (2, 5), (0, 3), (3, 5), (0, 4), (4, 5)],
        [(0, 1), (1, 2), (2, 5), (0, 4), (4, 5), (0, 3), (3, 5)],
        ((0, 1), (1, 2), (2, 5), (0, 4), (4, 5), (0, 4), (0, 3), (3, 5)),
    ], ids=["3-5-first", "4-5-first", "tuple-of-tuples"])
    def test_from_covers_names_the_first_non_graded_cover_of_the_input(self, covers):
        # 0 < 1 < 2 < 5, 0 < 3 < 5 and 0 < 4 < 5: both short chains skip rank 2
        lo, hi = next((lo, hi) for lo, hi in covers if hi == 5 and lo != 2)
        with pytest.raises(NotGradedError, match=rf"^cover \[{lo}, {hi}\] spans ranks 1 -> 3; the poset is not graded$"):
            FiniteLattice.from_covers(6, covers)

    def test_order_queries_agree_with_the_closure(self, cases):
        for n, covers, (rank, meet, join) in cases:
            L = FiniteLattice.from_covers(n, covers, labels=[str(i) for i in range(n)])
            old = [int(label) for label in L.labels]  # new id -> input id
            new = {o: i for i, o in enumerate(old)}
            atoms = [a for a in range(n) if rank[a] == 1]
            for x in range(n):
                for y in range(n):
                    assert L.leq(x, y) == (meet[old[x], old[y]] == old[x]), covers
                    assert L.meet(x, y) == new[meet[old[x], old[y]]], covers
                    assert L.join(x, y) == new[join[old[x], old[y]]], covers
                assert L.count_atoms_below(x) == sum(meet[a, old[x]] == a for a in atoms), covers


class TestAtomCounts:
    def test_m3_top(self, m3):
        assert m3.count_atoms_below(m3.top) == 3

    def test_bottom_has_none(self, small_lattices):
        for L in small_lattices:
            assert L.count_atoms_below(0) == 0

    def test_fano_lines_have_three_points(self, fano):
        for x in fano.layers[2]:
            assert fano.count_atoms_below(x) == 3


class TestSizeCap:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("LATTICE_SIZE_CAP", "10")
        with pytest.raises(SizeBoundError):
            build_boolean(4)
        monkeypatch.setenv("LATTICE_SIZE_CAP", "100")
        assert build_boolean(4).n == 16

    def test_explicit_cap_wins(self, monkeypatch):
        monkeypatch.setenv("LATTICE_SIZE_CAP", "10")
        assert build_boolean(4, cap=50).n == 16

    def test_malformed_env_is_a_typed_error(self, monkeypatch):
        for value, reason in (("abc", "is not an integer"), ("-1", "is negative")):
            monkeypatch.setenv("LATTICE_SIZE_CAP", value)
            with pytest.raises(SizeBoundError, match=f"^LATTICE_SIZE_CAP='{value}' {reason}$"):
                build_boolean(2)
            assert build_boolean(2, cap=10).n == 4

    @pytest.mark.parametrize(
        "build, args, count",
        [
            (build_projective, (300, 2), "more than 18446744073709551616"),
            (build_affine, (300, 2), "more than 18446744073709551616"),
            (build_uniform, (20000, 40000), "more than 18446744073709551616"),
            (build_projective, (2, 10**18 + 3), "1000000000000000006"),
        ],
    )
    def test_huge_requests_are_refused_before_any_work(self, monkeypatch, build, args, count):
        # the count once overflowed str() (projective(300, 2)), summed 20,000
        # binomials (uniform(20000, 40000)) or waited on trial division
        # (q = 10^18 + 3) before the cap was read; now a few layer sizes are
        # summed, and neither primality nor the builder is reached
        sizes = []

        def counted(f):
            return lambda *a: sizes.append(a) or f(*a)

        def unreachable(*_):
            raise AssertionError("reached past the size guard")

        monkeypatch.setattr(latspec.lattice, "comb", counted(latspec.lattice.comb))
        monkeypatch.setattr(latspec.lattice.gf, "gaussian_binomial", counted(latspec.lattice.gf.gaussian_binomial))
        monkeypatch.setattr(latspec.lattice.gf, "is_prime", unreachable)
        monkeypatch.setattr(latspec.lattice, "_build_flats", unreachable)
        monkeypatch.setattr(latspec.lattice, "_build_subsets", unreachable)
        with pytest.raises(SizeBoundError, match=f"^lattice would have {count} elements, exceeding the cap of 1000$"):
            build(*args, cap=1000)
        assert len(sizes) <= 6

    def test_q_below_two_is_refused_before_the_size(self):
        for build in (build_projective, build_affine):
            for q in (1, 0, -3):
                with pytest.raises(ValueError, match=f"q = {q} must be prime"):
                    build(2, q)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_laws_on_sampled_pairs(data):
    lattices = [
        build_boolean(3),
        build_uniform(2, 4),
        build_projective(2, 3),
        build_affine(2, 2),
    ]
    L = data.draw(st.sampled_from(lattices))
    x = data.draw(st.integers(0, L.n - 1))
    y = data.draw(st.integers(0, L.n - 1))
    j, m = L.join(x, y), L.meet(x, y)
    assert L.leq(m, x) and L.leq(m, y) and L.leq(x, j) and L.leq(y, j)
    assert L.join(x, x) == x and L.meet(x, x) == x
    assert L.join(x, m) == x and L.meet(x, j) == x
    assert L.rank[x] + L.rank[y] >= L.rank[j] + L.rank[m]


class TestBuiltOnFirstRead:
    """Labels and the join and meet indexes are built on first read; the
    numeric layers read neither."""

    def test_boolean_renders_no_label_until_read(self, monkeypatch):
        rendered = []
        subset_label = latspec.lattice._subset_label
        monkeypatch.setattr(latspec.lattice, "_subset_label", lambda mask: rendered.append(mask) or subset_label(mask))
        L = build_boolean(12)
        assert rendered == []
        assert L.labels[0] == "{}" and L.labels[-1] == "{1,2,3,4,5,6,7,8,9,10,11,12}"
        assert len(rendered) == L.n
        assert L.labels is L.labels and len(rendered) == L.n

    def test_numeric_layers_build_no_label_or_join_index(self):
        L = build_boolean(8)
        H = hamiltonian(L)
        jacobi_from_compression(L, H)
        radial_invariance(L, H)
        vacuum_moments_full(L, H, 6)
        eigendecompose(jacobi_from_formula(L))
        assert not {"labels", "_up", "_up_index", "_down_index", "covers_down"} & set(vars(L))
        assert L.join(1, 2) == 9 and {"_up", "_up_index"} <= set(vars(L)) and "covers_down" not in vars(L)  # {1} ∨ {2}

    def test_covers_down_is_the_inverse_of_covers_up(self, small_lattices):
        for L in [*small_lattices, *random_lattices()[:200]]:
            inverse = tuple(tuple(x for x in range(L.n) if y in L.covers_up[x]) for y in range(L.n))
            assert L.covers_down == inverse, L.family_tag

    def test_constructor_keeps_the_lower_cover_counts(self, small_lattices):
        # `cover_weight_sums` and `validate` read them in place of covers_down
        for L in [*small_lattices, *random_lattices()[:200]]:
            assert L._lower_count == [sum(y in ups for ups in L.covers_up) for y in range(L.n)], L.family_tag

    @staticmethod
    def _eager_labels(L, family, r, q):
        """Each element's name read back from the atoms below it, rendered
        as the builders render it: atom i is the i-th point in lexicographic
        order."""
        atoms = [[j for j in range(len(L.atoms)) if L.atoms_below(x) >> j & 1] for x in range(L.n)]
        if family in ("boolean", "uniform"):
            return tuple(latspec.lattice._subset_label(L.atoms_below(x)) for x in range(L.n))
        if family == "projective":
            points = [v for v in itertools.product(range(q), repeat=r) if next((c for c in v if c), 0) == 1]
            return tuple(latspec.lattice._rref_label(gf.rref([points[j] for j in below], q)) for below in atoms)
        points = list(itertools.product(range(q), repeat=r))
        labels = ["empty"]
        for first, *rest in ([points[j] for j in below] for below in atoms[1:]):
            basis = gf.rref([tuple((a - b) % q for a, b in zip(p, first)) for p in rest], q)
            rep = gf.reduce_vector(first, basis, q)
            labels.append("".join(map(str, rep)) + "+" + latspec.lattice._rref_label(basis))
        return tuple(labels)

    @pytest.mark.parametrize("family,params", [
        ("boolean", (5,)), ("uniform", (3, 5)), ("projective", (3, 3)), ("projective", (4, 2)),
        ("affine", (2, 3)), ("affine", (3, 2)),
    ])
    def test_family_labels_equal_the_eager_rendering(self, family, params):
        L = {"boolean": build_boolean, "uniform": build_uniform,
             "projective": build_projective, "affine": build_affine}[family](*params)
        r, q = params if len(params) == 2 else (None, None)
        assert L.labels == self._eager_labels(L, family, r, q)

    def test_product_labels_equal_the_eager_rendering(self, m3):
        L1, L2 = build_projective(2, 2), m3
        P = build_product(L1, L2)
        assert P.labels == tuple(f"({L1.labels[x1]},{L2.labels[x2]})" for x1 in range(L1.n) for x2 in range(L2.n))

    def test_parsed_labels_follow_the_elements(self):
        L = build_affine(2, 2)
        doc = L.to_document()
        perm = list(range(L.n))
        random.Random(5).shuffle(perm)
        shuffled = {
            "elements": [{"id": perm[e["id"]], "label": e["label"]} for e in doc["elements"]],
            "covers": [[perm[x], perm[y]] for x, y in doc["covers"]],
        }
        P = parse_lattice(shuffled)
        assert parse_lattice(doc).labels == L.labels
        assert sorted(P.labels) == sorted(L.labels)
        assert {(P.labels[x], P.labels[y]) for x, y in P.covers()} == {(L.labels[x], L.labels[y]) for x, y in L.covers()}
        assert parse_lattice({"elements": [{"id": 0}], "covers": []}).labels == ("e0",)

    def test_pickling_keeps_the_labels_before_and_after_the_first_read(self, m3):
        lattices = (build_boolean(3), build_uniform(1, 3), build_uniform(3, 5), build_affine(2, 2), build_projective(3, 2),
                    build_product(m3, build_boolean(1)), parse_lattice(M3_DOCUMENT))
        for L in lattices:
            unread = pickle.loads(pickle.dumps(L))
            assert unread.labels == L.labels == pickle.loads(pickle.dumps(L)).labels
            assert unread == L
        assert lattices[1].labels == ("{}", "{1,2,3}")  # the top of uniform(1, m) is an atom, labelled the full set

    @pytest.mark.parametrize("labels", [[], ["a"], ["a", "b", "c"]])
    def test_wrong_number_of_labels_is_rejected(self, labels):
        with pytest.raises(LatticeError, match=f"^{len(labels)} labels given for 2 elements$"):
            FiniteLattice((0, 1), ((1,), ()), labels=labels)
        with pytest.raises(LatticeError, match=f"^{len(labels)} labels given for 2 elements$"):
            FiniteLattice.from_covers(2, [(0, 1)], labels=labels)
