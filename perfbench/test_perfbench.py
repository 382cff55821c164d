"""Self-tests of the benchmark: run with `python -m pytest perfbench`."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from latspec import jacobi_from_compression, parse_lattice
from latspec.cli import main as cli_main

import checks
import tracing
from jobs import Job, Lattice, relabelled_document, write_documents
from tracing import Span


def cli(job, document=None):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(job.argv(document))
    return code, json.loads(buf.getvalue())


def encode(out):
    return json.dumps(out).encode()


def test_jacobi_check_rejects_beta_sq_off_by_a_quarter():
    job = Job("jacobi", Lattice("projective", (3, 2)))
    code, out = cli(job)
    assert not checks.check_job(job, code, encode(out)).failed
    out["beta_sq"][1] = str(Fraction(out["beta_sq"][1]) + Fraction(1, 4))
    result = checks.check_job(job, code, encode(out))
    assert result.failed and result.wrong


def test_moments_check_rejects_one_changed_moment():
    job = Job("moments", Lattice("boolean", (4,)), max_k=8)
    code, out = cli(job)
    assert not checks.check_job(job, code, encode(out)).failed
    out["radial"][6] = str(Fraction(out["radial"][6]) + 1)
    assert checks.check_job(job, code, encode(out)).wrong


def test_spectrum_check_rejects_an_eigenvalue_outside_the_bound():
    job = Job("spectrum", Lattice("boolean", (5,)))
    code, out = cli(job)
    assert not checks.check_job(job, code, encode(out)).failed
    tol_value, _ = checks.spectrum_tolerances(5 / 2, 6, 1.0)
    out["atoms"][2][0] += 2 * tol_value
    assert checks.check_job(job, code, encode(out)).wrong


@pytest.mark.parametrize(
    "job, flip",
    [
        (Job("verify", Lattice("boolean", (3,))), lambda out: out["results"][4].update(passed=False)),
        (Job("product-check", Lattice("projective", (2, 2)), right=Lattice("boolean", (2,)), max_k=6),
         lambda out: out.update(shuffle_formula=False)),
    ],
)
def test_verdict_check_counts_one_flipped_pass(job, flip):
    code, out = cli(job)
    assert code == 0 and not checks.check_job(job, code, encode(out)).failed
    flip(out)
    # A FAIL the program also signals by its exit code is a failed job ...
    consistent = checks.check_job(job, 1, encode(out))
    assert consistent.failed and consistent.failures and not consistent.wrong
    # ... and one it does not signal is also a wrong output.
    assert checks.check_job(job, 0, encode(out)).wrong


def test_validate_check_counts_one_flipped_pass(tmp_path):
    job = Job("validate", Lattice("boolean", (3,)), from_document=True)
    [document] = write_documents((job,), seed=5, directory=tmp_path).values()
    code, out = cli(job, document)
    assert code == 0 and not checks.check_job(job, code, encode(out)).failed
    out["checks"][0]["passed"] = False
    assert checks.check_job(job, 1, encode(out)).failures


def test_generator_is_deterministic_per_seed_and_isomorphic_across_seeds():
    L = Lattice("projective", (3, 2)).build()
    first = relabelled_document(L, 7)
    assert relabelled_document(L, 7) == first
    other = relabelled_document(L, 8)
    assert other != first
    J = jacobi_from_compression(L)
    for document in (first, other):
        M = parse_lattice(document)
        assert (M.n, M.layer_sizes()) == (L.n, L.layer_sizes())
        assert jacobi_from_compression(M) == J


def span(name, start, end, parent, **attrs):
    return Span(name, start, end, parent, "job", dict(attrs))


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("job", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered once
        span("c", 2.0, 3.0, 1),
        span("d", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_pass_metrics_sum_layer_spans_and_overheads():
    spans = [
        span("job", 0.0, 3.0, None),
        span("lattice.build", 0.5, 1.5, 0, elements=10, covers=20, pairs_tested=40, maxrss_rise_kb=2048),
        span("diamond.hamiltonian", 1.5, 2.0, 0, nnz=40, maxrss_rise_kb=0),
    ]
    metrics = tracing.pass_metrics([(spans, 3.25, 4.0)])
    assert metrics["lattice.build_s"] == pytest.approx(1.0)
    assert metrics["lattice.cover_yield"] == pytest.approx(0.5)
    assert metrics["lattice.build_rss_mb"] == pytest.approx(2.0)
    assert metrics["diamond.nnz"] == 40
    assert metrics["cli.overhead_s"] == pytest.approx(4.0 - 1.5)
    assert metrics["trace.overhead_s"] == pytest.approx(3.25 - 4.0)
    assert metrics["product.self_s"] == 0


@pytest.mark.parametrize(
    "job",
    [
        Job("jacobi", Lattice("affine", (2, 2))),
        Job("moments", Lattice("boolean", (3,)), max_k=4),
        Job("spectrum", Lattice("boolean", (3,))),
        Job("verify", Lattice("projective", (2, 2))),
        Job("product-check", Lattice("boolean", (1,)), right=Lattice("boolean", (2,)), max_k=4),
        Job("validate", Lattice("boolean", (3,)), from_document=True),
        Job("jacobi", Lattice("boolean", (3,)), from_document=True),
    ],
    ids=lambda job: job.name,
)
def test_replay_records_a_layer_span_for_every_call(job, tmp_path):
    document = write_documents((job,), seed=1, directory=tmp_path).get(job)
    spans = tracing.replay(job, document and str(document))
    assert spans[0].name == "job" and all(s.parent == 0 for s in spans[1:])
    assert {s.name.partition(".")[0] for s in spans[1:]} <= set(tracing.LAYERS)
