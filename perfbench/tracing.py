"""Traced replay of one job: the per-layer half of the benchmark.

The replay makes, in process and in the same order, the calls into the
public functions of latspec that the CLI handler for the job's verb
makes, and records a span around each.  Where a callee would build the
Hamiltonian itself, the replay builds it first and passes it in, which
is the same work and puts its time on the `diamond` layer.  Spans stay in
memory and are printed once, as JSON, when the job ends.

Run as a script, this module replays one job of a workload in a fresh
interpreter, so that its memory readings start from a clean process, as
the CLI's do:

    PYTHONPATH=src python perfbench/tracing.py <workload> <job index> [document]
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from latspec import (
    build_product,
    convolve_moments,
    eigendecompose,
    hamiltonian,
    jacobi_from_compression,
    kronecker_sum_check,
    radial_invariance,
    read_lattice_file,
    run_invariant_suite,
    shuffle_entry,
    vacuum_moments_full,
    vacuum_moments_radial,
    validate,
)

from jobs import WORKLOADS

LAYERS = ("lattice", "diamond", "radial", "spectral", "product", "verify")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects the spans of one job; a span's parent is the innermost span
    open when it starts."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(name, 0.0, 0.0, parent, self.job)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec.attrs["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec.start = time.perf_counter()
        try:
            yield rec.attrs
        finally:
            rec.end = time.perf_counter()
            rec.attrs["maxrss_rise_kb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rec.attrs.pop("maxrss_kb")
            )
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# ---------------------------------------------------------------------------
# Replay: one function per verb, mirroring latspec.cli's handlers
# ---------------------------------------------------------------------------


def _build(rec: Recorder, lattice):
    with rec.span("lattice.build") as attrs:
        L = lattice.build()
    attrs.update(_lattice_sizes(L), pairs_tested=lattice.pairs_tested(L.layer_sizes()))
    return L


def _lattice_sizes(L) -> dict:
    return {"elements": L.n, "covers": sum(len(ups) for ups in L.covers_up)}


def _parse(rec: Recorder, path: str):
    with rec.span("lattice.parse") as attrs:
        L = read_lattice_file(path)
    attrs.update(_lattice_sizes(L), pair_queries=L.n * (L.n - 1) // 2)
    return L


def _source(rec: Recorder, job, document: str | None):
    return _parse(rec, document) if job.from_document else _build(rec, job.lattice)


def _hamiltonian(rec: Recorder, L):
    with rec.span("diamond.hamiltonian") as attrs:
        H = hamiltonian(L)
    attrs["nnz"] = H.nnz()
    return H


def _moments_full(rec: Recorder, L, H, K: int):
    with rec.span("spectral.moments_full") as attrs:
        m = vacuum_moments_full(L, H, K)
    attrs["matvecs"] = K
    return m


def _replay_jacobi(rec, job, document):
    L = _source(rec, job, document)
    H = _hamiltonian(rec, L)
    rec.call("radial.compress", jacobi_from_compression, L, H)
    rec.call("radial.invariance", radial_invariance, L, H)


def _replay_moments(rec, job, document):
    L = _source(rec, job, document)
    H = _hamiltonian(rec, L)
    _moments_full(rec, L, H, job.max_k)
    J = rec.call("radial.compress", jacobi_from_compression, L, H)
    rec.call("spectral.moments_radial", vacuum_moments_radial, J, job.max_k)


def _replay_spectrum(rec, job, document):
    L = _source(rec, job, document)
    H = _hamiltonian(rec, L)
    J = rec.call("radial.compress", jacobi_from_compression, L, H)
    rec.call("spectral.eigen", eigendecompose, J)


def _replay_verify(rec, job, document):
    L = _source(rec, job, document)
    with rec.span("verify.suite") as attrs:
        results = run_invariant_suite(L)
    attrs.update(checks_run=len(results), checks_failed=sum(not r.passed for r in results))


def _replay_validate(rec, job, document):
    L = _parse(rec, document)
    if L.validation is None:
        rec.call("lattice.validate", validate, L)


def _replay_product_check(rec, job, document):
    L1 = _build(rec, job.lattice)
    L2 = _build(rec, job.right)
    rec.call("product.kronecker", kronecker_sum_check, L1, L2)
    with rec.span("lattice.build") as attrs:
        LP = build_product(L1, L2)
    attrs.update(_lattice_sizes(LP), pairs_tested=0)
    HP = _hamiltonian(rec, LP)
    for x1 in range(L1.n):
        for y1 in range(L1.n):
            if not L1.leq(x1, y1):
                continue
            for x2 in range(L2.n):
                for y2 in range(L2.n):
                    if not L2.leq(x2, y2):
                        continue
                    d = (L1.rank[y1] - L1.rank[x1]) + (L2.rank[y2] - L2.rank[x2])
                    if d > 4:
                        continue
                    with rec.span("product.shuffle"):
                        try:
                            shuffle_entry(L1, L2, (x1, x2), (y1, y2), product_hamiltonian=HP)
                        except AssertionError:
                            pass
    K = job.max_k
    m1 = _moments_full(rec, L1, _hamiltonian(rec, L1), K)
    m2 = _moments_full(rec, L2, _hamiltonian(rec, L2), K)
    rec.call("product.convolve", convolve_moments, m1, m2, K)
    _moments_full(rec, LP, HP, K)


REPLAYS = {
    "jacobi": _replay_jacobi,
    "moments": _replay_moments,
    "spectrum": _replay_spectrum,
    "verify": _replay_verify,
    "validate": _replay_validate,
    "product-check": _replay_product_check,
}


def replay(job, document: str | None) -> list[Span]:
    rec = Recorder(job.name)
    with rec.span("job"):
        REPLAYS[job.verb](rec, job, document)
    return rec.spans


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, span name, attribute summed over those spans, or None for
# the spans' self time).  Counts computed from sizes rather than counted
# where they happen are marked "computed" in README.md.
SPAN_SUMS = {
    "lattice.build_s": ("s", "lattice.build", None),
    "lattice.build_calls": ("count", "lattice.build", "calls"),
    "lattice.elements": ("count", "lattice.build", "elements"),
    "lattice.covers": ("count", "lattice.build", "covers"),
    "lattice.pairs_tested": ("count", "lattice.build", "pairs_tested"),
    "lattice.parse_s": ("s", "lattice.parse", None),
    "lattice.pair_queries": ("count", "lattice.parse", "pair_queries"),
    "diamond.hamiltonian_s": ("s", "diamond.hamiltonian", None),
    "diamond.hamiltonian_calls": ("count", "diamond.hamiltonian", "calls"),
    "diamond.nnz": ("count", "diamond.hamiltonian", "nnz"),
    "radial.compress_s": ("s", "radial.compress", None),
    "radial.invariance_s": ("s", "radial.invariance", None),
    "spectral.moments_full_s": ("s", "spectral.moments_full", None),
    "spectral.matvecs": ("count", "spectral.moments_full", "matvecs"),
    "spectral.moments_radial_s": ("s", "spectral.moments_radial", None),
    "spectral.eigen_s": ("s", "spectral.eigen", None),
    "product.kronecker_s": ("s", "product.kronecker", None),
    "product.shuffle_s": ("s", "product.shuffle", None),
    "product.shuffle_calls": ("count", "product.shuffle", "calls"),
    "product.convolve_s": ("s", "product.convolve", None),
    "verify.suite_s": ("s", "verify.suite", None),
    "verify.checks_run": ("count", "verify.suite", "checks_run"),
    "verify.checks_failed": ("count", "verify.suite", "checks_failed"),
}
DERIVED_UNITS = {
    "lattice.cover_yield": "ratio",
    "lattice.build_rss_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
UNITS = {name: unit for name, (unit, _, _) in SPAN_SUMS.items()} | DERIVED_UNITS


def pass_metrics(traced: list[tuple[list[Span], float, float]]) -> dict[str, float]:
    """Per-layer metrics of one pass over a workload's jobs.

    `traced` holds, per job, the replay's spans, the replay process's wall
    time and the untraced CLI job's wall time.
    """
    out = dict.fromkeys(UNITS, 0)
    q_covers = 0
    cli_overhead = trace_overhead = 0.0
    for spans, traced_wall, cli_wall in traced:
        selfs = self_times(spans)
        layer_sum = 0.0
        build_rise_kb = 0
        for span, self_s in zip(spans, selfs):
            layer = span.name.partition(".")[0]
            if layer not in LAYERS:
                continue
            out[f"{layer}.self_s"] += self_s
            layer_sum += self_s
            if span.name == "lattice.build":
                build_rise_kb += span.attrs["maxrss_rise_kb"]
                if span.attrs["pairs_tested"]:
                    q_covers += span.attrs["covers"]
            attrs = {**span.attrs, "calls": 1}
            for name, (_, span_name, attr) in SPAN_SUMS.items():
                if span.name == span_name:
                    out[name] += self_s if attr is None else attrs[attr]
        out["lattice.build_rss_mb"] = max(out["lattice.build_rss_mb"], build_rise_kb / 1024)
        cli_overhead += cli_wall - layer_sum
        trace_overhead += traced_wall - cli_wall
    if out["lattice.pairs_tested"]:
        out["lattice.cover_yield"] = q_covers / out["lattice.pairs_tested"]
    out["cli.overhead_s"] = cli_overhead
    out["trace.overhead_s"] = trace_overhead
    return out


def main(argv: list[str]) -> int:
    workload, index, *document = argv
    job = WORKLOADS[workload][int(index)]
    try:
        spans = replay(job, document[0] if document else None)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps({"spans": [asdict(s) for s in spans]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
