"""Exact checks of each job's machine output against an independent source.

A check returns a JobCheck with two lists:

* `failures`: the job did not succeed.  A verdict job (`verify`,
  `validate`, `product-check`) fails when any of its checks reports FAIL;
  the reported FAIL is counted, never excused.
* `wrong`: the output is wrong or inconsistent: an exact value differs
  from its reference, the output does not parse, or the exit code
  disagrees with the printed verdict.

A job with either list non-empty counts as failed; a run is correct only
when no job has a `wrong` entry.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from latspec import boolean_closed_form, resolvent

from jobs import Job

EPS = sys.float_info.epsilon


@dataclass
class JobCheck:
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.wrong)


def spectrum_tolerances(norm: float, size: int, gap: float) -> tuple[float, float]:
    """Error bounds for the eigenvalues and weights of an eigendecomposed
    symmetric tridiagonal matrix T of order `size`, 2-norm `norm` and
    smallest eigenvalue gap `gap`.

    * Input rounding: each off-diagonal beta_k = sqrt(beta_k^2) passes
      through two correctly rounded operations (Fraction to float, then
      sqrt), so |d beta_k| <= 2 eps beta_k, and the perturbation, bounded
      by its largest row sum, has norm <= 2 * 2 eps norm.
    * Solver: a backward-stable symmetric eigensolver returns the exact
      eigenpairs of T + E with ||E|| <= p(size) eps ||T||; p(size) = size
      is the usual linear growth factor.
    * Eigenvalues move by at most the total perturbation (Weyl):
      delta = (size + 4) eps norm.
    * A unit eigenvector turns by an angle with sin(theta) <= delta /
      (gap - delta) (Davis-Kahan), so its first component moves by at most
      sqrt(2) sin(theta), and the weight u_0^2 by at most
      2 sqrt(2) sin(theta) < 3 delta / (gap - delta).
    """
    delta = (size + 4) * EPS * norm
    return delta, 3 * delta / (gap - delta)


def _check_jacobi(job: Job, out: dict, check: JobCheck) -> None:
    # The Jacobi data is an isomorphism invariant, so relabelled documents
    # share the closed form of the family they were generated from.
    J = job.lattice.reference_jacobi()
    expected = {
        "r": J.r,
        "layers": list(J.layers.sizes),
        "W": list(J.W),
        "beta_sq": [str(b) for b in J.beta_sq],
        "invariant": True,
    }
    for key, value in expected.items():
        if out.get(key) != value:
            check.wrong.append(f"{key}: got {out.get(key)!r}, expected {value!r}")


def _check_moments(job: Job, out: dict, check: JobCheck) -> None:
    K = job.max_k
    expected = [str(c) for c in resolvent(job.lattice.reference_jacobi()).series(K)]
    if out.get("max_k") != K:
        check.wrong.append(f"max_k: got {out.get('max_k')!r}, expected {K}")
    for via in ("full", "radial"):
        if out.get(via) != expected:
            check.wrong.append(f"{via} moments differ from the resolvent series")


def _check_spectrum(job: Job, out: dict, check: JobCheck) -> None:
    (n,) = job.lattice.params
    reference = boolean_closed_form(n).atoms
    # Reference eigenvalues n/2 - j: norm n/2, gap 1, order n + 1.
    tol_value, tol_weight = spectrum_tolerances(n / 2, n + 1, 1.0)
    atoms = out.get("atoms")
    if not isinstance(atoms, list) or len(atoms) != len(reference):
        check.wrong.append(f"expected {len(reference)} spectral atoms")
        return
    for (value, weight), (ref_value, ref_weight) in zip(atoms, reference):
        if abs(value - ref_value) > tol_value or abs(weight - ref_weight) > tol_weight:
            check.wrong.append(
                f"atom ({value}, {weight}) is outside ({tol_value:.3g}, {tol_weight:.3g}) "
                f"of ({ref_value}, {ref_weight})"
            )


def _verdicts(job: Job, out: dict) -> dict[str, bool]:
    """Every PASS/FAIL the output reports, by name."""
    if job.verb == "verify":
        verdicts = {r["name"]: r["passed"] for r in out["results"]}
        verdicts["verdict"] = out["passed"]
        return verdicts
    if job.verb == "validate":
        verdicts = {c["name"]: c["passed"] for c in out["checks"]}
        verdicts["is_geometric"] = out["is_geometric"]
        verdicts["is_semimodular_atomic"] = out["is_semimodular_atomic"]
        return verdicts
    return {name: out[name] for name in ("kronecker_sum", "shuffle_formula", "moment_convolution")}


_VALUE_CHECKS = {"jacobi": _check_jacobi, "moments": _check_moments, "spectrum": _check_spectrum}


def check_job(job: Job, exit_code: int, stdout: bytes) -> JobCheck:
    check = JobCheck()
    try:
        out = json.loads(stdout)
    except ValueError:
        check.wrong.append(f"unparseable output (exit code {exit_code})")
        return check
    if job.verb in _VALUE_CHECKS:
        if exit_code != 0:
            check.wrong.append(f"exit code {exit_code}")
        _VALUE_CHECKS[job.verb](job, out, check)
        return check
    try:
        verdicts = _verdicts(job, out)
    except (KeyError, TypeError):
        check.wrong.append("output lacks the expected verdict fields")
        return check
    check.failures = [name for name, passed in verdicts.items() if passed is not True]
    if exit_code != (1 if check.failures else 0):
        check.wrong.append(f"exit code {exit_code} disagrees with {len(check.failures)} FAIL verdicts")
    return check
