"""Aggregated invariant suite for a single lattice, run by `lattice verify`.

Every check is exact and can fail: validation, atoms raising rank,
creation against annihilation, the atom against the cover Hamiltonian,
odd moments, formula against compression, full against radial moments,
and the float measure against a derived bound.  Laws true by
construction are proved where they are made true, not checked: a unique
bottom and top and graded covers (`FiniteLattice`), commutativity and the
bottom as unit of the diamond product (`diamond`: J(0) is empty, so
0 ∧ x = 0, and M(0) ⊇ M(x), so 0 ∨ x = x), the total cover weight
(`cover_weight_sums`) and D_k(0) = 1 (`spectral._continuant`).  So is
the duality of `resolvent` and `vacuum_moments_radial`, which reads the
moments off the resolvent's series (Cramer's rule, in its docstring).

Each atom's creation pairs (a ⋄ x, x), from `diamond`, and lowering pairs,
from the covers that gain it, are built once: atom-raises-rank reads the
first, and transpose-consistency compares the two and so fails exactly
where atom-raises-rank does (`annihilation_operator`).  assembly-agreement
compares `_assemble` of the creation pairs, the H every later check reads,
with `hamiltonian`, the cover rule from which every other verb reads H.
So H needs no bipartite check: as `_assemble` of the creation pairs, its
entries have those pairs' rank gaps, which atom-raises-rank reads, and
each is a sum of halves, one per pair there: a positive half-integer.

Four checks hold on every finite lattice, so a FAIL there is a code
fault, not a property of the input.  assembly-agreement: the cover rule
equals the creation-pair assembly on every lattice, atoms that skip a
rank included (`hamiltonian`).  formula-equals-compression: a
creation pair of rank gap one is a cover with an atom it gains
(`hamiltonian`), so the compression's W_k counts what `cover_weight_sums`
counts.  full-equals-radial: the proof below.  measure-moments: its bound
is derived for every Jacobi matrix (`measure_moment_bound`).

Full and radial moments agree through order 2l+1, l the first level whose
layer sum s_l is not mapped by H into span{s_(l-1), s_(l+1)}
(`radial_invariance`), and at every order when there is none.  Proof
(Krylov), in the normalized layer sums u_k, u_0 = e_0: on span{u_0..u_l}
the compression of H is J.  Its diagonal is zero, as no entry of H joins
two elements of one rank, and an entry <u_m, H u_k> = <u_k, H u_m> with
m >= k+2 puts H u_k out of span{u_(k-1), u_(k+1)}, so k >= l and m > l.
Such entries, as where an atom raises rank by two, are not in J.  As
H u_k = J u_k for k < l, H^j e_0 = J^j e_0 lies in span{u_0..u_j} for
j <= l.  So m_(i+j) = <H^i e_0, H^j e_0> = <J^i e_0, J^j e_0> for i, j <= l,
and m_(2l+1) = <v, H v> = <v, J v> with v = J^l e_0.  The check compares
orders 0..min(MOMENT_ORDER, 2l+1), or 0..MOMENT_ORDER.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .diamond import _assemble, _creation_pairs, _lowering_pairs, hamiltonian
from .lattice import FiniteLattice
from .radial import jacobi_from_compression, jacobi_from_formula, radial_invariance
from .spectral import eigendecompose, vacuum_moments_full, vacuum_moments_radial


def measure_moment_bound(k: int, r: int, rho: float) -> float:
    """Bound on |sum_j w_j lambda_j^k - m_k| for the measure eigendecompose
    returns on an (r+1) x (r+1) Jacobi matrix T with rho = max|lambda_j|:

        2 (k+1) (r+1) eps rho^k,   eps = 2^-52 (twice the unit roundoff).

    Derivation, to first order in eps.  A backward-stable `eigh` returns
    the exact eigenpairs of T + E with ||E|| <= p(r+1) eps ||T||, and
    ||T|| = rho since T is symmetric.  We take the cautious p(r+1) = r+1
    (LAPACK's approximate bounds use p = 1).  The weights are the squared
    first eigenvector components, so sum_j w_j lambda_j^k = e0^T (T+E)^k e0,
    and

        |e0^T (T+E)^k e0 - e0^T T^k e0| <= k ||E|| (||T|| + ||E||)^(k-1)
                                         ~ k (r+1) eps rho^k.

    Evaluating the sum adds rounding: w_j (one square), lambda_j^k (one
    libm pow, accurate to about one rounding) and their product cost 3 eps
    per term, and summing r+1 terms adds r eps, all relative to
    sum_j w_j |lambda_j|^k <= rho^k.  The total k(r+1) + r + 3 is at most
    2(k+1)(r+1) whenever k + r >= 1, which fixes C = 2; at k = r = 0 the
    measure is exact.
    """
    return 2 * (k + 1) * (r + 1) * sys.float_info.epsilon * rho**k


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""


# Orders compared with the radial moments; odd-vanish reads one order more.
MOMENT_ORDER = 10


def run_invariant_suite(L: FiniteLattice) -> list[SuiteResult]:
    """Every check's outcome, validation first, read from `L.validation`.
    On a non-lattice only the validation results are returned: the other
    checks need meets and joins."""
    results = [
        SuiteResult(f"validate:{c.name}", c.passed, f"counterexample {c.counterexample}" if c.counterexample else "")
        for c in L.validation.checks
    ]
    if L.first_meetless_pair is not None:
        return results

    # Both lists hold at most one pair per x, in x order (`_lowering_pairs`),
    # so equal arrays are equal operators and the first bad pair is the first x.
    creation = [_creation_pairs(L, a) for a in L.atoms]
    lowering = _lowering_pairs(L)
    rank = np.asarray(L.rank)
    bad = next(
        (f"atom {a}, element {lower[i[0]]}" for a, (upper, lower) in zip(L.atoms, creation)
         if (i := np.flatnonzero(rank[upper] != rank[lower] + 1)).size),
        "",
    )
    results.append(SuiteResult("diamond:atom-raises-rank", not bad, bad))

    bad = next((f"atom {a}" for a, C, A in zip(L.atoms, creation, lowering) if not np.array_equal(C, A)), "")
    results.append(SuiteResult("operators:transpose-consistency", not bad, bad))

    H = _assemble(L, creation)
    results.append(SuiteResult("hamiltonian:assembly-agreement", H == hamiltonian(L)))

    moments = vacuum_moments_full(L, H, MOMENT_ORDER + 1)
    odd_ok = all(moments[k] == 0 for k in range(1, MOMENT_ORDER + 2, 2))
    results.append(SuiteResult("moments:odd-vanish", odd_ok))

    J_formula = jacobi_from_formula(L)
    J_comp = jacobi_from_compression(L, H)
    jacobi_ok = J_formula.W == J_comp.W  # both are `from_weights`, so equal W gives equal beta_sq
    results.append(
        SuiteResult(
            "jacobi:formula-equals-compression",
            jacobi_ok,
            "" if jacobi_ok else f"{J_formula.beta_sq} vs {J_comp.beta_sq}",
        )
    )

    radial = vacuum_moments_radial(J_comp, MOMENT_ORDER)
    level = radial_invariance(L, H).failing_level
    K = MOMENT_ORDER if level is None else min(MOMENT_ORDER, 2 * level + 1)
    full_ok = moments.values[: K + 1] == radial.values[: K + 1]
    detail = "" if level is None else f"orders 0..{K}: radial subspace not invariant at level {level}"
    results.append(SuiteResult("moments:full-equals-radial", full_ok, detail))

    measure = eigendecompose(J_comp)
    rho = max(abs(eig) for eig, _ in measure.atoms)
    bad = next((f"moment {k}" for k in range(MOMENT_ORDER + 1)
                if abs(measure.moment(k) - float(radial[k])) > measure_moment_bound(k, J_comp.r, rho)), "")
    results.append(SuiteResult("spectral:measure-moments", not bad, bad))

    return results
