"""Acceptance suite: one test per criterion, one printed verdict line each.

Every rational assertion is exact equality; float assertions carry the
stated tolerance.  Runtime-sensitive criteria assert their wall-clock
budget as well.
"""

import random
import time
from fractions import Fraction

from helpers import is_modular, random_flats_document, walk_moment_bruteforce
from latspec import (
    ZERO,
    RationalPolynomial,
    boolean_closed_form,
    boolean_jacobi,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    convolve_measures,
    convolve_moments,
    determinant_polynomials,
    diamond,
    eigendecompose,
    hamiltonian,
    jacobi_from_compression,
    jacobi_from_formula,
    kronecker_sum_check,
    nonassociativity_witness,
    parse_lattice,
    q_int,
    radial_invariance,
    resolvent,
    shuffle_entry,
    vacuum_moments_full,
    vacuum_moments_radial,
)


def _report(number: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {verdict}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line + (f"\n{detail}" if detail else "")


def _poly(*coeffs):
    return RationalPolynomial([Fraction(c) for c in coeffs])


PROJECTIVE_CASES = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)]


def _collection():
    """Shared cross-family collection of built lattices."""
    lattices = [build_boolean(n) for n in range(6)]
    lattices += [build_uniform(2, m) for m in range(2, 7)]
    lattices += [build_projective(r, q) for r, q in [(2, 2), (3, 2), (2, 3), (3, 3)]]
    lattices += [build_affine(2, 2), build_affine(2, 3), build_affine(3, 2)]
    m3 = build_uniform(2, 3)
    lattices += [build_product(m3, build_boolean(1)), build_product(build_boolean(2), build_boolean(2))]
    return lattices


def test_criterion_01_m3_exact_reproduction(m3):
    J = jacobi_from_compression(m3)
    ok = J.beta_sq == (Fraction(3, 4), Fraction(3))
    D = determinant_polynomials(J)
    ok = ok and D[J.r] == _poly(1, 0, Fraction(-3, 4))
    ok = ok and D[J.r + 1] == _poly(1, 0, Fraction(-15, 4))
    _report(1, "three-atom diamond coefficients and determinant quotient", ok)


def test_criterion_02_boolean_beta_law():
    start = time.monotonic()
    ok, detail = True, ""
    for n in range(1, 11):
        J = jacobi_from_compression(build_boolean(n))
        for k in range(n):
            if J.beta_sq[k] != Fraction((k + 1) * (n - k), 4):
                ok, detail = False, f"n={n}, k={k}"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(2, "boolean coefficient law n=1..10", ok, detail or f"{elapsed:.1f}s")


def test_criterion_03_boolean_determinants():
    expected = {
        1: _poly(1, 0, Fraction(-1, 4)),
        2: _poly(1, 0, -1),
        3: _poly(1, 0, Fraction(-5, 2), 0, Fraction(9, 16)),
    }
    ok, detail = True, ""
    for n, want in expected.items():
        D = determinant_polynomials(jacobi_from_compression(build_boolean(n)))
        if D[n + 1] != want:
            ok, detail = False, f"n={n}"
    _report(3, "boolean determinant polynomials", ok, detail)


def test_criterion_04_projective_beta_law():
    start = time.monotonic()
    ok, detail = True, ""
    for r, q in PROJECTIVE_CASES:
        J = jacobi_from_compression(build_projective(r, q))
        for k in range(r):
            want = Fraction(q ** (2 * k) * q_int(k + 1, q) * q_int(r - k, q), 4)
            if J.beta_sq[k] != want:
                ok, detail = False, f"(r,q)=({r},{q}), k={k}"
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    _report(4, "projective coefficient law", ok, detail or f"{elapsed:.1f}s")


def test_criterion_05_formula_equals_compression_everywhere():
    lattices = _collection()
    for seed in range(20):
        L = parse_lattice(random_flats_document(random.Random(seed)))
        assert L.validation.passed()
        lattices.append(L)
    ok, detail = True, ""
    for L in lattices:
        Jf, Jc = jacobi_from_formula(L), jacobi_from_compression(L)
        if Jf.beta_sq != Jc.beta_sq or Jf.W != Jc.W:
            ok, detail = False, L.family_tag
            break
    _report(5, "coefficient formula equals compression on every built lattice", ok, detail)


def test_criterion_06_odd_moments_and_zero_diagonal():
    ok, detail = True, ""
    for L in _collection():
        H = hamiltonian(L)
        moments = vacuum_moments_full(L, H, 11)
        if any(moments[k] != 0 for k in range(1, 12, 2)):
            ok, detail = False, f"odd moment on {L.family_tag}"
            break
        if any(H.entry(x, x) != 0 for x in range(L.n)):
            ok, detail = False, f"diagonal on {L.family_tag}"
            break
        jacobi_from_compression(L, H)  # raises on nonzero radial diagonal
    _report(6, "odd vacuum moments vanish and diagonals are zero", ok, detail)


def test_criterion_07_radial_invariance_and_moment_agreement():
    cases = [build_boolean(n) for n in range(1, 11)]
    cases += [build_projective(r, q) for r, q in PROJECTIVE_CASES]
    cases += [build_uniform(2, 3)]
    ok, detail = True, ""
    for L in cases:
        H = hamiltonian(L)
        if not radial_invariance(L, H).invariant:
            ok, detail = False, f"not invariant: {L.family_tag}"
            break
        full = vacuum_moments_full(L, H, 10)
        rad = vacuum_moments_radial(jacobi_from_compression(L, H), 10)
        if full.values != rad.values:
            ok, detail = False, f"moment mismatch: {L.family_tag}"
            break
    _report(7, "radial invariance with exact moment agreement", ok, detail)


def test_criterion_08_resolvent_moment_duality():
    ok, detail = True, ""
    for L in _collection():
        J = jacobi_from_formula(L)
        order = 2 * J.r
        walks = tuple(walk_moment_bruteforce(J.beta_sq, k) for k in range(order + 1))
        if resolvent(J).series(order) != walks:
            ok, detail = False, L.family_tag
            break
    _report(8, "resolvent series equals the walk moments to order 2r", ok, detail)


def test_criterion_09_boolean_spectrum():
    ok, detail = True, ""
    for n in range(13):
        got = eigendecompose(boolean_jacobi(n))
        want = boolean_closed_form(n)
        for (l1, w1), (l2, w2) in zip(got.atoms, want.atoms):
            if abs(l1 - l2) > 1e-10 or abs(w1 - w2) > 1e-10:
                ok, detail = False, f"n={n}"
                break
    _report(9, "boolean spectrum matches the binomial closed form", ok, detail)


def test_criterion_10_product_laws():
    b1 = build_boolean(1)
    b2 = build_boolean(2)
    m3 = build_uniform(2, 3)
    pairs = [(b1, b1), (m3, b1), (b2, b2)]
    ok, detail = True, ""
    for L1, L2 in pairs:
        if not kronecker_sum_check(L1, L2):
            ok, detail = False, f"kronecker {L1.family_tag} x {L2.family_tag}"
            break
        HP = hamiltonian(build_product(L1, L2))
        try:
            for x1 in range(L1.n):
                for y1 in range(L1.n):
                    if not L1.leq(x1, y1):
                        continue
                    for x2 in range(L2.n):
                        for y2 in range(L2.n):
                            if not L2.leq(x2, y2):
                                continue
                            d = (L1.rank[y1] - L1.rank[x1]) + (L2.rank[y2] - L2.rank[x2])
                            if d <= 4:
                                shuffle_entry(L1, L2, (x1, x2), (y1, y2), product_hamiltonian=HP)
        except AssertionError:
            ok, detail = False, f"shuffle {L1.family_tag} x {L2.family_tag}"
            break
        m1 = vacuum_moments_full(L1, hamiltonian(L1), 8)
        m2 = vacuum_moments_full(L2, hamiltonian(L2), 8)
        product_moments = vacuum_moments_full(build_product(L1, L2), HP, 8)
        if convolve_moments(m1, m2, 8).values != product_moments.values:
            ok, detail = False, f"convolution {L1.family_tag} x {L2.family_tag}"
            break
    if ok:
        mu1 = eigendecompose(boolean_jacobi(1))
        acc = mu1
        for n in range(2, 9):
            acc = convolve_measures(acc, mu1)
            want = boolean_closed_form(n)
            for (l1, w1), (l2, w2) in zip(acc.atoms, want.atoms):
                if abs(l1 - l2) > 1e-9 or abs(w1 - w2) > 1e-9:
                    ok, detail = False, f"iterated convolution n={n}"
                    break
    _report(10, "Kronecker sum, shuffle, and convolution laws", ok, detail)


def _product(L, u, v):
    """u ⋄ v on the span of the basis: the algebra zero absorbs."""
    if u is ZERO or v is ZERO:
        return ZERO
    return diamond(L, u, v)


def test_criterion_11_nonassociativity_witnesses():
    """The witness search finds a violation exactly where the product is
    nonassociative.

    On a modular lattice the product (x ∨ y when x ∧ y is the bottom, else
    the absorbing algebra zero) is associative.  (x ⋄ y) ⋄ z is nonzero
    exactly when x ∧ y = 0 and (x ∨ y) ∧ z = 0.  By rank additivity,
    r(a ∨ b) + r(a ∧ b) = r(a) + r(b), these two conditions together say
    r(x ∨ y ∨ z) = r(x) + r(y) + r(z).  The same additivity turns the other
    grouping's conditions, y ∧ z = 0 and x ∧ (y ∨ z) = 0, into the same
    equation.  So both groupings equal x ∨ y ∨ z, or both are zero, and the
    three-atom diamond, the seven-point plane and the subset lattices have
    no witness.  The all-pairs modular law in `helpers.is_modular` backs
    that expectation without calling the product.

    The paper's product is nonassociative on non-modular geometric
    lattices: the affine ones, where parallel flats meet at the adjoined
    bottom, and uniform(r, m) with 3 <= r < m.  There the search must find
    a witness, and each witness is rechecked by evaluating both groupings
    again.
    """
    modular = [
        ("the three-atom diamond", build_uniform(2, 3)),
        ("the seven-point plane", build_projective(3, 2)),
    ] + [(f"the subset lattice n={n}", build_boolean(n)) for n in range(6)]
    nonmodular = [
        ("affine(2,2)", build_affine(2, 2)),
        ("affine(3,2)", build_affine(3, 2)),
        ("uniform(3,4)", build_uniform(3, 4)),
        ("uniform(4,5)", build_uniform(4, 5)),
    ]
    failures = []
    for name, L in modular:
        if not is_modular(L):
            failures.append(f"{name} fails the modular law")
        elif (witness := nonassociativity_witness(L)) is not None:
            failures.append(f"unexpected witness {witness} on {name}")
    for name, L in nonmodular:
        if is_modular(L):
            failures.append(f"{name} satisfies the modular law")
        elif (witness := nonassociativity_witness(L)) is None:
            failures.append(f"no witness found on {name}")
        else:
            x, y, z = witness
            lhs = _product(L, _product(L, x, y), z)
            rhs = _product(L, x, _product(L, y, z))
            if lhs == rhs:
                failures.append(f"both groupings of witness {witness} agree on {name}")
    _report(11, "associativity witness search", not failures, "; ".join(failures))
