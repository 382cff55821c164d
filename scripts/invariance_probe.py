#!/usr/bin/env python3
"""Empirical probe: which lattices keep the radial subspace invariant?

Sweeps the built-in families, their pairwise products, and a batch of
random point-configuration flats lattices, reporting the exact invariance
verdict and, where invariance fails, the first failing level l.  Also
reports the first order at which the full vacuum moments differ from the
radial ones, or "-" when they agree.  They agree at every order on an
invariant lattice, and through order 2l+1 otherwise (`latspec.verify`);
the probe compares them through order 2l+2, or 8 when invariant.

Usage: python scripts/invariance_probe.py [--random N] [--seed S]
"""

import argparse
import random

from latspec import (
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    hamiltonian,
    jacobi_from_compression,
    parse_lattice,
    radial_invariance,
    vacuum_moments_full,
    vacuum_moments_radial,
)
from latspec.gf import in_rowspace, rref


def random_flats_lattice(rng: random.Random):
    """Flats of a random set of scalar-normalized points over a prime field."""
    q = rng.choice((2, 3))
    dim = rng.choice((2, 3))
    candidates = []
    for code in range(1, q**dim):
        v = tuple((code // q**i) % q for i in range(dim))
        if next(x for x in v if x) == 1:
            candidates.append(v)
    points = rng.sample(candidates, rng.randint(dim, min(6, len(candidates))))

    def closure(subset):
        basis = rref([points[i] for i in subset], q)
        return frozenset(i for i, p in enumerate(points) if in_rowspace(p, basis, q))

    flats = {closure(frozenset())}
    covers = set()
    queue = list(flats)
    while queue:
        flat = queue.pop()
        for i in range(len(points)):
            if i not in flat:
                bigger = closure(flat | {i})
                covers.add((flat, bigger))
                if bigger not in flats:
                    flats.add(bigger)
                    queue.append(bigger)
    ordered = sorted(flats, key=lambda f: (len(f), sorted(f)))
    ids = {flat: i for i, flat in enumerate(ordered)}
    doc = {
        "elements": [{"id": i, "label": str(sorted(f))} for f, i in ids.items()],
        "covers": [[ids[lo], ids[hi]] for lo, hi in covers],
    }
    return parse_lattice(doc), f"flats(q={q},dim={dim},pts={len(points)})"


def probe(L, name):
    H = hamiltonian(L)
    report = radial_invariance(L, H)
    K = 8 if report.failing_level is None else 2 * report.failing_level + 2
    full = vacuum_moments_full(L, H, K)
    rad = vacuum_moments_radial(jacobi_from_compression(L, H), K)
    differ = next((str(k) for k in range(K + 1) if full[k] != rad[k]), "-")
    level = "-" if report.failing_level is None else str(report.failing_level)
    print(
        f"{name:<42s} n={L.n:<5d} invariant={str(report.invariant):<5s} "
        f"fail-level={level:<3s} moments-differ-at={differ}"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=int, default=12, help="random lattices to probe")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for n in range(1, 7):
        probe(build_boolean(n), f"boolean({n})")
    for m in range(3, 7):
        probe(build_uniform(2, m), f"uniform(2,{m})")
    probe(build_uniform(3, 4), "uniform(3,4)")
    probe(build_uniform(3, 5), "uniform(3,5)")
    for r, q in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        probe(build_projective(r, q), f"projective({r},{q})")
    for r, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        probe(build_affine(r, q), f"affine({r},{q})")

    m3 = build_uniform(2, 3)
    b1, b2 = build_boolean(1), build_boolean(2)
    fano = build_projective(3, 2)
    for L1, L2, name in [
        (b1, b1, "boolean(1) x boolean(1)"),
        (b2, b2, "boolean(2) x boolean(2)"),
        (m3, b1, "uniform(2,3) x boolean(1)"),
        (m3, b2, "uniform(2,3) x boolean(2)"),
        (m3, m3, "uniform(2,3) x uniform(2,3)"),
        (fano, b1, "projective(3,2) x boolean(1)"),
    ]:
        probe(build_product(L1, L2), name)

    rng = random.Random(args.seed)
    for _ in range(args.random):
        L, name = random_flats_lattice(rng)
        probe(L, name)


if __name__ == "__main__":
    main()
