"""The benchmark's workloads: fixed lists of `lattice` CLI jobs.

Each workload stresses a different layer of latspec (see README.md for
the reasons).  The only seeded input is the pair of custom lattice
documents in the `checks` workload: a built-in lattice whose ids are
relabelled by a seeded permutation, with the element and cover lists
shuffled.  A different seed gives an isomorphic lattice, hence the same
amount of work and the same exact outputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from latspec import (
    FiniteLattice,
    affine_jacobi,
    boolean_jacobi,
    build_affine,
    build_boolean,
    build_projective,
    projective_jacobi,
)


class Family(NamedTuple):
    build: Callable[..., FiniteLattice]
    reference_jacobi: Callable  # closed-form Jacobi data, without building
    flags: tuple[str, ...]  # CLI flags taking the parameters, in order
    # Lowest layer whose pairs with the next layer the builder tests for
    # covers; None when covers are generated directly.  The affine
    # lattice's adjoined bottom is joined to the points without a test.
    first_tested_layer: int | None


FAMILIES = {
    "boolean": Family(build_boolean, boolean_jacobi, ("--n",), None),
    "projective": Family(build_projective, projective_jacobi, ("--r", "--q"), 0),
    "affine": Family(build_affine, affine_jacobi, ("--r", "--q"), 1),
}


@dataclass(frozen=True)
class Lattice:
    """A built-in lattice named by family and parameters, e.g. projective(6,2)."""

    family: str
    params: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.family}({','.join(map(str, self.params))})"

    @property
    def spec(self) -> str:
        """The compact `family:args` form accepted by `product-check`."""
        return f"{self.family}:{','.join(map(str, self.params))}"

    def flags(self) -> list[str]:
        out = ["--family", self.family]
        for flag, value in zip(FAMILIES[self.family].flags, self.params):
            out += [flag, str(value)]
        return out

    def build(self) -> FiniteLattice:
        return FAMILIES[self.family].build(*self.params)

    def reference_jacobi(self):
        return FAMILIES[self.family].reference_jacobi(*self.params)

    def pairs_tested(self, layer_sizes: tuple[int, ...]) -> int:
        """Candidate cover pairs the builder tests (computed, not counted):
        every pair of subspaces, or of flats, in adjacent layers."""
        first = FAMILIES[self.family].first_tested_layer
        if first is None:
            return 0
        return sum(layer_sizes[k] * layer_sizes[k + 1] for k in range(first, len(layer_sizes) - 1))


@dataclass(frozen=True)
class Job:
    """One `lattice` command.

    from_document: the lattice reaches the program as a seeded relabelled
    document instead of family flags.  right: the second factor of
    `product-check`.  max_k: the moment order, pinned on the command line
    so that a changed default cannot change the work silently.
    """

    verb: str
    lattice: Lattice
    right: Lattice | None = None
    from_document: bool = False
    max_k: int | None = None

    @property
    def name(self) -> str:
        source = self.lattice.label + (f"x{self.right.label}" if self.right else "")
        return f"{self.verb} {source}" + (" --input" if self.from_document else "")

    def argv(self, document: Path | None) -> list[str]:
        """Arguments after `lattice`; `document` is the generated file when
        from_document is set."""
        if self.verb == "validate":
            out = ["validate", str(document)]
        elif self.from_document:
            out = [self.verb, "--input", str(document)]
        elif self.right is not None:
            out = [self.verb, "--left", self.lattice.spec, "--right", self.right.spec]
        else:
            out = [self.verb, *self.lattice.flags()]
        if self.max_k is not None:
            out += ["--max-k", str(self.max_k)]
        if self.verb == "moments":
            out += ["--via", "both"]
        return out + ["--format", "machine"]


def _b(n: int) -> Lattice:
    return Lattice("boolean", (n,))


def _p(r: int, q: int) -> Lattice:
    return Lattice("projective", (r, q))


def _a(r: int, q: int) -> Lattice:
    return Lattice("affine", (r, q))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # q-family builds: the pairwise cover search dominates.
    "qspace": (Job("jacobi", _p(6, 2)), Job("jacobi", _a(5, 2))),
    # Operator layers on large Boolean lattices; boolean(15) sets peak memory.
    "boolean": (
        Job("jacobi", _b(14)),
        Job("moments", _b(14), max_k=14),
        Job("spectrum", _b(15)),
    ),
    # Lattice reads (parse, meet/join surveys), the product laws and the
    # invariant suite; seven short jobs expose the fixed per-call cost.
    "checks": (
        Job("verify", _b(11)),
        Job("verify", _p(4, 2)),
        Job("verify", _a(4, 2)),
        Job("verify", _p(5, 2)),
        Job("product-check", _p(3, 2), right=_b(4), max_k=8),
        Job("validate", _p(6, 2), from_document=True),
        Job("jacobi", _b(10), from_document=True),
    ),
}


def relabelled_document(L: FiniteLattice, seed: int) -> str:
    """L's interchange document with ids permuted and the element and cover
    lists shuffled, all from `seed`.  The same seed and lattice give the
    same bytes."""
    rng = random.Random(f"{seed}:{L.family_tag}")
    perm = list(range(L.n))
    rng.shuffle(perm)
    elements = [{"id": perm[i], "label": L.labels[i]} for i in range(L.n)]
    covers = [[perm[x], perm[y]] for x, y in L.covers()]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return json.dumps({"elements": elements, "covers": covers}, separators=(",", ":")) + "\n"


def write_documents(jobs: tuple[Job, ...], seed: int, directory: Path) -> dict[Job, Path]:
    """Write one relabelled document per job that reads one."""
    paths = {}
    for job in jobs:
        if job.from_document:
            path = directory / f"{job.lattice.label}-seed{seed}.json"
            path.write_text(relabelled_document(job.lattice.build(), seed), encoding="utf-8")
            paths[job] = path
    return paths
