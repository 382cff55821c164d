"""Command-line interface.

One verb per concept: build, validate, diamond-table, hamiltonian, jacobi,
resolvent, moments, spectrum, product-check, convolve, verify.  Exact
rationals are always rendered as "p/q" strings in machine output; floats
are display-only and fixed to a configurable number of decimal digits in
table output.  Exit codes: 0 success, 1 validation/check failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diamond import ZERO, diamond_table, hamiltonian
from .lattice import (
    FiniteLattice,
    LatticeError,
    build_affine,
    build_boolean,
    build_product,
    build_projective,
    build_uniform,
    read_lattice_file,
    size_cap,
)
from .product import SHUFFLE_MAX_POWER, convolve_measures, product_law_checks
from .radial import jacobi_from_compression, radial_invariance
from .spectral import (
    MomentSequence,
    SpectralMeasure,
    eigendecompose,
    reduced_resolvent,
    resolvent,
    vacuum_moments_full,
    vacuum_moments_radial,
)
from .verify import run_invariant_suite

# Built-in families: name -> (builder, CLI flags taking its parameters in
# order).  The same table serves `--family NAME --flag ...` and the compact
# `NAME:v1,v2` spec; "product" and "custom" are the two other sources.
FAMILIES = {
    "boolean": (build_boolean, ("n",)),
    "uniform": (build_uniform, ("r", "m")),
    "projective": (build_projective, ("r", "q")),
    "affine": (build_affine, ("r", "q")),
}


def _flt(x: float, digits: int) -> str:
    s = f"{x:.{digits}f}"
    return s.lstrip("-") if float(s) == 0 else s


def _emit(args: argparse.Namespace, table_lines: list[str], machine: dict) -> None:
    if args.fmt == "machine":
        print(json.dumps(machine, indent=2))
    else:
        for line in table_lines:
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(machine, fh, indent=2)
            fh.write("\n")


def _build_family(family: str, values: list[int], cap: int | None) -> FiniteLattice:
    builder, _ = FAMILIES[family]
    try:
        return builder(*values, cap=cap)
    except ValueError as exc:  # parameter out of range, e.g. q not prime
        raise LatticeError(str(exc)) from exc


def _lattice_from_spec(spec: str, cap: int | None) -> FiniteLattice:
    """Accept either a path to a lattice document or a compact family spec
    such as boolean:3, uniform:2,3, projective:3,2, affine:2,2."""
    if os.path.exists(spec) or spec.endswith(".json"):
        return read_lattice_file(spec, cap=cap)
    name, _, rest = spec.partition(":")
    try:
        values = [int(v) for v in rest.split(",") if v]
    except ValueError:
        values = []  # every family takes at least one parameter
    if name in FAMILIES and len(values) == len(FAMILIES[name][1]):
        return _build_family(name, values, cap)
    raise LatticeError(
        f"cannot interpret lattice spec {spec!r}; expected a file path or "
        "family:args such as boolean:3 or projective:3,2"
    )


def _make_lattice(args: argparse.Namespace) -> FiniteLattice:
    cap = args.size_cap
    family = args.family or ("custom" if args.input else None)
    if family is None:
        raise LatticeError("a lattice source is required: --family ... or --input <file>")
    if family == "product":
        if not args.left or not args.right:
            raise LatticeError("--family product requires --left and --right")
        return build_product(
            _lattice_from_spec(args.left, cap), _lattice_from_spec(args.right, cap), cap=cap
        )
    if family == "custom":
        if not args.input:
            raise LatticeError("--family custom requires --input <file>")
        return read_lattice_file(args.input, cap=cap)
    _, params = FAMILIES[family]
    values = [getattr(args, p) for p in params]
    if None in values:
        flags = " and ".join(f"--{p}" for p in params)
        raise LatticeError(f"--family {family} requires {flags}")
    return _build_family(family, values, cap)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_build(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    doc = L.to_document()
    lines = [
        f"family:     {L.family_tag}",
        f"elements:   {L.n}",
        f"top rank:   {L.top_rank}",
        f"layers:     {' '.join(str(s) for s in L.layer_sizes())}",
        f"atoms:      {len(L.atoms)}",
    ]
    _emit(args, lines, doc)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cap = size_cap(args.size_cap)  # a malformed LATTICE_SIZE_CAP is not the document's fault
    try:
        L = read_lattice_file(args.input, cap=cap)
    except LatticeError as exc:
        print(f"invalid lattice document: {exc}", file=sys.stderr)
        return 1
    report = L.validation
    ok = report.passed()
    verdicts = {"is_geometric": ok, "is_semimodular_atomic": ok}  # geometric = semimodular and atomistic
    lines = [
        f"{c.name:<24s} {'PASS' if c.passed else 'FAIL'}" + (f"  counterexample={c.counterexample}" if c.counterexample else "")
        for c in report.checks
    ]
    lines += [f"{name:<24s} {v}" for name, v in verdicts.items()] + [f"note: {note}" for note in report.notes]
    checks = [{"name": c.name, "passed": c.passed, "counterexample": c.counterexample} for c in report.checks]
    _emit(args, lines, {"checks": checks, **verdicts, "notes": list(report.notes)})
    return 0 if ok else 1


def _cmd_diamond_table(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    table = diamond_table(L)
    width = max(max(len(lab) for lab in L.labels), 1) + 1
    header = " " * width + "|" + "".join(lab.rjust(width) for lab in L.labels)
    lines = [header, "-" * len(header)]
    for x, row in enumerate(table):
        cells = "".join(
            ("0" if v is ZERO else L.labels[v]).rjust(width) for v in row
        )
        lines.append(L.labels[x].rjust(width) + "|" + cells)
    machine = {
        "labels": list(L.labels),
        "table": [["0" if v is ZERO else v for v in row] for row in table],
    }
    _emit(args, lines, machine)
    return 0


def _cmd_hamiltonian(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    H = hamiltonian(L)
    doc = H.to_document()
    lines = [f"dim: {H.dim}", f"nonzeros: {H.nnz()}"]
    lines += [f"  ({r}, {c}) = {v}" for r, c, v in H.entries()]
    _emit(args, lines, doc)
    return 0


def _cmd_jacobi(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    H = hamiltonian(L)
    J = jacobi_from_compression(L, H)
    inv = radial_invariance(L, H)
    lines = [f"{'k':>3s} {'n_k':>8s} {'W_k':>10s} {'beta_sq':>14s} {'beta':>18s}"]
    for k in range(J.r + 1):
        if k < J.r:
            lines.append(
                f"{k:>3d} {J.layers[k]:>8d} {J.W[k]:>10d} "
                f"{str(J.beta_sq[k]):>14s} {_flt(J.beta[k], args.precision):>18s}"
            )
        else:
            lines.append(f"{k:>3d} {J.layers[k]:>8d}")
    lines.append(f"radially invariant: {inv.invariant}")
    machine = {
        "r": J.r,
        "layers": list(J.layers.sizes),
        "W": list(J.W),
        "beta_sq": [str(b) for b in J.beta_sq],
        "beta": list(J.beta),
        "invariant": inv.invariant,
    }
    _emit(args, lines, machine)
    return 0


def _cmd_resolvent(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    J = jacobi_from_compression(L)
    G = resolvent(J)
    reduced = reduced_resolvent(J)
    lines = [
        "numerator:   " + " ".join(str(c) for c in G.numerator.coeffs),
        "denominator: " + " ".join(str(c) for c in G.denominator.coeffs),
    ]
    if reduced.numerator != G.numerator or reduced.denominator != G.denominator:
        lines.append("reduced numerator:   " + " ".join(str(c) for c in reduced.numerator.coeffs))
        lines.append("reduced denominator: " + " ".join(str(c) for c in reduced.denominator.coeffs))
    machine = {
        "numerator": [str(c) for c in G.numerator.coeffs],
        "denominator": [str(c) for c in G.denominator.coeffs],
        "reduced_numerator": [str(c) for c in reduced.numerator.coeffs],
        "reduced_denominator": [str(c) for c in reduced.denominator.coeffs],
    }
    _emit(args, lines, machine)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    H = hamiltonian(L)
    K = args.max_k
    cols: dict[str, MomentSequence] = {}
    if args.via in ("full", "both"):
        cols["full"] = vacuum_moments_full(L, H, K)
    if args.via in ("radial", "both"):
        cols["radial"] = vacuum_moments_radial(jacobi_from_compression(L, H), K)
    header = f"{'k':>3s}" + "".join(f" {name:>16s}" for name in cols)
    lines = [header]
    for k in range(K + 1):
        lines.append(f"{k:>3d}" + "".join(f" {str(seq[k]):>16s}" for seq in cols.values()))
    machine = {name: [str(v) for v in seq.values] for name, seq in cols.items()}
    machine["max_k"] = K
    _emit(args, lines, machine)
    return 0


def _emit_measure(args: argparse.Namespace, measure: SpectralMeasure) -> int:
    lines = [f"{'eigenvalue':>20s} {'weight':>20s}"]
    for eig, weight in measure.atoms:
        lines.append(f"{_flt(eig, args.precision):>20s} {_flt(weight, args.precision):>20s}")
    _emit(args, lines, measure.to_document())
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    return _emit_measure(args, eigendecompose(jacobi_from_compression(_make_lattice(args))))


def _cmd_product_check(args: argparse.Namespace) -> int:
    L1 = _lattice_from_spec(args.left, args.size_cap)
    L2 = _lattice_from_spec(args.right, args.size_cap)
    K = args.max_k
    kron_ok, shuffle_ok, conv_ok = product_law_checks(L1, L2, K, cap=args.size_cap)
    lines = [
        f"kronecker-sum:       {'PASS' if kron_ok else 'FAIL'}",
        f"shuffle-formula:     {'PASS' if shuffle_ok else 'FAIL'} (entries up to power {SHUFFLE_MAX_POWER})",
        f"moment-convolution:  {'PASS' if conv_ok else 'FAIL'} (orders up to {K})",
    ]
    machine = {"kronecker_sum": kron_ok, "shuffle_formula": shuffle_ok, "moment_convolution": conv_ok}
    _emit(args, lines, machine)
    return 0 if kron_ok and shuffle_ok and conv_ok else 1


def _cmd_convolve(args: argparse.Namespace) -> int:
    measures = []
    for path in (args.left, args.right):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                measures.append(SpectralMeasure.from_document(json.load(fh)))
            except ValueError as exc:  # not JSON, not a measure document, or not a probability measure
                print(f"error: {path}: {exc}", file=sys.stderr)
                return 1
    return _emit_measure(args, convolve_measures(*measures))


def _cmd_verify(args: argparse.Namespace) -> int:
    L = _make_lattice(args)
    results = run_invariant_suite(L)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  ({r.detail})" if r.detail else ""
        lines.append(f"{r.name:<40s} {status}{extra}")
    ok = all(r.passed for r in results)
    lines.append(f"verdict: {'all checks passed' if ok else 'FAILURES detected'}")
    machine = {
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": ok,
    }
    _emit(args, lines, machine)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_VERBS = {
    "build": (_cmd_build, "construct a lattice and print or save its document"),
    "validate": (_cmd_validate, "validate a lattice document and print the report"),
    "diamond-table": (_cmd_diamond_table, "print the full product table (small lattices)"),
    "hamiltonian": (_cmd_hamiltonian, "print or save the Hamiltonian entries"),
    "jacobi": (_cmd_jacobi, "print layers, cover weights, and Jacobi coefficients"),
    "resolvent": (_cmd_resolvent, "print the vacuum resolvent coefficient lists"),
    "moments": (_cmd_moments, "print vacuum moments (full and/or radial)"),
    "spectrum": (_cmd_spectrum, "print the vacuum spectral measure"),
    "product-check": (_cmd_product_check, "check Kronecker-sum, shuffle, and convolution laws"),
    "convolve": (_cmd_convolve, "convolve two spectral-measure files"),
    "verify": (_cmd_verify, "run the aggregated invariant suite"),
}


def _add_lattice_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=(*FAMILIES, "product", "custom"), help="built-in family or 'custom'")
    sub.add_argument("--n", type=int, help="ground-set size (boolean)")
    sub.add_argument("--r", type=int, help="rank / dimension parameter")
    sub.add_argument("--m", type=int, help="ground-set size (uniform)")
    sub.add_argument("--q", type=int, help="prime field order")
    sub.add_argument("--input", help="custom lattice document path")
    sub.add_argument("--left", help="left factor (file or family spec) for products")
    sub.add_argument("--right", help="right factor (file or family spec) for products")


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write machine-readable output to this path")
    sub.add_argument("--format", dest="fmt", choices=("table", "machine"), default="table")
    sub.add_argument("--precision", type=non_negative_int, default=12, help="decimal digits for floats")
    sub.add_argument("--size-cap", type=int, default=None, help="override the element count cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice",
        description="Exact spectral computations on finite geometric and semimodular lattices.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    subs = {
        name: subparsers.add_parser(name, help=help_text)
        for name, (_, help_text) in _VERBS.items()
    }
    for name in ("build", "diamond-table", "hamiltonian", "jacobi", "resolvent", "moments", "spectrum", "verify"):
        _add_lattice_args(subs[name])
    subs["validate"].add_argument("input", help="lattice document path")
    subs["product-check"].add_argument("--left", required=True, help="left factor (file or family spec)")
    subs["product-check"].add_argument("--right", required=True, help="right factor (file or family spec)")
    subs["convolve"].add_argument("--left", required=True, help="left measure file")
    subs["convolve"].add_argument("--right", required=True, help="right measure file")
    subs["moments"].add_argument("--max-k", type=non_negative_int, default=10, dest="max_k", help="largest moment order")
    subs["product-check"].add_argument("--max-k", type=non_negative_int, default=8, dest="max_k", help="largest convolution order")
    subs["moments"].add_argument("--via", choices=("full", "radial", "both"), default="both")
    for sub in subs.values():
        _add_common_args(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "input", None) and getattr(args, "family", None) not in (None, "custom"):
        parser.error("give exactly one lattice source: family flags or --input")
    handler, _ = _VERBS[args.subcommand]
    try:
        return handler(args)
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
