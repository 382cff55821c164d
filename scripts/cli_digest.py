"""Digest of the `lattice` CLI's observable behaviour.

Runs a fixed list of `lattice` commands, each in a fresh interpreter, and
prints one line per command:

    sha256(stdout) sha256(stderr) exit-code command

The stderr digest pins the one-line error texts of the error paths.

The list covers every verb, every family by flags and by `family:args`
spec, `--family product`, `--input`, every `--help`, and the error paths.
Commands run in order in one temporary directory, so the documents that
early commands write with `--out` are the inputs of later ones; the inputs
no command writes, malformed files and a few hand-written or generated
documents, are put there first (FILES).  The checkout's own `src/` is put
on PYTHONPATH, LATTICE_SIZE_CAP is cleared and the help width is fixed at
80 columns, so the output depends only on the code.  The rest of the
environment is passed on to each command, so runs under different
PYTHONHASHSEED values show whether any output depends on the hash seed:

    PYTHONHASHSEED=0 python scripts/cli_digest.py > seed0.txt
    PYTHONHASHSEED=1 python scripts/cli_digest.py > seed1.txt
    diff seed0.txt seed1.txt

Run from any directory:

    python scripts/cli_digest.py > digest.txt
    python scripts/cli_digest.py path/to/other/src > other.txt

Two checkouts print byte-identical digests exactly when every command
gives the same stdout, stderr and exit code; `diff` the two files to compare.
The optional argument runs the same command list against another
checkout's `src/` directory instead of this one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

VERBS = (
    "build", "validate", "diamond-table", "hamiltonian", "jacobi", "resolvent",
    "moments", "spectrum", "product-check", "convolve", "verify",
)

FILES = {
    "broken.json": "{broken",
    "half-weights.json": '{"atoms": [[-1, 0.25], [1, 0.25]]}',
    # Python's json reads NaN, and reads true and false as ints
    "nan-weights.json": '{"atoms": [[0, NaN]]}',
    "bool-ids.json": '{"elements": [{"id": false}, {"id": true}], "covers": [[false, true]]}',
    # two atoms under two rank-2 elements under a top: not a lattice
    "bowtie.json": json.dumps({
        "elements": [{"id": i} for i in range(6)],
        "covers": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 5], [4, 5]],
    }),
    # the same bowtie listed with the bottom as id 2 and the atoms as 3 and 4,
    # so the meetless pair must be named 0 and 1
    "bowtie-permuted.json": json.dumps({
        "elements": [{"id": i} for i in range(6)],
        "covers": [[2, 3], [2, 4], [3, 0], [3, 1], [4, 0], [4, 1], [0, 5], [1, 5]],
    }),
    # a graded lattice that is not atomistic: two chains of length 3
    "hexagon.json": json.dumps({
        "elements": [{"id": i} for i in range(6)],
        "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]],
    }),
    # N5: a lattice with maximal chains of lengths 3 and 2, so not graded
    "pentagon.json": json.dumps({
        "elements": [{"id": i} for i in range(5)],
        "covers": [[0, 1], [1, 2], [2, 4], [0, 3], [3, 4]],
    }),
}


def _doubled_fano_document() -> str:
    """projective(3,2) as the XOR-closed subsets of the vectors 0..7 of F_2^3,
    with ids permuted by i -> 5i + 3 mod 16 and every cover listed twice,
    the two copies apart and out of rank order."""
    spaces = sorted((s for s in range(1, 256, 2)
                     if all(s >> (a ^ b) & 1 for a in range(8) for b in range(8) if s >> a & s >> b & 1)),
                    key=int.bit_count)
    new = [(5 * i + 3) % 16 for i in range(len(spaces))]
    covers = [[new[i], new[j]] for i, s in enumerate(spaces) for j, t in enumerate(spaces)
              if s & t == s and t.bit_count() == 2 * s.bit_count()]
    return json.dumps({
        "elements": [{"id": new[i], "label": format(s, "08b")} for i, s in enumerate(spaces)],
        "covers": covers[1::2] + covers[::-1] + covers[::2],
    })


FILES["fano-doubled.json"] = _doubled_fano_document()

COMMANDS = (
    ["--help"],
    *([verb, "--help"] for verb in VERBS),
    # every family by flags; the documents written here feed later commands
    ["build", "--family", "boolean", "--n", "3"],
    ["build", "--family", "boolean", "--n", "1", "--out", "b1.json"],
    ["build", "--family", "uniform", "--r", "2", "--m", "3", "--out", "m3.json"],
    ["build", "--family", "projective", "--r", "3", "--q", "2", "--format", "machine"],
    ["build", "--family", "affine", "--r", "2", "--q", "2"],
    # uniform lattices whose top is an atom (r = 1) and whose rank-2 flats are not the top
    ["build", "--family", "uniform", "--r", "1", "--m", "3", "--format", "machine"],
    ["build", "--family", "uniform", "--r", "3", "--m", "5", "--format", "machine"],
    # fields where a line has more than three points
    ["build", "--family", "projective", "--r", "3", "--q", "3", "--format", "machine"],
    ["jacobi", "--family", "affine", "--r", "2", "--q", "5", "--format", "machine"],
    # every family by spec, and files as product factors
    ["build", "--family", "product", "--left", "boolean:1", "--right", "uniform:2,3"],
    ["build", "--family", "product", "--left", "affine:2,2", "--right", "projective:2,2"],
    ["build", "--family", "product", "--left", "b1.json", "--right", "m3.json"],
    ["build", "--family", "custom", "--input", "m3.json"],
    ["build", "--input", "m3.json", "--format", "machine"],
    ["validate", "m3.json"],
    ["validate", "m3.json", "--format", "machine"],
    # a permuted document that lists every cover twice
    ["validate", "fano-doubled.json"],
    ["hamiltonian", "--input", "fano-doubled.json"],
    ["build", "--input", "fano-doubled.json", "--format", "machine"],
    ["diamond-table", "--family", "uniform", "--r", "2", "--m", "3"],
    ["hamiltonian", "--family", "projective", "--r", "3", "--q", "2", "--format", "machine"],
    ["jacobi", "--family", "uniform", "--r", "2", "--m", "3"],
    ["jacobi", "--family", "affine", "--r", "3", "--q", "2", "--precision", "5"],
    ["jacobi", "--input", "m3.json", "--format", "machine"],
    ["resolvent", "--family", "boolean", "--n", "2"],
    ["resolvent", "--family", "product", "--left", "boolean:1", "--right", "uniform:2,3"],
    ["moments", "--family", "affine", "--r", "2", "--q", "2", "--max-k", "8", "--via", "both"],
    ["moments", "--family", "boolean", "--n", "3", "--via", "radial", "--format", "machine"],
    ["spectrum", "--family", "boolean", "--n", "4", "--out", "mu4.json"],
    ["spectrum", "--family", "projective", "--r", "3", "--q", "2", "--format", "machine"],
    ["convolve", "--left", "mu4.json", "--right", "mu4.json"],
    ["product-check", "--left", "boolean:1", "--right", "uniform:2,3"],
    ["product-check", "--left", "b1.json", "--right", "boolean:1", "--format", "machine"],
    ["product-check", "--left", "projective:2,2", "--right", "affine:2,2", "--max-k", "6"],
    ["product-check", "--left", "projective:3,2", "--right", "boolean:4"],
    ["verify", "--family", "projective", "--r", "3", "--q", "2"],
    ["verify", "--family", "boolean", "--n", "4", "--format", "machine"],
    # spectral:measure-moments failed here under an absolute 1e-8 tolerance
    ["verify", "--family", "projective", "--r", "4", "--q", "2"],
    ["verify", "--family", "affine", "--r", "4", "--q", "2"],
    # full moments whose integer walk leaves int64 at k = 11, and a
    # mid-size Boolean lattice
    ["moments", "--family", "projective", "--r", "5", "--q", "2", "--max-k", "12", "--via", "both",
     "--format", "machine"],
    ["jacobi", "--family", "boolean", "--n", "10", "--format", "machine"],
    # 512 elements: validated from co-cover pairs, where it was once sampled
    ["build", "--family", "boolean", "--n", "9", "--out", "b9.json"],
    ["validate", "b9.json", "--format", "machine"],
    ["verify", "--input", "b9.json", "--format", "machine"],
    # a non-atomistic document: its join-irreducibles are not all atoms
    ["validate", "hexagon.json", "--format", "machine"],
    ["jacobi", "--input", "hexagon.json", "--format", "machine"],
    ["verify", "--input", "hexagon.json", "--format", "machine"],
    # a zero beta_1^2: the reduced resolvent is cut at the first level
    ["resolvent", "--input", "hexagon.json", "--format", "machine"],
    # the first non-invariant lattice: full against radial moments through order 3
    ["verify", "--family", "product", "--left", "uniform:2,3", "--right", "boolean:1"],
    # error paths
    ["frobnicate"],
    ["jacobi"],
    ["jacobi", "--family", "boolean"],
    ["jacobi", "--family", "uniform", "--r", "2"],
    ["jacobi", "--family", "projective", "--q", "2"],
    ["jacobi", "--family", "affine", "--r", "2"],
    ["jacobi", "--family", "product", "--left", "boolean:1"],
    ["jacobi", "--family", "custom"],
    ["jacobi", "--family", "boolean", "--n", "2", "--input", "m3.json"],
    ["jacobi", "--input", "missing.json"],
    ["validate", "missing.json"],
    ["build", "--family", "boolean", "--n", "4", "--size-cap", "5"],
    ["product-check", "--left", "boolean:2", "--right", "boolean:2", "--size-cap", "10"],
    ["diamond-table", "--family", "boolean", "--n", "7"],
    ["product-check", "--left", "nosuch:1", "--right", "boolean:1"],
    ["product-check", "--left", "boolean:1,2", "--right", "boolean:1"],
    ["product-check", "--left", "boolean:x", "--right", "boolean:1"],
    ["build", "--family", "projective", "--r", "3", "--q", "4"],
    ["build", "--family", "boolean", "--n", "-1"],
    ["build", "--family", "uniform", "--r", "0", "--m", "1"],
    ["validate", "bowtie.json"],
    ["validate", "bowtie-permuted.json"],
    ["verify", "--input", "pentagon.json", "--format", "machine"],
    ["validate", "."],
    ["convolve", "--left", "broken.json", "--right", "mu4.json"],
    ["convolve", "--left", "mu4.json", "--right", "b1.json"],
    ["convolve", "--left", "half-weights.json", "--right", "mu4.json"],
    ["convolve", "--left", "nan-weights.json", "--right", "mu4.json"],
    ["jacobi", "--input", "bool-ids.json", "--format", "machine"],
    ["moments", "--family", "boolean", "--n", "2", "--max-k", "-1"],
    ["spectrum", "--family", "boolean", "--n", "2", "--precision", "-1"],
)


def main() -> None:
    src = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC
    env = {k: v for k, v in os.environ.items() if k != "LATTICE_SIZE_CAP"}
    env.update(PYTHONPATH=str(src), COLUMNS="80")
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in FILES.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        for argv in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "latspec.cli", *argv],
                cwd=workdir, env=env, capture_output=True, check=False,
            )
            out, err = (hashlib.sha256(text).hexdigest() for text in (proc.stdout, proc.stderr))
            print(f"{out} {err} {proc.returncode} lattice {shlex.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
