import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latspec.cli
import latspec.lattice
import latspec.operators
import latspec.radial
from latspec import build_boolean, hamiltonian
from latspec.cli import FAMILIES, _lattice_from_spec, _make_lattice, build_parser, main


# a graded lattice that is not atomistic: two chains of length 3
HEXAGON = {
    "elements": [{"id": i} for i in range(6)],
    "covers": [[0, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 5]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJacobi:
    def test_m3_values(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--family", "uniform", "--r", "2", "--m", "3")
        assert code == 0
        assert "3/4" in out and "0.866025403784" in out
        assert "1.732050807569" in out
        assert "radially invariant: True" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(
            capsys, "jacobi", "--family", "uniform", "--r", "2", "--m", "3",
            "--format", "machine",
        )
        data = json.loads(out)
        assert data["beta_sq"] == ["3/4", "3"]
        assert data["W"] == [3, 6]
        assert data["layers"] == [1, 3, 1]
        assert data["invariant"] is True


class TestResolvent:
    def test_b2(self, capsys):
        code, out, _ = run(capsys, "resolvent", "--family", "boolean", "--n", "2")
        assert code == 0
        assert "numerator:   1 0 -1/2" in out
        assert "denominator: 1 0 -1" in out

    def test_machine(self, capsys):
        code, out, _ = run(
            capsys, "resolvent", "--family", "boolean", "--n", "2", "--format", "machine"
        )
        data = json.loads(out)
        assert data["numerator"] == ["1", "0", "-1/2"]
        assert data["denominator"] == ["1", "0", "-1"]

    def test_hexagon_is_reduced_to_its_first_block(self, capsys, tmp_path):
        # beta_1^2 = 0 on the hexagon, so the reduced resolvent is 1 / (1 - t^2/2)
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps(HEXAGON))
        code, out, _ = run(capsys, "resolvent", "--input", str(path))
        assert code == 0
        assert out.splitlines() == [
            "numerator:   1 0 -1/2",
            "denominator: 1 0 -1 0 1/4",
            "reduced numerator:   1",
            "reduced denominator: 1 0 -1/2",
        ]
        code, out, _ = run(capsys, "resolvent", "--input", str(path), "--format", "machine")
        assert json.loads(out) == {
            "numerator": ["1", "0", "-1/2"],
            "denominator": ["1", "0", "-1", "0", "1/4"],
            "reduced_numerator": ["1"],
            "reduced_denominator": ["1", "0", "-1/2"],
        }


class TestBuildAndValidate:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "m3.json"
        code, out, _ = run(
            capsys, "build", "--family", "uniform", "--r", "2", "--m", "3",
            "--out", str(path),
        )
        assert code == 0
        assert "elements:   5" in out
        doc = json.loads(path.read_text())
        assert len(doc["elements"]) == 5 and len(doc["covers"]) == 6

        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "semimodular" in out and "FAIL" not in out

    def test_validate_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps(HEXAGON))
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_unparseable_document(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "invalid" in err

    def test_machine_flags_are_the_overall_verdict(self, capsys, tmp_path):
        # both keys are read by the benchmark's checks, and each is the pass of every check
        for doc, passed in ((build_boolean(3).to_document(), True), (HEXAGON, False)):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "validate", str(path), "--format", "machine")
            data = json.loads(out)
            assert all(c["passed"] for c in data["checks"]) is passed
            assert (code, data["is_geometric"], data["is_semimodular_atomic"]) == (int(not passed), passed, passed)

    def test_jacobi_input_does_not_validate(self, capsys, monkeypatch, tmp_path):
        def fail(_):
            raise AssertionError("validate ran")

        monkeypatch.setattr(latspec.lattice, "validate", fail)
        path = tmp_path / "hexagon.json"
        path.write_text(json.dumps(HEXAGON))
        code, out, _ = run(capsys, "jacobi", "--input", str(path), "--format", "machine")
        assert code == 0 and json.loads(out)["beta_sq"] == ["1/2", "0", "1/2"]

    def test_build_machine_prints_document(self, capsys):
        code, out, _ = run(
            capsys, "build", "--family", "boolean", "--n", "2", "--format", "machine"
        )
        doc = json.loads(out)
        assert {e["label"] for e in doc["elements"]} == {"{}", "{1}", "{2}", "{1,2}"}

    def test_input_implies_custom_family(self, capsys, tmp_path):
        path = tmp_path / "m3.json"
        run(capsys, "build", "--family", "uniform", "--r", "2", "--m", "3", "--out", str(path))
        code, out, _ = run(
            capsys, "jacobi", "--input", str(path), "--format", "machine"
        )
        assert code == 0
        assert json.loads(out)["beta_sq"] == ["3/4", "3"]

    def test_build_product_from_files(self, capsys, tmp_path):
        left = tmp_path / "b1.json"
        right = tmp_path / "m3.json"
        run(capsys, "build", "--family", "boolean", "--n", "1", "--out", str(left))
        run(capsys, "build", "--family", "uniform", "--r", "2", "--m", "3", "--out", str(right))
        code, out, _ = run(
            capsys, "build", "--family", "product", "--left", str(left), "--right", str(right)
        )
        assert code == 0
        assert "elements:   10" in out


class TestDiamondTable:
    def test_m3_table(self, capsys):
        code, out, _ = run(capsys, "diamond-table", "--family", "uniform", "--r", "2", "--m", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7  # header + rule + 5 rows
        assert out.count("{1,2,3}") > 5

    def test_size_guard(self, capsys):
        code, _, err = run(capsys, "diamond-table", "--family", "boolean", "--n", "7")
        assert code == 1
        assert "limited" in err


class TestHamiltonian:
    def test_machine_entries(self, capsys):
        code, out, _ = run(
            capsys, "hamiltonian", "--family", "boolean", "--n", "1", "--format", "machine"
        )
        data = json.loads(out)
        assert data["dim"] == 2
        assert data["entries"] == [[1, 0, "1/2"], [0, 1, "1/2"]]


class TestMoments:
    def test_both_columns_agree(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--family", "uniform", "--r", "2", "--m", "3",
            "--max-k", "6", "--format", "machine",
        )
        data = json.loads(out)
        assert data["full"] == data["radial"]
        assert data["full"][:5] == ["1", "0", "3/4", "0", "45/16"]

    def test_via_full_only(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--family", "boolean", "--n", "2", "--via", "full",
            "--format", "machine",
        )
        data = json.loads(out)
        assert "radial" not in data


class TestHamiltonianOnlyWhereNeeded:
    """spectrum, resolvent and moments --via radial read J off the covers
    (`jacobi_from_formula`); the verbs that read H assemble it once."""

    @pytest.mark.parametrize("argv,calls", [
        (["spectrum"], 0),
        (["resolvent"], 0),
        (["moments", "--via", "radial"], 0),
        (["jacobi"], 1),
        (["moments", "--via", "full"], 1),
        (["moments", "--via", "both"], 1),
    ])
    def test_hamiltonian_calls(self, capsys, monkeypatch, argv, calls):
        seen = []
        for module in (latspec.operators, latspec.radial):
            monkeypatch.setattr(module, "hamiltonian", lambda L: seen.append(L) or hamiltonian(L))
        code, _, _ = run(capsys, *argv, "--family", "boolean", "--n", "4")
        assert code == 0 and len(seen) == calls


class TestSpectrumAndConvolve:
    def test_roundtrip(self, capsys, tmp_path):
        mu_path = tmp_path / "mu1.json"
        code, _, _ = run(
            capsys, "spectrum", "--family", "boolean", "--n", "1", "--out", str(mu_path)
        )
        assert code == 0
        code, out, _ = run(
            capsys, "convolve", "--left", str(mu_path), "--right", str(mu_path),
            "--format", "machine",
        )
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert [a[0] for a in atoms] == pytest.approx([-1.0, 0.0, 1.0])
        assert [a[1] for a in atoms] == pytest.approx([0.25, 0.5, 0.25])

    def test_convolving_zero_weight_atoms(self, capsys, tmp_path):
        # the 4-chain's measure has two weightless atoms at 0, which merge
        # with weight 0 when the measure is convolved with itself
        chain, mu_path = tmp_path / "chain.json", tmp_path / "mu.json"
        chain.write_text(json.dumps({"elements": [{"id": i} for i in range(4)], "covers": [[0, 1], [1, 2], [2, 3]]}))
        assert run(capsys, "spectrum", "--input", str(chain), "--out", str(mu_path))[0] == 0
        assert [w for _, w in json.loads(mu_path.read_text())["atoms"]][1:3] == [0.0, 0.0]
        code, out, _ = run(capsys, "convolve", "--left", str(mu_path), "--right", str(mu_path), "--format", "machine")
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert [a[0] for a in atoms] == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert [a[1] for a in atoms] == pytest.approx([0.25, 0.0, 0.5, 0.0, 0.25])

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--family", "boolean", "--n", "1", "--precision", "3"
        )
        assert "-0.500" in out and "0.500" in out


class TestProductCheck:
    def test_family_specs(self, capsys):
        code, out, _ = run(
            capsys, "product-check", "--left", "boolean:1", "--right", "uniform:2,3"
        )
        assert code == 0
        assert out.count("PASS") == 3

    def test_file_and_spec_mix(self, capsys, tmp_path):
        path = tmp_path / "b1.json"
        run(capsys, "build", "--family", "boolean", "--n", "1", "--out", str(path))
        code, out, _ = run(
            capsys, "product-check", "--left", str(path), "--right", "boolean:1"
        )
        assert code == 0


class TestVerify:
    def test_fano(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "projective", "--r", "3", "--q", "2")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


# One parameter set per built-in family, in the order of its flags.
FAMILY_SAMPLES = {"boolean": (3,), "uniform": (2, 4), "projective": (3, 2), "affine": (2, 3)}


class TestFamilyTable:
    def test_every_family_has_a_sample(self):
        assert set(FAMILY_SAMPLES) == set(FAMILIES)

    @pytest.mark.parametrize("family", FAMILY_SAMPLES)
    def test_flags_and_spec_build_the_same_lattice(self, family):
        builder, params = FAMILIES[family]
        values = FAMILY_SAMPLES[family]
        argv = ["build", "--family", family]
        for param, value in zip(params, values):
            argv += [f"--{param}", str(value)]
        by_flags = _make_lattice(build_parser().parse_args(argv))
        by_spec = _lattice_from_spec(f"{family}:{','.join(map(str, values))}", None)
        assert by_flags == by_spec == builder(*values)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--family", "boolean"], "--family boolean requires --n"),
            (["--family", "uniform", "--r", "2"], "--family uniform requires --r and --m"),
            (["--family", "projective", "--q", "2"], "--family projective requires --r and --q"),
            (["--family", "affine"], "--family affine requires --r and --q"),
        ],
    )
    def test_missing_flag_message(self, capsys, flags, message):
        code, _, err = run(capsys, "jacobi", *flags)
        assert code == 1
        assert err == f"error: {message}\n"


class TestBadSourceErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["product-check", "--left", "boolean:x", "--right", "boolean:1"], "cannot interpret lattice spec 'boolean:x'"),
            (["product-check", "--left", "boolean:1,2", "--right", "boolean:1"], "cannot interpret lattice spec"),
            (["build", "--family", "projective", "--r", "3", "--q", "4"], "q = 4 must be prime"),
            (["build", "--family", "boolean", "--n", "-1"], "n must be non-negative"),
            (["build", "--family", "uniform", "--r", "0", "--m", "1"], "r must be at least 1"),
            (["product-check", "--left", "affine:2,4", "--right", "boolean:1"], "q = 4 must be prime"),
        ],
    )
    def test_one_error_line_and_exit_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{broken", "Expecting property name"),
            ('{"elements": [{"id": 0}], "covers": []}', 'expected {"atoms"'),
            ('{"atoms": [[-1, 0.25], [1, 0.25]]}', "weights sum to 0.5, not 1"),
            ('{"atoms": [[0, NaN]]}', "eigenvalues and weights must be finite"),
            ('{"atoms": [[NaN, 1.0]]}', "eigenvalues and weights must be finite"),
            ('{"atoms": [[-Infinity, 0.5], [Infinity, 0.5]]}', "eigenvalues and weights must be finite"),
            # Python's float reads strings and booleans; a measure document holds numbers only
            ('{"atoms": [["0", "1"]]}', "eigenvalue '0' is not a number"),
            ('{"atoms": [[false, true]]}', "eigenvalue False is not a number"),
            ('{"atoms": [[-1, 0.5], [1, "0.5"]]}', "weight '0.5' is not a number"),
            # a JSON integer past the float range, named in shortened form
            ('{"atoms": [[0, 1' + "0" * 330 + "]]}", "weight 100000000000000000...0000000000000000000 is past the float range"),
        ],
    )
    def test_bad_measure_file(self, capsys, tmp_path, content, message):
        path = tmp_path / "mu.json"
        path.write_text(content)
        argv = ["convolve", "--left", str(path), "--right", str(path)]
        self.test_one_error_line_and_exit_1(capsys, argv, message)

    def test_directory_given_to_validate(self, capsys, tmp_path):
        self.test_one_error_line_and_exit_1(capsys, ["validate", str(tmp_path)], "Is a directory")

    def test_failing_out_prints_no_result(self, capsys, tmp_path):
        argv = ["build", "--family", "boolean", "--n", "2", "--out", str(tmp_path / "missing" / "x.json")]
        self.test_one_error_line_and_exit_1(capsys, argv, "No such file or directory")

    def test_closed_stdout_is_no_lattice_error(self):
        # about 200 KB of entries, past any pipe buffer, so a write fails after the close
        argv = [sys.executable, "-m", "latspec.cli", "hamiltonian", "--family", "boolean", "--n", "10"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert child.stdout.readline() == b"dim: 1024\n"
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (1, b"")

    @pytest.mark.parametrize("content, message", [
        (b"\x80\x00\xff", "invalid JSON: 'utf-8' codec can't decode byte 0x80"),
        ('{"elements": [{"id": 0, "label": "\xe9"}]}'.encode("latin-1"), "invalid JSON: 'utf-8' codec can't decode byte 0xe9"),
        ('\ufeff{"elements": [{"id": 0}]}'.encode("utf-8"), "invalid JSON: Unexpected UTF-8 BOM"),
    ], ids=["binary", "latin-1", "bom"])
    @pytest.mark.parametrize("argv, prefix", [
        (["validate", "{}"], "invalid lattice document: "),
        (["jacobi", "--input", "{}"], "error: "),
        (["product-check", "--left", "{}", "--right", "boolean:1"], "error: "),
    ], ids=["validate", "input", "product-check"])
    def test_document_that_is_not_utf8(self, capsys, tmp_path, content, message, argv, prefix):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (1, "") and err.startswith(prefix + message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--family", "boolean", "--n", "2", "--max-k", "-1"],
            ["product-check", "--left", "boolean:1", "--right", "boolean:1", "--max-k", "-1"],
            ["spectrum", "--family", "boolean", "--n", "2", "--precision", "-1"],
            ["build", "--family", "boolean", "--n", "2", "--size-cap", "-1"],
        ],
    )
    def test_negative_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "-1 is negative" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_family_args(self, capsys):
        code, _, err = run(capsys, "jacobi", "--family", "boolean")
        assert code == 1
        assert "requires" in err

    def test_no_source(self, capsys):
        code, _, err = run(capsys, "jacobi")
        assert code == 1

    def test_size_cap_flag(self, capsys):
        code, _, err = run(
            capsys, "build", "--family", "boolean", "--n", "4", "--size-cap", "5"
        )
        assert code == 1
        assert "exceeding" in err

    def test_size_cap_refuses_a_count_too_long_to_print(self, capsys):
        # projective(300, 2) has about 2^22500 elements: more digits than
        # int-to-str conversion allows, so the message names 2^64 instead
        code, _, err = run(capsys, "build", "--family", "projective", "--r", "300", "--q", "2")
        assert code == 1
        assert "more than 18446744073709551616 elements, exceeding the cap" in err

    def test_size_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LATTICE_SIZE_CAP", "5")
        code, _, err = run(capsys, "build", "--family", "boolean", "--n", "4")
        assert code == 1

    @pytest.mark.parametrize(
        "argv", [["build", "--family", "boolean", "--n", "2"], ["verify", "--input", "doc.json"]]
    )
    def test_malformed_size_cap_env(self, capsys, monkeypatch, tmp_path, argv):
        (tmp_path / "doc.json").write_text(json.dumps(HEXAGON))
        monkeypatch.chdir(tmp_path)
        for value, reason in (("abc", "is not an integer"), ("-1", "is negative")):
            monkeypatch.setenv("LATTICE_SIZE_CAP", value)
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: LATTICE_SIZE_CAP='{value}' {reason}\n")

    def test_malformed_size_cap_env_is_not_blamed_on_the_document(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(HEXAGON))
        monkeypatch.setenv("LATTICE_SIZE_CAP", "abc")
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", "error: LATTICE_SIZE_CAP='abc' is not an integer\n")


# each numpy verb on boolean(n); convolve reads the measure file that spectrum writes
NUMPY_VERBS = {
    "hamiltonian": ["hamiltonian", "--family", "boolean", "--n", "{n}"],
    "jacobi": ["jacobi", "--family", "boolean", "--n", "{n}"],
    "resolvent": ["resolvent", "--family", "boolean", "--n", "{n}"],
    "moments": ["moments", "--family", "boolean", "--n", "{n}"],
    "spectrum": ["spectrum", "--family", "boolean", "--n", "{n}", "--out", "{dir}/mu{n}.json"],
    "convolve": ["convolve", "--left", "{dir}/mu{n}.json", "--right", "{dir}/mu{n}.json"],
    "product-check": ["product-check", "--left", "boolean:{n}", "--right", "boolean:1"],
    "verify": ["verify", "--family", "boolean", "--n", "{n}"],
}


class TestProcessExit:
    """`entry` switches the cyclic collector off and leaves by `os._exit` once
    stdout and stderr are flushed: a `lattice` process must print and return
    what `main` prints and returns in process, and no verb may leave cycles
    that grow with the lattice, which the collector would have freed."""

    @staticmethod
    def spawn(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        env.pop("PYTHONUNBUFFERED", None)  # so that stdout is flushed only by `entry`
        child = subprocess.run([sys.executable, "-m", "latspec.cli", *argv], capture_output=True, env=env, timeout=60)
        return child.returncode, child.stdout.decode(), child.stderr.decode()

    def test_a_long_output_is_complete(self, capsys, tmp_path):
        argv = ["hamiltonian", "--family", "boolean", "--n", "10", "--out"]
        expected = run(capsys, *argv, str(tmp_path / "main.json"))
        assert self.spawn(*argv, str(tmp_path / "entry.json")) == expected and len(expected[1]) > 150_000
        assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()

    @pytest.mark.parametrize("argv, code, err", [
        (["build", "--family", "boolean", "--n", "4", "--size-cap", "5"], 1, r"error: [^\n]*\n"),
        (["validate", "{doc}"], 1, ""),
        (["jacobi", "--precision", "-1"], 2, r"usage: lattice jacobi .*: error: argument --precision: -1 is negative\n"),
    ], ids=["lattice-error", "failing-verdict", "usage-error"])
    def test_exit_codes(self, capsys, tmp_path, argv, code, err):
        (tmp_path / "hexagon.json").write_text(json.dumps(HEXAGON))
        argv = [arg.format(doc=tmp_path / "hexagon.json") for arg in argv]
        try:
            expected = run(capsys, *argv)
        except SystemExit as exc:
            expected = (exc.code, *capsys.readouterr())
        assert self.spawn(*argv) == expected and expected[0] == code
        assert re.fullmatch(err, expected[2], re.S)

    @pytest.mark.parametrize("verb", NUMPY_VERBS.values(), ids=NUMPY_VERBS)
    def test_no_cycles_grow_with_the_lattice(self, capsys, tmp_path, verb):
        def cycles(n):  # the objects only the collector can free, left by one main()
            gc.collect()
            gc.disable()
            try:
                assert main([arg.format(n=n, dir=tmp_path) for arg in verb]) == 0
                return gc.collect()
            finally:
                gc.enable()

        for n in (6, 10):  # the measure files that convolve reads
            main([arg.format(n=n, dir=tmp_path) for arg in NUMPY_VERBS["spectrum"]])
        cycles(6)  # the verb's imports leave cycles of their own
        assert cycles(10) <= cycles(6)


class TestDeterminism:
    def test_output_is_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "--family", "boolean", "--n", "6", "--format", "machine")
        _, out2, _ = run(capsys, "spectrum", "--family", "boolean", "--n", "6", "--format", "machine")
        assert out1 == out2
