"""The names that the benchmark and the scripts import from latspec exist;
importing latspec, building, validating, the cover weight sums and the
product load no numpy; and the first latspec name that needs numpy starts
it with one BLAS thread unless the caller chose otherwise.

`perfbench/` and `scripts/` run outside tier-1, so a deleted public name
they read would otherwise fail only there."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import latspec

ROOT = Path(__file__).resolve().parent.parent

DELETED = ("closed_form_beta", "TensorIdentification", "rank_layers", "count_atoms_below")


def _latspec_imports():
    for path in sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latspec":
                for alias in node.names:
                    yield pytest.param(node.module, alias.name, id=f"{path.relative_to(ROOT)}:{alias.name}")


IMPORTS = list(_latspec_imports())


def test_the_benchmark_and_scripts_import_from_latspec():
    assert {p.values[0] for p in IMPORTS} >= {"latspec", "latspec.cli"}


@pytest.mark.parametrize("module, name", IMPORTS)
def test_imported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_all_resolves_and_holds_no_deleted_name():
    assert all(hasattr(latspec, name) for name in latspec.__all__)
    assert not set(DELETED) & set(latspec.__all__)
    assert not any(hasattr(latspec, name) for name in DELETED)


def test_all_holds_no_module_and_no_private_name():
    assert not [name for name in latspec.__all__ if name.startswith("_")]
    assert not [name for name in latspec.__all__ if isinstance(getattr(latspec, name), ModuleType)]
    assert callable(latspec.diamond)


def test_diamond_is_the_function_after_every_module_is_imported():
    for module in pkgutil.iter_modules(latspec.__path__):
        importlib.import_module(f"latspec.{module.name}")
    assert callable(latspec.diamond) and latspec.diamond is latspec.lattice.diamond


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from latspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(latspec.__all__)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
LOAD_NUMPY = "import latspec\nlatspec.hamiltonian"  # the first name that needs numpy


def _run_in_fresh_interpreter(code: str, **env: str) -> dict:
    """Run `code` then report the BLAS thread variables, the thread count
    and whether numpy is loaded, on the last line of stdout."""
    report = (
        "import json, os, sys\n"
        f"{code}\n"
        "task = '/proc/self/task'\n"
        f"print(json.dumps({{'env': {{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}},"
        " 'threads': len(os.listdir(task)) if os.path.isdir(task) else None,"
        " 'numpy': 'numpy' in sys.modules}))"
    )
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", report], env=child_env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("code", [
    "import latspec",
    "import latspec\nlatspec.build_projective(3, 2)\nlatspec.validate(latspec.build_boolean(3))\n"
    "latspec.cover_weight_sums(latspec.build_uniform(2, 3))",
    "from latspec.cli import main\nmain(['build', '--family', 'projective', '--r', '3', '--q', '2'])",
    "from latspec.cli import main\nmain(['validate', {document!r}])",
    "import latspec\nL = latspec.build_affine(2, 2)\nlatspec.diamond(L, 1, 2), latspec.ZERO\n"
    "latspec.diamond_table(L)\nlatspec.nonassociativity_witness(L)",
    "from latspec.cli import main\nmain(['diamond-table', '--family', 'uniform', '--r', '2', '--m', '3'])",
], ids=["import", "api", "cli-build", "cli-validate", "api-product", "cli-diamond-table"])
def test_the_lattice_layer_loads_no_numpy(code, tmp_path):
    document = tmp_path / "boolean3.json"
    document.write_text(json.dumps(latspec.build_boolean(3).to_document()), encoding="utf-8")
    assert _run_in_fresh_interpreter(code.format(document=str(document)))["numpy"] is False


def test_import_starts_one_thread_and_restores_the_environment():
    result = _run_in_fresh_interpreter(LOAD_NUMPY)
    assert result["numpy"] is True
    assert result["env"] == dict.fromkeys(BLAS_THREAD_VARS)
    if result["threads"] is not None:
        assert result["threads"] == 1


def test_callers_openblas_thread_count_is_kept():
    result = _run_in_fresh_interpreter(LOAD_NUMPY, OPENBLAS_NUM_THREADS="2")
    assert result["env"]["OPENBLAS_NUM_THREADS"] == "2"
    assert result["threads"] == _run_in_fresh_interpreter("import numpy", OPENBLAS_NUM_THREADS="2")["threads"]


def test_numpy_imported_first_is_left_alone():
    code = f"import numpy\nbefore = dict(os.environ)\n{LOAD_NUMPY}\nassert dict(os.environ) == before"
    result = _run_in_fresh_interpreter(code)
    assert result["env"] == dict.fromkeys(BLAS_THREAD_VARS)


def test_callers_omp_thread_count_is_respected():
    result = _run_in_fresh_interpreter(LOAD_NUMPY, OMP_NUM_THREADS="2")
    assert result["env"] == {"OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}
    assert result["threads"] == _run_in_fresh_interpreter("import numpy", OMP_NUM_THREADS="2")["threads"]
