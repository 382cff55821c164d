"""The names that the benchmark and the scripts import from latspec exist.

`perfbench/` and `scripts/` run outside tier-1, so a deleted public name
they read would otherwise fail only there."""

import ast
import importlib
from pathlib import Path

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
