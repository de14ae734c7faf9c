"""The package's public names, and the names the benchmark tracer rebinds,
resolve."""

import ast
from pathlib import Path

import pytest

import coxsaito
from perfbench.tracer import KERNELS, STAGES, Tracer

INIT = Path(coxsaito.__file__)


def test_all_matches_the_names_init_imports():
    imported = [alias.asname or alias.name
                for node in ast.parse(INIT.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert sorted(coxsaito.__all__) == sorted(imported)
    for name in coxsaito.__all__:
        assert getattr(coxsaito, name) is not None, name


@pytest.mark.parametrize("name,module,path", [
    (name, module, path) for name, (module, path, *_) in {**STAGES, **KERNELS}.items()])
def test_traced_stages_and_kernels_resolve(name, module, path):
    _, obj = Tracer()._resolve(module, path)
    assert obj is not None, name
