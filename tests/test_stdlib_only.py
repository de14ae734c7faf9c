"""The package runs on the standard library alone."""

import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_absolute_import_is_stdlib():
    modules = sorted((ROOT / "src" / "coxsaito").glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_poly_reads_no_coefficient_layout():
    # only FieldContext turns coefficients into integers and back: poly.py
    # reads no numerator, denominator or field degree, and builds no scalar
    path = ROOT / "src" / "coxsaito" / "poly.py"
    layout = {"numerator", "denominator", "num", "den", "degree"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in layout:
            found.append((node.lineno, "." + node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("Fraction", "Scalar")):
            found.append((node.lineno, node.func.id + "(...)"))
    assert not found, found


def test_poly_imports_no_fractions():
    # a coefficient's type is the field's business: poly.py neither builds
    # nor tests for a Fraction
    path = ROOT / "src" / "coxsaito" / "poly.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(node.module)
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append(node.id)
    assert not found, found


def test_no_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
