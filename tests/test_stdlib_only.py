"""The package runs on the standard library alone."""

import ast
import sys
import tomllib
from pathlib import Path

import pytest

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


def _layout_reads(name):
    """Where a module reads a numerator, denominator or field degree, or
    builds a scalar: (line, what) pairs."""
    path = ROOT / "src" / "coxsaito" / name
    layout = {"numerator", "denominator", "num", "den", "degree"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in layout:
            found.append((node.lineno, "." + node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("Fraction", "Scalar")):
            found.append((node.lineno, node.func.id + "(...)"))
    return found


def test_poly_reads_no_coefficient_layout():
    # only FieldContext turns coefficients into integers and back: poly.py
    # reads no numerator, denominator or field degree, and builds no scalar
    found = _layout_reads("poly.py")
    assert not found, found


def test_matrix_reads_no_coefficient_layout():
    # nor does the matrix layer, whose products are the kernel's sums
    found = _layout_reads("matrix.py")
    assert not found, found


def test_matrix_product_has_one_route():
    # every entry of a matrix product is one sum of products of the kernel:
    # Matrix.__mul__ adds nothing and multiplies nothing inside a loop
    path = ROOT / "src" / "coxsaito" / "matrix.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    matrix = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Matrix")
    mul = next(node for node in matrix.body
               if isinstance(node, ast.FunctionDef) and node.name == "__mul__")
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = [(node.lineno, "+") for node in ast.walk(mul)
             if isinstance(node, ast.AugAssign)
             or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)]
    found += sorted({(node.lineno, "* in a loop") for loop in ast.walk(mul)
                     if isinstance(loop, loops) for node in ast.walk(loop)
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)})
    assert not found, found


def _loop_accumulations(name):
    """(line, name) wherever a plain name is accumulated inside a loop, as
    `x = ... x + ...`, `x = ... x - ...`, `x += ...` or `x -= ...`; a
    subscript target such as a dict counter is not a plain name."""
    path = ROOT / "src" / "coxsaito" / name
    adds = (ast.Add, ast.Sub)
    found = set()
    for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if (isinstance(node, ast.AugAssign) and isinstance(node.op, adds)
                    and isinstance(node.target, ast.Name)):
                found.add((node.lineno, node.target.id))
            elif isinstance(node, ast.Assign):
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                found.update(
                    (node.lineno, side.id) for op in ast.walk(node.value)
                    if isinstance(op, ast.BinOp) and isinstance(op.op, adds)
                    for side in (op.left, op.right)
                    if isinstance(side, ast.Name) and side.id in targets)
    return sorted(found)


@pytest.mark.parametrize("name", ["saito.py", "matrix.py", "verify.py", "poly.py"])
def test_no_sum_of_products_is_accumulated_by_hand(name):
    # every sum a * b in the polynomial, derivation, matrix and check layers
    # is one call of the fused kernel (a matrix product or a
    # sum_of_products), never a running total built in a loop
    found = _loop_accumulations(name)
    assert not found, found


def test_field_has_one_number_field_arithmetic():
    # inversion and the squarefree certificate share one fraction-free
    # integer solve: field.py defines no univariate polynomial division or
    # Euclid, and neither job builds a Fraction
    path = ROOT / "src" / "coxsaito" / "field.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [(node.lineno, node.name) for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and any(w in node.name for w in ("poly_", "divmod", "euclid", "gcd"))]
    assert not found, found
    field_context = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                         and node.name == "FieldContext")
    methods = {node.name: node for node in field_context.body
               if isinstance(node, ast.FunctionDef)}
    for name in ("invert", "_certify_squarefree", "_solve"):
        calls = [node.func for node in ast.walk(methods[name])
                 if isinstance(node, ast.Call)]
        assert not [f.lineno for f in calls
                    if isinstance(f, ast.Name) and f.id == "Fraction"], name
        if name != "_solve":
            assert any(isinstance(f, ast.Attribute) and f.attr == "_solve"
                       for f in calls), name


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


def test_every_private_helper_is_used_in_src():
    # no test-only hooks: every module-level private function or class of
    # the package is referenced by name somewhere in src/ outside its own
    # definition
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "coxsaito").glob("*.py"))}
    uses = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for name, tree in trees.items():
        for helper in tree.body:
            if not (isinstance(helper, (ast.FunctionDef, ast.ClassDef))
                    and helper.name.startswith("_")):
                continue
            inside = range(helper.lineno, helper.end_lineno + 1)
            if not any(getattr(node, "id", getattr(node, "attr", None)) == helper.name
                       and not (where == name and node.lineno in inside)
                       for where, node in uses):
                unused.append((name, helper.name))
    assert unused == [], unused


def _decision_guards(source):
    """(line, check) wherever a `check_*` function returns (True, None) on a
    test that calls something, as `if <call>: return True, None` or
    `(True, None) if <call> else ...`: a decision written into a check
    instead of handed to the runner."""
    def passes(node):
        return (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and all(isinstance(e, ast.Constant) for e in node.elts)
                and node.elts[0].value is True and node.elts[1].value is None)

    def calls(node):
        return any(isinstance(n, ast.Call) for n in ast.walk(node))

    found = []
    for check in ast.parse(source).body:
        if not (isinstance(check, ast.FunctionDef) and check.name.startswith("check_")):
            continue
        for node in ast.walk(check):
            if isinstance(node, ast.If):
                guard = (calls(node.test) and len(node.body) == 1
                         and isinstance(node.body[0], ast.Return)
                         and passes(node.body[0].value))
            else:
                guard = (isinstance(node, ast.IfExp) and calls(node.test)
                         and passes(node.body))
            if guard:
                found.append((node.lineno, check.name))
    return found


def test_every_decision_is_the_runners():
    # a check hands its decision to `_Runner.run`, which passes it only when
    # it holds and reads an error as not holding; no check returns
    # (True, None) on a call of its own
    path = ROOT / "src" / "coxsaito" / "verify.py"
    found = _decision_guards(path.read_text(encoding="utf-8"))
    assert found == [], found


def test_no_module_imports_a_private_name():
    # a module reads another's helpers through public names only: no
    # `from .saito import _own_frame` in src/coxsaito
    found = []
    for path in sorted((ROOT / "src" / "coxsaito").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            inside = isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "coxsaito")
            if inside:
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
            elif isinstance(node, ast.Import):
                found += [(path.name, node.lineno, alias.name) for alias in node.names
                          if alias.name.split(".")[0] == "coxsaito"
                          and any(part.startswith("_") for part in alias.name.split("."))]
    assert found == [], found


def _shared_kept_keys(source):
    """(line, key) for every `_kept(ctx, key, ...)` call whose key is not a
    tuple led by a string literal, or whose literal another `_kept` call
    also uses: a record with more than one writer."""
    writers, found = {}, []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_kept"):
            continue
        key = node.args[1] if len(node.args) > 1 else None
        what = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else None
        if isinstance(what, ast.Constant) and isinstance(what.value, str):
            writers.setdefault(what.value, []).append(node.lineno)
        else:
            found.append((node.lineno, ast.unparse(key) if key else None))
    found += [(line, what) for what, lines in writers.items() if len(lines) > 1
              for line in lines]
    return sorted(found) if writers else [(0, "no _kept call")]


def test_every_kept_record_has_one_writer():
    # each record in `SaitoContext.kept` is written by one `_kept` call of
    # saito, named by a string literal that no other call uses, so a
    # decision reads the one build it names
    path = ROOT / "src" / "coxsaito" / "saito.py"
    found = _shared_kept_keys(path.read_text(encoding="utf-8"))
    assert found == [], found
