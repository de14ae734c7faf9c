import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import with_entry

from coxsaito import cli
from coxsaito.cli import RunConfig, main, run, run_basis
from coxsaito.coxeter import build_datum, builtin_invariants, validate_invariants
from coxsaito.errors import ConfigError, CoxsaitoError
from coxsaito.invariants_io import datum_to_json, poly_to_json
from coxsaito.poly import MultiPoly
from coxsaito.saito import bk_matrix, xi_basis


def test_verify_b2_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--type", "B", "--rank", "2", "--kmax", "3",
                 "--mmax", "7", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"group", "field", "invariants", "checks", "summary"}
    assert doc["group"] == "B2"
    assert doc["field"] == "Q"
    assert doc["summary"]["fail"] == 0
    for check in doc["checks"]:
        assert {"name", "paper_ref", "status", "ms"} <= set(check)
        assert check["status"] in ("pass", "skipped")


def test_verify_a1_smoke(capsys):
    code = main(["verify", "--type", "A", "--rank", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "group A1" in out
    assert "summary:" in out
    assert "fail=0" in out


def test_text_and_json_have_identical_check_sets(tmp_path):
    json_path = tmp_path / "r.json"
    text_path = tmp_path / "r.txt"
    assert main(["verify", "--type", "I2", "--m", "4", "--format", "json",
                 "--out", str(json_path)]) == 0
    assert main(["verify", "--type", "I2", "--m", "4", "--format", "text",
                 "--out", str(text_path)]) == 0
    doc = json.loads(json_path.read_text())
    json_names = {c["name"] for c in doc["checks"]}
    text_names = set()
    for line in text_path.read_text().splitlines():
        if line.startswith(("PASS", "FAIL", "SKIPPED")):
            text_names.add(line.split()[1])
    assert json_names == text_names


def test_basis_b2_m3(tmp_path):
    out = tmp_path / "basis.json"
    code = main(["basis", "--type", "B", "--rank", "2", "-m", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [entry["degree"] for entry in doc["basis"]] == [5, 7]
    assert "normalized" in doc["note"]


def test_basis_text(capsys):
    code = main(["basis", "--type", "A", "--rank", "1", "-m", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "xi^(3)_1" in out
    assert "-4*x^3" in out


def test_suite_selection(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--type", "B", "--rank", "2", "--suite",
                 "metric,flat", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = {c["name"] for c in doc["checks"]}
    assert any(n.startswith("metric/") for n in names)
    assert any(n.startswith("flat.") for n in names)
    assert not any(n.startswith("lemma21") for n in names)


def test_config_errors_exit_two(capsys, tmp_path):
    assert main(["verify", "--type", "Z", "--rank", "2"]) == 2
    assert main(["verify", "--type", "B"]) == 2
    assert main(["verify", "--type", "I2"]) == 2
    assert main(["verify", "--type", "B", "--rank", "2", "--suite", "bogus"]) == 2
    assert main(["verify", "--type", "B", "--rank", "2", "--kmax", "0"]) == 2
    assert main(["verify", "--invariants", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_only_dihedral_labels_select_i2(capsys):
    # I, I2 and I2(m) in any case name I2; any other label starting with "I"
    # is an unsupported type, not I2
    assert main(["verify", "--type", "Ixyz", "--m", "5", "--suite", "metric"]) == 2
    assert "unsupported type 'Ixyz'" in capsys.readouterr().err
    assert main(["verify", "--type", "Ixyz", "--rank", "2", "--m", "5",
                 "--suite", "metric"]) == 2
    assert "unsupported type 'Ixyz'" in capsys.readouterr().err
    for label in ("i", "I2", "i2(M)"):
        assert main(["verify", "--type", label, "--m", "5", "--suite", "metric"]) == 0
        assert "group I2(5)" in capsys.readouterr().out


def test_invalid_invariants_file_exit_two(tmp_path, capsys):
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p1 = x * x + y * y
    doc["invariants"][1] = poly_to_json(p1 * p1)
    path = tmp_path / "dependent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nonzero constant multiple" in err


def test_huge_exponent_is_refused_before_substitution(tmp_path, capsys):
    # a term of the largest exponent the parser accepts is caught by the
    # degree check; substituting it would not finish
    datum = build_datum("A", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    one = doc["invariants"][1]["terms"][0]["coefficient"]
    doc["invariants"][1]["terms"].append(
        {"exponents": [2 ** 24 - 1, 0], "coefficient": one})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(path)]) == 2
    assert "P_2 must be homogeneous of degree 3" in capsys.readouterr().err


def test_non_list_terms_exit_two(tmp_path, capsys):
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    doc["invariants"][0]["terms"] = 5
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "$.invariants[0].terms: expected a list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path,value,message", [
    (("invariants", 0, "terms", 0, "exponents"), [2 ** 24, 0],
     "$.invariants[0].terms[0]: bad exponent vector"),
    (("field", "generator_description"), {"name": "sqrt(2)"},
     "$.field.generator_description: expected str"),
], ids=["exponent-overflow", "description-object"])
def test_out_of_range_values_exit_two(tmp_path, capsys, path, value, message):
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(target)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("label,rank", [("I2", 5), ("A", 3)])
@pytest.mark.parametrize("keep", [0, 1])
def test_too_few_generators_fail(tmp_path, capsys, label, rank, keep):
    # no generator, or one, certifies nothing about W: the file is refused
    # instead of passing every invariance check vacuously
    datum = build_datum(label, rank)
    doc = datum_to_json(datum, builtin_invariants(datum))
    doc["generators"] = doc["generators"][:keep]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: $: the generators' orbits of their reflecting forms miss" in err
    assert "integrity error" not in err


def test_singular_gram_exits_two(tmp_path, capsys):
    # a file whose datum is rejected is invalid input (exit 2), not a fault
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    one = [[1, 1]]
    doc["gram"] = [[one, one], [one, one]]
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", "--invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: $: scalar matrix is singular" in err
    assert "integrity error" not in err


def tamper_contexts(monkeypatch, tamper):
    """Make `run` build contexts that `tamper` perturbs before any check."""
    real = cli.build_context

    def factory(datum, invariants):
        ctx = real(datum, invariants)
        tamper(ctx)
        return ctx

    monkeypatch.setattr(cli, "build_context", factory)


def test_check_failure_exit_one(tmp_path, monkeypatch):
    def tamper(ctx):
        bk_matrix(2, ctx)
        one = MultiPoly.const(2, 1)
        ctx.bk_table[2] = with_entry(
            ctx.bk_table[2], 0, 0, ctx.bk_table[2][0, 0] + one)

    config = RunConfig(type_label="B", rank=2, suites=["lemma21"],
                       k_max=2, m_max=1, p_max=1, fmt="json",
                       out=str(tmp_path / "r.json"))
    tamper_contexts(monkeypatch, tamper)
    assert run(config) == 1
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["summary"]["fail"] >= 1


def test_integrity_error_exit_three(tmp_path, monkeypatch):
    # tampering with the Jacobian after the inverse is cached breaks the
    # polynomiality certification, which is an integrity failure, not a
    # regular check failure
    def tamper(ctx):
        one = MultiPoly.const(1, 1)
        ctx.jac_P = with_entry(ctx.jac_P, 0, 0, ctx.jac_P[0, 0] + one)

    config = RunConfig(type_label="A", rank=1, suites=["lemma21"],
                       k_max=1, m_max=1, p_max=1, fmt="json",
                       out=str(tmp_path / "r.json"))
    tamper_contexts(monkeypatch, tamper)
    assert run(config) == 3
    doc = json.loads((tmp_path / "r.json").read_text())
    assert any("integrity" in c.get("witness", "") for c in doc["checks"])


def test_an_error_escaping_a_run_exits_three(monkeypatch, capsys):
    # an error that no check caught is an integrity problem, not a
    # configuration one
    def refuse(datum, invariants):
        raise CoxsaitoError("invariants must be validated before use")

    monkeypatch.setattr(cli, "build_context", refuse)
    assert main(["verify", "--type", "B", "--rank", "2"]) == 3
    assert capsys.readouterr().err == (
        "integrity error: invariants must be validated before use\n")


@pytest.mark.parametrize("config,message", [
    (RunConfig(), "select a group with --type or --invariants"),
    (RunConfig(type_label="B", rank=2, fmt="xml"), "format must be text or json")])
def test_run_config_needs_a_group_and_a_known_format(config, message):
    with pytest.raises(ConfigError, match=message):
        config.validate()


def test_verify_without_a_group_exits_two(capsys):
    assert main(["verify"]) == 2
    assert capsys.readouterr().err == (
        "error: select a group with --type or --invariants\n")


# the catalogue invariants (P_1, ..., P_l), corrected and scaled so that
# D[G] is the constant antidiagonal of ones the flat Remark is stated for
FLAT_INVARIANTS = {
    ("A", 3): lambda p1, p2, p3: (p1 * Fraction(1, 8), p2 * Fraction(1, 3),
                                  p3 - p1 * p1 * Fraction(3, 8)),
    ("D", 3): lambda p1, p2, p3: (p1 * Fraction(1, 8), p2,
                                  (p3 - p1 * p1 * Fraction(3, 4)) * Fraction(-1, 2)),
    ("B", 2): lambda p1, p2: (p1 * Fraction(1, 8), p2 - p1 * p1 * Fraction(3, 4)),
    ("I2", 5): lambda p1, p2: (p1 * Fraction(1, 10), p2),
}


def _statuses(argv, out):
    main([*argv, "--format", "json", "--out", str(out)])
    return {c["name"]: c["status"]
            for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}


@pytest.mark.parametrize("label,rank", list(FLAT_INVARIANTS))
def test_flat_invariants_pass_the_flat_remark(label, rank, tmp_path):
    # through --invariants, flat invariants pass all six flat checks, which
    # the catalogue's skip, and leave every other status as it was
    datum = build_datum(label, rank)
    polys = FLAT_INVARIANTS[(label, rank)](*builtin_invariants(datum).polys)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(datum_to_json(
        datum, validate_invariants(datum, list(polys), source="flat"))),
        encoding="utf-8")
    group = ["--m", str(rank)] if label == "I2" else ["--rank", str(rank)]
    catalogue = _statuses(["verify", "--type", label, *group], tmp_path / "c.json")
    flat = _statuses(["verify", "--invariants", str(path)], tmp_path / "f.json")
    assert list(flat) == list(catalogue)
    flat_checks = [name for name in flat if name.startswith("flat.")]
    assert len(flat_checks) == 6
    assert all(flat[name] == "pass" for name in flat_checks)
    assert {name: s for name, s in flat.items() if name not in flat_checks} == {
        name: s for name, s in catalogue.items() if name not in flat_checks}


def test_basis_rejects_negative_order():
    assert main(["basis", "--type", "B", "--rank", "2", "-m", "-1"]) == 2


def test_run_basis_function(tmp_path):
    config = RunConfig(type_label="B", rank=2, fmt="json",
                       out=str(tmp_path / "b.json"))
    assert run_basis(config, 1) == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    assert [e["degree"] for e in doc["basis"]] == [1, 3]


def test_invariants_directory_exits_two(tmp_path, capsys):
    assert main(["verify", "--invariants", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_utf8_invariants_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "café"}'.encode("latin-1"))
    assert main(["verify", "--invariants", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["dir", "under_file"])
def test_unwritable_out_exits_two(tmp_path, capsys, target):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("x", encoding="utf-8")
    out = tmp_path if target == "dir" else blocker / "r.json"
    assert main(["verify", "--type", "A", "--rank", "1", "--suite", "metric",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_empty_suite_list_exits_two(capsys):
    assert main(["verify", "--type", "B", "--rank", "2", "--suite", ","]) == 2
    assert "--suite names no suite" in capsys.readouterr().err


def test_importing_the_cli_loads_no_dataclasses():
    # RunConfig is a plain class: `dataclasses` would import inspect, ast and
    # dis into every command-line run
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, coxsaito.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, text=True,
                         capture_output=True, check=True).stdout
    assert out.strip() == "False"
