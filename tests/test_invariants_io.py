import json

import pytest
from conftest import (a3_transposition_document, first_moved_by_any,
                      h3_document, invariant_frame_matrix, ladder_jdkx_inv,
                      nabla_matrix_reference,
                      winv_witness_by_any, with_entry)

from coxsaito.coxeter import anti_invariant_Q, build_datum, builtin_invariants
from coxsaito.errors import JacobianCriterionFailed, NotInvariant, ParseError
from coxsaito.invariants_io import datum_to_json, ingest_invariants, poly_to_json
from coxsaito.poly import MultiPoly
from coxsaito.saito import (PolyDerivation, bk_matrix, build_context,
                            contact_defect, jdkx_inv, xi_basis)
from coxsaito.verify import (check_flat_remark, check_hodge, check_lemma21,
                             check_metric, check_thm24_thm25_prop26)


def write_doc(tmp_path, doc, name="group.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def ingest_document(doc, tmp_path, name="group.json"):
    return ingest_invariants(write_doc(tmp_path, doc, name))


def test_b2_roundtrip_through_file(tmp_path):
    datum = build_datum("B", 2)
    inv = builtin_invariants(datum)
    doc = datum_to_json(datum, inv)
    path = write_doc(tmp_path, doc)
    datum2, inv2 = ingest_invariants(path)
    assert datum2.rank == 2
    assert datum2.exponents == (1, 3)
    assert inv2.polys == inv.polys
    ctx = build_context(datum2, inv2)
    assert bk_matrix(1, ctx) == bk_matrix(1, build_context(datum, inv))


def test_dependent_invariants_rejected(tmp_path):
    datum = build_datum("B", 2)
    inv = builtin_invariants(datum)
    doc = datum_to_json(datum, inv)
    # replace P2 by P1^2: algebraically dependent
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p1 = x * x + y * y
    doc["invariants"][1] = poly_to_json(p1 * p1)
    path = write_doc(tmp_path, doc)
    with pytest.raises(JacobianCriterionFailed):
        ingest_invariants(path)


def test_malformed_json_gives_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"label": "X",\n  "field": }', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        ingest_invariants(path)
    assert "line 2" in str(err.value)


def test_bad_scalar_shape_named_by_path(tmp_path):
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    doc["gram"][0][0] = [[1, 2, 3]]
    path = write_doc(tmp_path, doc)
    with pytest.raises(ParseError) as err:
        ingest_invariants(path)
    assert "$.gram[0][0]" in str(err.value)


def test_non_squarefree_minimal_polynomial_rejected(tmp_path):
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    # (t^2 - 5)^2; the field is parsed before any scalar of the file
    doc["field"]["minimal_polynomial"] = [[25, 1], [0, 1], [-10, 1], [0, 1], [1, 1]]
    path = write_doc(tmp_path, doc)
    with pytest.raises(ParseError,
                       match=r"^\$\.field: minimal polynomial must be squarefree"):
        ingest_invariants(path)


@pytest.mark.parametrize("path,value,message", [
    (("invariants", 0, "terms"), 5, r"^\$\.invariants\[0\]\.terms: expected a list$"),
    (("invariants", 1, "terms"), {"exponents": [4, 0]},
     r"^\$\.invariants\[1\]\.terms: expected a list$"),
    (("rank",), True, r"^\$\.rank: expected int$"),
    (("exponents",), [True, 3], r"^\$\.exponents: expected positive integers$"),
    (("gram", 0, 0), [[True, 1]], r"^\$\.gram\[0\]\[0\]: expected a scalar"),
    (("field", "minimal_polynomial", 0), [0, True],
     r"^\$\.field\.minimal_polynomial\[0\]: expected \[num, den\]$"),
    (("invariants", 0, "terms", 0, "exponents"), [True, 1],
     r"^\$\.invariants\[0\]\.terms\[0\]: bad exponent vector$"),
    (("invariants", 0, "terms", 0, "exponents"), [2 ** 24, 0],
     r"^\$\.invariants\[0\]\.terms\[0\]: bad exponent vector$"),
    (("field", "generator_description"), {"name": "sqrt(2)"},
     r"^\$\.field\.generator_description: expected str$"),
    (("exponents",), [], r"^\$: expected 2 exponents, got 0$"),
], ids=["terms-int", "terms-object", "rank-bool", "exponent-bool",
        "numerator-bool", "minpoly-bool", "monomial-bool", "exponent-overflow",
        "description-object", "exponents-empty"])
def test_wrong_json_types_are_parse_errors(tmp_path, path, value, message):
    # JSON true/false are Python bools, a subclass of int: they are rejected
    # wherever an int is expected, and a non-list "terms" is a ParseError
    datum = build_datum("B", 2)
    doc = datum_to_json(datum, builtin_invariants(datum))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParseError, match=message):
        ingest_invariants(write_doc(tmp_path, doc))


def test_custom_datum_has_no_builtin_catalogue(h3_context):
    from coxsaito.errors import UnsupportedType
    with pytest.raises(UnsupportedType):
        builtin_invariants(h3_context.datum)


def test_h3_file_validates(h3_context):
    datum = h3_context.datum
    assert datum.label() == "custom:H3"
    assert len(datum.forms) == 15
    assert datum.coxeter_number == 10
    assert h3_context.invariants.validated
    q = anti_invariant_Q(datum)
    assert q.homogeneous_degree() == 15


def test_h3_q_multipliers_match_substitution(h3_context):
    datum = h3_context.datum
    q = anti_invariant_Q(datum)
    assert len(datum.q_multipliers) == 15
    for s, c in zip(datum.subst, datum.q_multipliers):
        assert c == -1
        assert q.subst_linear(s) == c * q


def test_h3_theorem_suite_passes(h3_context):
    # at depth (2, 3), nabla_D runs to nabla_D^2 xi^(3) over Q(sqrt 5)
    for k_max, m_max in ((1, 1), (2, 3)):
        results = check_thm24_thm25_prop26(h3_context, k_max, m_max)
        assert [(r.name, r.status) for r in results] == [
            (f"{name}/m={m}", "pass") for m in range(m_max + 1)
            for name in ("thm25.member", "thm25.basis", "thm25.2")] + [
            (f"{name}/k={k}", "pass") for k in range(1, k_max + 1)
            for name in ("thm24.1", "thm24.2", "prop26")], (k_max, m_max)


def test_h3_nabla_xi_matches_christoffel_reference(h3_context):
    # the differential oracle of test_saito over Q(sqrt 5)
    for m in (1, 3):
        for t in range(3):
            assert (invariant_frame_matrix(m, t, h3_context)
                    == nabla_matrix_reference(m, t, h3_context)), (m, t)


def test_h3_suites_runnable(h3_context):
    results = check_metric(h3_context) + check_flat_remark(h3_context, 1)
    bad = [(r.name, r.witness) for r in results if r.status == "fail"]
    assert not bad, bad


def test_h3_degree_one_basis(h3_context):
    b1 = bk_matrix(1, h3_context)
    assert b1[0, 0].is_zero()  # stated degree 1+1-10 < 0
    assert contact_defect(1, h3_context) is None


def test_h3_jdkx_inv_matches_reduced_minor_ladder(h3_context):
    # the differential oracle of test_saito over Q(sqrt 5)
    for k in (1, 2):
        assert jdkx_inv(k, h3_context) == ladder_jdkx_inv(k, h3_context), k


def test_h3_generating_prefix(h3_context):
    # generators 0-2 are the coordinate sign changes, whose orbits of their
    # forms are themselves; generator 3 joins them to the other twelve
    datum = h3_context.datum
    assert len(datum.generators) == 15
    assert datum.n_generating == 4


def test_h3_ingest_builds_generator_3_powers_per_polynomial(tmp_path, power_products):
    # first_moved substitutes P_1, P_2, P_3 (degrees 2, 6, 10) by the dense
    # generator 3: each call seeds its three forms with their first powers
    # and builds each power up to the degree of its polynomial once,
    # 3 * (1 + 5 + 9) = 45 products; the datum keeps none of them
    datum, _ = ingest_document(h3_document(), tmp_path)
    built: dict = {}
    for form, degree in power_products:
        built.setdefault(id(form), []).append(degree)
    assert sorted(built.values()) == sorted(
        list(range(2, d + 1)) for d in (2, 6, 10) for _ in range(3))
    assert datum.subst[3] == tuple(zip(*datum.generators[3]))


def test_h3_lemma21_and_hodge_pass(h3_context):
    # at p = 2 the hodge suite runs nabla_D^2, the bracket and
    # derivation_transform under the dense H3 generators
    results = check_lemma21(h3_context, 1) + check_hodge(h3_context, 2)
    assert [(r.name, r.status) for r in results] == [
        (name, "pass") for name in (
            "lemma21.1d/k=1", "lemma21.1w/k=1", "lemma21.2/k=1",
            "lemma21.3/k=1", "lemma21.4/k=1", "hodge.disc")] + [
        (f"{name}/p={p}", "pass") for p in (1, 2)
        for name in ("hodge.winv", "hodge.g0", "hodge.poincare", "hodge.contact")]


def test_redundant_generators_give_a_shorter_prefix(tmp_path):
    datum, invariants = ingest_document(a3_transposition_document(), tmp_path)
    assert len(datum.generators) == 6
    assert datum.n_generating == 3
    assert invariants.validated


def test_generators_whose_full_orbits_miss_a_form_are_refused(tmp_path):
    # (1 2) and (3 4) alone reach only their own two forms
    doc = a3_transposition_document()
    doc["generators"] = doc["generators"][:2]
    with pytest.raises(ParseError, match="orbits of their reflecting forms "
                                         "miss 4 of 6 hyperplane forms"):
        ingest_document(doc, tmp_path)


# Each file lists more generators than its generating prefix.  A tamper adds
# x_var^deg, which generator 0 fixes and prefix generator `mover` moves
# first, to P_2, to the B^(1) entry `entry` (one of positive degree) and to
# the x_var coefficient of the last xi^(1); the witness found on the prefix
# must be the one that scanning every listed generator gives.
FILES = {"a3-transpositions": (a3_transposition_document, 2, (2, 2), 1),
         "h3": (h3_document, 1, (1, 2), 3)}


def _power(datum, var, degree):
    return MultiPoly.variable(datum.rank, var, datum.field) ** degree


@pytest.mark.parametrize("name", list(FILES))
def test_not_invariant_message_matches_every_generator_scan(name, tmp_path):
    make_doc, var, _, mover = FILES[name]
    datum, invariants = ingest_document(make_doc(), tmp_path, "clean.json")
    polys = list(invariants.polys)
    polys[1] = polys[1] + _power(datum, var, polys[1].total_degree())
    doc = make_doc()
    doc["invariants"][1] = poly_to_json(polys[1])
    with pytest.raises(NotInvariant) as err:
        ingest_document(doc, tmp_path)
    assert first_moved_by_any(datum, polys) == (mover, 1)
    assert str(err.value) == f"P_2 is not invariant under generator {mover}"


@pytest.mark.parametrize("name", list(FILES))
def test_lemma21_w_witness_matches_every_generator_scan(name, tmp_path):
    make_doc, var, (i, j), mover = FILES[name]
    ctx = build_context(*ingest_document(make_doc(), tmp_path))
    ell = ctx.rank
    b1 = bk_matrix(1, ctx)
    entry = b1[i, j]
    b1 = with_entry(b1, i, j, entry + _power(ctx.datum, var,
                                              entry.homogeneous_degree()))
    ctx.bk_table[1] = b1
    entries = [b1[a, b] for a in range(ell) for b in range(ell)]
    assert first_moved_by_any(ctx.datum, entries) == (mover, i * ell + j)
    witness = next(r.witness for r in check_lemma21(ctx, 1)
                   if r.name == "lemma21.1w/k=1")
    assert witness == f"entry ({i + 1},{j + 1}) moved by generator {mover}"


@pytest.mark.parametrize("name", list(FILES))
def test_hodge_winv_witness_matches_every_generator_scan(name, tmp_path):
    make_doc, var, _, mover = FILES[name]
    ctx = build_context(*ingest_document(make_doc(), tmp_path))
    xis = list(xi_basis(1, ctx))
    coeffs = list(xis[-1].coeffs)
    coeffs[var] = coeffs[var] + _power(ctx.datum, var,
                                       coeffs[var].homogeneous_degree())
    xis[-1] = PolyDerivation(coeffs)
    ctx.xi_table[1] = xis
    reference = winv_witness_by_any(1, ctx)
    assert reference == f"xi^(1)_{len(xis)} moved by generator {mover}"
    witness = next(r.witness for r in check_hodge(ctx, 1)
                   if r.name == "hodge.winv/p=1")
    assert witness == reference
