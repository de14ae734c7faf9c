from fractions import Fraction

import pytest

from coxsaito.coxeter import (CoxeterDatum, anti_invariant_Q, build_datum,
                              builtin_invariants, jacobian,
                              poincare_closed_form, poincare_equal,
                              validate_invariants)
from coxsaito.errors import (CoxsaitoError, JacobianCriterionFailed,
                             NotInvariant, RankOutOfRange, SingularMatrix,
                             UnsupportedType, WrongDegrees)
from coxsaito.field import RATIONALS
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly


def normalized_form_set(datum):
    return {tuple(datum.field.to_coeffs(c) for c in f) for f in datum.forms}


def test_b2_datum():
    d = build_datum("B", 2)
    assert d.exponents == (1, 3)
    assert d.coxeter_number == 4
    assert len(d.forms) == 4
    # forms {x, y, x-y, x+y} after normalization
    expected = {((1,), (0,)), ((0,), (1,)), ((1,), (-1,)), ((1,), (1,))}
    got = {tuple(tuple(datum_c) for datum_c in f) for f in
           (tuple(d.field.to_coeffs(c) for c in form) for form in d.forms)}
    assert got == expected


def test_a1_datum():
    d = build_datum("A", 1)
    assert d.exponents == (1,)
    assert d.coxeter_number == 2
    assert len(d.forms) == 1


def test_a2_gram_is_projected_metric():
    from fractions import Fraction
    d = build_datum("A", 2)
    want = [[Fraction(2, 3), Fraction(-1, 3)], [Fraction(-1, 3), Fraction(2, 3)]]
    assert [[v for v in row] for row in d.gram] == want


def test_i2_5_datum():
    d = build_datum("I2", 5)
    assert len(d.forms) == 5
    assert d.exponents == (1, 4)
    assert d.coxeter_number == 5
    assert d.field.degree == 4


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3), ("D", 4),
    ("I2", 3), ("I2", 4), ("I2", 5), ("I2", 6), ("I2", 7), ("I2", 8),
])
def test_builtin_daten_structural_invariants(label, rank):
    d = build_datum(label, rank)
    ell, h = d.rank, d.coxeter_number
    assert len(d.forms) == sum(d.exponents) == ell * h // 2
    ident = Matrix.identity(ell, ell, d.field)
    gram = Matrix.from_scalars(d.gram, ell, d.field)
    for g in d.generators:
        g = Matrix.from_scalars(g, ell, d.field)
        assert g * g == ident
        assert g.transpose() * gram * g == gram
    # a simple system: no proper prefix of it generates W
    assert d.n_generating == len(d.generators) == ell


_B2_FORMS = [[1, 0], [0, 1], [1, -1], [1, 1]]
_B2_GENS = [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]


@pytest.mark.parametrize("rank,gram,forms,gens,exps,error,message", [
    (0, [], [], [], (1,), RankOutOfRange, "rank must be >= 1"),
    (2, [[1, 0]], _B2_FORMS, _B2_GENS, (1, 3), CoxsaitoError, "rank x rank"),
    (2, [[1, 1], [0, 1]], _B2_FORMS, _B2_GENS, (1, 3), CoxsaitoError,
     "symmetric"),
    (2, [[1, 1], [1, 1]], _B2_FORMS, _B2_GENS, (1, 3), SingularMatrix,
     "scalar matrix is singular"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, _B2_GENS, (3, 1), CoxsaitoError,
     "ascending"),
    (2, [[1, 0], [0, 1]], _B2_FORMS[:3], _B2_GENS, (1, 3), CoxsaitoError,
     "hyperplane count"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, [[[1, 1], [0, 1]]], (1, 3), CoxsaitoError,
     "generator 0 is not an involution"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, _B2_GENS + [[[1, 0], [1, -1]]], (1, 3),
     CoxsaitoError, "generator 2 does not preserve the Gram matrix"),
    (2, [[1, 0], [0, 1]], _B2_FORMS,
     [[[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]],
     (1, 3), CoxsaitoError, "generator 0 does not fix the arrangement"),
    (2, [[1, 0], [0, 1]], _B2_FORMS[:3] + [[2, 0]], _B2_GENS, (1, 3),
     CoxsaitoError, "hyperplane forms must be distinct"),
    (2, [[1, 0], [0, 1]], _B2_FORMS[:2], [[[0, 1], [1, 0]]], (1, 1),
     CoxsaitoError, "generator 0 is not the reflection in a hyperplane form"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, _B2_GENS[:1], (1, 3), CoxsaitoError,
     "orbits of their reflecting forms miss 3 of 4 hyperplane forms"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, [], (1, 3), CoxsaitoError,
     "orbits of their reflecting forms miss 4 of 4 hyperplane forms"),
    (2, [[1, 0], [0, 1]], _B2_FORMS, _B2_GENS, (), CoxsaitoError,
     "expected 2 exponents, got 0"),
], ids=["rank", "gram-shape", "gram-asymmetric", "gram-singular",
        "exponent-order", "hyperplane-count", "involution", "gram-preserved",
        "arrangement-fixed", "repeated-form", "root-not-listed",
        "orbit-misses-forms", "no-generators", "exponent-count"])
def test_datum_check_rejections(rank, gram, forms, gens, exps, error, message):
    with pytest.raises(CoxsaitoError, match=message) as info:
        CoxeterDatum("X", rank, RATIONALS, gram, forms, gens, exps)
    assert info.type is error


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3), ("D", 4),
    ("I2", 5), ("I2", 8),
])
def test_q_multipliers_match_substitution(label, rank):
    # the recorded c_s is what substituting s into Q actually gives
    d = build_datum(label, rank)
    q = anti_invariant_Q(d)
    for s, c in zip(d.subst, d.q_multipliers):
        assert q.subst_linear(s) == c * q
        assert c == -1


def test_central_symmetry_is_not_a_reflection():
    # -I is an involution preserving the Gram matrix and the arrangement, and
    # Q o (-I) = Q for B2 (four forms); rank(-I - I) = 2, so the datum is
    # rejected before Q is ever formed
    with pytest.raises(CoxsaitoError,
                       match="generator 1 is not a reflection: rank"):
        CoxeterDatum("X", 2, RATIONALS, [[1, 0], [0, 1]], _B2_FORMS,
                     [_B2_GENS[0], [[-1, 0], [0, -1]]], (1, 3))


def test_unsupported_and_out_of_range():
    with pytest.raises(UnsupportedType):
        build_datum("Z", 2)
    with pytest.raises(RankOutOfRange):
        build_datum("D", 2)
    with pytest.raises(RankOutOfRange):
        build_datum("I2", 2)
    with pytest.raises(UnsupportedType):
        build_datum("I2", 13)


def test_b2_invariants_and_jacobian_constant():
    d = build_datum("B", 2)
    inv = builtin_invariants(d)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert inv.polys[0] == x * x + y * y
    assert inv.polys[1] == x ** 4 + y ** 4
    det = jacobian(inv.polys, 2).det()
    q = anti_invariant_Q(d)
    assert det.exact_divide(q) == MultiPoly.const(2, -8)


def test_a1_invariant():
    d = build_datum("A", 1)
    inv = builtin_invariants(d)
    x = MultiPoly.variable(1, 0)
    assert inv.polys[0] == x * x
    det = jacobian(inv.polys, 1).det()
    assert det == 2 * anti_invariant_Q(d)


def test_i2_4_invariant():
    d = build_datum("I2", 4)
    inv = builtin_invariants(d)
    x = MultiPoly.variable(2, 0, d.field)
    y = MultiPoly.variable(2, 1, d.field)
    assert inv.polys[1] == x ** 4 - 6 * x * x * y * y + y ** 4


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3),
    ("I2", 3), ("I2", 4), ("I2", 5), ("I2", 6), ("I2", 7), ("I2", 8),
])
def test_builtin_invariants_validate(label, rank):
    d = build_datum(label, rank)
    inv = builtin_invariants(d)
    assert inv.validated
    degs = [p.homogeneous_degree() for p in inv.polys]
    assert degs == [m + 1 for m in d.exponents]


def test_validation_rejects_dependent_polys():
    d = build_datum("B", 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p1 = x * x + y * y
    with pytest.raises(JacobianCriterionFailed):
        validate_invariants(d, [p1, p1 * p1])


def test_validation_rejects_non_invariant():
    d = build_datum("B", 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    with pytest.raises(NotInvariant):
        validate_invariants(d, [x * x + y * y, x ** 4 + y ** 3])


def test_validation_rejects_wrong_degrees():
    d = build_datum("B", 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    with pytest.raises(WrongDegrees):
        validate_invariants(d, [x * x + y * y, x ** 6 + y ** 6])


def test_validation_checks_total_degree_before_invariance():
    # x^5 + y^4 is neither invariant nor of degree 4; the degree is checked
    # first, before any substitution
    d = build_datum("B", 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    with pytest.raises(WrongDegrees, match="P_2 must be homogeneous of degree 4"):
        validate_invariants(d, [x * x + y * y, x ** 5 + y ** 4])


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 2), ("D", 3), ("I2", 5)])
def test_jacobian_criterion_by_one_division(label, rank):
    # one exact division by Q = prod alpha_H decides c Q as the N divisions
    # by the forms do, on det J(P) and on products that miss or add a factor
    d = build_datum(label, rank)
    det = jacobian(builtin_invariants(d).polys, d.rank).det()
    x = MultiPoly.variable(d.rank, 0, d.field)
    for f in (det, det * x, det + x ** len(d.forms), MultiPoly.zero(d.rank, d.field),
              det.exact_divide(d.form_poly(-1)) * x):
        assert (f.constant_quotient([d.form_product()])
                == f.constant_quotient(d.form_polys()))
    assert det.constant_quotient([d.form_product()]) is not None


def test_q_built_at_ingest_keeps_its_anti_invariance_certificate():
    # ingest builds Q for the Jacobian criterion; anti_invariant_Q returns
    # that product and still certifies the multipliers on every call
    d = build_datum("B", 2)
    builtin_invariants(d)
    assert anti_invariant_Q(d) is d.form_product()
    d.q_multipliers[0] = 1
    with pytest.raises(CoxsaitoError,
                       match="not anti-invariant under generator 0"):
        anti_invariant_Q(d)


def test_q_anti_invariance_b2():
    d = build_datum("B", 2)
    q = anti_invariant_Q(d)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert q == x * y * (x - y) * (x + y) or q == -(x * y * (x - y) * (x + y))
    swap = [[0, 1], [1, 0]]
    assert q.subst_linear(swap) == -q


def test_form_rescaling_changes_nothing_downstream():
    d = build_datum("B", 2)
    # rescale one raw form by 5 before normalization: the datum normalizes,
    # so Q and all checks are unchanged
    from coxsaito.coxeter import CoxeterDatum
    forms = [list(f) for f in d.forms]
    forms[2] = [5 * c for c in forms[2]]
    d2 = CoxeterDatum("B", 2, d.field, d.gram, forms, d.generators, d.exponents)
    assert anti_invariant_Q(d2) == anti_invariant_Q(d)


def test_poincare_rank_one():
    lhs = poincare_closed_form([1], [2])
    assert lhs == ((0, 1), (1, 0, -1))
    assert poincare_equal(lhs, lhs)


def test_poincare_empty_generators():
    num, _den = poincare_closed_form([], [2])
    assert num == ()


def test_poincare_chain_identity_b2_p2():
    # both sides of the graded-dimension comparison for B2 at p = 2
    d = build_datum("B", 2)
    h = d.coxeter_number
    p = 2
    gens = [(p - 1) * h + m for m in d.exponents]
    lhs = poincare_closed_form(gens, [m + 1 for m in d.exponents[:-1]] + [h])
    rhs = poincare_closed_form(gens, [m + 1 for m in d.exponents])
    assert poincare_equal(lhs, rhs)
