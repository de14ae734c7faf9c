from fractions import Fraction

import pytest
from conftest import ReducedMinors

from coxsaito.errors import NonPolynomialEntry, SingularMatrix
from coxsaito.field import RATIONALS, FieldContext
from coxsaito.fraction import FactoredFraction, PowerBase
from coxsaito.matrix import Matrix, MinorTable, unit_power
from coxsaito.poly import MultiPoly


def xy():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_det_of_rank_one_jacobian():
    x = MultiPoly.variable(1, 0)
    j = Matrix([[2 * x]])
    assert j.det() == 2 * x


def test_inverse_of_rank_one_jacobian():
    x = MultiPoly.variable(1, 0)
    base = PowerBase(x)
    inv = Matrix([[2 * x]]).inverse(base)
    assert inv[0, 0] == FactoredFraction(MultiPoly.const(1, Fraction(1, 2)), base, 1)


def test_identity_det():
    ident = Matrix.identity(2, 2, RATIONALS)
    one = MultiPoly.const(2, 1)
    assert ident.det() == one


def test_poly_matrix_inverse_roundtrip():
    x, y = xy()
    one = MultiPoly.const(2, 1)
    m = Matrix([[one, x], [y, one + x * y]])  # det = 1
    assert m.det() == one
    inv = m.inverse()
    # without a base nothing is left over q: the inverse is polynomial
    assert not inv.is_fraction_mode
    assert inv == Matrix([[one + x * y, -x], [-y, one]])
    ident = Matrix.identity(2, 2, RATIONALS)
    assert m * inv == ident == inv * m


def test_inverse_certifies_det_as_power_of_base():
    # det = -3 (x - y)^2: inverted over the base x - y, rejected over y and
    # without a base; a fraction matrix is never inverted
    x, y = xy()
    d = x - y
    m = Matrix([[d, x * d], [y * d, (x * y - MultiPoly.const(2, 3)) * d]])
    base = PowerBase(3 * x - 3 * y)
    inv = m.inverse(base)
    adj = [[(x * y - MultiPoly.const(2, 3)) * d, -x * d], [-y * d, d]]
    assert [[(e.exp, e.numerator) for e in row] for row in inv.entries] == \
        [[(2, a * Fraction(-1, 3)) for a in row] for row in adj]
    ident = Matrix.identity(2, 2, RATIONALS)
    assert (m * inv).simplify() == ident == (inv * m).simplify()
    with pytest.raises(NonPolynomialEntry, match="power of q"):
        m.inverse(PowerBase(y))
    with pytest.raises(NonPolynomialEntry, match="not a nonzero constant$"):
        m.inverse()
    with pytest.raises(TypeError):
        inv.inverse(base)
    # the premise alone, as check_lemma22 takes it for det G: the same
    # certificate and the same texts, with no adjugate
    assert unit_power(m.det(), base) == (-3, 2)
    with pytest.raises(NonPolynomialEntry, match="power of q"):
        unit_power(m.det(), PowerBase(y))
    with pytest.raises(SingularMatrix):
        unit_power(MultiPoly.zero(2), base)


def test_singular_matrix_raises():
    x, y = xy()
    m = Matrix([[x, y], [x, y]])
    with pytest.raises(SingularMatrix):
        m.inverse()


def test_det_three_by_three():
    x, y = xy()
    zero = MultiPoly.zero(2)
    one = MultiPoly.const(2, 1)
    m = Matrix([[x, y, zero], [zero, x, y], [y, zero, x]])
    assert m.det() == x ** 3 + y ** 3


def test_reduced_minors_of_a_scaled_matrix():
    # the test-side ladder behind ladder_jdkx_inv: for N = d*M, det N / d^2 =
    # d det M and each cofactor of N over d is d times the cofactor of M; the
    # 1 x 1 case has the 0 x 0 minor d as adjugate
    x, y = xy()
    zero = MultiPoly.zero(2)
    one = MultiPoly.const(2, 1)
    d = x * x - y
    m = Matrix([[x, y, zero], [one, x, y], [y, zero, x + one]])
    plain = MinorTable(m)
    reduced = ReducedMinors(m * d, d)
    assert reduced.det() == d * plain.det()
    assert reduced.adjugate() == plain.adjugate() * d
    assert ReducedMinors(Matrix([[x * d]]), d).adjugate() == Matrix([[d]])


def test_reduced_minor_division_failure_raises():
    x, y = xy()
    with pytest.raises(NonPolynomialEntry):
        ReducedMinors(Matrix([[x, y], [y, x]]), x + 2 * y).det()


def test_transpose_and_mul():
    x, y = xy()
    m = Matrix([[x, y]])
    assert (m * m.transpose())[0, 0] == x * x + y * y


def test_scalar_matrix_inverse():
    field = FieldContext((-5, 0, 1), "sqrt(5)")
    t = field.generator()
    a = Matrix.from_scalars([[field.one, t], [t, 2]], 2, field)
    assert (a * a.inverse()).simplify() == Matrix.identity(2, 2, field)
    with pytest.raises(SingularMatrix):
        Matrix.from_scalars([[1, 1], [1, 1]], 2, field).inverse()
