from fractions import Fraction

import pytest

from coxsaito.errors import DivisionByZero
from coxsaito.fraction import FactoredFraction
from coxsaito.poly import MultiPoly


def xy():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_simplify_cancels_factor():
    x, _ = xy()
    f = FactoredFraction(2 * x * x, ((x, 1),))
    s = f.simplify()
    assert s.is_poly()
    assert s.as_poly() == 2 * x


def test_simplify_leaves_irreducible_alone():
    x, y = xy()
    f = FactoredFraction(x * x + y * y, ((x - y, 1),))
    s = f.simplify()
    assert s.factors
    assert s == f


def test_rank_one_iterated_derivative_bookkeeping():
    # d/dx applied twice to 1/(2x) within the factored representation:
    # 1/(2x) -> -1/(2x^2) -> 1/x^3; scaled by 1/2 the second derivative of
    # 1/(2x) is 1/(2) * 2/x^3... here we check the quotient-rule partial.
    x = MultiPoly.variable(1, 0)
    f = FactoredFraction(MultiPoly.const(1, 1), ((x, 1),), 2)  # 1/(2x)
    df = f.partial(0).simplify()
    assert df == FactoredFraction(MultiPoly.const(1, -1), ((x, 2),), 2)
    d2f = df.partial(0).simplify()
    assert d2f == FactoredFraction(MultiPoly.const(1, 1), ((x, 3),), 1)


def test_addition_with_common_denominator():
    x, y = xy()
    a = FactoredFraction(x, ((x - y, 1),))
    b = FactoredFraction(y, ((x - y, 1),))
    assert (a - b).simplify().as_poly() == MultiPoly.const(2, 1)


def test_addition_with_different_denominators():
    x, y = xy()
    a = FactoredFraction(MultiPoly.const(2, 1), ((x, 1),))
    b = FactoredFraction(MultiPoly.const(2, 1), ((y, 1),))
    s = a + b
    assert s == FactoredFraction(x + y, ((x, 1), (y, 1)))


def test_mul_and_reciprocal():
    x, y = xy()
    f = FactoredFraction(x + y, ((x, 2),), 3)
    g = f * f.reciprocal()
    assert g.simplify().as_poly() == MultiPoly.const(2, 1)


def test_division_by_zero_fraction():
    x, _ = xy()
    zero = FactoredFraction.zero(2, x.field)
    with pytest.raises(DivisionByZero):
        zero.reciprocal()
    with pytest.raises(DivisionByZero):
        FactoredFraction.from_poly(x) / 0


def test_zero_fraction_has_no_factors():
    x, _ = xy()
    f = FactoredFraction(x - x, ((x, 3),), 7)
    assert f.is_zero()
    assert f.factors == ()


def test_scalar_and_constant_factor_folding():
    x, _ = xy()
    f = FactoredFraction(x, ((MultiPoly.const(2, 4), 1), (2 * x, 1)))
    # constant factor 4 and the leading 2 fold into the scalar; factor is monic x
    assert f.scalar == 8
    assert len(f.factors) == 1
    assert f.factors[0][0] == x


def test_homogeneous_degree():
    x, y = xy()
    f = FactoredFraction(x ** 3 + x * y * y, ((x - y, 2),))
    assert f.homogeneous_degree() == 1
    g = FactoredFraction(x + x * x, ())
    assert g.homogeneous_degree() is None


def test_equality_across_representations():
    x, y = xy()
    a = FactoredFraction(x * x - y * y, ((x - y, 1),))
    b = FactoredFraction.from_poly(x + y)
    assert a == b
    assert not (a - b)


def test_fractions_are_unhashable():
    # 1/x, x/x^2 and y/(x*y) are equal, so no hash of the factored form
    # could agree with ==
    x, y = xy()
    one = MultiPoly.const(2, 1)
    forms = [FactoredFraction(one, ((x, 1),)), FactoredFraction(x, ((x, 2),)),
             FactoredFraction(y, ((x, 1), (y, 1)))]
    assert forms[0] == forms[1] == forms[2]
    for f in forms:
        with pytest.raises(TypeError):
            hash(f)


def test_render():
    x, y = xy()
    f = FactoredFraction(-x, ((x - y, 1),), Fraction(2))
    assert f.render() == "(-x)/(2*(x-y))"
