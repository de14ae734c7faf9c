from fractions import Fraction

import pytest

from coxsaito.errors import CoxsaitoError
from coxsaito.fraction import FactoredFraction, PowerBase
from coxsaito.poly import MultiPoly


def xy():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


def test_simplify_cancels_factor():
    x, _ = xy()
    f = FactoredFraction(2 * x * x, PowerBase(x), 1)
    s = f.simplify()
    assert s.exp == 0
    assert s.as_poly() == 2 * x


def test_simplify_leaves_irreducible_alone():
    x, y = xy()
    f = FactoredFraction(x * x + y * y, PowerBase(x - y), 1)
    s = f.simplify()
    assert s.exp == 1
    assert s == f


def test_rank_one_iterated_derivative_bookkeeping():
    # the quotient-rule partial on 1/(2x): -1/(2x^2), then 1/x^3
    x = MultiPoly.variable(1, 0)
    base = PowerBase(x)
    f = FactoredFraction(MultiPoly.const(1, Fraction(1, 2)), base, 1)
    df = f.partial(0).simplify()
    assert df == FactoredFraction(MultiPoly.const(1, Fraction(-1, 2)), base, 2)
    d2f = df.partial(0).simplify()
    assert d2f == FactoredFraction(MultiPoly.const(1, 1), base, 3)


def test_addition_with_common_denominator():
    x, y = xy()
    base = PowerBase(x - y)
    a = FactoredFraction(x, base, 1)
    b = FactoredFraction(y, base, 1)
    assert (a - b).simplify().as_poly() == MultiPoly.const(2, 1)


def test_addition_with_different_denominators():
    # 1/(2x) + 1/(3x^2) = (3x + 2)/(6x^2)
    x, _ = xy()
    base = PowerBase(x)
    one = MultiPoly.const(2, 1)
    s = (FactoredFraction(one * Fraction(1, 2), base, 1)
         + FactoredFraction(one * Fraction(1, 3), base, 2))
    assert s.exp == 2
    assert s == FactoredFraction((3 * x + 2 * one) * Fraction(1, 6), base, 2)


def test_mul_adds_exponents_and_multiplies_numerators():
    x, y = xy()
    base = PowerBase(x)
    f = FactoredFraction((x + y) * Fraction(1, 3), base, 2)
    g = f * FactoredFraction(y * 2, base, 1)
    assert (g.exp, g.numerator) == (3, (x + y) * y * Fraction(2, 3))
    assert g == FactoredFraction((x + y) * y * 2 * Fraction(1, 3), base, 3)


def test_product_with_zero_is_zero():
    x, _ = xy()
    assert (FactoredFraction(x, PowerBase(x), 1) * 0).is_zero()


def test_zero_fraction_has_no_factors():
    x, _ = xy()
    f = FactoredFraction((x - x) * Fraction(1, 7), PowerBase(x), 3)
    assert f.is_zero()
    assert f.exp == 0


def test_constant_factor_folding():
    # the base keeps the monic q; the leading coefficient is dropped
    x, _ = xy()
    assert PowerBase(2 * x).q == x
    assert FactoredFraction(x * Fraction(1, 4), PowerBase(2 * x), 1).as_poly() == \
        MultiPoly.const(2, Fraction(1, 4))
    with pytest.raises(ValueError):
        PowerBase(MultiPoly.const(2, 4))


def test_homogeneous_degree():
    x, y = xy()
    f = FactoredFraction(x ** 3 + x * y * y, PowerBase(x - y), 2)
    assert f.homogeneous_degree() == 1
    g = FactoredFraction(x + x * x)
    assert g.homogeneous_degree() is None


def test_equality_across_representations():
    x, y = xy()
    a = FactoredFraction(x * x - y * y, PowerBase(x - y), 1)
    b = FactoredFraction.from_poly(x + y)
    assert a == b
    assert not (a - b)


def test_fractions_are_unhashable():
    # 1/x, x/x^2 and x^2/x^3 are equal, so no hash of the form could agree
    # with ==
    x, _ = xy()
    base = PowerBase(x)
    one = MultiPoly.const(2, 1)
    forms = [FactoredFraction(one, base, 1), FactoredFraction(x, base, 2),
             FactoredFraction(x * x, base, 3)]
    assert forms[0] == forms[1] == forms[2]
    for f in forms:
        with pytest.raises(TypeError):
            hash(f)


def test_mixing_bases():
    # polynomials (exp 0) combine with any base, and bases with equal q mix;
    # bases with different q never do, even when one fraction's numerator is
    # divisible by the other's q
    x, y = xy()
    over_x = FactoredFraction(y, PowerBase(x), 1)
    over_y = FactoredFraction(x, PowerBase(y), 1)
    poly = FactoredFraction(x * y)
    assert (over_x * poly).simplify().as_poly() == y * y
    assert over_x + FactoredFraction(y, PowerBase(x), 1) == over_x * 2
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a == b):
        with pytest.raises(CoxsaitoError):
            op(over_x, over_y)


def test_render():
    x, y = xy()
    f = FactoredFraction(-x * Fraction(1, 2), PowerBase(x - y), 1)
    assert f.render() == "(-1/2*x)/((x-y))"
    assert FactoredFraction(-x * Fraction(1, 2)).render() == "-1/2*x"
    assert FactoredFraction(y, PowerBase(x), 3).render() == "(y)/((x)^3)"
