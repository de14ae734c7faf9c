from fractions import Fraction

import pytest
from conftest import expanded_subst

from coxsaito.errors import CoxsaitoError, DimensionMismatch, DivisionByZero
from coxsaito.field import FieldContext
from coxsaito.poly import MultiPoly, _signed_permutation, contact_order


def xy():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    return x, y


def test_partial():
    x, y = xy()
    f = x * x * y
    assert f.partial(0) == 2 * x * y
    assert f.partial(1) == x * x


def test_subst_swap():
    x, y = xy()
    f = x * x - y * y
    swapped = f.subst_linear([[0, 1], [1, 0]])
    assert swapped == y * y - x * x


@pytest.mark.parametrize("matrix", [
    [[2, 0], [0, 1]],                              # an entry other than +-1
    [[1, 1], [0, 1]],                              # two entries in a row
    [[0, 1], [0, -1]],                             # two rows on one column
    [[Fraction(1, 2), 0], [0, 1]],
], ids=["scaled", "shear", "repeated-column", "fraction"])
def test_other_matrices_take_the_expansion(matrix):
    x, y = xy()
    f = x ** 3 * y - 2 * x * y ** 2 + y
    assert _signed_permutation(matrix) is None
    assert f.subst_linear(matrix) == expanded_subst(f, matrix)


def test_subst_linear_checks_its_matrix():
    # any iterable of rows is read once; a matrix that is not nvars x nvars
    # is refused, on either route
    x, y = xy()
    rows = ((1, 1), (0, 1))
    assert (x * y).subst_linear(iter(rows)) == (x + y) * y
    for matrix in ([[1, 0], [0]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]):
        with pytest.raises(DimensionMismatch):
            MultiPoly.variable(3, 0).subst_linear(matrix)
    with pytest.raises(DimensionMismatch):
        x.subst_linear([[1, 0], [0]])


def test_signed_swap_flips_odd_exponents_only():
    x, y = xy()
    f = x ** 3 * y ** 2 + x ** 2 * y - y ** 4
    # x -> -y, y -> x
    assert f.subst_linear([[0, -1], [1, 0]]) == (
        -(y ** 3) * x ** 2 + y ** 2 * x - x ** 4)


def test_jacobian_column_of_sum_of_squares():
    x, y = xy()
    p1 = x * x + y * y
    assert p1.partial(0) == 2 * x
    assert p1.partial(1) == 2 * y


def test_exponents_outside_the_limb_are_rejected():
    # an exponent that does not fit its 24-bit limb would carry into the next
    with pytest.raises(DimensionMismatch):
        MultiPoly.from_terms(3, [([2 ** 24, 0, 0], 1)])
    with pytest.raises(DimensionMismatch):
        MultiPoly.from_terms(2, [([-1, 2], 1)])
    x = MultiPoly.variable(1, 0)
    top = MultiPoly.from_terms(1, [([2 ** 24 - 1], 1)])
    assert top.render() == "x^16777215"
    with pytest.raises(DimensionMismatch):
        x * top
    with pytest.raises(DimensionMismatch):
        top * (x + MultiPoly.const(1, 1))


def test_exact_divide_difference_of_squares():
    x, y = xy()
    assert (x * x - y * y).exact_divide(x - y) == x + y


def test_exact_divide_not_divisible():
    x, y = xy()
    assert (x * x + y * y).exact_divide(x) is None


def test_exact_divide_first_step_not_integral():
    # cleared, the first step is 1 = 2 * q: the quotient x/2 - 3y/4 leaves 9y^2/4
    x, y = xy()
    assert (x * x).exact_divide(2 * x + 3 * y) is None


def test_exact_divide_divisor_with_content_and_negative_lead():
    x, y = xy()
    g = -6 * x - 4 * y
    assert (x * y * g).exact_divide(g) == x * y
    assert ((x - y) * g).exact_divide(g) == x - y
    assert (3 * x + 2 * y).exact_divide(g) == MultiPoly.const(2, Fraction(-1, 2))
    assert g.exact_divide(3 * x + 2 * y) == MultiPoly.const(2, -2)
    assert (x * x).exact_divide(g) is None


def test_exact_divide_fractional_divisor_and_quotient():
    x, y = xy()
    half, third = Fraction(1, 2), Fraction(1, 3)
    g = x * half + y * third
    assert (x * x * Fraction(1, 4) - y * y * Fraction(1, 9)).exact_divide(g) \
        == x * half - y * third
    assert g.exact_divide(3 * x + 2 * y) == MultiPoly.const(2, Fraction(1, 6))
    quotient = ((x * third) * (2 * x + y)).exact_divide(2 * x + y)
    assert quotient == x * third
    assert all(type(c) is Fraction for _, c in quotient.iter_terms())
    assert type(quotient.leading()[1]) is Fraction


def test_exact_divide_zero_dividend_and_constant_divisor():
    x, y = xy()
    assert MultiPoly.zero(2).exact_divide(x + y) == MultiPoly.zero(2)
    c = MultiPoly.const(2, Fraction(-3, 4))
    assert (x * Fraction(1, 2) + y).exact_divide(c) \
        == x * Fraction(-2, 3) + y * Fraction(-4, 3)
    assert c.exact_divide(MultiPoly.const(2, 6)) == MultiPoly.const(2, Fraction(-1, 8))
    with pytest.raises(DivisionByZero):
        x.exact_divide(MultiPoly.zero(2))


def test_exact_divide_b2_jacobian_by_arrangement_poly():
    # det of ((2x, 4x^3), (2y, 4y^3)) = 8xy^3 - 8x^3y; Q = xy(x-y)(x+y)
    x, y = xy()
    det = 8 * x * y ** 3 - 8 * x ** 3 * y
    q = x * y * (x - y) * (x + y)
    quotient = det.exact_divide(q)
    assert quotient == MultiPoly.const(2, -8)


def test_contact_order_examples():
    x, y = xy()
    assert contact_order(-4 * x ** 3, x, 5) == 3
    assert contact_order(-4 * x ** 3, x, 2) == 2  # counted only up to m
    assert contact_order(x * x - y * y, x - y, 3) == 1
    assert contact_order(x * x - y * y, x - y, 0) == 0
    assert contact_order(MultiPoly.zero(2), x, 4) == 4


def test_contact_order_rescaling_invariance():
    x, y = xy()
    f = (x - y) ** 2 * (x + 3 * y)
    assert contact_order(f, x - y, 5) == 2
    assert contact_order(f, (x - y) * Fraction(5, 7), 5) == 2


def test_operands_over_different_fields_do_not_combine():
    field = FieldContext((-5, 0, 1), "sqrt(5)")
    x = MultiPoly.variable(2, 0, field)
    with pytest.raises(CoxsaitoError):
        x + MultiPoly.const(2, 1)
    with pytest.raises(CoxsaitoError):
        x * MultiPoly.variable(2, 1)
    twin = FieldContext((-5, 0, 1), "sqrt(5)")
    assert twin is not field
    assert x + MultiPoly.const(2, 1, twin) == x + MultiPoly.const(2, 1, field)


def test_homogeneity_and_degree_sentinels():
    x, y = xy()
    z = MultiPoly.zero(2)
    assert z.total_degree() is None
    assert z.homogeneous_degree() is None
    assert z.is_zero()
    f = x * x + y
    assert f.total_degree() == 2
    assert f.homogeneous_degree() is None
    assert not f.is_zero()
    g = x * y
    assert g.homogeneous_degree() == 2


def test_pow_and_monic():
    x, y = xy()
    f = (x + y) ** 3
    assert f == x ** 3 + 3 * x * x * y + 3 * x * y * y + y ** 3
    m, lead = (4 * x * y).monic()
    assert lead == 4
    assert m == x * y


def test_number_field_coefficients():
    ctx = FieldContext((-5, 0, 1), "sqrt(5)")
    t = ctx.generator()
    x = MultiPoly.variable(1, 0, ctx)
    f = (t * x) * (t * x)
    assert f == 5 * x * x


def test_render_graded_lex():
    x, y = xy()
    f = y ** 3 + x * x - 2 * y
    assert f.render() == "y^3+x^2-2*y"


def test_constant_quotient():
    x, y = xy()
    forms = [x, x - y, x + y]
    product = x * (x - y) * (x + y)
    assert (product * Fraction(-3, 2)).constant_quotient(forms) == Fraction(-3, 2)
    assert (product * 5).constant_quotient(reversed(forms)) == 5
    assert MultiPoly.const(2, 7).constant_quotient([]) == 7
    assert (product * y).constant_quotient(forms) is None       # non-constant
    assert (product + y ** 3).constant_quotient(forms) is None  # indivisible
    assert MultiPoly.zero(2).constant_quotient(forms) is None
    assert MultiPoly.zero(2).constant_quotient([]) is None
