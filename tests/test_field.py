from fractions import Fraction

import pytest

from coxsaito.coxeter import build_datum
from coxsaito.errors import DivisionByZero, NonInvertible
from coxsaito.field import RATIONALS, FieldContext

SQRT5 = FieldContext((-5, 0, 1), "sqrt(5)")


def test_rational_add():
    assert RATIONALS.coerce(Fraction(2, 3)) + RATIONALS.coerce(Fraction(1, 6)) == Fraction(5, 6)


def test_generator_squares_to_five():
    t = SQRT5.generator()
    assert t * t == 5


def test_golden_ratio_inverse():
    # 1 / ((1+sqrt5)/2) = (sqrt5-1)/2 since (1+sqrt5)(sqrt5-1) = 4
    phi = SQRT5.from_coeffs((Fraction(1, 2), Fraction(1, 2)))
    inv = SQRT5.invert(phi)
    assert inv == SQRT5.from_coeffs((Fraction(-1, 2), Fraction(1, 2)))
    assert phi * inv == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        RATIONALS.invert(0)
    with pytest.raises(DivisionByZero):
        SQRT5.invert(SQRT5.zero)


def test_reducible_minpoly_surfaces_as_noninvertible():
    # t^2 - 1 is reducible; t - 1 is a zero divisor
    bad = FieldContext((-1, 0, 1), "not a field")
    elt = bad.from_coeffs((-1, 1))
    with pytest.raises(NonInvertible):
        bad.invert(elt)


def test_mixed_coercion_and_ops():
    t = SQRT5.generator()
    assert (t + 1) - 1 == t
    assert 2 * t == t + t
    assert (t ** 3) == 5 * t
    assert t / t == 1
    assert bool(SQRT5.zero) is False


def test_render_and_describe():
    t = SQRT5.generator()
    assert SQRT5.render(t + 1) == "(1+t)"
    assert SQRT5.describe() == "Q[t]/(t^2 - 5)"
    assert RATIONALS.describe() == "Q"


def test_equal_scalars_hash_equal():
    # a Scalar equal to a rational must hash like it (one set element)
    half = SQRT5.coerce(Fraction(1, 2))
    assert SQRT5.one == 1 and half == Fraction(1, 2)
    assert hash(SQRT5.one) == hash(1)
    assert hash(half) == hash(Fraction(1, 2))
    assert len({SQRT5.one, 1}) == 1


def test_scalars_of_different_fields_are_unequal():
    sqrt2 = FieldContext((-2, 0, 1), "sqrt(2)")
    assert SQRT5.generator() != sqrt2.generator()
    # a context with the same minimal polynomial is the same field
    twin = FieldContext((-5, 0, 1), "another sqrt(5)")
    assert SQRT5.generator() == twin.generator()
    assert hash(SQRT5.generator()) == hash(twin.generator())


def test_arithmetic_across_fields_is_refused():
    # once read as Scalar((2*t)) in Q(sqrt 5), a length-2 truncation of the
    # degree-4 sum, and an IndexError inside the product's convolution
    sqrt5, sqrt2 = SQRT5.generator(), FieldContext((-2, 0, 1), "sqrt(2)").generator()
    quartic = FieldContext((-5, 0, 0, 0, 1), "5^(1/4)").generator()
    for a, b in ((sqrt5, sqrt2), (sqrt5, quartic), (quartic, sqrt5)):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(ValueError, match="different field"):
                op(a, b)
    # a context with the same minimal polynomial is the same field
    twin = FieldContext((-5, 0, 1), "another sqrt(5)").generator()
    assert sqrt5 + twin == 2 * sqrt5 and sqrt5 - twin == 0 and sqrt5 * twin == 5


def test_minimal_polynomial_must_be_squarefree():
    # (t^2 - 5)^2 = t^4 - 10 t^2 + 25
    with pytest.raises(ValueError, match="squarefree"):
        FieldContext((25, 0, -10, 0, 1), "sqrt(5), twice")
    FieldContext((-1, 0, 1), "squarefree but reducible")


def test_non_integer_minimal_polynomial():
    # t^2 - 5/4: t = sqrt(5)/2, the reduction row has denominator 4
    half_sqrt5 = FieldContext((Fraction(-5, 4), 0, 1), "sqrt(5)/2")
    t = half_sqrt5.generator()
    assert t * t == Fraction(5, 4)
    assert (t * t * t) == Fraction(5, 4) * t
    assert half_sqrt5.invert(t) == Fraction(4, 5) * t


_DESCRIBE_PINS = {
    3: "Q[t]/(t^2 - 3)",
    4: "Q[t]/(t^4 - 4*t^2 + 2)",
    5: "Q[t]/(t^4 - 5*t^2 + 5)",
    6: "Q[t]/(t^4 - 4*t^2 + 1)",
    7: "Q[t]/(t^6 - 7*t^4 + 14*t^2 - 7)",
    8: "Q[t]/(t^8 - 8*t^6 + 20*t^4 - 16*t^2 + 2)",
    9: "Q[t]/(t^6 - 6*t^4 + 9*t^2 - 3)",
    10: "Q[t]/(t^8 - 8*t^6 + 19*t^4 - 12*t^2 + 1)",
    11: "Q[t]/(t^10 - 11*t^8 + 44*t^6 - 77*t^4 + 55*t^2 - 11)",
    12: "Q[t]/(t^8 - 8*t^6 + 20*t^4 - 16*t^2 + 1)",
}


@pytest.mark.parametrize("m", sorted(_DESCRIBE_PINS))
def test_describe_pins_every_preset(m):
    assert build_datum("I2", m).field.describe() == _DESCRIBE_PINS[m]


def test_describe_pins_other_fields():
    assert FieldContext((Fraction(-5, 4), 0, 1)).describe() == "Q[t]/(t^2 - 5/4)"
    assert FieldContext((-1, -1, 0, 1)).describe() == "Q[t]/(t^3 - t - 1)"
    assert FieldContext((1, -1, 1)).describe() == "Q[t]/(t^2 - t + 1)"
    assert (FieldContext((Fraction(1, 3), 0, Fraction(-2, 3), 1)).describe()
            == "Q[t]/(t^3 - 2/3*t^2 + 1/3)")


def test_render_pins():
    half_sqrt5 = FieldContext((Fraction(-5, 4), 0, 1))
    cubic = FieldContext((-1, -1, 0, 1))
    sextic = build_datum("I2", 7).field
    h = Fraction(1, 2)
    for field, coeffs, want in (
            (SQRT5, (0, 1), "(t)"),
            (SQRT5, (1, 1), "(1+t)"),
            (SQRT5, (-h, h), "(-1/2+1/2*t)"),
            (SQRT5, (Fraction(3, 4), -1), "(3/4-t)"),
            (SQRT5, (Fraction(-7, 3), 0), "-7/3"),
            (SQRT5, (0, Fraction(-2, 5)), "(-2/5*t)"),
            (half_sqrt5, (Fraction(5, 4), Fraction(-4, 5)), "(5/4-4/5*t)"),
            (cubic, (-1, -1, 1), "(-1-t+t^2)"),
            (cubic, (1, 0, -1), "(1-t^2)"),
            (sextic, (0, 1, 0, -1, h, 0), "(t-t^3+1/2*t^4)"),
            (sextic, (-3, 0, 0, 0, 0, Fraction(-9, 7)), "(-3-9/7*t^5)"),
            (sextic, (0,) * 6, "0")):
        assert field.render(field.from_coeffs(coeffs)) == want
    assert RATIONALS.render(Fraction(-3, 7)) == "-3/7"
    assert RATIONALS.render(Fraction(0)) == "0"
