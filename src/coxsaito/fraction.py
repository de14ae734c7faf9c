"""Fractions whose denominators are powers of one polynomial.

Every object the verifier builds -- the primitive derivation, D^k[X],
J(P)^-1, G^-1, the connection matrices -- lives in the localization S[Q^-1],
Q the arrangement polynomial and det J(P) = c Q.  So a fraction is kept as

    numerator / q^exp

with q the monic polynomial of one shared `PowerBase`, which also caches the
powers and partial derivatives of q; a nonzero constant c is a unit and lives
in the numerator.  An element with exp == 0 is a polynomial and combines with
any base; combining two different bases raises CoxsaitoError.  Reduction
never uses a gcd: `simplify` just retries exact division of the numerator by
q.
"""

from __future__ import annotations

from .errors import CoxsaitoError
from .field import FieldContext
from .poly import MultiPoly, sum_of_products


class PowerBase:
    """The monic polynomial q of the denominators q^e, with cached powers.
    The cache is a dict filled idempotently, so a base can be shared across
    concurrent readers."""

    __slots__ = ("q", "_powers")

    def __init__(self, p: MultiPoly):
        if p.constant_value() is not None:
            raise ValueError("a denominator base must be a nonconstant polynomial")
        self.q, _ = p.monic()
        self._powers = {0: MultiPoly.const(p.nvars, 1, p.field), 1: self.q}

    def power(self, e: int) -> MultiPoly:
        table = self._powers
        if e not in table:
            table[e] = self.power(e - 1) * self.q
        return table[e]


def _common_base(*fractions):
    """The base of a result combining the fractions: that of the first with a
    positive exponent (None if there is none)."""
    bases = [f.base for f in fractions if f.exp]
    if any(b is not bases[0] and b.q != bases[0].q for b in bases[1:]):
        raise CoxsaitoError("fractions over different denominator bases")
    return bases[0] if bases else None


def _new(numerator: MultiPoly, base, exp: int) -> "FactoredFraction":
    """A fraction from already-normalized parts."""
    f = object.__new__(FactoredFraction)
    f.numerator = numerator
    f.base = base
    f.exp = exp if numerator.terms else 0
    return f


class FactoredFraction:
    """numerator / base.q^exp; base may be None when exp == 0."""

    __slots__ = ("numerator", "base", "exp")

    def __init__(self, numerator: MultiPoly, base: PowerBase | None = None,
                 exp: int = 0):
        if exp < 0:
            raise ValueError("denominator exponents must be nonnegative")
        if exp and base is None:
            raise ValueError("a positive exponent needs a denominator base")
        self.numerator = numerator
        self.base = base
        self.exp = exp if numerator.terms else 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "FactoredFraction":
        return _new(p, None, 0)

    @classmethod
    def zero(cls, nvars: int, field: FieldContext) -> "FactoredFraction":
        return cls.from_poly(MultiPoly.zero(nvars, field))

    # -- queries ---------------------------------------------------------------

    @property
    def field(self) -> FieldContext:
        return self.numerator.field

    @property
    def nvars(self) -> int:
        return self.numerator.nvars

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def homogeneous_degree(self):
        """Degree as a homogeneous rational function; None if not homogeneous."""
        if self.numerator.is_zero():
            return None
        num = self.numerator.homogeneous_degree()
        if num is None or not self.exp:
            return num
        d = self.base.q.homogeneous_degree()
        return None if d is None else num - d * self.exp

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredFraction.from_poly(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        base = _common_base(self, other)
        num_a, num_b = self.numerator, other.numerator
        ea, eb = self.exp, other.exp
        if ea < eb:
            num_a = num_a * base.power(eb - ea)
        elif eb < ea:
            num_b = num_b * base.power(ea - eb)
        return _new(num_a + num_b, base, max(ea, eb))

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.numerator, self.base, self.exp)

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredFraction.from_poly(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredFraction.from_poly(other)
        if isinstance(other, FactoredFraction):
            if self.is_zero() or other.is_zero():
                return FactoredFraction.zero(self.nvars, self.field)
            return _new(self.numerator * other.numerator,
                        _common_base(self, other), self.exp + other.exp)
        # plain scalar
        c = self.field.coerce(other)
        if not c:
            return FactoredFraction.zero(self.nvars, self.field)
        return _new(self.numerator * c, self.base, self.exp)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredFraction.from_poly(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        _common_base(self, other)
        if self.exp == other.exp:
            return self.numerator == other.numerator
        return (self - other).is_zero()

    # equal values can have different forms (x/x^2 and 1/x), so no hash of
    # the form agrees with ==
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- reduction and calculus ------------------------------------------------

    def simplify(self) -> "FactoredFraction":
        """Cancel the powers of q that exactly divide the numerator."""
        num, exp = self.numerator, self.exp
        while exp:
            quotient = num.exact_divide(self.base.q)
            if quotient is None:
                break
            num, exp = quotient, exp - 1
        if exp == self.exp:
            return self
        return _new(num, self.base, exp)

    def as_poly(self):
        """The exact polynomial value, or None if a power of q remains:
        q^exp divides the numerator exactly when the value is a polynomial."""
        if not self.exp:
            return self.numerator
        return self.numerator.exact_divide(self.base.power(self.exp))

    def partial(self, index: int) -> "FactoredFraction":
        """Partial derivative by the quotient rule, over q^(e+1) when q
        depends on the variable: the numerator num' q - e num q' is one
        two-pair `poly.sum_of_products`."""
        d_num = self.numerator.partial(index)
        if not self.exp:
            return _new(d_num, self.base, 0)
        d_q = self.base.q.partial(index)
        if d_q.is_zero():
            return _new(d_num, self.base, self.exp)
        num = sum_of_products(
            [(d_num, self.base.q), (self.numerator, d_q * -self.exp)],
            self.nvars, self.field)
        return _new(num, self.base, self.exp + 1)

    def render(self, names=None) -> str:
        num = self.numerator.render(names)
        if not self.exp:
            return num
        q = f"({self.base.q.render(names)})"
        return f"({num})/({q if self.exp == 1 else f'{q}^{self.exp}'})"

    def __repr__(self):
        return f"FactoredFraction({self.render()})"


def fraction_sum_of_products(pairs, nvars: int, field: FieldContext):
    """sum a * b over (a, b) pairs of MultiPolys and FactoredFractions: one
    `poly.sum_of_products` over q^E, E the largest a.exp + b.exp, each pair
    brought up to E by base.power(diff) as `FactoredFraction.__add__` does."""
    live = [tuple(x if isinstance(x, FactoredFraction) else _new(x, None, 0)
                  for x in pair) for pair in pairs if pair[0] and pair[1]]
    if not live:
        return FactoredFraction.zero(nvars, field)
    base = _common_base(*(x for pair in live for x in pair))
    top = max(a.exp + b.exp for a, b in live)
    numerators = []
    for a, b in live:
        na, nb = sorted((a.numerator, b.numerator), key=lambda p: len(p.terms))
        if diff := top - a.exp - b.exp:
            na = na * base.power(diff)
        numerators.append((na, nb))
    return _new(sum_of_products(numerators, nvars, field), base, top)
