"""Fractions with factored denominators.

The denominators that actually occur in the pipeline are products of a few
known homogeneous polynomials (Jacobian determinants, the arrangement
polynomial, individual linear forms), so a fraction is kept as

    numerator / (scalar * f1^e1 * ... * fr^er)

with each fi monic in graded-lex order.  Reduction never uses a gcd: `simplify`
just retries exact division of the numerator by each factor.  Addition and
multiplication merge factor multisets, so chains of operations on fractions
with a shared denominator stay cheap.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .field import FieldContext
from .poly import MultiPoly


class FactoredFraction:
    __slots__ = ("numerator", "factors", "scalar")

    def __init__(self, numerator: MultiPoly, factors=(), scalar=None, _normalized=False):
        field = numerator.field
        if scalar is None:
            scalar = field.one
        if _normalized:
            self.numerator = numerator
            self.factors = factors
            self.scalar = scalar
            return
        scalar = field.coerce(scalar)
        if not scalar:
            raise DivisionByZero("zero denominator scalar")
        if numerator.is_zero():
            self.numerator = numerator
            self.factors = ()
            self.scalar = field.one
            return
        merged: dict = {}
        for f, e in factors:
            if e == 0:
                continue
            if e < 0:
                raise ValueError("denominator exponents must be positive")
            if f.is_zero():
                raise DivisionByZero("zero denominator factor")
            cv = f.constant_value()
            if cv is not None:
                scalar = scalar * (cv ** e if e > 1 else cv)
                continue
            fm, lead = f.monic()
            scalar = scalar * (lead ** e if e > 1 else lead)
            key = fm.canonical_key()
            if key in merged:
                old_f, old_e = merged[key]
                merged[key] = (old_f, old_e + e)
            else:
                merged[key] = (fm, e)
        self.numerator = numerator
        factors = tuple(merged.values())
        if len(factors) > 1:
            factors = tuple(sorted(factors, key=lambda fe: fe[0].sort_key()))
        self.factors = factors
        self.scalar = scalar

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "FactoredFraction":
        return cls(p, (), p.field.one, _normalized=True)

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

    def is_poly(self) -> bool:
        return not self.factors

    def homogeneous_degree(self):
        """Degree as a homogeneous rational function; None if not homogeneous."""
        if self.numerator.is_zero():
            return None
        num = self.numerator.homogeneous_degree()
        if num is None:
            return None
        for f, e in self.factors:
            d = f.homogeneous_degree()
            if d is None:
                return None
            num -= d * e
        return num

    def _den_dict(self) -> dict:
        return {f.canonical_key(): (f, e) for f, e in self.factors}

    def denominator_poly(self) -> MultiPoly:
        """The denominator multiplied out (without the scalar)."""
        den = MultiPoly.const(self.nvars, 1, self.field)
        for f, e in self.factors:
            den = den * f ** e
        return den

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
        if self.factors == other.factors and self.scalar == other.scalar:
            return FactoredFraction(self.numerator + other.numerator,
                                    self.factors, self.scalar)
        da, db = self._den_dict(), other._den_dict()
        num_a, num_b = self.numerator, other.numerator
        union: dict = dict(da)
        for key, (f, e) in db.items():
            if key in union:
                union[key] = (f, max(union[key][1], e))
            else:
                union[key] = (f, e)
        for key, (f, e) in union.items():
            ea = da.get(key, (f, 0))[1]
            eb = db.get(key, (f, 0))[1]
            if e > ea:
                num_a = num_a * f ** (e - ea)
            if e > eb:
                num_b = num_b * f ** (e - eb)
        num = num_a * other.scalar + num_b * self.scalar
        return FactoredFraction(num, tuple(union.values()),
                                self.scalar * other.scalar)

    __radd__ = __add__

    def __neg__(self):
        return FactoredFraction(-self.numerator, self.factors, self.scalar,
                                _normalized=True)

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
            return FactoredFraction(self.numerator * other.numerator,
                                    self.factors + other.factors,
                                    self.scalar * other.scalar)
        # plain scalar
        c = self.field.coerce(other)
        if not c:
            return FactoredFraction.zero(self.nvars, self.field)
        return FactoredFraction(self.numerator * c, self.factors, self.scalar,
                                _normalized=True)

    __rmul__ = __mul__

    def reciprocal(self) -> "FactoredFraction":
        if self.is_zero():
            raise DivisionByZero("reciprocal of zero fraction")
        num = self.denominator_poly() * self.scalar
        return FactoredFraction(num, ((self.numerator, 1),))

    def __truediv__(self, other):
        if isinstance(other, FactoredFraction):
            return self * other.reciprocal()
        if isinstance(other, MultiPoly):
            return FactoredFraction(self.numerator, self.factors + ((other, 1),),
                                    self.scalar)
        c = self.field.coerce(other)
        if not c:
            raise DivisionByZero("division by zero scalar")
        if self.is_zero():
            return self
        return FactoredFraction(self.numerator, self.factors, self.scalar * c,
                                _normalized=True)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredFraction.from_poly(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        if self.factors == other.factors and self.scalar == other.scalar:
            return self.numerator == other.numerator
        return (self - other).is_zero()

    # equal values can have different factored forms, so no hash agrees with ==
    __hash__ = None

    def __bool__(self):
        return not self.is_zero()

    # -- reduction and calculus ------------------------------------------------

    def simplify(self) -> "FactoredFraction":
        """Cancel denominator factors that exactly divide the numerator."""
        if self.is_zero() or not self.factors:
            return self
        num = self.numerator
        kept = []
        changed = False
        for f, e in self.factors:
            while e > 0:
                q = num.exact_divide(f)
                if q is None:
                    break
                num = q
                e -= 1
                changed = True
            if e:
                kept.append((f, e))
        if not changed:
            return self
        return FactoredFraction(num, tuple(kept), self.scalar, _normalized=True)

    def as_poly(self):
        """The exact polynomial value, or None if a denominator factor remains."""
        s = self.simplify()
        if s.factors:
            return None
        inv = self.field.invert(s.scalar)
        return s.numerator * inv

    def partial(self, index: int) -> "FactoredFraction":
        """Partial derivative; the quotient rule keeps factors factored."""
        result = FactoredFraction(self.numerator.partial(index), self.factors,
                                  self.scalar)
        for j, (f, e) in enumerate(self.factors):
            df = f.partial(index)
            if df.is_zero():
                continue
            bumped = tuple((g, ee + 1 if i == j else ee)
                           for i, (g, ee) in enumerate(self.factors))
            result = result + FactoredFraction(-(self.numerator * df) * e,
                                               bumped, self.scalar)
        return result

    def render(self, names=None) -> str:
        num = self.numerator.render(names)
        if not self.factors and self.scalar == self.field.one:
            return num
        parts = []
        if self.scalar != self.field.one:
            parts.append(self.field.render(self.scalar))
        for f, e in self.factors:
            fs = f"({f.render(names)})"
            parts.append(fs if e == 1 else f"{fs}^{e}")
        return f"({num})/({'*'.join(parts)})"

    def __repr__(self):
        return f"FactoredFraction({self.render()})"
