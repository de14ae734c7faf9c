"""Exact scalar arithmetic: rationals and simple algebraic extensions of Q.

A scalar lives in Q[t]/(p(t)) for a monic polynomial p that is trusted to be
irreducible (presets are vetted; a reducible p surfaces as NonInvertible the
first time a division hits a zero divisor).  The degree-1 case degenerates to
plain `fractions.Fraction` values: polynomials over Q carry no wrapper object
at all, which keeps the common rational-coefficient pipelines fast.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, NonInvertible

Rational = Fraction


def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of dense univariate rational polynomials."""
    if not b:
        raise DivisionByZero("univariate division by zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        coef = a[-1] * inv_lead
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] -= coef * bc
        _poly_trim(a)
    return q, a


class FieldContext:
    """A simple real algebraic number field Q[t]/(p(t)).

    `minimal_polynomial` is given by ascending coefficients and must be monic
    of degree >= 1.  Irreducibility is trusted, not verified.
    """

    __slots__ = ("minpoly", "degree", "generator_description", "_reduction",
                 "zero", "one")

    def __init__(self, minimal_polynomial=(0, 1), generator_description="rational"):
        coeffs = tuple(Fraction(c) for c in minimal_polynomial)
        if len(coeffs) < 2:
            raise ValueError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.generator_description = generator_description
        d = self.degree
        # rows[i] = coefficients of t^(d+i) in the power basis, for i < d-1
        rows: list[tuple[Fraction, ...]] = []
        if d > 1:
            base = tuple(-c for c in coeffs[:-1])
            rows.append(base)
            for _ in range(d - 2):
                prev = rows[-1]
                shifted = [Fraction(0)] + list(prev[:-1])
                overflow = prev[-1]
                rows.append(tuple(s + overflow * b for s, b in zip(shifted, base)))
        self._reduction = tuple(rows)
        if d == 1:
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = Scalar((Fraction(0),) * d, self)
            one = [Fraction(0)] * d
            one[0] = Fraction(1)
            self.one = Scalar(tuple(one), self)

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def generator(self) -> "Scalar":
        if self.degree == 1:
            raise ValueError("degree-1 field has no nontrivial generator")
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return Scalar(tuple(coeffs), self)

    def coerce(self, value):
        """Lift an int, Fraction or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.ctx is not self and value.ctx.minpoly != self.minpoly:
                raise ValueError("scalar belongs to a different field")
            return value
        q = Fraction(value)
        if self.degree == 1:
            return q
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = q
        return Scalar(tuple(coeffs), self)

    def from_coeffs(self, coeffs):
        vals = tuple(Fraction(c) for c in coeffs)
        if len(vals) != self.degree:
            raise ValueError("coefficient vector length must equal field degree")
        if self.degree == 1:
            return vals[0]
        return Scalar(vals, self)

    def to_coeffs(self, value) -> tuple[Fraction, ...]:
        if isinstance(value, Scalar):
            return value.coeffs
        return (Fraction(value),)

    def reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        """Reduce a coefficient list of length <= 2d-1 modulo the minimal polynomial."""
        d = self.degree
        out = list(coeffs[:d]) + [Fraction(0)] * (d - len(coeffs[:d]))
        for i, c in enumerate(coeffs[d:]):
            if c:
                row = self._reduction[i]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple(out)

    def invert(self, value):
        if self.degree == 1:
            q = Fraction(value)
            if q == 0:
                raise DivisionByZero("division by zero")
            return 1 / q
        coeffs = self.to_coeffs(value)
        if not any(coeffs):
            raise DivisionByZero("division by zero")
        # extended Euclid in Q[t] between the value and the minimal polynomial
        r0, r1 = list(self.minpoly), _poly_trim(list(coeffs))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            prod_len = len(q) + len(s1) - 1
            prod = [Fraction(0)] * max(prod_len, 0)
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        prod[i + j] += qc * sc
            new_s = [a - b for a, b in
                     zip(s0 + [Fraction(0)] * (len(prod) - len(s0)),
                         prod + [Fraction(0)] * (len(s0) - len(prod)))]
            s0, s1 = s1, _poly_trim(new_s)
        if len(r0) != 1:
            raise NonInvertible(
                "gcd with minimal polynomial is not constant; "
                "the minimal polynomial is reducible")
        inv_gcd = 1 / r0[0]
        coeffs_out = [c * inv_gcd for c in s0]
        coeffs_out += [Fraction(0)] * (self.degree - len(coeffs_out))
        return Scalar(self.reduce(coeffs_out), self)

    def is_zero(self, value) -> bool:
        if isinstance(value, Scalar):
            return not any(value.coeffs)
        return value == 0

    def render(self, value, symbol: str = "t") -> str:
        """Deterministic human-readable form of a scalar."""
        coeffs = self.to_coeffs(value)
        if self.degree == 1 or not any(coeffs[1:]):
            return str(coeffs[0])
        parts = []
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = symbol if i == 1 else f"{symbol}^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return "(" + "+".join(parts).replace("+-", "-") + ")"

    def describe(self) -> str:
        if self.degree == 1:
            return "Q"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.minpoly[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        poly = " + ".join(parts).replace("+ -", "- ")
        return f"Q[t]/({poly})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"FieldContext(degree={self.degree}, generator={self.generator_description})"


class Scalar:
    """An element of a degree >= 2 number field, in the power basis."""

    __slots__ = ("coeffs", "ctx")

    def __init__(self, coeffs: tuple[Fraction, ...], ctx: FieldContext):
        self.coeffs = coeffs
        self.ctx = ctx

    def __add__(self, other):
        if isinstance(other, Scalar):
            return Scalar(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.ctx)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            c = list(self.coeffs)
            c[0] += other
            return Scalar(tuple(c), self.ctx)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Scalar(tuple(-a for a in self.coeffs), self.ctx)

    def __sub__(self, other):
        if isinstance(other, Scalar):
            return Scalar(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)), self.ctx)
        if isinstance(other, (int, Fraction)):
            c = list(self.coeffs)
            c[0] -= other
            return Scalar(tuple(c), self.ctx)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            a, b = self.coeffs, other.coeffs
            d = len(a)
            prod = [Fraction(0)] * (2 * d - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            prod[i + j] += ai * bj
            return Scalar(self.ctx.reduce(prod), self.ctx)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ctx.zero
            return Scalar(tuple(a * other for a in self.coeffs), self.ctx)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise DivisionByZero("division by zero")
            return Scalar(tuple(a / other for a in self.coeffs), self.ctx)
        if isinstance(other, Scalar):
            return self * self.ctx.invert(other)
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.ctx.invert(self) ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __rtruediv__(self, other):
        return self.ctx.invert(self) * other

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        # a rational-valued scalar equals, so must hash like, its Fraction
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"Scalar({self.ctx.render(self)})"


RATIONALS = FieldContext((0, 1), "rational")
