"""Exact scalar arithmetic: rationals and simple algebraic extensions of Q.

A scalar lives in Q[t]/(p(t)) for a monic polynomial p.  The constructor
certifies only that p is squarefree, as gcd(p, p') = 1: p' must be a unit of
Q[t]/(p).  Irreducibility is trusted, not verified.
The presets are vetted.  A reducible p may surface as NonInvertible when a
division hits a zero divisor, but it can also let a "nonzero constant" check
pass in a factor ring that is not a field.  In the degree-1 case a scalar is
a plain `fractions.Fraction`.

Over an extension a `Scalar` is stored like FLINT's nf_elem: the power-basis
coefficients as integer numerators over one common positive denominator,
always in lowest terms.  A product is an integer convolution, an integer
reduction modulo p and one gcd.  Fractions appear only at the edges:
`coerce`, `from_coeffs`, `to_coeffs`, `render` and the reduction rows.
Inverting a scalar and certifying that p is squarefree are one job, run by
one fraction-free integer solve (`FieldContext._solve`): is an element a unit
of Q[t]/(p), and if so, what is its inverse.

`FieldContext` is also the only place that knows how a polynomial's
coefficients are laid out, so `poly.MultiPoly` has one body per operation for
every field.  A MultiPoly holds a term dict and one content.  Over Q this is
FLINT's fmpq_mpoly split: the terms are ints and the content is their
positive common denominator, canonical with gcd(content, *terms) == 1
(`normalized`), so sums, scalings, derivatives, products and division all
run on Python ints and a Fraction is built only by `element`, at the edges
(`leading`, `constant_value`, `evaluate`, `iter_terms`).  Over an extension
the terms are the Scalars and the content is always 1, which makes
`normalized`, `aligned` and `scaled` plain term-wise operations there.

For a sum of products sum_t a_t b_t, `pack_pairs` turns each term into one
int over one common denominator.  Over Q the terms are the ints; over an
extension it uses Kronecker substitution (D. Harvey, J. Symb. Comp. 44,
2009): every numerator vector v becomes the int sum_i v[i] 2^(bits*i), so a
product of packed ints is the convolution of the vectors, one 2d-1 slot int
per coefficient pair, and the sum of products is the sum of convolutions.
The slot width bits = max over the pairs of bitlen(max |num| of a) +
bitlen(max |num| of b), plus bitlen(n*d) + 1, with n = sum of min(len a,
len b) the most pairs of terms that meet in one output monomial, keeps every
slot in (-2^(bits-1), 2^(bits-1)); `unpack_reduced` reads the signed slots
back and reduces each sum once.  Exact division (`elimination_operands`)
runs on such ints too: a step is a `divmod` over Q, and over an extension
one `reduce` of a packed remainder and one big-int product per term of the
monic divisor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, NonInvertible


class FieldContext:
    """A simple real algebraic number field Q[t]/(p(t)).

    `minimal_polynomial` is given by ascending coefficients and must be monic,
    squarefree and of degree >= 1.  Irreducibility is trusted, not verified.
    Fractions appear only at the edges (`coerce`, `from_coeffs`, `to_coeffs`,
    `render`, the reduction rows).  `invert` and the squarefree certificate
    are one fraction-free solve over the integers a `Scalar` holds.
    """

    __slots__ = ("minpoly", "degree", "generator_description", "_rows",
                 "_row_den", "zero", "one")

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
        # the same rows as integers over one common denominator
        self._row_den = math.lcm(1, *(c.denominator for row in rows for c in row))
        self._rows = tuple(tuple((c * self._row_den).numerator for c in row)
                           for row in rows)
        if d == 1:
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = Scalar((0,) * d, 1, self)
            self.one = Scalar((1,) + (0,) * (d - 1), 1, self)
            self._certify_squarefree()

    def generator(self) -> "Scalar":
        if self.degree == 1:
            raise ValueError("degree-1 field has no nontrivial generator")
        return Scalar((0, 1) + (0,) * (self.degree - 2), 1, self)

    def coerce(self, value):
        """Lift an int, Fraction or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.ctx is not self and value.ctx.minpoly != self.minpoly:
                raise ValueError("scalar belongs to a different field")
            return value
        q = Fraction(value)
        if self.degree == 1:
            return q
        return Scalar((q.numerator,) + (0,) * (self.degree - 1), q.denominator, self)

    def from_coeffs(self, coeffs):
        vals = [Fraction(c) for c in coeffs]
        if len(vals) != self.degree:
            raise ValueError("coefficient vector length must equal field degree")
        if self.degree == 1:
            return vals[0]
        den = math.lcm(*(v.denominator for v in vals))
        return _lowest(
            [v.numerator * (den // v.denominator) for v in vals], den, self)

    def to_coeffs(self, value) -> tuple[Fraction, ...]:
        if isinstance(value, Scalar):
            return tuple(Fraction(n, value.den) for n in value.num)
        return (Fraction(value),)

    def reduce(self, coeffs: list[int], den: int) -> "Scalar":
        """The Scalar (sum_i coeffs[i] t^i) / den in lowest terms.

        `coeffs` are 2d-1 integers and den > 0; the powers t^d .. t^(2d-2)
        are folded in with the integer reduction rows.
        """
        d = self.degree
        out = coeffs[:d]
        high = coeffs[d:]
        if any(high):
            rd = self._row_den
            if rd != 1:
                out = [c * rd for c in out]
                den *= rd
            for c, row in zip(high, self._rows):
                if c:
                    out = [o + c * r for o, r in zip(out, row)]
        g = math.gcd(*out, den)
        if g != 1:
            return Scalar(tuple([n // g for n in out]), den // g, self)
        return Scalar(tuple(out), den, self)

    # -- polynomial coefficients: a term dict over one content ------------

    def split(self, values: dict):
        """(terms, content) of a MultiPoly whose coefficients are `values`.

        `values` maps keys to nonzero field elements.  Over Q the terms are
        the integer numerators over the least common denominator, which is
        the content; the pair is canonical because each Fraction is in
        lowest terms.  Over a number field the terms are the Scalars and the
        content is 1.
        """
        if self.degree == 1:
            den = 1
            for c in values.values():
                d = c.denominator
                if d != 1:
                    den = den * d // math.gcd(den, d)
            if den == 1:
                return {k: c.numerator for k, c in values.items()}, 1
            return {k: c.numerator * (den // c.denominator)
                    for k, c in values.items()}, den
        return values, 1

    def element(self, term, content):
        """The field element of one term of a MultiPoly."""
        if self.degree == 1:
            return Fraction(term, content)
        return term

    def scalar_parts(self, value):
        """(term, content) of an int, Fraction or Scalar as a constant
        coefficient, or None when `value` is not a scalar."""
        if isinstance(value, (int, Fraction)):
            if self.degree == 1:
                return value.numerator, value.denominator
            return self.coerce(value), 1
        if isinstance(value, Scalar):
            return self.coerce(value), 1
        return None

    @staticmethod
    def normalized(terms: dict, content):
        """The canonical (terms, content): over Q the common factor of the
        integer terms and the denominator is divided out.  A number-field
        content is always 1, so there the pair is returned as it is."""
        if content == 1:
            return terms, 1
        g = math.gcd(content, *terms.values())
        if g == 1:
            return terms, content
        return {k: c // g for k, c in terms.items()}, content // g

    @staticmethod
    def aligned(a: dict, ca, b: dict, cb):
        """(a', b', content): copies of two term dicts over one common content,
        a' always a fresh dict.  Equal contents (every number-field pair)
        need no rescaling."""
        if ca == cb:
            return dict(a), b, ca
        g = math.gcd(ca, cb)
        sa, sb = cb // g, ca // g
        a = {k: c * sa for k, c in a.items()}
        if sb != 1:
            b = {k: c * sb for k, c in b.items()}
        return a, b, ca * sa

    def scaled(self, terms: dict, content, term, term_content, shift: int = 0):
        """(terms, content) of a MultiPoly times the one-term coefficient
        (term, term_content), every key moved by `shift`; a product that
        vanishes (possible only modulo a reducible p) is dropped."""
        out = {k + shift: p for k, c in terms.items() if (p := c * term)}
        return self.normalized(out, content * term_content)

    def pack_pairs(self, pairs):
        """(bits, den, [(packed a, packed b), ...]) for the (a, ca, b, cb)
        term dicts and contents of the pairs of one sum of products.

        den is the lcm of the pairs' own denominators (ca * cb over Q, the
        product of the common Scalar denominators over a number field); a
        pair whose own one is den / s has its first operand times s.  Over Q
        `bits` is 0; over a number field the numerator vectors are packed at
        the slot width of the module docstring, bits(max|a| s) counting as
        bits(max|a|) + bits(s - 1).
        """
        if self.degree == 1:
            dens = [ca * cb for _, ca, _, cb in pairs]
            den = math.lcm(*dens)
            return 0, den, [(_times(a, den // d), b)
                            for (a, _, b, _), d in zip(pairs, dens)]
        cleared = [(_cleared(a), _cleared(b)) for a, _, b, _ in pairs]
        den = math.lcm(*(da * db for (da, _, _), (db, _, _) in cleared))
        scales = [den // (da * db) for (da, _, _), (db, _, _) in cleared]
        n = sum(min(len(a), len(b)) for a, _, b, _ in pairs)
        bits = (max(ba + bb + (s - 1).bit_length()
                    for ((_, _, ba), (_, _, bb)), s in zip(cleared, scales))
                + (n * self.degree).bit_length() + 1)
        return bits, den, [(_times(_packed(na, bits), s), _packed(nb, bits))
                           for ((_, na, _), (_, nb, _)), s in zip(cleared, scales)]

    def unpack_reduced(self, packed: dict, bits: int, den: int):
        """(terms, content) for the nonzero values among `packed` / `den`.

        Over Q the nonzero sums are the terms over content den, made
        canonical by one gcd.  Over a number field each int holds 2d-1
        signed slots of width `bits` (a sum of products from
        `pack_pairs`), read back as `_slots` does and reduced once.  A
        sum can vanish modulo p even when its packed int does not, so zero
        results are dropped.
        """
        if self.degree == 1:
            return self.normalized({k: v for k, v in packed.items() if v}, den)
        n = 2 * self.degree - 1
        half = 1 << (bits - 1)
        mask = (1 << bits) - 1
        offset = _offset(n, bits)
        reduce = self.reduce
        out = {}
        for k, v in packed.items():
            if not v:
                continue
            # `_slots`, inlined: this loop reads every product's sums
            v += offset
            coeffs = []
            for _ in range(n):
                coeffs.append((v & mask) - half)
                v >>= bits
            c = reduce(coeffs, den)
            if any(c.num):
                out[k] = c
        return out, 1

    def elimination_operands(self, f: dict, cf, g: dict, cg, lead_key: int):
        """(r, rest, step, scale): the operands for dividing f by g.

        r is a fresh dict of the dividend's terms as ints and rest a list of
        (key, int) for the divisor's other terms.  `step(v)` maps the int at
        the remainder's leading key to (qc, w): the quotient term (None when
        v leaves a remainder) and the int w whose products with the rest
        ints are subtracted to cancel that key; w is 0 when v is zero in the
        field.  `elimination_quotient(q, scale)` rebuilds the quotient.

        Over Q, f = F / cf and g = c * G / cg with F the integer terms of f
        and G primitive with a positive leading coefficient; the step is
        divmod by G's leading coefficient and w = qc.  By Gauss's lemma G
        divides F over Q only if it divides F over Z, so every step of a true
        division is integral and a nonzero remainder proves non-divisibility;
        the quotient is (F / G) * cg / (cf * c).

        Over a number field g is made monic (the quotient is divided by its
        leading coefficient at the end), its other terms are G_k / e and f
        is F / D, packed as in `pack_pairs` into slots bits(max|F|) +
        bits(max|G|) + bits(e) + bits(d * (len f + len g)) + 1 wide.  A step
        `reduce`s v's 2d-1 slots over D to qc; if qc.den * e does not divide
        D, D and every remainder int are multiplied by the missing factor s
        (packing is linear), and w packs qc.num * D / (qc.den * e).  A bound
        B > |slot|, 2^bits(max|F|) at first and B * s + d * max|w| *
        2^bits(max|G|) after each step, doubles the width and repacks every
        int before B reaches 2^(bits-1).
        """
        rest = dict(g)
        lead = rest.pop(lead_key)
        if self.degree == 1:
            c = math.gcd(lead, *rest.values())
            if lead < 0:
                c = -c
            if c != 1:
                rest = {k: v // c for k, v in rest.items()}
                lead //= c

            def step(v):
                qc, rem = divmod(v, lead)
                return (None, 0) if rem else (qc, qc)

            return dict(f), list(rest.items()), step, (cg, cf * c)
        inv = None if lead == self.one else self.invert(lead)
        if inv is not None:
            rest = {k: v * inv for k, v in rest.items()}
        d = self.degree
        n = 2 * d - 1
        den, fvecs, fbits = _cleared(f)
        e, gvecs, gbits = _cleared(rest)
        bits = (fbits + gbits + e.bit_length()
                + (d * (len(f) + len(g))).bit_length() + 1)
        offset = _offset(n, bits)
        bound = 1 << fbits
        r = _packed(fvecs, bits)
        rest = list(_packed(gvecs, bits).items())
        reduce = self.reduce

        def step(v):
            nonlocal den, bits, offset, bound
            qc = reduce(_slots(v, n, bits, offset), den)
            if not any(qc.num):
                return qc, 0
            need = qc.den * e
            s = need // math.gcd(den, need)
            factor = den * s // need
            w = [c * factor for c in qc.num]
            bound = bound * s + max(max(w), -min(w)) * (d << gbits)
            if bound >= 1 << (bits - 1):
                old, old_offset = bits, offset
                while bound >= 1 << (bits - 1):
                    bits *= 2
                offset = _offset(n, bits)
                for k, v in r.items():
                    r[k] = _pack(_slots(v, n, old, old_offset), bits)
                rest[:] = _packed(gvecs, bits).items()
            if s != 1:
                den *= s
                for k, v in r.items():
                    r[k] = v * s
            return qc, _pack(w, bits)

        return r, rest, step, inv

    def elimination_quotient(self, q: dict, scale):
        """The quotient's (terms, content) from the elimination's values.

        Over Q, with the names of `elimination_operands`, the integer quotient
        F / G is rescaled once by cg / (cf * c); over a number field the
        quotient by the monic divisor is multiplied by the inverse of g's
        leading coefficient unless that is 1.
        """
        if self.degree == 1:
            num, den = scale
            if den < 0:
                num, den = -num, -den
            if num != 1:
                q = {k: v * num for k, v in q.items()}
            return self.normalized(q, den)
        if scale is None:
            return q, 1
        return self.scaled(q, 1, scale, 1)

    def invert(self, value):
        value = self.coerce(value)
        if self.degree == 1:
            if not value:
                raise DivisionByZero("division by zero")
            return 1 / value
        if not any(value.num[1:]):
            # a rational's inverse is rational: den / num[0]
            p, q = value.den, value.num[0]
            if not q:
                raise DivisionByZero("division by zero")
            if q < 0:
                p, q = -p, -q
            return Scalar((p,) + (0,) * (self.degree - 1), q, self)
        # (num / den)^-1 = den * num^-1
        solved = self._solve(value.num)
        if solved is None:
            raise NonInvertible(
                "gcd with minimal polynomial is not constant; "
                "the minimal polynomial is reducible")
        num, det = solved
        return _lowest([value.den * c for c in num], det, self)

    def _solve(self, num):
        """(z, det) with (sum_i num[i] t^i)^-1 = (sum_i z[i] t^i) / det and
        det > 0, or None when that element shares a factor with p.

        The inverse y solves sum_j y_j x t^j = 1 for x = sum_i num[i] t^i.
        The column x t^j is a Scalar v_j / e_j, so w_j = y_j / e_j solves a
        d x d integer system whose right-hand side is e_0.  Fraction-free
        Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22, 1968) keeps
        every entry a minor of that system, so each division is exact.  It
        ends with the determinant on the diagonal and det * w in the last
        column.  A column without a pivot means the system is singular.
        """
        d = self.degree
        t = self.generator()
        x = Scalar(tuple(num), 1, self)
        cols, scales = [], []
        for _ in range(d):
            cols.append(x.num)
            scales.append(x.den)
            x = x * t
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            pivot = next((i for i in range(k, d) if rows[i][k]), None)
            if pivot is None:
                return None
            rows[k], rows[pivot] = rows[pivot], rows[k]
            top = rows[k]
            p = top[k]
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    rows[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
            prev = p
        sign = -1 if prev < 0 else 1
        return ([sign * e * row[d] for e, row in zip(scales, rows)],
                sign * prev)

    def _certify_squarefree(self):
        """p is squarefree exactly when gcd(p, p') = 1, that is, when p' is a
        unit of Q[t]/(p).  The first reduction row holds -p's lower
        coefficients over `_row_den`, so `_row_den` * p' has integer
        coefficients."""
        d, base = self.degree, self._rows[0]
        derivative = [-i * base[i] for i in range(1, d)] + [d * self._row_den]
        if self._solve(derivative) is None:
            raise ValueError("minimal polynomial must be squarefree")

    def render(self, value) -> str:
        """Deterministic human-readable form of a scalar."""
        coeffs = self.to_coeffs(value)
        if self.degree == 1 or not any(coeffs[1:]):
            return str(coeffs[0])
        parts = [_term(c, i) for i, c in enumerate(coeffs) if c]
        return "(" + "+".join(parts).replace("+-", "-") + ")"

    def describe(self) -> str:
        if self.degree == 1:
            return "Q"
        parts = [_term(c, i) for i, c in reversed(list(enumerate(self.minpoly)))
                 if c]
        return "Q[t]/(" + " + ".join(parts).replace("+ -", "- ") + ")"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"FieldContext(degree={self.degree}, generator={self.generator_description})"


def _term(c, i: int) -> str:
    """c t^i as `render` and `describe` print it."""
    if i == 0:
        return str(c)
    mono = "t" if i == 1 else f"t^{i}"
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def _cleared(terms: dict):
    """(den, {key: numerator vector over den}, bit length of max |numerator|)."""
    den = 1
    for c in terms.values():
        d = c.den
        if d != 1:
            den = den * d // math.gcd(den, d)
    top = 0
    out = {}
    for k, c in terms.items():
        num = c.num
        if c.den != den:
            s = den // c.den
            num = [n * s for n in num]
        out[k] = num
        top = max(top, max(num), -min(num))
    return den, out, top.bit_length()


def _pack(v, bits: int) -> int:
    """sum_i v[i] * 2^(bits*i)."""
    acc = 0
    for c in reversed(v):
        acc = (acc << bits) + c
    return acc


def _packed(vectors: dict, bits: int) -> dict:
    """{key: _pack(v, bits)} for each vector v."""
    return {k: _pack(v, bits) for k, v in vectors.items()}


def _times(terms: dict, s: int) -> dict:
    """The int term dict times s (the dict itself for s = 1)."""
    return terms if s == 1 else {k: c * s for k, c in terms.items()}


def _offset(n: int, bits: int) -> int:
    """2^(bits-1) in each of n slots of width `bits`."""
    return (1 << (bits - 1)) * (((1 << (bits * n)) - 1) // ((1 << bits) - 1))


def _slots(v: int, n: int, bits: int, offset: int) -> list[int]:
    """The n slots, lowest first, of a packed int whose slots lie in
    (-2^(bits-1), 2^(bits-1)); adding offset = _offset(n, bits) makes
    every slot nonnegative, so each is read with a mask and a shift."""
    v += offset
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    for _ in range(n):
        out.append((v & mask) - half)
        v >>= bits
    return out


def _lowest(num: list[int], den: int, ctx: FieldContext) -> "Scalar":
    """The Scalar num/den (den > 0) in lowest terms."""
    g = math.gcd(*num, den)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return Scalar(tuple(num), den, ctx)


class Scalar:
    """An element of a degree >= 2 number field, in the power basis.

    The value is (sum_i num[i] t^i) / den with integer `num`, `den > 0` and
    gcd(*num, den) == 1; zero is (0, ..., 0) / 1.  The form is canonical, so
    `==` and `hash` compare the integers directly.
    """

    __slots__ = ("num", "den", "ctx")

    def __init__(self, num: tuple[int, ...], den: int, ctx: FieldContext):
        self.num = num
        self.den = den
        self.ctx = ctx

    def __add__(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                self.ctx.coerce(other)
        elif isinstance(other, (int, Fraction)):
            other = self.ctx.coerce(other)
        else:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            num = [a + b for a, b in zip(self.num, other.num)]
            if da == 1:
                return Scalar(tuple(num), 1, self.ctx)
            return _lowest(num, da, self.ctx)
        return _lowest([a * db + b * da for a, b in zip(self.num, other.num)],
                       da * db, self.ctx)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(tuple(-a for a in self.num), self.den, self.ctx)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Scalar):
            if other.ctx is not self.ctx:
                self.ctx.coerce(other)
            a, b = self.num, other.num
            prod = [0] * (2 * len(a) - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        prod[i + j] += ai * bj
            return self.ctx.reduce(prod, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ctx.zero
            return _lowest([a * other.numerator for a in self.num],
                           self.den * other.denominator, self.ctx)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise DivisionByZero("division by zero")
            if p < 0:
                p, q = -p, -q
            return _lowest([a * q for a in self.num], self.den * p, self.ctx)
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
            return (self.num == other.num and self.den == other.den
                    and (self.ctx is other.ctx
                         or self.ctx.minpoly == other.ctx.minpoly))
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        # a rational-valued scalar equals, so must hash like, its Fraction
        if not any(self.num[1:]):
            return hash(Fraction(self.num[0], self.den))
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"Scalar({self.ctx.render(self)})"


RATIONALS = FieldContext((0, 1), "rational")
