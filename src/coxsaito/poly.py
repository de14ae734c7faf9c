"""Exact sparse multivariate polynomials over a number field.

Terms are stored in a dict keyed by a packed monomial: each exponent occupies
a fixed-width limb of one Python int, with the total degree in the topmost
limb.  Under this packing

  * monomial product is integer addition of keys,
  * graded-lexicographic comparison (x1 > x2 > ...) is integer comparison,

so the leading term is simply max(terms).  An exponent must fit its limb:
`pack` rejects one that does not, and a product whose total degree would not
fit is refused.  There is no floating point and no multivariate gcd
anywhere: the only reduction primitive is `exact_divide`, which either
produces the exact quotient or reports that none exists.

A polynomial is its term dict and one content, and only `FieldContext`
knows what they hold (over Q: integer terms over one positive denominator;
over an extension: Scalars and the content 1).  No zero term is ever stored
and the pair is canonical.  Each operation has one body for every field.
Sums bring both term dicts over one content (`FieldContext.aligned`) and
merge them; scalar multiples, derivatives and products with a one-term
operand scale the terms.  Every other product is one kernel,
`sum_of_products` of the pairs of a matrix entry sum_t a_t b_t (or of one
pair): `FieldContext.pack_pairs` makes ints of all terms over one
denominator, every pair's product accumulates into one int dict, and
`FieldContext.unpack_reduced` reads the terms back once per entry, so Q and
number fields share one schoolbook loop, one multiply-add per pair of terms.
A linear substitution by a matrix that is not a signed permutation is
nested Horner on that kernel (`MultiPoly.subst_linear`): one sum of
products per group of terms that share an exponent.  The powers of the
substituted forms are built by the call that reads them and freed with it.
Exact division is one leading-term elimination loop over a heap of keys on
ints for every field: the field packs the operands (over an extension as for
a product), maps each step's leading int to a quotient term and rebuilds the
quotient at the end.  Every result passes through the field's canonical
form.  Field elements are built only where a coefficient leaves the
polynomial: `leading`, `constant_value`, `evaluate` and `iter_terms`.
"""

from __future__ import annotations

import heapq
import math

from .errors import DimensionMismatch, DivisionByZero
from .field import RATIONALS, FieldContext

LIMB = 24
MASK = (1 << LIMB) - 1


def pack(exps) -> int:
    """Pack an exponent vector into a single grlex-ordered key."""
    n = len(exps)
    key = sum(exps) << (n * LIMB)
    for i, e in enumerate(exps):
        if not 0 <= e <= MASK:
            raise DimensionMismatch(f"exponent {e} outside 0..{MASK}")
        key |= e << ((n - 1 - i) * LIMB)
    return key


def unpack(key: int, nvars: int) -> tuple[int, ...]:
    return tuple((key >> ((nvars - 1 - i) * LIMB)) & MASK for i in range(nvars))


def key_degree(key: int, nvars: int) -> int:
    return key >> (nvars * LIMB)


def _limb_divides(a: int, b: int, nvars: int) -> bool:
    for i in range(nvars):
        shift = i * LIMB
        if ((a >> shift) & MASK) > ((b >> shift) & MASK):
            return False
    return True


def _signed_permutation(matrix):
    """(target, negated) when row i of `matrix` has its one nonzero entry
    +-1 in column target[i] and the targets are distinct, negated listing
    the rows whose entry is -1; None for any other matrix."""
    target, negated = [], []
    for i, row in enumerate(matrix):
        nonzero = [j for j, v in enumerate(row) if v]
        if len(nonzero) != 1:
            return None
        v = row[nonzero[0]]
        if v == -1:
            negated.append(i)
        elif v != 1:
            return None
        target.append(nonzero[0])
    if len(set(target)) != len(target):
        return None
    return target, negated


class MultiPoly:
    """A multivariate polynomial with exact coefficients in a fixed field.

    `terms` maps keys to nonzero terms and `content` is an opaque value that
    only the field interprets (`FieldContext.split`, `FieldContext.element`):
    over Q the terms are ints and the content is their positive common
    denominator with gcd(content, *terms) == 1; over a number field the terms
    are Scalars and the content is 1.  The form is canonical, so `==` and
    `hash` compare it directly.
    """

    __slots__ = ("nvars", "terms", "content", "field")

    def __init__(self, nvars: int, terms: dict, field: FieldContext = RATIONALS,
                 content=1):
        self.nvars = nvars
        self.terms = terms
        self.content = content
        self.field = field

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, field: FieldContext = RATIONALS) -> "MultiPoly":
        return cls(nvars, {}, field)

    @classmethod
    def const(cls, nvars: int, value, field: FieldContext = RATIONALS) -> "MultiPoly":
        c = field.coerce(value)
        if not c:
            return cls(nvars, {}, field)
        terms, content = field.split({0: c})
        return cls(nvars, terms, field, content)

    @classmethod
    def variable(cls, nvars: int, index: int, field: FieldContext = RATIONALS) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"variable index {index} out of range")
        return cls.from_terms(nvars, [([int(i == index) for i in range(nvars)], 1)],
                              field)

    @classmethod
    def from_terms(cls, nvars: int, items, field: FieldContext = RATIONALS) -> "MultiPoly":
        """Build from (exponent-vector, coefficient) pairs; merges duplicates."""
        values: dict = {}
        for exps, c in items:
            if len(exps) != nvars:
                raise DimensionMismatch("exponent vector length != nvars")
            c = field.coerce(c)
            if not c:
                continue
            k = pack(exps)
            cur = values.get(k)
            acc = c if cur is None else cur + c
            if acc:
                values[k] = acc
            elif cur is not None:
                del values[k]
        terms, content = field.split(values)
        return cls(nvars, terms, field, content)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self):
        """Maximum total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return key_degree(max(self.terms), self.nvars)

    def homogeneous_degree(self):
        """Common total degree of all terms; None if zero or inhomogeneous."""
        if not self.terms:
            return None
        degs = {key_degree(k, self.nvars) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def leading(self):
        """Leading (key, coefficient) in graded-lex order."""
        k = max(self.terms)
        return k, self.field.element(self.terms[k], self.content)

    def constant_value(self):
        """The scalar value if this polynomial is constant, else None."""
        if not self.terms:
            return self.field.zero
        if len(self.terms) == 1 and 0 in self.terms:
            return self.field.element(self.terms[0], self.content)
        return None

    def evaluate(self, point):
        """The value at a point of integers, one field element."""
        places = [(x, (self.nvars - 1 - i) * LIMB) for i, x in enumerate(point)]
        total = sum(c * math.prod([x ** (k >> s & MASK) for x, s in places])
                    for k, c in self.terms.items())
        return self.field.element(total, self.content)

    def iter_terms(self):
        """(exponent vector, coefficient) pairs in descending graded-lex order."""
        element, content = self.field.element, self.content
        for k in sorted(self.terms, reverse=True):
            yield unpack(k, self.nvars), element(self.terms[k], content)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _check_operand(other, self.nvars, self.field)
        if not self.terms:
            return other
        if not other.terms:
            return self
        # copy the larger operand and merge the smaller one into it
        if len(self.terms) < len(other.terms):
            self, other = other, self
        field = self.field
        out, b, content = field.aligned(self.terms, self.content,
                                        other.terms, other.content)
        get = out.get
        for k, c in b.items():
            cur = get(k)
            if cur is None:
                out[k] = c
            elif acc := cur + c:
                out[k] = acc
            else:
                del out[k]
        terms, content = field.normalized(out, content)
        return MultiPoly(self.nvars, terms, field, content)

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.nvars, {k: -c for k, c in self.terms.items()},
                         self.field, self.content)

    def __mul__(self, other):
        """The product: `sum_of_products` of the one pair, or, for a scalar
        (int, Fraction or Scalar), every term scaled."""
        if isinstance(other, MultiPoly):
            return sum_of_products([(self, other)], self.nvars, self.field)
        field = self.field
        parts = field.scalar_parts(other)
        if parts is None:
            return NotImplemented
        terms, content = field.scaled(self.terms, self.content, *parts)
        return MultiPoly(self.nvars, terms, field, content)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(self.nvars, 1, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (self.nvars == other.nvars and self.content == other.content
                    and self.terms == other.terms)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.content, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and substitution ------------------------------------------

    def partial(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to variable `index`."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatch(f"variable index {index} out of range")
        shift = (self.nvars - 1 - index) * LIMB
        dec = (1 << shift) + (1 << (self.nvars * LIMB))
        out = {}
        for k, c in self.terms.items():
            e = (k >> shift) & MASK
            if e:
                out[k - dec] = c * e
        terms, content = self.field.normalized(out, self.content)
        return MultiPoly(self.nvars, terms, self.field, content)

    def subst_linear(self, matrix) -> "MultiPoly":
        """Substitute x_i -> sum_j matrix[i][j] * x_j.

        A signed permutation matrix (one entry +-1 in each row and column)
        maps each term to one term: its limbs move to their new places and
        its sign flips when the exponents of the negated variables sum to an
        odd number.  Every other matrix takes nested Horner on the raw term
        dict (`_horner_pairs`): the terms grouped by their exponent a of x_1
        map to one `sum_of_products` of the pairs (L_1^a, image of the group
        in x_2, ..., x_n), L_i the i-th substituted form, whose powers this
        call builds once, each from the one below it.  At the last variable
        the groups are single terms, which the kernel scales.
        """
        n, field = self.nvars, self.field
        rows = [tuple(row) for row in matrix]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch("substitution matrix must be nvars x nvars")
        signed = _signed_permutation(rows)
        if signed is not None:
            return self._permuted(*signed)
        powers = [{0: MultiPoly.const(n, 1, field),
                   1: MultiPoly.from_terms(n, [([int(t == j) for t in range(n)], v)
                                               for j, v in enumerate(row)], field)}
                  for row in rows]
        return sum_of_products(_horner_pairs(self.terms, self.content, 0, powers, field),
                               n, field)

    def _permuted(self, target, negated) -> "MultiPoly":
        """The image under x_i -> +-x_target[i], with a minus sign exactly
        for the variables in `negated`."""
        n = self.nvars
        top = n * LIMB
        moves = [((n - 1 - i) * LIMB, (n - 1 - t) * LIMB)
                 for i, t in enumerate(target)]
        flips = [(n - 1 - i) * LIMB for i in negated]
        out = {}
        for k, c in self.terms.items():
            key = (k >> top) << top
            for src, dst in moves:
                key |= ((k >> src) & MASK) << dst
            if sum((k >> shift) & MASK for shift in flips) & 1:
                c = -c
            out[key] = c
        return MultiPoly(n, out, self.field, self.content)

    def exact_divide(self, divisor: "MultiPoly"):
        """Exact quotient self / divisor, or None when no quotient exists.

        Leading terms are eliminated in graded-lex order; a leading monomial
        that the divisor's does not divide, or a step with a nonzero
        remainder, proves non-divisibility for a single divisor.  The loop
        runs on the ints that `FieldContext.elimination_operands` makes of
        both operands; its step maps the leading int to the quotient term and
        the multiplier of the divisor's other terms: a `divmod` over Q, where
        by Gauss's lemma every step of a true division is integral, and one
        reduction of a Kronecker-packed remainder by a monic divisor over a
        number field.  `elimination_quotient` rebuilds the quotient.
        """
        if not isinstance(divisor, MultiPoly):
            raise TypeError("divisor must be a MultiPoly")
        _check_operand(divisor, self.nvars, self.field)
        if divisor.is_zero():
            raise DivisionByZero("exact_divide by zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.nvars, self.field)
        field = self.field
        gl_key = max(divisor.terms)
        r, rest, step, scale = field.elimination_operands(
            self.terms, self.content, divisor.terms, divisor.content, gl_key)
        n = self.nvars
        q: dict = {}
        # Every key a step adds to r lies below the popped leading key, so a
        # max-heap of negated keys holds each key of r exactly once; a key
        # whose coefficient cancelled to 0 stays in r and is skipped.
        heap = [-k for k in r]
        heapq.heapify(heap)
        while heap:
            m = -heapq.heappop(heap)
            v = r.pop(m)
            if not v:
                continue
            qc, w = step(v)
            if qc is None:
                return None
            if not w:  # v is 0 in the field
                continue
            if not _limb_divides(gl_key, m, n):
                return None
            qk = m - gl_key
            q[qk] = qc
            for k, c in rest:
                nk = k + qk
                cur = r.get(nk)
                if cur is None:
                    heapq.heappush(heap, -nk)
                    r[nk] = -(w * c)
                else:
                    r[nk] = cur - w * c
        terms, content = field.elimination_quotient(q, scale)
        return MultiPoly(n, terms, field, content)

    def constant_quotient(self, divisors):
        """The nonzero constant c with self = c * prod(divisors), else None."""
        rem = self
        for d in divisors:
            rem = rem.exact_divide(d)
            if rem is None:
                return None
        c = rem.constant_value()
        return c or None

    def monic(self):
        """Split off the leading coefficient: returns (monic poly, leading coeff)."""
        if self.is_zero():
            return self, self.field.one
        field = self.field
        _, lead = self.leading()
        terms, content = field.scaled(self.terms, self.content,
                                      *field.scalar_parts(field.invert(lead)))
        return MultiPoly(self.nvars, terms, field, content), lead

    # -- rendering -----------------------------------------------------------

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = default_names(self.nvars)
        parts = []
        for exps, c in self.iter_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = self.field.render(c)
            if factors:
                if cs == "1":
                    body = "*".join(factors)
                elif cs == "-1":
                    body = "-" + "*".join(factors)
                else:
                    body = cs + "*" + "*".join(factors)
            else:
                body = cs
            parts.append(body)
        return parts[0] + "".join(p if p.startswith("-") else "+" + p
                                  for p in parts[1:])

    def __repr__(self):
        return f"MultiPoly({self.render()})"


def _check_operand(p: MultiPoly, nvars: int, field: FieldContext):
    if p.nvars != nvars:
        raise DimensionMismatch("nvars mismatch")
    if p.field is not field and p.field != field:
        raise DimensionMismatch("operands lie in different fields")


def sum_of_products(pairs, nvars: int, field: FieldContext) -> MultiPoly:
    """sum a * b over the (a, b) pairs of MultiPolys: the pairs are packed
    once (`FieldContext.pack_pairs`), every pair of terms of every pair is
    one multiply-add into one int dict, and the sums are read back once
    (module docstring).  When every pair has a one-term operand, the scaled
    operands are added."""
    top = nvars * LIMB
    live = []
    for a, b in pairs:
        _check_operand(a, nvars, field)
        _check_operand(b, nvars, field)
        if a.terms and b.terms:
            if len(a.terms) > len(b.terms):
                a, b = b, a
            # no exponent of a product can leave its limb while the total
            # degree, the top limb of the product's leading key, fits in one
            if (max(a.terms) + max(b.terms)) >> top > MASK:
                raise DimensionMismatch(f"a product exponent would exceed {MASK}")
            live.append((a.terms, a.content, b.terms, b.content))
    if not live:
        return MultiPoly.zero(nvars, field)
    if all(len(a) == 1 for a, _, _, _ in live):
        scaled = []
        for a, ca, b, cb in live:
            (ka, ta), = a.items()
            terms, content = field.scaled(b, cb, ta, ca, ka)
            scaled.append(MultiPoly(nvars, terms, field, content))
        return sum(scaled[1:], scaled[0])
    bits, den, packed = field.pack_pairs(live)
    # sums that cancel stay as 0 until `unpack_reduced` drops them
    sums: dict = {}
    get = sums.get
    for a, b in packed:
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                sums[k] = get(k, 0) + ca * cb
    terms, content = field.unpack_reduced(sums, bits, den)
    return MultiPoly(nvars, terms, field, content)


def _horner_pairs(terms: dict, content, i: int, powers: list, field) -> list:
    """The pairs (L_i^a, image of the terms with exponent a in variable i)
    whose sum of products is the image of the terms under x_j -> L_j, with
    powers[j] mapping each exponent built so far to L_j^a: the terms are
    those of a polynomial over `content` with exponent 0 in each variable
    before index i, each image is one `sum_of_products` of the pairs of the
    next variable (a scaled constant after the last one), and a power
    missing from powers[i] is built from the one below it and kept there."""
    n = len(powers)
    shift = (n - 1 - i) * LIMB
    step = (1 << (n * LIMB)) | (1 << shift)
    groups: dict = {}
    for k, c in terms.items():
        e = (k >> shift) & MASK
        groups.setdefault(e, {})[k - e * step] = c
    cache, pairs = powers[i], []
    for e in sorted(groups):
        for a in range(len(cache), e + 1):
            cache[a] = cache[a - 1] * cache[1]
        group = groups.pop(e)
        if i + 1 < n:
            image = sum_of_products(_horner_pairs(group, content, i + 1, powers, field),
                                    n, field)
        else:  # the one key left is 0
            group, scale = field.normalized(group, content)
            image = MultiPoly(n, group, field, scale)
        pairs.append((cache[e], image))
    return pairs


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i + 1}" for i in range(nvars))


def contact_order(f: MultiPoly, alpha: MultiPoly, m: int) -> int:
    """How many times the linear polynomial alpha divides f, counted up to m
    (m for f = 0, whose quotient is 0 again): the paper's contact order by its
    definition, stopping after m exact divisions or at the first that fails.
    A linear form is irreducible and `exact_divide` decides divisibility, so a
    count below m is the exact order.  `saito.contact_defect` decides order
    >= m by one division by alpha^m and calls this only for a failing entry's
    order; it stays the reference of that test."""
    for order in range(m):
        f = f.exact_divide(alpha)
        if f is None:
            return order
    return m
