"""Small exact matrices over polynomials or fractions num / q^e.

Everything here is sized by the group rank (<= 5 in practice), so one
memoized Laplace table of minors (`MinorTable`) gives both the determinant and
the adjugate.  A matrix keeps the table that its first `det` or `inverse`
forms, so no determinant of one matrix is formed twice.  The one inverse is
that of a polynomial matrix whose determinant is certified to be c * q^e for
a given denominator base q (a nonzero constant c without one; `unit_power`):
the adjugate times c^-1 over q^e, every entry exact, and a polynomial matrix
without a base.  Scalar matrices -- Gram and reflection matrices -- are
matrices of constant polynomials (`Matrix.from_scalars`), so they share the
same product, equality and determinant.

A product entry sum_t a_it b_tj is one packed sum of products, read back
once (`poly.sum_of_products`; `fraction.fraction_sum_of_products` when a
factor holds fractions), never l products and l - 1 sums.  A minor's Laplace
expansion sum_j +-e_rj M_rj is the same kernel call on the signed pairs, and
`_kernel` chooses the kernel for both.
"""

from __future__ import annotations

from .errors import DimensionMismatch, NonPolynomialEntry, SingularMatrix
from .field import FieldContext
from .fraction import FactoredFraction, PowerBase, fraction_sum_of_products
from .poly import MultiPoly, sum_of_products


class Matrix:
    """Rectangular matrix with MultiPoly or FactoredFraction entries."""

    __slots__ = ("rows", "cols", "entries", "_minors")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatch("empty matrix")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise DimensionMismatch("ragged rows")
        if any(isinstance(e, FactoredFraction) for row in entries for e in row):
            entries = tuple(
                tuple(e if isinstance(e, FactoredFraction)
                      else FactoredFraction.from_poly(e) for e in row)
                for row in entries)
        self.entries = entries
        self.rows = len(entries)
        self.cols = cols
        self._minors = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n: int, nvars: int, field: FieldContext) -> "Matrix":
        one = MultiPoly.const(nvars, 1, field)
        zero = MultiPoly.zero(nvars, field)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_scalars(cls, scalar_rows, nvars: int, field: FieldContext) -> "Matrix":
        return cls([[MultiPoly.const(nvars, field.coerce(v), field) for v in row]
                    for row in scalar_rows])

    # -- structure -------------------------------------------------------------

    @property
    def is_fraction_mode(self) -> bool:
        return isinstance(self.entries[0][0], FactoredFraction)

    def _zero_one(self):
        sample = self.entries[0][0]
        nvars = sample.nvars
        field = sample.field
        zero = MultiPoly.zero(nvars, field)
        one = MultiPoly.const(nvars, 1, field)
        if self.is_fraction_mode:
            return FactoredFraction.from_poly(zero), FactoredFraction.from_poly(one)
        return zero, one

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.entries)))

    def map_entries(self, fn) -> "Matrix":
        return Matrix([[fn(e) for e in row] for row in self.entries])

    def simplify(self) -> "Matrix":
        if not self.is_fraction_mode:
            return self
        return self.map_entries(lambda e: e.simplify())

    def column(self, j: int):
        return tuple(row[j] for row in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __hash__(self):
        raise TypeError("matrices are not hashable")

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in sub")
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def __mul__(self, other):
        """The matrix product (module docstring), or every entry times a
        polynomial, fraction or scalar."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch("inner dimensions do not match")
            entry = _kernel(self.entries[0][0],
                            self.is_fraction_mode or other.is_fraction_mode)
            cols = list(zip(*other.entries))
            return Matrix([[entry(zip(row, col)) for col in cols]
                           for row in self.entries])
        return self.map_entries(lambda e: e * other)

    __rmul__ = __mul__

    # -- determinant / inverse ------------------------------------------------------

    def det(self):
        """From the matrix's `MinorTable`, formed on first use and kept."""
        if self._minors is None:
            self._minors = MinorTable(self)
        return self._minors.det()

    def inverse(self, base: PowerBase | None = None) -> "Matrix":
        """Adjugate over determinant, for a polynomial matrix.

        The determinant is certified to be c * q^e with c a nonzero constant
        and q the base's polynomial (c alone without a base); the entries are
        (adj * c^-1) / q^e, and without a base the polynomials adj * c^-1.
        Any other determinant raises NonPolynomialEntry.
        """
        if self.is_fraction_mode:
            raise TypeError("only polynomial matrices are inverted")
        det = self.det()
        c, e = unit_power(det, base)
        inv = self._minors.adjugate() * det.field.invert(c)
        return inv if base is None else inv.map_entries(
            lambda a: FactoredFraction(a, base, e))

    def __repr__(self):
        body = "; ".join(", ".join(e.render() for e in row) for row in self.entries)
        return f"Matrix[{body}]"


def unit_power(det: MultiPoly, base: PowerBase | None = None):
    """(c, e) with det = c q^e, c a nonzero constant and q the base's
    polynomial (e = 0 without a base): the premise of `Matrix.inverse`.  A
    zero det raises SingularMatrix, any other NonPolynomialEntry."""
    if not det:
        raise SingularMatrix("matrix has zero determinant")
    e = 0 if base is None else det.total_degree() // base.q.total_degree()
    c = det.constant_quotient([base.power(e)] if e else [])
    if c is None:
        raise NonPolynomialEntry(
            "determinant is not a nonzero constant" if base is None else
            "determinant is not a nonzero constant times a power of q")
    return c, e


class MinorTable:
    """Memoized minors of a square matrix.

    `minor(rows, cols)` is the minor on a row and a column bitmask, expanded by
    Laplace along its lowest row as one sum of products of signed entries and
    smaller minors; every minor is computed once and shared by the
    determinant and all l^2 cofactors of the adjugate.
    """

    __slots__ = ("entries", "full", "one", "sum", "memo")

    def __init__(self, m: Matrix):
        if m.rows != m.cols:
            raise DimensionMismatch("minors of a non-square matrix")
        self.entries = m.entries
        self.full = (1 << m.rows) - 1
        self.one = m._zero_one()[1]
        self.sum = _kernel(self.one, m.is_fraction_mode)
        self.memo: dict = {}

    def minor(self, rows: int, cols: int):
        if not rows:
            return self.one
        r = (rows & -rows).bit_length() - 1
        rest = rows & ~(1 << r)
        if not rest:
            return self.entries[r][cols.bit_length() - 1]
        cached = self.memo.get((rows, cols))
        if cached is not None:
            return cached
        columns = [j for j in range(len(self.entries)) if cols >> j & 1]
        pairs = [(e if pos % 2 == 0 else -e, self.minor(rest, cols & ~(1 << j)))
                 for pos, j in enumerate(columns) if (e := self.entries[r][j])]
        self.memo[(rows, cols)] = value = self.sum(pairs)
        return value

    def det(self):
        return self.minor(self.full, self.full)

    def adjugate(self) -> Matrix:
        """Transposed signed cofactors."""
        full = self.full

        def cofactor(i, j):
            m = self.minor(full & ~(1 << i), full & ~(1 << j))
            return m if (i + j) % 2 == 0 else -m

        n = len(self.entries)
        return Matrix([[cofactor(j, i) for j in range(n)] for i in range(n)])


def _kernel(sample, fractions: bool):
    """sum a * b over (a, b) pairs with the sample entry's variables and
    field: `fraction_sum_of_products` when an operand may be a fraction, else
    `poly.sum_of_products`."""
    kernel = fraction_sum_of_products if fractions else sum_of_products
    return lambda pairs: kernel(pairs, sample.nvars, sample.field)
