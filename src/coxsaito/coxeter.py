"""Realizations of finite irreducible Coxeter groups and their basic invariants.

Built-in families: A, B, D in rational coordinates and the dihedral groups
I2(m) over Q(2cos(pi/2m)).  Everything a downstream computation needs --
Gram matrix, hyperplane forms, a generating set of reflections, exponents --
is constructed explicitly and cross-checked at build time, so a datum that
constructs successfully already satisfies all of its structural invariants.

Hyperplane forms are normalized so their first nonzero coefficient is 1; all
downstream checks are invariant under rescaling, the normalization only fixes
what reports print.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .errors import (CoxsaitoError, JacobianCriterionFailed, NotInvariant,
                     RankOutOfRange, SingularMatrix, UnsupportedType,
                     WrongDegrees)
from .field import RATIONALS, FieldContext
from .matrix import Matrix
from .poly import MultiPoly

# minimal polynomial of 2cos(pi/(2m)), ascending coefficients
_I2_MINPOLY = {
    3: (-3, 0, 1),
    4: (2, 0, -4, 0, 1),
    5: (5, 0, -5, 0, 1),
    6: (1, 0, -4, 0, 1),
    7: (-7, 0, 14, 0, -7, 0, 1),
    8: (2, 0, -16, 0, 20, 0, -8, 0, 1),
    9: (-3, 0, 9, 0, -6, 0, 1),
    10: (1, 0, -12, 0, 19, 0, -8, 0, 1),
    11: (-11, 0, 55, 0, -77, 0, 44, 0, -11, 0, 1),
    12: (1, 0, -16, 0, 20, 0, -8, 0, 1),
}


def _normalize_form(coeffs, field: FieldContext):
    """(lead, form / lead) for the first nonzero coefficient `lead`."""
    lead = next((c for c in coeffs if c), None)
    if lead is None:
        raise CoxsaitoError("zero hyperplane form")
    inv = field.invert(lead)
    return lead, tuple(c * inv for c in coeffs)


def _rank_is_one(rows) -> bool:
    """A scalar matrix has rank 1: some entry is nonzero, no 2x2 minor is."""
    if not any(v for row in rows for v in row):
        return False
    n = len(rows)
    return all(rows[i][j] * rows[k][m] == rows[i][m] * rows[k][j]
               for i in range(n) for k in range(i + 1, n)
               for j in range(n) for m in range(j + 1, n))


def _orbit_closure(seeds, perms) -> set:
    """The form indices reached from `seeds` under the permutations `perms`."""
    reached = set(seeds)
    frontier = list(reached)
    while frontier:
        k = frontier.pop()
        for perm in perms:
            if perm[k] not in reached:
                reached.add(perm[k])
                frontier.append(perm[k])
    return reached


class CoxeterDatum:
    """A concrete reflection-group realization.

    Constructing a datum verifies all structural invariants (each generator
    an involution preserving the Gram matrix and the reflection in a listed
    form, arrangement closure, the generators' orbits of their forms
    covering every form, exponent count); a successfully built datum can be
    trusted by every downstream module.

    `_check` also certifies `n_generating`, the length of the shortest
    prefix of the generator list whose reflecting forms' orbits under the
    prefix alone cover every form.  The reflection in a form w(alpha_s), w
    in the prefix's group, is w s w^-1, so every listed generator lies in
    that group and the prefix generates W: W-invariance is certified on the
    prefix (`first_moved`).  A witness is unchanged, because the first
    listed generator that moves a polynomial comes no later than the first
    prefix generator that does.

    `_check` keeps the orbits of that group on the forms (`orbits`), each a
    sorted tuple of form indices, in the order of their least members.

    `_check` also records, per generator s, the scalar c_s with
    Q o s = c_s * Q for the arrangement polynomial Q: s maps each form to
    c_H times a form, and c_s is the product of the c_H.
    """

    __slots__ = ("type_label", "rank", "field", "gram", "forms", "generators",
                 "subst", "exponents", "coxeter_number", "q_multipliers",
                 "n_generating", "orbits", "_form_polys", "_q")

    def __init__(self, type_label: str, rank: int, field: FieldContext,
                 gram, forms, generators, exponents):
        self.type_label = type_label
        self.rank = rank
        self.field = field
        self.gram = [tuple(field.coerce(v) for v in row) for row in gram]
        self.forms = [_normalize_form([field.coerce(c) for c in f], field)[1]
                      for f in forms]
        # a generator maps the coefficient vector of a linear form to M * vector;
        # the induced substitution on polynomials uses the transpose
        self.generators = [[tuple(field.coerce(v) for v in row) for row in g]
                           for g in generators]
        self.exponents = tuple(int(e) for e in exponents)
        self._form_polys = None
        self._q = None
        self._check()
        # the rows of the substitution a generator induces on polynomials
        self.subst = [tuple(zip(*g)) for g in self.generators]

    def _check(self):
        ell, field = self.rank, self.field
        if ell < 1:
            raise RankOutOfRange("rank must be >= 1")
        if len(self.exponents) != ell:
            raise CoxsaitoError(
                f"expected {ell} exponents, got {len(self.exponents)}")
        self.coxeter_number = self.exponents[-1] + 1
        if len(self.gram) != ell or any(len(r) != ell for r in self.gram):
            raise CoxsaitoError("Gram matrix must be rank x rank")
        gram = Matrix.from_scalars(self.gram, ell, field)
        if gram != gram.transpose():
            raise CoxsaitoError("Gram matrix must be symmetric")
        if not gram.det():
            raise SingularMatrix("scalar matrix is singular")
        if list(self.exponents) != sorted(self.exponents):
            raise CoxsaitoError("exponents must be ascending")
        h = self.coxeter_number
        if 2 * len(self.forms) != ell * h or sum(self.exponents) != len(self.forms):
            raise CoxsaitoError("hyperplane count must equal sum of exponents = rank*h/2")
        form_index = {f: i for i, f in enumerate(self.forms)}
        if len(form_index) != len(self.forms):
            # the product certificate below needs a permutation of the forms
            raise CoxsaitoError("hyperplane forms must be distinct")
        ident = Matrix.identity(ell, ell, field)
        self.q_multipliers = []
        roots, perms = [], []
        for idx, g in enumerate(self.generators):
            gm = Matrix.from_scalars(g, ell, field)
            if gm * gm != ident:
                raise CoxsaitoError(f"generator {idx} is not an involution")
            if gm.transpose() * gram * gm != gram:
                raise CoxsaitoError(f"generator {idx} does not preserve the Gram matrix")
            if not _rank_is_one([[v - 1 if i == j else v for j, v in enumerate(row)]
                                 for i, row in enumerate(g)]):
                raise CoxsaitoError(
                    f"generator {idx} is not a reflection: rank(M - I) != 1")
            # s(alpha_H) = c_H * alpha_pi(H); Q o s = prod(c_H) * Q when pi
            # permutes the forms
            perm = []
            root = None
            product = field.one
            for k, f in enumerate(self.forms):
                image = [sum((g[j][i] * f[i] for i in range(ell)), field.coerce(0))
                         for j in range(ell)]
                lead, image = _normalize_form(image, field)
                if image not in form_index:
                    raise CoxsaitoError(
                        f"generator {idx} does not fix the arrangement setwise")
                perm.append(form_index[image])
                if perm[-1] == k and lead == -1:
                    root = k
                product = product * lead
            if len(set(perm)) != len(self.forms):
                raise CoxsaitoError(
                    f"generator {idx} does not fix the arrangement setwise")
            if root is None:
                raise CoxsaitoError(
                    f"generator {idx} is not the reflection in a hyperplane form")
            roots.append(root)
            perms.append(perm)
            self.q_multipliers.append(product)
        # every hyperplane of a reflection group is W-conjugate to the
        # hyperplane of a generator; the shortest prefix whose orbits already
        # cover the forms generates W
        count = len(self.forms)
        self.n_generating = next(
            (n for n in range(1, len(perms) + 1)
             if len(_orbit_closure(roots[:n], perms[:n])) == count), None)
        if self.n_generating is None:
            missed = count - len(_orbit_closure(roots, perms))
            raise CoxsaitoError(
                "the generators' orbits of their reflecting forms miss "
                f"{missed} of {count} hyperplane forms")
        prefix, orbits, seen = perms[:self.n_generating], [], set()
        for k in range(count):
            if k not in seen:
                orbits.append(tuple(sorted(_orbit_closure([k], prefix))))
                seen.update(orbits[-1])
        self.orbits = tuple(orbits)

    # -- derived data ------------------------------------------------------------

    def label(self) -> str:
        if self.type_label == "I2":
            return f"I2({self.coxeter_number})"
        if self.type_label in ("A", "B", "D"):
            return f"{self.type_label}{self.rank}"
        return f"custom:{self.type_label}"

    def form_poly(self, index: int) -> MultiPoly:
        return self.form_polys()[index]

    def form_polys(self) -> list[MultiPoly]:
        if self._form_polys is None:
            unit = _unit_forms(self.rank)
            self._form_polys = [
                MultiPoly.from_terms(self.rank, zip(unit, f), self.field)
                for f in self.forms]
        return self._form_polys

    def form_product(self) -> MultiPoly:
        """Q, the product of the hyperplane forms, built once."""
        if self._q is None:
            self._q = prod(self.form_polys())
        return self._q


class BasicInvariants:
    """An ordered, validated system of basic invariants P_1..P_l."""

    __slots__ = ("polys", "validated", "source")

    def __init__(self, polys, validated: bool, source: str = "builtin"):
        self.polys = tuple(polys)
        self.validated = validated
        self.source = source


# -- datum builders ---------------------------------------------------------------


def is_dihedral_label(type_label: str) -> bool:
    """True for the labels that name the dihedral family: I, I2, I2(m)."""
    return type_label.upper() in ("I", "I2", "I2(M)")


def series_builder(type_label: str):
    """The datum builder of the A, B or D series a label names, by rank."""
    builder = {"A": _build_a, "B": _build_b, "D": _build_d}.get(type_label.upper())
    if builder is None:
        raise UnsupportedType(f"unsupported type {type_label!r}")
    return builder


def build_datum(type_label: str, rank_or_m: int) -> CoxeterDatum:
    if is_dihedral_label(type_label):
        return _build_i2(rank_or_m)
    return series_builder(type_label)(rank_or_m)


def _unit_forms(ell):
    return [[1 if j == i else 0 for j in range(ell)] for i in range(ell)]


def _swap_matrix(ell, i, j):
    m = _unit_forms(ell)
    m[i][i] = m[j][j] = 0
    m[i][j] = m[j][i] = 1
    return m


def _build_a(ell: int) -> CoxeterDatum:
    if ell < 1:
        raise RankOutOfRange("A requires rank >= 1")
    if ell == 1:
        return CoxeterDatum("A", 1, RATIONALS, [[1]], [[1]], [[[-1]]], (1,))
    gram = [[Fraction(1 if i == j else 0) - Fraction(1, ell + 1)
             for j in range(ell)] for i in range(ell)]
    forms = []
    for i in range(ell):
        for j in range(i + 1, ell):
            f = [0] * ell
            f[i], f[j] = 1, -1
            forms.append(f)
    for i in range(ell):
        f = [1] * ell
        f[i] = 2
        forms.append(f)
    gens = [_swap_matrix(ell, i, i + 1) for i in range(ell - 1)]
    # transposition with the projected-out coordinate: X_l -> -(X_1+...+X_l)
    last = _unit_forms(ell)
    for r in range(ell):
        last[r][ell - 1] = -1
    gens.append(last)
    return CoxeterDatum("A", ell, RATIONALS, gram, forms, gens,
                        tuple(range(1, ell + 1)))


def _build_b(ell: int) -> CoxeterDatum:
    if ell < 1:
        raise RankOutOfRange("B requires rank >= 1")
    gram = _unit_forms(ell)
    forms = _unit_forms(ell)
    for i in range(ell):
        for j in range(i + 1, ell):
            for sign in (-1, 1):
                f = [0] * ell
                f[i], f[j] = 1, sign
                forms.append(f)
    gens = [_swap_matrix(ell, i, i + 1) for i in range(ell - 1)]
    flip = _unit_forms(ell)
    flip[ell - 1][ell - 1] = -1
    gens.append(flip)
    return CoxeterDatum("B", ell, RATIONALS, gram, forms, gens,
                        tuple(range(1, 2 * ell, 2)))


def _build_d(ell: int) -> CoxeterDatum:
    if ell < 3:
        raise RankOutOfRange("D requires rank >= 3")
    gram = _unit_forms(ell)
    forms = []
    for i in range(ell):
        for j in range(i + 1, ell):
            for sign in (-1, 1):
                f = [0] * ell
                f[i], f[j] = 1, sign
                forms.append(f)
    gens = [_swap_matrix(ell, i, i + 1) for i in range(ell - 1)]
    signed_swap = _unit_forms(ell)
    signed_swap[ell - 2][ell - 2] = signed_swap[ell - 1][ell - 1] = 0
    signed_swap[ell - 2][ell - 1] = signed_swap[ell - 1][ell - 2] = -1
    gens.append(signed_swap)
    exponents = sorted(list(range(1, 2 * ell - 2, 2)) + [ell - 1])
    return CoxeterDatum("D", ell, RATIONALS, gram, forms, gens, tuple(exponents))


def _build_i2(m: int) -> CoxeterDatum:
    if m < 3:
        raise RankOutOfRange("I2(m) requires m >= 3")
    if m not in _I2_MINPOLY:
        raise UnsupportedType(f"no minimal-polynomial preset for I2({m}); presets cover m <= 12")
    field = FieldContext(_I2_MINPOLY[m], f"2cos(pi/{2 * m})")
    gamma = field.generator()
    # v[k] = 2cos(k*pi/(2m)) by the three-term recurrence
    v = [field.coerce(2), gamma]
    for _ in range(2 * m):
        v.append(gamma * v[-1] - v[-2])
    half = Fraction(1, 2)

    def cos_m(k):  # cos(k*pi/m)
        return v[2 * k] * half

    def sin_m(k):  # sin(k*pi/m)
        return v[abs(m - 2 * k)] * half

    forms = [[sin_m(k), -cos_m(k)] for k in range(m)]
    gens = [
        [[field.one, field.coerce(0)], [field.coerce(0), -field.one]],
        [[cos_m(2), sin_m(2)], [sin_m(2), -cos_m(2)]],
    ]
    gram = _unit_forms(2)
    return CoxeterDatum("I2", 2, field, gram, forms, gens, (1, m - 1))


# -- invariants ---------------------------------------------------------------------


def _power_sum(ell, k, field):
    return MultiPoly.from_terms(
        ell, [([k if j == i else 0 for j in range(ell)], 1) for i in range(ell)], field)


def builtin_invariants(datum: CoxeterDatum) -> BasicInvariants:
    t = datum.type_label
    ell = datum.rank
    field = datum.field
    if t == "A":
        if ell == 1:
            x = MultiPoly.variable(1, 0, field)
            polys = [x * x]
        else:
            total = MultiPoly.from_terms(
                ell, [([1 if j == i else 0 for j in range(ell)], 1) for i in range(ell)],
                field)
            polys = []
            for k in range(2, ell + 2):
                p = _power_sum(ell, k, field) + (total ** k) * ((-1) ** k)
                polys.append(p)
    elif t == "B":
        polys = [_power_sum(ell, 2 * k, field) for k in range(1, ell + 1)]
    elif t == "D":
        elementary = MultiPoly.from_terms(ell, [([1] * ell, 1)], field)
        polys = [_power_sum(ell, 2 * k, field) for k in range(1, ell)]
        polys.append(elementary)
        polys.sort(key=lambda p: p.total_degree())
    elif t == "I2":
        m = datum.coxeter_number
        x, y = (MultiPoly.variable(2, i, field) for i in (0, 1))
        p1 = x * x + y * y
        p2 = MultiPoly.from_terms(
            2, [((m - 2 * j, 2 * j), (-1) ** j * comb(m, 2 * j))
                for j in range(m // 2 + 1)], field)
        polys = [p1, p2]
    else:
        raise UnsupportedType(
            f"no invariant catalogue for type {datum.type_label!r}; "
            "supply an invariants file")
    return validate_invariants(datum, polys)


def jacobian(polys, nvars: int) -> Matrix:
    """J[i][j] = d(polys[j]) / d(x_i)."""
    return Matrix([[p.partial(i) for p in polys] for i in range(nvars)])


def first_moved(datum: CoxeterDatum, polys):
    """(generator index, poly index) of the first polynomial moved, scanning
    generator by generator over the generating prefix, or None when every
    polynomial is W-invariant."""
    for idx, s in enumerate(datum.subst[:datum.n_generating]):
        for j, p in enumerate(polys):
            if p.subst_linear(s) != p:
                return idx, j
    return None


def validate_invariants(datum: CoxeterDatum, polys,
                        source: str = "builtin") -> BasicInvariants:
    """Certify candidate basic invariants; raises a ValidationError subclass."""
    polys = list(polys)
    ell = datum.rank
    if len(polys) != ell:
        raise WrongDegrees(f"expected {ell} polynomials, got {len(polys)}")

    def check_degrees(degree):
        for j, p in enumerate(polys):
            want = datum.exponents[j] + 1
            if degree(p) != want:
                raise WrongDegrees(f"P_{j + 1} must be homogeneous of degree {want}")

    # total degrees before any substitution, whose cost grows with the degree
    check_degrees(MultiPoly.total_degree)
    moved = first_moved(datum, polys)
    if moved is not None:
        idx, j = moved
        raise NotInvariant(f"P_{j + 1} is not invariant under generator {idx}")
    check_degrees(MultiPoly.homogeneous_degree)
    # det J(P) = c Q by one exact division by Q, the product of the forms
    if jacobian(polys, ell).det().constant_quotient([datum.form_product()]) is None:
        raise JacobianCriterionFailed(
            "det J(P) is not a nonzero constant multiple of the arrangement polynomial")
    return BasicInvariants(polys, True, source)


def anti_invariant_Q(datum: CoxeterDatum) -> MultiPoly:
    """Product of all hyperplane forms (`CoxeterDatum.form_product`),
    certified anti-invariant on every call.

    Q o s = c_s * Q with c_s from `CoxeterDatum.q_multipliers`, so Q is
    anti-invariant exactly when c_s is -1 for every s of the generating
    prefix (w -> c_w is then det); nothing is substituted.
    """
    for idx, c in enumerate(datum.q_multipliers[:datum.n_generating]):
        if c != -1:
            raise CoxsaitoError(
                f"arrangement polynomial is not anti-invariant under generator {idx}")
    return datum.form_product()


# -- Poincare series -----------------------------------------------------------------


def _uni_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poincare_closed_form(generator_degrees, ring_degrees):
    """(sum_j t^g_j) / prod_i (1 - t^d_i) as a pair of integer polynomials."""
    if generator_degrees:
        num = [0] * (max(generator_degrees) + 1)
        for g in generator_degrees:
            num[g] += 1
        while num and num[-1] == 0:
            num.pop()
        num = tuple(num)
    else:
        num = ()
    den = (1,)
    for d in ring_degrees:
        factor = [0] * (d + 1)
        factor[0], factor[d] = 1, -1
        den = _uni_mul(den, tuple(factor))
    return num, den


def poincare_equal(a, b) -> bool:
    """Equality of two closed-form series by cross multiplication."""
    return _uni_mul(a[0], b[1]) == _uni_mul(b[0], a[1])
