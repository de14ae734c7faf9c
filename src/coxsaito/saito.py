"""Jacobian, metric, primitive derivation, connection and basis machinery.

Everything lives in the localization S[Q^-1]: each value is a fraction
num / q^e over the context's one denominator base q, the monic det J(P) = c Q;
J(P) and G are inverted over that base and J(D^k[X]) through B^(k) (see
`jdkx_inv`), which Lemma 2.1 (4) names and one polynomial identity
certifies (see `_certified_bk`): J(D^k[X]) itself, k >= 2, is formed only
on the fallback of a rejected candidate.  Whenever a theorem guarantees a
matrix is polynomial, the numerators are divided exactly by the powers of q
and a failure aborts with NonPolynomialEntry.  That certification is a free
integrity check on the entire pipeline.

All row/column conventions follow the row-vector style of the source
identities: a tuple of derivations is a row, coefficient matrices multiply it
from the right, and a single derivation's coefficients form a column.  The
rows the theorems speak of, xi^(m) (`xi_basis`) and nabla_D^t xi^(m)
(`nabla_xi`), are each built once here, and so is their contact order along
the hyperplanes (`contact_defect`).

A derivation is held by its coefficients in the coordinate frame d/dX_i and
nowhere else, and acts on functions as its coefficient row times their
Jacobian: theta(f) = sum_i c_i df/dX_i is one matrix product
(`_apply_coeffs`), each value one fused sum of products.  D and d/dP_k are
the rows of J(P)^-1, so D^k[X], `nabla_D` and the bracket are all that
product, and so is d/dP_k of a matrix in every requested direction at once
(`dp_matrix`): a list of coefficient rows is a row of derivations.  nabla is
the flat connection of V, whose Christoffel symbols vanish in the
coordinates X, so `nabla_D` applies D to each coefficient.  The invariant
frame d/dP_j appears only where a theorem is stated in it: `verify`
multiplies coefficient columns by J(P)^T for Theorem 2.4 (2), and for
Theorem 2.4 (1) and Proposition 2.6 only when their two sides differ.
"""

from __future__ import annotations

from .coxeter import BasicInvariants, CoxeterDatum, jacobian
from .errors import (CoxsaitoError, NonPolynomialCoefficients,
                     NonPolynomialEntry, SingularMatrix)
from .fraction import FactoredFraction, PowerBase
from .matrix import Matrix
from .poly import MultiPoly, contact_order


class PolyDerivation:
    """A derivation sum_i c_i d/dX_i, held by its coordinate-frame coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(
            c if isinstance(c, FactoredFraction) else FactoredFraction.from_poly(c)
            for c in coeffs)

    def poly_coeffs(self) -> list[MultiPoly]:
        out = []
        for c in self.coeffs:
            p = c.as_poly()
            if p is None:
                raise NonPolynomialCoefficients(
                    "derivation has a non-polynomial coefficient")
            out.append(p)
        return out

    def is_zero(self) -> bool:
        return all(c.simplify().is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, PolyDerivation):
            return NotImplemented
        return (len(self.coeffs) == len(other.coeffs)
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))

    def render(self, names=None) -> str:
        from .poly import default_names
        names = names or default_names(len(self.coeffs))
        parts = [f"({c.render(names)})*d/d{names[i]}"
                 for i, c in enumerate(self.coeffs) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"PolyDerivation({self.render()})"


def derivation_degree(theta: PolyDerivation):
    """Homogeneity degree of a derivation; None if inhomogeneous."""
    degs = set()
    for c in theta.coeffs:
        s = c.simplify()
        if s.is_zero():
            continue
        d = s.homogeneous_degree()
        if d is None:
            return None
        degs.add(d)
    if len(degs) != 1:
        return None
    return degs.pop()


class SaitoContext:
    """Cached data for one (group realization, basic invariants) pair.

    The caches are plain dicts filled on demand; fills are idempotent and
    value-identical, so a context can be shared across concurrent readers.
    Each construction has one table, keyed by k, by m for `xi_table` and
    `contact_table` (`contact_defect`, which keeps the row it judged), and
    by (m, t) for `nabla_xi_table` (nabla_D^t xi^(m)); the last two are
    filled from `xi_table`.  Every cached derivation is in the coordinate
    frame; J(P)^-1 serves the chain rule (`dp_matrix`), and J(P) the
    invariant-frame matrices of `verify`.
    """

    __slots__ = ("datum", "invariants", "jac_P", "jac_P_inv", "gram_poly",
                 "metric_G", "dkx_table", "jdkx_table", "jdkx_inv_table",
                 "bk_table", "christoffel_table", "xi_table", "nabla_xi_table",
                 "contact_table", "form_bases", "q_base", "_bk_memo",
                 "_metric_G_inv", "_lemma21_numerators")

    def __init__(self, datum: CoxeterDatum, invariants: BasicInvariants):
        if not invariants.validated:
            raise CoxsaitoError("invariants must be validated before use")
        self.datum = datum
        self.invariants = invariants
        ell = datum.rank
        self.jac_P = jacobian(invariants.polys, ell)
        self.q_base = PowerBase(self.jac_P.det())
        self.jac_P_inv = self.jac_P.inverse(self.q_base)
        self.gram_poly = Matrix.from_scalars(datum.gram, ell, datum.field)
        self.metric_G = self.jac_P.transpose() * self.gram_poly * self.jac_P
        xs = tuple(FactoredFraction.from_poly(
            MultiPoly.variable(ell, i, datum.field)) for i in range(ell))
        self.dkx_table: dict = {0: xs}
        self.jdkx_table: dict = {}
        self.jdkx_inv_table: dict = {0: Matrix.identity(ell, ell, datum.field)}
        self.bk_table: dict = {0: Matrix.identity(ell, ell, datum.field)}
        self._bk_memo: dict = {}
        self.christoffel_table: dict = {}
        self.xi_table: dict = {}
        self.nabla_xi_table: dict = {}
        self.contact_table: dict = {}
        self.form_bases = [PowerBase(alpha) for alpha in datum.form_polys()]
        self._metric_G_inv = self._lemma21_numerators = None

    @property
    def rank(self) -> int:
        return self.datum.rank

    def metric_G_inv(self) -> Matrix:
        """G^-1 over q, built once, for the per-k fallback of `lemma22.13`."""
        if self._metric_G_inv is None:
            self._metric_G_inv = self.metric_G.inverse(self.q_base)
        return self._metric_G_inv

    def lemma21_numerators(self):
        """(q (J(P)^T A)^-1, q d): the numerators over q of A^-1 J(P)^-T and of
        d, the row of D (the last row of J(P)^-1), as polynomial matrices for
        the identity of `_certified_bk`; built once, None for a singular A."""
        if self._lemma21_numerators is None and self.gram_poly.det():
            q_inv = self.jac_P_inv * self.q_base.q
            self._lemma21_numerators = (
                _certify_poly_matrix(self.gram_poly.inverse() * q_inv.transpose(),
                                     "q (J(P)^T A)^-1"),
                _certify_poly_matrix(Matrix(q_inv.entries[-1:]), "q d"))
        return self._lemma21_numerators


def build_context(datum: CoxeterDatum, invariants: BasicInvariants) -> SaitoContext:
    return SaitoContext(datum, invariants)


# -- the primitive derivation and its powers -------------------------------------


def _apply_coeffs(rows, fs) -> tuple:
    """theta_r(f) = sum_i rows[r][i] df/dX_i for every coefficient row r and
    every f in fs, simplified: the row of derivations times the Jacobian
    J(fs), one matrix product, so each value is one fused sum of products."""
    return (Matrix(rows) * jacobian(fs, len(rows[0]))).simplify().entries


def dp_matrix(m: Matrix, ks, ctx: SaitoContext) -> list[Matrix]:
    """[d/dP_k m for k in ks], entrywise, from one Jacobian of m's entries and
    one product with rows ks of J(P)^-1; k is 1-based, and k = l is the
    primitive derivation D."""
    rows = _apply_coeffs([ctx.jac_P_inv.entries[k - 1] for k in ks],
                         [e for row in m.entries for e in row])
    return [Matrix([flat[i:i + m.cols] for i in range(0, len(flat), m.cols)])
            for flat in rows]


def dkx(k: int, ctx: SaitoContext):
    """The vector D^k[X] of fractions over the context's base, simplified;
    cached: the row of D (the last row of J(P)^-1) times J(D^(k-1)[X]).
    D[X] is the primitive derivation; k >= 2 is formed only on the fallback
    of `_certified_bk`."""
    if k < 0:
        raise ValueError("k must be >= 0")
    table = ctx.dkx_table
    if k not in table:
        table[k] = (Matrix(ctx.jac_P_inv.entries[-1:])
                    * jdkx(k - 1, ctx)).simplify().entries[0]
    return table[k]


def jdkx(k: int, ctx: SaitoContext) -> Matrix:
    """Jacobian matrix of D^k[X]: entry (i, j) = d(D^k[X_j]) / dX_i; cached
    and not simplified, each entry over q^(2k) as `_certified_bk` reads it.
    J(D^k[X]), k >= 2, is formed only on the fallback of `_certified_bk`."""
    table = ctx.jdkx_table
    if k not in table:
        table[k] = jacobian(dkx(k, ctx), ctx.rank)
    return table[k]


# -- B^(k), the inverses of J(D^k[X]), Christoffel matrices ---------------------


def _certify_poly_matrix(m: Matrix, what: str) -> Matrix:
    out = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            e = m[i, j]
            p = e.as_poly() if isinstance(e, FactoredFraction) else e
            if p is None:
                raise NonPolynomialEntry(
                    f"{what} entry ({i + 1},{j + 1}) is not polynomial: {e.render()}")
            row.append(p)
        out.append(row)
    return Matrix(out)


def _lemma21_identity(rest: Matrix, k: int, ctx: SaitoContext) -> bool:
    """Whether B^(1) + rest is B^(k), for k >= 2, by one polynomial identity
    (see `_certified_bk`); False for a singular A."""
    numerators = ctx.lemma21_numerators()
    if numerators is None:
        return False
    l_q, d_q = numerators
    n, ell = jdkx_inv(k - 1, ctx), ctx.rank
    flat = _apply_coeffs(d_q.entries, [e for row in n.entries for e in row])[0]
    q_dn = Matrix([flat[i:i + ell] for i in range(0, ell * ell, ell)])
    return n * (l_q * rest) == q_dn * ctx.jac_P


def _lemma21_candidate(k: int, ctx: SaitoContext):
    """C = B^(k-1) + B^(1) + (B^(1))^T (Lemma 2.1 (4)) for k >= 2 if
    `_lemma21_identity` accepts C - B^(1), else None.  An error while
    forming C or the identity counts as a rejection, so that the product
    route raises it, in its own order."""
    try:
        b1 = _certified_bk(1, ctx)
        rest = _certified_bk(k - 1, ctx) + b1.transpose()
        return rest + b1 if _lemma21_identity(rest, k, ctx) else None
    except CoxsaitoError:
        return None


def _certified_bk(k: int, ctx: SaitoContext) -> Matrix:
    """B^(k) for k >= 1, built once per context into a private memo.

    For k >= 2 the candidate C of Lemma 2.1 (4) is decided in polynomials
    (`_lemma21_candidate`).  Write M_j = J(D^j[X]), N = M_(k-1)^-1
    (`jdkx_inv(k - 1)`), d the row of D, L = (J(P)^T A)^-1, and L~ = q L,
    d~ = q d their numerators (`lemma21_numerators`).  D^k[X] = d M_(k-1) and mixed
    partials commute, so M_k = J(d) M_(k-1) + D[M_(k-1)]; D[M] N = -M D[N]
    since M N = I; and J(d) J(P) = -L B^(1) is the definition of B^(1).  The
    definition of B^(k), M_k = -L B^(k) J(P)^-1 M_(k-1), times N J(P) on the
    right and then N on the left, becomes N L (B^(k) - B^(1)) = D[N] J(P);
    N and L are invertible, so C = B^(k) exactly when

        N L~ (C - B^(1)) == (d~ J(N)) J(P),

    that is N L~ (B^(k-1) + (B^(1))^T) for the candidate, where d~ J(N) is
    q D[N] as an l x l matrix: one Jacobian, of N, per level.  The lemma is
    not assumed, so `lemma21.4` still tests it.  On the accepting path
    M_k = -L C J(P)^-1 M_(k-1) with L and J(P)^-1 over q and C polynomial,
    so by induction from M_1 every entry of M_k is over q^e with e <= 2k:
    the premise the product route scans.

    Otherwise (k = 1, a singular A, a rejected candidate) J(D^k[X]) is
    formed -- for k >= 2 only here -- and each entry must have a
    denominator q^e with e <= 2k, as the chain rule gives; a foreign
    denominator or a larger exponent raises NonPolynomialEntry.  Then the
    defining product is formed, each entry num / q^E certified by one exact
    division by the cached q^E.
    """
    memo = ctx._bk_memo
    if k not in memo:
        bk = _lemma21_candidate(k, ctx) if k > 1 else None
        if bk is None:
            jd = jdkx(k, ctx)
            for i in range(ctx.rank):
                for j in range(ctx.rank):
                    e = jd[i, j]
                    if e.exp and e.base.q != ctx.q_base.q:
                        raise NonPolynomialEntry(
                            f"J(D^{k}[X]) entry ({i + 1},{j + 1}) has a denominator "
                            f"factor other than det J(P): {e.render()}")
                    if e.exp > 2 * k:
                        raise NonPolynomialEntry(
                            f"J(D^{k}[X]) entry ({i + 1},{j + 1}) has det J(P) to the "
                            f"power {e.exp} > {2 * k} in its denominator")
            lhs = -(ctx.jac_P.transpose() * ctx.gram_poly * jd)
            bk = _certify_poly_matrix(
                (lhs * jdkx_inv(k - 1, ctx) if k > 1 else lhs) * ctx.jac_P, f"B^({k})")
        memo[k] = bk
    return memo[k]


def jdkx_inv(k: int, ctx: SaitoContext) -> Matrix:
    """J(D^k[X])^{-1} = -J(D^(k-1)[X])^{-1} J(P) (B^(k))^{-1} J(P)^T A.

    The definition of B^(k) solved for J(D^k[X])^{-1}: every factor is
    polynomial once `Matrix.inverse` certifies that det B^(k) =
    +-det A (det J(P))^2 det J(D^k[X]) / det J(D^(k-1)[X]), the reduced
    determinant of J(D^k[X]), is a nonzero constant; a non-constant one
    raises NonPolynomialEntry, a zero one SingularMatrix.  The denominators
    of J(D^k[X]) are certified by `_certified_bk`, which forms J(D^k[X])
    for k >= 2 only on its fallback.  B^(k) is read from its
    private memo, never from `bk_table`, so an entry overwritten in that table
    reaches only the checks that read it and not xi^(2k).
    """
    table = ctx.jdkx_inv_table
    if k not in table:
        bk = _certified_bk(k, ctx)
        try:
            bk_inv = bk.inverse()
        except SingularMatrix:
            raise SingularMatrix(f"J(D^{k}[X]) is singular") from None
        except NonPolynomialEntry:
            raise NonPolynomialEntry(
                f"reduced determinant of J(D^{k}[X]) is not a constant") from None
        prod = jdkx_inv(k - 1, ctx) * (ctx.jac_P * bk_inv * ctx.jac_P.transpose()
                                       * ctx.gram_poly)
        table[k] = _certify_poly_matrix(-prod, f"J(D^{k}[X])^-1")
    return table[k]


def bk_matrix(k: int, ctx: SaitoContext) -> Matrix:
    """-J(P)^T A J(D^k[X]) J(D^(k-1)[X])^{-1} J(P), certified polynomial."""
    if k < 0:
        raise ValueError("k must be >= 0")
    table = ctx.bk_table
    if k not in table:
        table[k] = _certified_bk(k, ctx)
    return table[k]


def christoffel_star(k: int, ctx: SaitoContext) -> Matrix:
    """J(P)^T A (d/dP_k)[J(P)], certified polynomial; k is 1-based.  One
    direction per call, so a certification failure stays with its own k."""
    if not 1 <= k <= ctx.rank:
        raise ValueError("k must be between 1 and the rank")
    table = ctx.christoffel_table
    if k not in table:
        (dj,) = dp_matrix(ctx.jac_P, [k], ctx)
        prod = ctx.jac_P.transpose() * ctx.gram_poly * dj
        table[k] = _certify_poly_matrix(prod, f"Gamma*_{k}")
    return table[k]


# -- connection, application, bracket ----------------------------------------------


def nabla_D(theta: PolyDerivation, ctx: SaitoContext) -> PolyDerivation:
    """Covariant derivative along the primitive derivation.

    nabla is the flat connection of V: its Christoffel symbols vanish in the
    coordinates X, so nabla_D theta = sum_i D[theta(X_i)] d/dX_i.
    """
    return PolyDerivation(_apply_coeffs(ctx.jac_P_inv.entries[-1:], theta.coeffs)[0])


def derivation_apply(row, fs, ctx: SaitoContext) -> tuple:
    """theta(f) = sum_i c_i df/dX_i for every theta of the row of derivations
    and every f in fs: one tuple per theta, one `_apply_coeffs` product."""
    return _apply_coeffs([theta.coeffs for theta in row], fs)


def derivation_bracket(theta: PolyDerivation, eta: PolyDerivation,
                       ctx: SaitoContext) -> PolyDerivation:
    """Lie bracket, computed coefficientwise: [theta, eta]_i = theta(eta_i) -
    eta(theta_i)."""
    return PolyDerivation([
        (a - b).simplify() for a, b in zip(_apply_coeffs([theta.coeffs], eta.coeffs)[0],
                                           _apply_coeffs([eta.coeffs], theta.coeffs)[0])])


def primitive_derivation(ctx: SaitoContext) -> PolyDerivation:
    """The primitive derivation D = sum_i D[X_i] d/dX_i."""
    return PolyDerivation(dkx(1, ctx))


# -- the basis construction ------------------------------------------------------------


def xi_basis(m: int, ctx: SaitoContext):
    """The l basis derivations of contact order m, with polynomial
    coefficients.  Coefficient matrix: A J(D^k[X])^{-1} (m = 2k),
    with a trailing J(P) factor for odd m = 2k+1; `jdkx_inv` certifies its
    factor polynomial, so the product is."""
    if m < 0:
        raise ValueError("m must be >= 0")
    table = ctx.xi_table
    if m not in table:
        k = m // 2
        prod = ctx.gram_poly * jdkx_inv(k, ctx)
        if m % 2 == 1:
            prod = prod * ctx.jac_P
        table[m] = [PolyDerivation(prod.column(j)) for j in range(ctx.rank)]
    return table[m]


def nabla_xi(m: int, t: int, ctx: SaitoContext):
    """nabla_D^t of the xi^(m) row, cached by (m, t): t = 0 is `xi_basis(m)`
    itself, so a tampered `xi_table[m]` reaches every power."""
    if t < 0:
        raise ValueError("t must be >= 0")
    table = ctx.nabla_xi_table
    if (m, t) not in table:
        if t == 0:
            row = xi_basis(m, ctx)
        else:
            row = [nabla_D(theta, ctx) for theta in nabla_xi(m, t - 1, ctx)]
        table[(m, t)] = tuple(row)
    return table[(m, t)]


def contact_defect(m: int, ctx: SaitoContext):
    """None when alpha_H^m divides xi^(m)_j(alpha_H) for all j and H, else the
    first (j, h, order) with order < m (0-based, j scanned first); cached by m
    with the row it judged, and judged again when `xi_table[m]` is another
    row.  The values are the polynomial coefficient rows of xi^(m) times the
    l x N form coefficients.  Each is tested by one exact division by
    alpha_H^m, up to a unit, from the form's `PowerBase` in `ctx.form_bases`:
    the contact order is below m exactly when alpha_H^m does not divide the
    value, so this is the definition.  Only the first failing entry runs
    `contact_order` for its exact order; m = 0 divides nothing."""
    row, table = xi_basis(m, ctx), ctx.contact_table
    if m not in table or table[m][0] is not row:
        datum = ctx.datum
        values = (Matrix([theta.poly_coeffs() for theta in row])
                  * Matrix.from_scalars(zip(*datum.forms), ctx.rank, datum.field))
        alphas, bases = datum.form_polys(), ctx.form_bases
        table[m] = row, next(((j, h, contact_order(values[j, h], alphas[h], m))
                              for j in range(ctx.rank) for h in range(len(alphas))
                              if m and values[j, h].exact_divide(bases[h].power(m)) is None),
                             None)
    return table[m][1]


# -- group action on derivations ----------------------------------------------------


def derivation_transform(theta: PolyDerivation, ctx: SaitoContext,
                         gen_index: int) -> PolyDerivation:
    """Image of a polynomial derivation under one generator: its coefficient
    column mixed by the generator matrix, then each coefficient substituted."""
    datum = ctx.datum
    sub = datum.subst[gen_index]
    column = Matrix([[p] for p in theta.poly_coeffs()])
    mixed = Matrix.from_scalars(sub, ctx.rank, datum.field) * column
    return PolyDerivation([p.subst_linear(sub) for p in mixed.column(0)])
