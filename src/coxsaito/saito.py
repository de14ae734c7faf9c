"""Jacobian, metric, primitive derivation, connection and basis machinery.

Everything lives in the localization S[Q^-1]: each value is a fraction
num / q^e over the context's one denominator base q, the monic det J(P) = c Q;
J(P) and G are inverted over that base and J(D^k[X]) through B^(k) (see
`jdkx_inv`).  B^(1) is Gamma*_l and B^(k) the candidate of Lemma 2.1 (4),
certified by a chain of exact premises (see `_certified_bk`): J(D^k[X]) is
formed only on the fallback of a failed premise.  Whenever a theorem
guarantees a matrix is polynomial, the numerators are divided exactly by the
powers of q and a failure aborts with NonPolynomialEntry.  That
certification is a free integrity check on the entire pipeline.

All row/column conventions follow the row-vector style of the source
identities: a tuple of derivations is a row, coefficient matrices multiply it
from the right, and a single derivation's coefficients form a column.  The
rows the theorems speak of, xi^(m) (`xi_basis`) and nabla_D^t xi^(m)
(`nabla_xi`), are each built once here, and so is their contact order along
the hyperplanes (`contact_defect`).

W-invariance of xi^(1), the A-gradients of the basic invariants, is read from
its form and carried up the chain of Proposition 2.6 (`w_stable`); a row so
certified is W-stable, so its contact orders are tested on the first
hyperplane of each W-orbit alone.  Each row, G and B^(k), k >= 2, are kept
with what they were built from, and these records alone decide Proposition
2.6, the chain's even step and Lemma 2.1 (4), by associativity of exact
products (`_xi_built`, `bk_step`); a broken record leaves the decision to the
statement, the substitution or the full scan.  B^(k), k >= 2, is invariant
as the sum B^(k-1) + B^(1) + (B^(1))^T (`bk_moved`): a passing run
substitutes only the entries of B^(1).

Theorem 2.4 (1)-(2), the G_0 membership of nabla_D^p xi^(2p-1) and Lemma 2.2
follow from the same facts (`chain_holds`, `primitive_dual`, `connection_base`):
B^(1) is Gamma*_l, cols(xi^(1)) == A J(P), G == J(P)^T cols(xi^(1)), and per
level and step Lemma 2.1 (1), (2), (4) and Proposition 2.6.  A passing run
differentiates no xi row and not G, and forms neither det G nor G^-1.

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
multiplies coefficient columns by J(P)^T for Theorem 2.4 (1)-(2) where the
chain does not decide them, and for Proposition 2.6 where a build record is
broken.
"""

from __future__ import annotations

from .coxeter import BasicInvariants, CoxeterDatum, first_moved, jacobian
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
    """Homogeneity degree of a derivation; None if inhomogeneous or zero."""
    degs = {s.homogeneous_degree() for c in theta.coeffs
            if not (s := c.simplify()).is_zero()}
    return degs.pop() if len(degs) == 1 else None


class SaitoContext:
    """Cached data for one (group realization, basic invariants) pair.

    The caches are plain dicts filled on demand; fills are idempotent and
    value-identical, so a context can be shared across concurrent readers.
    Each construction has one table, keyed by k, or by m for `xi_table`.
    What is derived from the tables a check may replace -- the inverse of
    B^(k), nabla_D^t xi^(m), the verdicts on a row -- is in `kept`, by (what,
    index), with the objects it read (`_kept`): it is derived again when
    one of them is another object.  `form_bases` holds a `PowerBase` for
    each form that `contact_defect` has divided by.  Every cached
    derivation is in the coordinate frame; J(P)^-1 serves the chain rule
    (`dp_matrix`), and J(P) the invariant-frame matrices of `verify`.
    """

    __slots__ = ("datum", "invariants", "jac_P", "jac_P_inv", "gram_poly",
                 "metric_G", "dkx_table", "jdkx_table", "jdkx_inv_table",
                 "bk_table", "christoffel_table", "xi_table", "kept",
                 "form_bases", "q_base", "_bk_memo", "_metric_G_inv",
                 "_metric_G_error")

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
        self.kept: dict = {("dual", 0): ((self.jac_P_inv, self.jac_P), (True,) * ell),
                           ("G", 0): ((self.jac_P, self.gram_poly), self.metric_G)}
        self.form_bases: dict = {}
        self._metric_G_inv = self._metric_G_error = None

    @property
    def rank(self) -> int:
        return self.datum.rank

    def metric_G_inv(self) -> Matrix:
        """G^-1 over q, built once, for the per-k fallback of `lemma22.13`.
        A failed inversion is kept and raised again, so that it forms one
        determinant of G per context."""
        if self._metric_G_inv is None and self._metric_G_error is None:
            try:
                self._metric_G_inv = self.metric_G.inverse(self.q_base)
            except CoxsaitoError as exc:
                self._metric_G_error = exc
        if self._metric_G_error is not None:
            raise self._metric_G_error
        return self._metric_G_inv


def build_context(datum: CoxeterDatum, invariants: BasicInvariants) -> SaitoContext:
    return SaitoContext(datum, invariants)


def _kept(ctx: SaitoContext, key, objects: tuple, build):
    """`ctx.kept[key]`, built by build() and kept with the objects it read;
    built again when one of them is another object.  Of racing first fills
    the first stored is kept, so every reader gets that one object."""
    hit = ctx.kept.get(key) or ctx.kept.setdefault(key, (objects, build()))
    if any(a is not b for a, b in zip(hit[0], objects)):
        hit = ctx.kept[key] = objects, build()
    return hit[1]


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
    cached: the row d of D (the last row of J(P)^-1) times J(D^(k-1)[X]).
    D[X] = d is the primitive derivation, read without J(X); k >= 2 is formed
    only on the fallback of `_certified_bk`."""
    if k < 0:
        raise ValueError("k must be >= 0")
    table = ctx.dkx_table
    if k not in table:
        d = Matrix(ctx.jac_P_inv.entries[-1:])
        table[k] = (d * jdkx(k - 1, ctx) if k > 1 else d).simplify().entries[0]
    return table[k]


def jdkx(k: int, ctx: SaitoContext) -> Matrix:
    """Jacobian matrix of D^k[X]: entry (i, j) = d(D^k[X_j]) / dX_i; cached
    and not simplified, each entry over q^(2k) as `_certified_bk` reads it.
    It is formed, at any k, only on the fallback of `_certified_bk`."""
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


def _gamma_star(k: int, ctx: SaitoContext) -> Matrix:
    """J(P)^T A (d/dP_k)[J(P)], certified polynomial, kept with J(P), J(P)^-1
    and A; `christoffel_star` fills its table from it, and B^(1) reads it for
    k = l, so an entry overwritten in the table reaches only the checks."""
    return _kept(ctx, ("gamma_star", k), (ctx.jac_P, ctx.jac_P_inv, ctx.gram_poly),
                 lambda: _certify_poly_matrix(ctx.jac_P.transpose() * ctx.gram_poly
                                              * dp_matrix(ctx.jac_P, [k], ctx)[0],
                                              f"Gamma*_{k}"))


def _dual(ctx: SaitoContext) -> tuple:
    """Row by row, J(P)^-1 J(P) == I; the last row is d J(P) == e_l, d the
    row of D: D[P_j] = delta_jl.  Kept with J(P)^-1 and J(P); `SaitoContext`
    keeps it true where it builds the pair, as `Matrix.inverse` is exact."""
    ident = Matrix.identity(ctx.rank, ctx.rank, ctx.datum.field).entries
    return _kept(ctx, ("dual", 0), (ctx.jac_P_inv, ctx.jac_P), lambda: tuple(
        Matrix([row]) == Matrix([ident[i]])
        for i, row in enumerate((ctx.jac_P_inv * ctx.jac_P).entries)))


def d_bk(k: int, bk: Matrix, ctx: SaitoContext) -> Matrix:
    """D[bk], entrywise, for bk read as B^(k); kept per level with bk and
    J(P)^-1, so `lemma21.1d/k` and the premise of B^(k+1) share it."""
    return _kept(ctx, ("d_bk", k), (bk, ctx.jac_P_inv),
                 lambda: dp_matrix(bk, [ctx.rank], ctx)[0])


def _tower_candidate(k: int, ctx: SaitoContext):
    """B^(k), k >= 1, by the premise chain of `_certified_bk`, or None when a
    premise fails.  An error while checking one counts as a failure, so that
    the product route raises it, in its own order."""
    ell = ctx.rank
    try:
        if k == 1:
            return _gamma_star(ell, ctx) if _dual(ctx)[-1] else None
        b1, prev = _certified_bk(1, ctx), _certified_bk(k - 1, ctx)
        if b1 is _gamma_star(ell, ctx) and _level(k - 1, prev, ctx):
            return _kept(ctx, ("bk", k), (prev, b1), lambda: prev + b1 + b1.transpose())
    except CoxsaitoError:
        pass
    return None


def _certified_bk(k: int, ctx: SaitoContext) -> Matrix:
    """B^(k) for k >= 1, built once per context into a private memo.

    Each level is first decided by a chain of exact premises
    (`_tower_candidate`), which forms no J(D^k[X]).  Write d for the row of D
    (the last row of J(P)^-1), M_j = J(D^j[X]), N_j = M_j^-1 and
    L = (J(P)^T A)^-1; D^k[X] = d M_(k-1).

    k = 1: J(d) J(P) + D[J(P)] = J(d J(P)), so when d J(P) == e_l (that is,
    D[P_j] = delta_jl) J(D[X]) J(P) = -D[J(P)] and B^(1) is
    Gamma*_l = J(P)^T A D[J(P)] (Lemma 2.2 (4)), computed privately
    (`_gamma_star`).

    k >= 2: mixed partials commute, so M_k = J(d) M_(k-1) + D[M_(k-1)]; with
    D[M] N = -M D[N], the definition M_k = -L B^(k) J(P)^-1 M_(k-1) becomes
    N_(k-1) L (B^(k) - B^(1)) = D[N_(k-1)] J(P).  Put N_(k-1) = N_(k-2) X with
    X = -J(P) (B^(k-1))^-1 J(P)^T A, cancel N_(k-2) by the same statement at
    level k-1, and use B^(1) = Gamma*_l and G = J(P)^T A J(P):

        B^(k) = B^(k-1) + B^(1) + (B^(1))^T - D[B^(k-1)] (B^(k-1))^-1 G.

    So the candidate of Lemma 2.1 (4) is B^(k) exactly when B^(1) is that
    Gamma*_l, det B^(k-1) is a nonzero constant (`_bk_inverse`) and
    D[B^(k-1)] == 0 (`d_bk`): no polynomial identity is formed.  A is then
    nonsingular: det A divides det Gamma*_l and det B^(j) of every level j
    the product builds, and the chain needs the level below nonsingular.
    The candidate is the record `bk_step` reads; the lemma's content, the
    premises, is still tested as the statements `lemma21.1d` and `lemma21.2`.
    On the accepting path M_k = -L B^(k) J(P)^-1 M_(k-1) with L and J(P)^-1
    over q and B^(k) polynomial, so by induction from M_1 = J(d) every entry
    of M_k is over q^e with e <= 2k: the premise the product route scans.

    Otherwise J(D^k[X]) is formed -- only here -- and each entry must have a
    denominator q^e with e <= 2k, as the chain rule gives; a foreign
    denominator or a larger exponent raises NonPolynomialEntry.  Then the
    defining product is formed, each entry num / q^E certified by one exact
    division by the cached q^E.
    """
    memo = ctx._bk_memo
    if k not in memo:
        bk = _tower_candidate(k, ctx)
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
        memo.setdefault(k, bk)
    return memo[k]


def jdkx_inv(k: int, ctx: SaitoContext) -> Matrix:
    """J(D^k[X])^{-1} = -J(D^(k-1)[X])^{-1} J(P) (B^(k))^{-1} J(P)^T A.

    The definition of B^(k) solved for J(D^k[X])^{-1}: every factor is
    polynomial once `Matrix.inverse` certifies that det B^(k) =
    +-det A (det J(P))^2 det J(D^k[X]) / det J(D^(k-1)[X]), the reduced
    determinant of J(D^k[X]), is a nonzero constant; a non-constant one
    raises NonPolynomialEntry, a zero one SingularMatrix.  The denominators
    of J(D^k[X]) are certified by `_certified_bk`, which forms J(D^k[X])
    only on its fallback.  B^(k) is read from its
    private memo, never from `bk_table`, so an entry overwritten in that table
    reaches only the checks that read it and not xi^(2k); the inverse is
    shared with `lead` while the two are one object (`_bk_inverse`).  Kept
    with T_(k-1), (B^(k))^-1, J(P) and A, the build record `prop26_holds` reads.
    """
    table = ctx.jdkx_inv_table
    if k not in table:
        bk = _certified_bk(k, ctx)
        try:
            bk_inv = _bk_inverse(k, bk, ctx)
        except SingularMatrix:
            raise SingularMatrix(f"J(D^{k}[X]) is singular") from None
        except NonPolynomialEntry:
            raise NonPolynomialEntry(
                f"reduced determinant of J(D^{k}[X]) is not a constant") from None
        t, jp, a = jdkx_inv(k - 1, ctx), ctx.jac_P, ctx.gram_poly
        table[k] = _kept(ctx, ("jdkx_inv", k), (t, bk_inv, jp, a),
                         lambda: -(t * (jp * bk_inv * jp.transpose() * a)))
    return table[k]


def _bk_inverse(k: int, bk: Matrix, ctx: SaitoContext) -> Matrix:
    """(B^(k))^-1 of the matrix bk, polynomial (`Matrix.inverse` certifies
    det bk a nonzero constant), one per level, kept with bk."""
    return _kept(ctx, ("bk_inverse", k), (bk,), bk.inverse)


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
        table[k] = _gamma_star(k, ctx)
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
    coefficients.  Coefficient matrix: E_k = A J(D^k[X])^{-1} (m = 2k), kept
    with A and `jdkx_inv(k)`, times J(P) for odd m = 2k+1; `jdkx_inv`
    certifies its factor polynomial, so the product is.  The row is recorded
    in `kept` with the A, `jdkx_inv(k)` and J(P) it read (`_xi_built`)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    table = ctx.xi_table
    if m not in table:
        read = ctx.gram_poly, jdkx_inv(m // 2, ctx), ctx.jac_P
        e = _kept(ctx, ("xi_factor", m // 2), read[:2], lambda: read[0] * read[1])
        table[m] = _kept(ctx, ("xi", m), read[:2 + m % 2], lambda: [
            PolyDerivation(c) for c in zip(*(e * read[2] if m % 2 else e).entries)])
    return table[m]


def _xi_built(m: int, ctx: SaitoContext) -> bool:
    """Whether `xi_basis(m)` is the row it recorded, built from the current A,
    T_k = `jdkx_inv_table[k]` (k = m // 2) and, for odd m, J(P): then
    cols(xi^(m)) is exactly E_k = A T_k, or E_k J(P)."""
    return _built(ctx, ("xi", m), xi_basis(m, ctx), *(
        ctx.gram_poly, ctx.jdkx_inv_table.get(m // 2), ctx.jac_P)[:2 + m % 2])


def _built(ctx: SaitoContext, key, value, *read) -> bool:
    """Whether `ctx.kept[key]` holds value, built from exactly the objects read."""
    hit = ctx.kept.get(key, ((), None))
    return (hit[1] is value and len(hit[0]) == len(read)
            and all(a is b for a, b in zip(hit[0], read)))


def nabla_xi(m: int, t: int, ctx: SaitoContext):
    """nabla_D^t of the xi^(m) row: t = 0 is `xi_basis(m)` itself, and each
    power t >= 1 is kept with the power t - 1 it was built from, so a row
    that replaces `xi_table[m]` reaches every power."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return xi_basis(m, ctx)
    row = nabla_xi(m, t - 1, ctx)
    return _kept(ctx, ("nabla_xi", (m, t)), (row,),
                 lambda: tuple(nabla_D(theta, ctx) for theta in row))


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


def _first_moved_derivation(row, ctx: SaitoContext):
    """(j, generator index) of the first derivation of row that a generator of
    the generating prefix moves, j scanned first, or None."""
    return next(((j, idx) for j, theta in enumerate(row)
                 for idx in range(ctx.datum.n_generating)
                 if derivation_transform(theta, ctx, idx) != theta), None)


# -- Proposition 2.6, W-invariance and contact orders ----------------------------------


def columns(row) -> Matrix:
    """Columns: the coordinate-frame coefficients of the derivations of row,
    polynomials where no power of q is left."""
    return Matrix([[c if c.exp else c.numerator for c in theta.coeffs]
                   for theta in row]).transpose()


def lead(k: int, ctx: SaitoContext) -> Matrix:
    """-cols(xi^(2k-1)) (B^(k))^-1, polynomial, for k >= 1: the right sides of
    Theorem 2.4 (1) and Proposition 2.6 share it.  B^(k) is `bk_matrix(k)`;
    kept with its inverse and the row."""
    inv = _bk_inverse(k, bk_matrix(k, ctx), ctx)
    row = xi_basis(2 * k - 1, ctx)
    return _kept(ctx, ("lead", k), (inv, row), lambda: -(columns(row) * inv))


def prop26_holds(k: int, ctx: SaitoContext) -> bool:
    """cols(xi^(2k+1)) == lead(k) G, Proposition 2.6 at k in the coordinate
    frame, by construction: with J = J(P), xi^(2k+1) and xi^(2k-1) are
    recorded builds (`_xi_built`), T_k = `jdkx_inv_table[k]` is the recorded
    -T_(k-1) J (B^(k))^-1 J^T A with the inverse lead(k) reads, and G is the
    recorded J^T A J.  By associativity cols(xi^(2k+1)) = A T_k J =
    -cols(xi^(2k-1)) (B^(k))^-1 J^T A J = lead(k) G.  Else False."""
    t = ctx.jdkx_inv_table
    return (_xi_built(2 * k + 1, ctx) and _xi_built(2 * k - 1, ctx)
            and _built(ctx, ("jdkx_inv", k), t.get(k), t.get(k - 1),
                       _bk_inverse(k, bk_matrix(k, ctx), ctx), ctx.jac_P, ctx.gram_poly)
            and _built(ctx, ("G", 0), ctx.metric_G, ctx.jac_P, ctx.gram_poly))


def bk_moved(k: int, ctx: SaitoContext):
    """`first_moved` of the entries of `bk_matrix(k)`, row by row: None when
    every entry is W-invariant; kept with the matrix and, for k >= 2, with
    B^(k-1) and B^(1).  For k >= 2 nothing is substituted when B^(1) and
    B^(k-1) are invariant and B^(k) is built as B^(k-1) + B^(1) + (B^(1))^T
    from them (`bk_step(k-1)`): a sum of invariant matrices.  Otherwise
    `first_moved` gives the verdict and its witness."""
    bk = bk_matrix(k, ctx)
    below = (bk_matrix(k - 1, ctx), bk_matrix(1, ctx)) if k >= 2 else ()
    return _kept(ctx, ("bk_moved", k), (bk, *below), lambda: None if below and (
        bk_moved(1, ctx) is None and bk_moved(k - 1, ctx) is None
        and bk_step(k - 1, ctx))
        else first_moved(ctx.datum, [e for row in bk.entries for e in row]))


def bk_step(k: int, ctx: SaitoContext) -> bool:
    """B^(k+1) - B^(k) == B^(1) + (B^(1))^T, `lemma21.4/k`, by construction:
    `bk_matrix(k+1)` is the record B^(k) + B^(1) + (B^(1))^T of
    `_tower_candidate` from `bk_matrix(k)` and `bk_matrix(1)`; else False."""
    return _built(ctx, ("bk", k + 1), bk_matrix(k + 1, ctx), bk_matrix(k, ctx),
                  bk_matrix(1, ctx))


# -- Theorem 2.4 and Lemma 2.2 from the premise chain -----------------------------


def chain_base(ctx: SaitoContext) -> bool:
    """The base of the Theorem 2.4 chain: `bk_matrix(1)` is Gamma*_l
    (`_gamma_star`, so B^(1) = J(P)^T A D[J(P)]), A is constant and
    symmetric, and the two kept comparisons on xi^(1) hold, `_xi1_gradient`
    and `_xi1_metric`, so G = J(P)^T A J(P).  False on a failure; an error
    is raised, and `verify` reads it as a failure (`verify._holds`).

    D is a derivation and A is constant, so D[G] = D[J(P)]^T A J(P) +
    J(P)^T A D[J(P)] = B^(1) + (B^(1))^T, which `flat.detDG` reads; every
    d/dP_k G is in `connection_base`."""
    a = ctx.gram_poly
    return (bk_matrix(1, ctx) is _gamma_star(ctx.rank, ctx) and a == a.transpose()
            and all(e.constant_value() is not None for r in a.entries for e in r)
            and _xi1_gradient(ctx) and _xi1_metric(ctx))


def _xi1_gradient(ctx: SaitoContext) -> bool:
    """cols(xi^(1)) == A J(P): column j is the A-gradient of P_j; kept with
    the row, A and J(P)."""
    row, a, jp = xi_basis(1, ctx), ctx.gram_poly, ctx.jac_P
    return _kept(ctx, ("stable", 1), (row, a, jp), lambda: columns(row) == a * jp)


def _xi1_metric(ctx: SaitoContext) -> bool:
    """G == J(P)^T cols(xi^(1)): G_ij = xi^(1)_j(P_i); kept with the row,
    J(P) and G."""
    row, jp, g = xi_basis(1, ctx), ctx.jac_P, ctx.metric_G
    return _kept(ctx, ("metric", 1), (row, jp, g),
                 lambda: g == jp.transpose() * columns(row))


def connection_base(ctx: SaitoContext) -> bool:
    """The base of Lemma 2.2: `chain_base`, `_own_frame`, J(P)^-1 J(P) == I
    (`_dual`) and every `christoffel_star(t)` the kept `_gamma_star(t)`.
    False on a failure; an error is raised, as in `chain_base`.

    So A is the datum's nonsingular symmetric Gram matrix, G == J^T A J with
    J = J(P) the Jacobian of the basic invariants, and the rows of J^-1 are
    the fields d/dP_k.  (2): d/dP_k G = Gamma*_k + (Gamma*_k)^T by the product
    rule.  det G = det A (det J)^2 = c q^2.  (B): sum_t G_kt d/dP_t is
    xi^(1)_k, so T[k,(i,j)] = grad P_i^T A Hess(P_j) A grad P_k, symmetric in
    i and k.  (4): Gamma*_l is B^(1), one object.  (1)+(3): a symmetric G with
    det G = c q^2 has one metric-compatible, torsion-free connection, its
    Levi-Civita connection, so Gamma*_k = -G Gamma_k."""
    return (chain_base(ctx) and _own_frame(ctx) and all(_dual(ctx))
            and all(christoffel_star(t, ctx) is _gamma_star(t, ctx)
                    for t in range(1, ctx.rank + 1)))


def chain_holds(levels: int, steps: int, ctx: SaitoContext) -> bool:
    """The Theorem 2.4 chain: its base (`chain_base`); at each level
    j <= levels, det B^(j) a nonzero constant (`_bk_inverse`) and D[B^(j)] == 0
    (`d_bk`); at each step j <= steps, `prop26_holds(j)` and `bk_step(j)`.
    False on a failure; an error is raised, as in `chain_base`.

    Write X_m = cols(xi^(m)), B_j = `bk_matrix(j)` and K_j = -B_j^-1 G, so
    X_(2j+1) = X_(2j-1) K_j at each step.  At a level D[B_j^-1] = 0, so
    D[K_j] = -B_j^-1 (B_1 + B_1^T) by the base, and nabla_D acts entrywise:
    cols(nabla_D^t xi^(m)) = D^t[X_m].

    Theorem 2.4 (1), levels and steps 1..k: D[X_(2k+1)] = -X_(2k-1) B_k^-1
    B_(k+1).  At k = 1, D[X_1] = A D[J(P)] = A (J(P)^T A)^-1 B_1 (det B_1 != 0,
    so J(P)^T A is invertible), hence D[X_1] K_1 = -A J(P) = -X_1; at k >= 2,
    D[X_(2k-1)] K_k = X_(2k-3) B_(k-1)^-1 G = -X_(2k-1) by the statement at
    k - 1 and step k - 1.  Then D[X_(2k+1)] = D[X_(2k-1)] K_k + X_(2k-1) D[K_k]
    = -X_(2k-1) B_k^-1 (B_k + B_1 + B_1^T), which is step k.

    Theorem 2.4 (2), levels 1..k and steps 1..k-1: J(P)^T D^k[X_(2k-1)] =
    (-1)^(k-1) B_k.  At k = 1 it is J(P)^T A D[J(P)] = B_1; above, (1) at
    k - 1 gives D^k[X_(2k-1)] = -D^(k-1)[X_(2k-3)] B_(k-1)^-1 B_k, since
    D[B_(k-1)] = D[B_k] = 0, and the statement at k - 1 closes it."""
    return (chain_base(ctx)
            and all(_level(j, bk_matrix(j, ctx), ctx) for j in range(1, levels + 1))
            and all(prop26_holds(j, ctx) and bk_step(j, ctx)
                    for j in range(1, steps + 1)))


def _level(j: int, bk: Matrix, ctx: SaitoContext) -> bool:
    """D[bk] == 0, for bk read as B^(j); raises unless det bk is a nonzero
    constant (`_bk_inverse`)."""
    _bk_inverse(j, bk, ctx)
    return not any(e for row in d_bk(j, bk, ctx).entries for e in row)


def _own_frame(ctx: SaitoContext) -> bool:
    """J(P) is the Jacobian of the basic invariants and A the datum's Gram
    matrix, so a statement about the context's J(P) and A is one about the
    group; kept with both and the invariants."""
    datum, ell, read = ctx.datum, ctx.rank, (ctx.jac_P, ctx.gram_poly, ctx.invariants)
    return _kept(ctx, ("frame", 0), read, lambda: (
        ctx.jac_P == jacobian(ctx.invariants.polys, ell)
        and ctx.gram_poly == Matrix.from_scalars(datum.gram, ell, datum.field)))


def primitive_dual(ctx: SaitoContext) -> bool:
    """`primitive_derivation` is the D of `nabla_D` and D[P_j] = delta_jl on
    the basic invariants: dkx(1) == the last row of J(P)^-1, `_own_frame` and
    `_dual`.  With `chain_holds(p, p - 1)` every eta of nabla_D^p xi^(2p-1)
    then has eta(P_i) = (-1)^(p-1) B^(p)_ij, so [D, eta](P_i) =
    D[eta(P_i)] - eta(D[P_i]) = 0: D[B^(p)] = 0 and D[P_i] is constant.
    An error is raised, as in `chain_base`."""
    return (tuple(dkx(1, ctx)) == ctx.jac_P_inv.entries[-1]
            and _own_frame(ctx) and _dual(ctx)[-1])


def w_stable(m: int, ctx: SaitoContext) -> bool:
    """Whether the row xi^(m), m >= 1, is certified W-stable, g xi^(m) =
    xi^(m) T_g with T_g constant for every g in W, from facts the run
    certifies anyway; False on any failure or error, which leaves the
    decision to the substitution and the full scan.

    m = 1: `_own_frame` and `_xi1_gradient` give cols(xi^(1)) == A J with the
    datum's A and the invariants' J.  Each generator g is an involution with
    g^T A g = A (`CoxeterDatum`) and P o g^T = P (ingest), so with S = g^T
    the image S A (grad P)(Sx) = S A S^-T grad P(x) is A grad P(x), T_g = 1.
    m = 2k+1: xi^(2k-1) is certified; G == J^T cols(xi^(1)) (`_xi1_metric`,
    J(P) == J by `_own_frame`), so G_ij = xi^(1)_j(P_i) is invariant; B^(k)
    is (`bk_moved`); and
    xi^(2k+1) = xi^(2k-1) K (`prop26_holds`) with K = -(B^(k))^-1 G, whose
    entries are invariant since det B^(k) is a nonzero constant.  The action
    is linear over invariants, g(theta K) = g(theta) K, so xi^(2k+1) is
    W-invariant, T_g = 1.
    m = 2k: xi^(2k+1) is certified and cols(xi^(2k)) J == cols(xi^(2k+1)),
    J the Jacobian of the basic invariants.  P(gx) = P(x) gives
    J^-1(gx) = J^-1(x) g^T, so g xi^(2k) = xi^(2k) g^T.  The identity holds
    by construction when both rows are recorded builds (`_xi_built`), E_k and
    E_k J(P) for one E_k, and J(P) == J, certified at m = 1; else False.
    """
    try:
        if m == 1:
            return _own_frame(ctx) and _xi1_gradient(ctx)
        if m % 2 == 0:
            return (w_stable(m + 1, ctx) and _xi_built(m, ctx)
                    and _xi_built(m + 1, ctx))
        k = m // 2
        return (w_stable(m - 2, ctx) and _xi1_metric(ctx)
                and bk_moved(k, ctx) is None and prop26_holds(k, ctx))
    except CoxsaitoError:
        return False


def invariance_defect(m: int, ctx: SaitoContext):
    """None when every xi^(m)_j is W-invariant, else the first (j, generator
    index) that moves it, j scanned first; kept with the row.  Every
    coefficient is substituted under each generator of the generating
    prefix (`derivation_transform`): `hodge.winv` reads it only where the
    certificate of `w_stable` does not decide."""
    row = xi_basis(m, ctx)
    return _kept(ctx, ("invariance", m), (row,),
                 lambda: _first_moved_derivation(row, ctx))


def _form_power(h: int, m: int, ctx: SaitoContext) -> MultiPoly:
    """alpha_H^m for the h-th form, from its `PowerBase`, made on first use."""
    bases = ctx.form_bases
    return (bases.get(h) or bases.setdefault(h, PowerBase(ctx.datum.form_poly(h)))).power(m)


def contact_defect(m: int, ctx: SaitoContext):
    """None when alpha_H^m divides xi^(m)_j(alpha_H) for all j and H, else the
    first (j, h, order) with order < m (0-based, j scanned first); kept with
    the row it judged.  The values are the polynomial coefficient rows of
    xi^(m) times the form coefficients.  Each is tested by one exact division
    by alpha_H^m (`_form_power`), up to a unit: the contact order is below m
    exactly when alpha_H^m does not divide the value, so this is the
    definition.  m = 0 divides nothing.

    For m >= 1 and a certified row (`w_stable`), only the first form of each
    W-orbit (`CoxeterDatum.orbits`) is tested: g xi = xi T_g with T_g
    invertible gives theta(alpha_H o g^-1) = g(theta)(alpha_H) o g^-1, so
    every xi_j has contact order >= m along gH exactly when every xi_j has it
    along H.  A failure there, or an uncertified row, takes the full scan;
    only its first failing entry runs `contact_order` for its exact order."""
    row = xi_basis(m, ctx)
    return _kept(ctx, ("contact", m), (row,), lambda: _contact_scan(m, row, ctx))


def _contact_scan(m: int, row, ctx: SaitoContext):
    datum = ctx.datum
    coeffs = Matrix([theta.poly_coeffs() for theta in row])

    def first_failure(forms):
        values = coeffs * Matrix.from_scalars(
            zip(*(datum.forms[h] for h in forms)), ctx.rank, datum.field)
        return next(((j, h, values[j, i]) for j in range(ctx.rank)
                     for i, h in enumerate(forms)
                     if values[j, i].exact_divide(_form_power(h, m, ctx)) is None), None)

    if not m or (w_stable(m, ctx)
                 and first_failure([orbit[0] for orbit in datum.orbits]) is None):
        return None
    failure = first_failure(range(len(datum.forms)))
    if failure is None:
        return None
    j, h, value = failure
    return j, h, contact_order(value, datum.form_poly(h), m)
