"""Executable checks for every verifiable claim, with exact witnesses.

Each suite returns a list of CheckResult records.  A failing check always
carries a witness that pins down the offending entry or index and renders the
exact polynomial discrepancy.  Integrity errors raised inside a check (for
example a polynomiality certification failure on tampered data) are recorded
as failures flagged `integrity`, which the CLI maps to its own exit code.

The checks compare; they do not construct: B^(k), Gamma*_k, xi^(m), its
nabla_D powers and its contact orders along the hyperplanes come from the
caches of `saito`, built once per context.  Each check makes one decision,
read from verdicts the run already has, and where that decision does not
hold it takes the route of its statement.  The runner takes the decision
beside the statement (`_Runner.run`): the check passes when it holds, and
a decision that raises does not hold (`_holds`), so a decision can only
pass and only an error of the statement is an integrity failure.
Every `lemma22` check passes from one decision, the base of Lemma 2.2
(`saito.connection_base`), so a passing run forms no det G, G^-1, T = G S
or Gamma*_t for t < l, and differentiates no G.  Otherwise `lemma22.2`
differentiates G, `lemma22.13/k` runs the standard Christoffel formula, the
one place G^-1 is formed and differentiated, and `lemma22.B` forms T.
`thm24.1/k`, `thm24.2/k` and `hodge.g0/p` pass from the premise chain of
`saito.chain_holds`, which forms no nabla_D; under its base, `flat.detDG`
reads D[G] as B^(1) + (B^(1))^T, and `metric/recompute` and (with D[B^(1)]
== 0) `flat.D2G` pass.  `prop26/k` and `lemma21.4/k` pass from build records
alone (`saito.prop26_holds`, `saito.bk_step`).  Otherwise `thm24.1`,
`thm24.2` and `prop26` compare their two sides in the invariant frame they
are stated in, and `hodge.g0` forms each bracket [D, eta] in turn.
`thm25.basis/m` passes from the build records of the xi tower
(`saito.basis_holds`): det is multiplicative, so det cols(xi^(m)) = det A
det T_k (det J(P))^(m mod 2) with T_k = J(D^k[X])^-1, k = m // 2, and det T_k
= (-1)^l det T_(k-1) (det J(P))^2 det A / det B^(k); with det J(P) = c Q
(`saito.jacobian_criterion`, which `metric/jacobian` reads) it is c_m Q^m.
Otherwise it forms the determinant of the coefficient matrix and divides it
m times by Q.
`hodge.winv/p` substitutes nothing on a passing run: it passes from the
W-stability certificate of `saito.w_stable`, whose Proposition 2.6 step
`prop26/k` shares; the contact orders of `thm25.member/m` are then tested
on one hyperplane per W-orbit.
`hodge.disc` applies xi^(1) to Q, not Q^2.  `lemma21.1w/k` substitutes
only the entries of B^(1); B^(k), k >= 2, follows the sum rule of `bk_moved`.
"""

from __future__ import annotations

import time
from functools import cache

from .coxeter import anti_invariant_Q, poincare_closed_form, poincare_equal
from .errors import ConfigError, CoxsaitoError
from .matrix import Matrix
from .poly import MultiPoly
from .saito import (SaitoContext, basis_holds, bk_matrix, bk_moved, bk_step,
                    chain_base, chain_holds, christoffel_star, columns,
                    connection_base, contact_defect, d_bk, derivation_apply,
                    derivation_bracket, derivation_degree, dp_matrix,
                    invariance_defect, jacobian_criterion, lead, nabla_xi,
                    primitive_derivation, primitive_dual, prop26_holds,
                    w_stable, xi_basis)


# plain classes: `dataclasses` imports inspect, ast and dis, which cost each
# process about 12 ms and 1 MiB (Python 3.11, 2-core VM)
class CheckResult:
    """One check; status is "pass", "fail" or "skipped"."""

    __slots__ = ("name", "paper_ref", "status", "witness", "ms", "integrity")

    def __init__(self, name: str, paper_ref: str, status: str,
                 witness: str | None = None, ms: float = 0.0, integrity: bool = False):
        self.name, self.paper_ref, self.status = name, paper_ref, status
        self.witness, self.ms, self.integrity = witness, ms, integrity

    def to_dict(self) -> dict:
        out = {"name": self.name, "paper_ref": self.paper_ref,
               "status": self.status, "ms": round(self.ms, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class CheckReport:
    def __init__(self, group: str, field_desc: str, invariants_id: str, results: list):
        self.group, self.field_desc = group, field_desc
        self.invariants_id, self.results = invariants_id, results

    @property
    def counts(self) -> dict:
        out = {"total": len(self.results), "pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.results)

    @property
    def integrity_error(self) -> bool:
        return any(r.integrity for r in self.results)

    def to_dict(self) -> dict:
        return {"group": self.group, "field": self.field_desc,
                "invariants": self.invariants_id,
                "checks": [r.to_dict() for r in self.results],
                "summary": self.counts}


def _holds(decided, *args) -> bool:
    """Whether decided(*args) holds; an error counts as not holding, so that
    the statement it decides raises it, in its own order."""
    try:
        return decided is not None and decided(*args)
    except CoxsaitoError:
        return False


class _Runner:
    """Collects timed check results; exceptions become integrity failures."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def run(self, name: str, ref: str, fn, decided=None):
        """Record the check `fn`, its statement, whose outcome is (ok,
        witness) or ("skipped", note).  It passes without running when
        `decided()` holds (`_holds`): a decision can only pass, and only an
        error of the statement is an integrity failure."""
        t0 = time.perf_counter()
        try:
            ok, witness = (True, None) if _holds(decided) else fn()
            status = "skipped" if ok == "skipped" else "pass" if ok else "fail"
            integrity = False
        except CoxsaitoError as exc:
            status, witness, integrity = "fail", f"integrity error: {exc}", True
        ms = (time.perf_counter() - t0) * 1000
        self.results.append(CheckResult(name, ref, status, None if status == "pass"
                                        else witness, ms, integrity))


def _cmp_matrices(lhs: Matrix, rhs: Matrix):
    """(True, None) when equal, else False and the first differing entry."""
    for i in range(lhs.rows):
        for j in range(lhs.cols):
            a, b = lhs[i, j], rhs[i, j]
            if a != b:
                return False, (f"entry ({i + 1},{j + 1}): lhs = {a.render()}, "
                               f"rhs = {b.render()}, difference = {(a - b).render()}")
    return True, None


def _first_nonzero(m: Matrix, what: str):
    """(True, None) when every entry of m is zero, else the first nonzero one."""
    for i in range(m.rows):
        for j in range(m.cols):
            if m[i, j]:
                return False, f"entry ({i + 1},{j + 1}): {what} = {m[i, j].render()}"
    return True, None


# -- contact order -------------------------------------------------------------------


def _contact_membership(m: int, ctx: SaitoContext):
    """Every xi^(m)_j has contact order >= m along every hyperplane."""
    defect = contact_defect(m, ctx)
    if defect is None:
        return True, None
    j, h, order = defect
    return False, (f"xi^({m})_{j + 1}: hyperplane {h + 1} "
                   f"({ctx.datum.form_poly(h).render()}): order {order} < {m}")


# -- suites -----------------------------------------------------------------------------


def check_metric(ctx: SaitoContext):
    r = _Runner()
    r.run("metric/symmetry", "G = J(P)^T A J(P) is symmetric",
          lambda: _cmp_matrices(ctx.metric_G, ctx.metric_G.transpose()))
    r.run("metric/recompute", "G = J(P)^T A J(P)",
          lambda: _cmp_matrices(
              ctx.metric_G, ctx.jac_P.transpose() * ctx.gram_poly * ctx.jac_P),
          decided=lambda: chain_base(ctx))
    r.run("metric/jacobian", "det J(P) = c Q", lambda: (
        jacobian_criterion(ctx), "det J(P) is not a nonzero constant multiple of Q"))
    return r.results


def check_lemma21(ctx: SaitoContext, k_max: int):
    r = _Runner()
    ell = ctx.rank
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    for k in range(1, k_max + 1):
        # bk_matrix is cached; calling it inside each check keeps integrity
        # errors attributable to the individual check

        def d_annihilates(k=k):
            return _first_nonzero(d_bk(k, bk_matrix(k, ctx), ctx), "D[entry]")

        def w_invariant(k=k):
            moved = bk_moved(k, ctx)
            if moved is None:
                return True, None
            idx, entry = moved
            i, j = divmod(entry, ell)
            return False, f"entry ({i + 1},{j + 1}) moved by generator {idx}"

        def det_constant(k=k):
            c = bk_matrix(k, ctx).det().constant_value()
            if c is None:
                return False, "det is not constant"
            if not c:
                return False, "det is zero"
            return True, None

        def degrees(k=k):
            bk = bk_matrix(k, ctx)
            for i in range(ell):
                for j in range(ell):
                    stated = exps[i] + exps[j] - h
                    p = bk[i, j]
                    if stated < 0:
                        if not p.is_zero():
                            return False, (f"entry ({i + 1},{j + 1}) must vanish "
                                           f"(stated degree {stated}) but is "
                                           f"{p.render()}")
                    elif not p.is_zero() and p.homogeneous_degree() != stated:
                        return False, (f"entry ({i + 1},{j + 1}) is not homogeneous "
                                       f"of degree {stated}: {p.render()}")
            return True, None

        def difference(k=k):
            lhs = bk_matrix(k + 1, ctx) - bk_matrix(k, ctx)
            b1 = bk_matrix(1, ctx)
            return _cmp_matrices(lhs, b1 + b1.transpose())

        r.run(f"lemma21.1d/k={k}", "Lemma 2.1 (1): D[B^(k)] = 0", d_annihilates)
        r.run(f"lemma21.1w/k={k}", "Lemma 2.1 (1): entries lie in T", w_invariant)
        r.run(f"lemma21.2/k={k}", "Lemma 2.1 (2): det B^(k) is a nonzero constant",
              det_constant)
        r.run(f"lemma21.3/k={k}", "Lemma 2.1 (3): deg B^(k)_ij = m_i + m_j - h",
              degrees)
        r.run(f"lemma21.4/k={k}",
              "Lemma 2.1 (4): B^(k+1) - B^(k) = B^(1) + (B^(1))^T", difference,
              decided=lambda k=k: bk_step(k, ctx))
    return r.results


def check_lemma22(ctx: SaitoContext):
    r = _Runner()
    ell = ctx.rank
    directions = range(1, ell + 1)
    # every check of the suite passes from the base of Lemma 2.2
    base = lambda: connection_base(ctx)

    # every d/dP_k of G, and of G^-1, at once, on first use
    @cache
    def dp_g():
        return dp_matrix(ctx.metric_G, directions, ctx)

    @cache
    def dp_g_inv():
        return dp_matrix(ctx.metric_G_inv(), directions, ctx)

    def symmetry_identity():
        # T = G S, S with the flattened Gamma*_t as rows; T[k,(i,j)] is the
        # left side of the triple (i, j, k), T[i,(k,j)] the right
        t = ctx.metric_G * Matrix([sum(christoffel_star(s, ctx).entries, ())
                                   for s in directions])
        for i in range(ell):
            for j in range(ell):
                for k in range(ell):
                    if t[k, i * ell + j] != t[i, k * ell + j]:
                        return False, f"triple (i,j,k) = ({i + 1},{j + 1},{k + 1})"
        return True, None

    for k in directions:

        def compat(k=k):
            star = christoffel_star(k, ctx)
            return _cmp_matrices(dp_g()[k - 1], star + star.transpose())

        def levi_civita_consistency(k=k):
            # the standard Christoffel formula from the metric (G^{-1} on
            # coordinate fields), Gamma*_k = -G Gamma_k; inverting G
            # certifies det G = c q^a
            dg = dp_g_inv()
            pieces = Matrix([[dg[i][t, k - 1] + dg[k - 1][t, i] - dg[t][i, k - 1]
                              for t in range(ell)] for i in range(ell)])
            half = ctx.datum.field.coerce(1) / 2
            gamma_k = (pieces * ctx.metric_G.transpose() * half).simplify()
            lhs = (-(ctx.metric_G * gamma_k)).simplify()
            return _cmp_matrices(lhs, christoffel_star(k, ctx))

        r.run(f"lemma22.2/k={k}",
              "Lemma 2.2 (2): d/dP_k[G] = Gamma*_k + (Gamma*_k)^T", compat,
              decided=base)
        r.run(f"lemma22.13/k={k}",
              "Lemma 2.2 (1)+(3): Gamma*_k = -G Gamma_k = J(P)^T A d/dP_k[J(P)]",
              levi_civita_consistency, decided=base)

    r.run("lemma22.B", "torsion-freeness: sum_t g^kt S_t^ij = sum_t g^it S_t^kj",
          symmetry_identity, decided=base)
    r.run("lemma22.4", "Lemma 2.2 (4): Gamma*_l = B^(1)",
          lambda: _cmp_matrices(christoffel_star(ell, ctx), bk_matrix(1, ctx)),
          decided=base)
    return r.results


def _invariant_frame(columns: Matrix, ctx: SaitoContext) -> Matrix:
    """J(P)^T times coordinate-frame columns, simplified: the frame d/dP_j
    that Theorem 2.4 and Proposition 2.6 are stated in."""
    return (ctx.jac_P.transpose() * columns).simplify()


def check_thm24_thm25_prop26(ctx: SaitoContext, k_max: int, m_max: int):
    r = _Runner()
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    q = anti_invariant_Q(ctx.datum)
    for m in range(0, m_max + 1):

        def basis_det(m=m):
            cols = [theta.poly_coeffs() for theta in xi_basis(m, ctx)]
            if Matrix(cols).det().constant_quotient([q] * m) is None:
                return False, (f"det of xi^({m}) coefficient matrix is not a "
                               f"nonzero constant multiple of Q^{m}")
            return True, None

        def degree_law(m=m):
            k = m // 2
            for j, theta in enumerate(xi_basis(m, ctx)):
                want = k * h if m % 2 == 0 else k * h + exps[j]
                got = derivation_degree(theta)
                if got != want:
                    return False, f"deg xi^({m})_{j + 1} = {got}, expected {want}"
            return True, None

        r.run(f"thm25.member/m={m}",
              "Theorem 2.5 (1): xi^(m)_j lie in D^(m)(A)",
              lambda m=m: _contact_membership(m, ctx))
        r.run(f"thm25.basis/m={m}",
              "Theorem 2.5 (1) basis certificate: det = c Q^m", basis_det,
              decided=lambda m=m: basis_holds(m, ctx))
        r.run(f"thm25.2/m={m}",
              "Theorem 2.5 (2): deg xi^(m)_j = kh resp. kh + m_j", degree_law)

    for k in range(1, k_max + 1):

        def thm24_1(k=k):
            lhs = _invariant_frame(columns(nabla_xi(2 * k + 1, 1, ctx)), ctx)
            rhs = _invariant_frame(lead(k, ctx) * bk_matrix(k + 1, ctx), ctx)
            return _cmp_matrices(lhs, rhs)

        def thm24_2(k=k):
            lhs = _invariant_frame(columns(nabla_xi(2 * k - 1, k, ctx)), ctx)
            bk = bk_matrix(k, ctx)
            rhs = bk if (k - 1) % 2 == 0 else -bk
            return _cmp_matrices(lhs, rhs)

        def prop26(k=k):  # the comparison, where a build record is broken
            lhs = _invariant_frame(columns(xi_basis(2 * k + 1, ctx)), ctx)
            return _cmp_matrices(lhs, _invariant_frame(lead(k, ctx) * ctx.metric_G, ctx))

        r.run(f"thm24.1/k={k}",
              "Theorem 2.4 (1): nabla_D xi^(2k+1) row = "
              "-xi^(2k-1) row (B^(k))^{-1} B^(k+1)", thm24_1,
              decided=lambda k=k: chain_holds(k, k, ctx))
        r.run(f"thm24.2/k={k}",
              "Theorem 2.4 (2): nabla_D^k xi^(2k-1) row = "
              "(-1)^(k-1) (d/dP) B^(k)", thm24_2,
              decided=lambda k=k: chain_holds(k, k - 1, ctx))
        r.run(f"prop26/k={k}",
              "Proposition 2.6: xi^(2k+1) row = -xi^(2k-1) row (B^(k))^{-1} G",
              prop26, decided=lambda k=k: prop26_holds(k, ctx))
    return r.results


def check_hodge(ctx: SaitoContext, p_max: int):
    r = _Runner()
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    q = anti_invariant_Q(ctx.datum)

    def discriminant():
        # theta(Q^2) = 2 Q theta(Q), so theta(Q^2) lies in Q^2 R exactly when
        # theta(Q) lies in Q R; only a failing j forms theta(Q^2), its witness
        for j, (value,) in enumerate(derivation_apply(xi_basis(1, ctx), [q], ctx)):
            val = value.as_poly()
            if val is not None and val.exact_divide(q) is not None:
                continue
            val = (value * (2 * q)).as_poly()
            if val is None:
                return False, f"xi^(1)_{j + 1}(Q^2) is not polynomial"
            return False, f"xi^(1)_{j + 1}(Q^2) = {val.render()} not in Q^2 R"
        return True, None

    r.run("hodge.disc", "theta(Delta^2) in Delta^2 R for the degree-1 basis",
          discriminant)

    for p in range(1, p_max + 1):

        def w_invariance(p=p):
            moved = invariance_defect(2 * p - 1, ctx)
            if moved is None:
                return True, None
            j, idx = moved
            return False, f"xi^({2 * p - 1})_{j + 1} moved by generator {idx}"

        def g0_membership(p=p):
            d = primitive_derivation(ctx)
            for j, eta in enumerate(nabla_xi(2 * p - 1, p, ctx)):
                br = derivation_bracket(d, eta, ctx)
                bad = next((c for c in br.coeffs if not c.simplify().is_zero()), None)
                if bad is not None:
                    return False, (f"[D, nabla_D^{p} xi^({2 * p - 1})_{j + 1}] != 0: "
                                   f"coefficient {bad.render()}")
            return True, None

        def poincare(p=p):
            # computed: deg xi^(2p-1)_j over deg P_1..P_(l-1) and h = 2N/l
            # for N hyperplanes; stated: (p-1)h + m_j over m_j + 1
            gens = [derivation_degree(theta) for theta in xi_basis(2 * p - 1, ctx)]
            if None in gens:
                return False, f"xi^({2 * p - 1})_{gens.index(None) + 1} is not homogeneous"
            degrees = [f.total_degree() for f in ctx.invariants.polys[:-1]]
            degrees.append(2 * len(ctx.datum.forms) // ctx.rank)
            lhs = poincare_closed_form(gens, degrees)
            rhs = poincare_closed_form([(p - 1) * h + m for m in exps],
                                       [m + 1 for m in exps])
            if not poincare_equal(lhs, rhs):
                return False, f"series differ: {lhs} vs {rhs}"
            return True, None

        r.run(f"hodge.winv/p={p}",
              "Theorem 1.2: basis of H^(p) is W-invariant", w_invariance,
              decided=lambda p=p: w_stable(2 * p - 1, ctx))
        r.run(f"hodge.g0/p={p}",
              "Theorem 1.2: nabla_D^p xi^(2p-1)_j lies in G_0 ([D, -] = 0)",
              g0_membership,
              decided=lambda p=p: chain_holds(p, p - 1, ctx) and primitive_dual(ctx))
        r.run(f"hodge.poincare/p={p}",
              "Lemma 2.6B proof: Poincare series identity", poincare)
        r.run(f"hodge.contact/p={p}",
              "Theorem 1.2: H^(p) inside D^(2p-1)(A)",
              lambda p=p: _contact_membership(2 * p - 1, ctx))
    return r.results


def check_flat_remark(ctx: SaitoContext, k_max: int = 3):
    r = _Runner()
    ell = ctx.rank
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    field = ctx.datum.field

    # under the chain's base D[G] = B^(1) + (B^(1))^T
    @cache
    def dg():
        if _holds(chain_base, ctx):
            b1 = bk_matrix(1, ctx)
            return b1 + b1.transpose()
        return dp_matrix(ctx.metric_G, [ell], ctx)[0]

    @cache
    def flat_normalized() -> bool:
        return all(
            dg()[i, j] == MultiPoly.const(ell, 1 if i + j == ell - 1 else 0, field)
            for i in range(ell) for j in range(ell))

    def det_dg():
        m = dg()
        if m.is_fraction_mode:
            entries = [[e.as_poly() for e in row] for row in m.entries]
            if any(p is None for row in entries for p in row):
                return False, "D[G] has a non-polynomial entry"
            m = Matrix(entries)
        c = m.det().constant_value()
        if c is None:
            return False, "det D[G] is not constant"
        if not c:
            return False, "det D[G] = 0"
        return True, None

    r.run("flat.detDG", "det D[G] is a nonzero constant", det_dg)
    # and so D^2[G] = D[B^(1)] + D[B^(1)]^T, zero when D[B^(1)] is
    r.run("flat.D2G", "D^2[G] = D[B^(1) + (B^(1))^T] = 0",
          lambda: _first_nonzero(dp_matrix(dg(), [ell], ctx)[0], "D^2[G]"),
          decided=lambda: chain_base(ctx) and not any(
              e for row in d_bk(1, bk_matrix(1, ctx), ctx).entries for e in row))

    skip_note = "skipped (invariants not flat-normalized)"

    def closed_form(k):
        if not flat_normalized():
            return "skipped", skip_note
        bk = bk_matrix(k, ctx)
        want = Matrix([[MultiPoly.const(
            ell, (field.coerce(exps[j]) / h + (k - 1)) if i + j == ell - 1 else 0,
            field) for j in range(ell)] for i in range(ell)])
        return _cmp_matrices(bk, want)

    r.run("flat.B1", "Remark: B^(1)_ij = (m_j/h) delta_{i+j,l+1}",
          lambda: closed_form(1))
    for k in range(1, k_max + 1):
        r.run(f"flat.Bk/k={k}",
              "Remark: B^(k)_ij = ((k-1) + m_j/h) delta_{i+j,l+1}",
              lambda k=k: closed_form(k))
    return r.results


# -- suite registry ---------------------------------------------------------------------

SUITE_ORDER = ("metric", "lemma21", "lemma22", "theorems", "hodge", "flat")


def run_suites(ctx: SaitoContext, suites, k_max: int, m_max: int, p_max: int,
               invariants_id: str = "builtin") -> CheckReport:
    """Run the selected suites in canonical order and assemble one report;
    suites is None or "all", one suite name, or an iterable of names."""
    chosen = (list(SUITE_ORDER) if suites in (None, "all")
              else [suites] if isinstance(suites, str) else list(suites))
    for name in chosen:
        if name not in SUITE_ORDER:
            raise ConfigError(f"unknown suite {name!r}; available: {SUITE_ORDER}")
    suite = {"metric": lambda: check_metric(ctx),
             "lemma21": lambda: check_lemma21(ctx, k_max),
             "lemma22": lambda: check_lemma22(ctx),
             "theorems": lambda: check_thm24_thm25_prop26(ctx, k_max, m_max),
             "hodge": lambda: check_hodge(ctx, p_max),
             "flat": lambda: check_flat_remark(ctx, k_max)}
    return CheckReport(ctx.datum.label(), ctx.datum.field.describe(), invariants_id,
                       [r for name in SUITE_ORDER if name in chosen for r in suite[name]()])
