from fractions import Fraction

import pytest
from conftest import (determinant_route_basis, fresh_context, levi_civita_star,
                      per_k_lemma22, reference_contact_defect, shared_context,
                      shared_report, stated_route_checks, with_entry)

from coxsaito import matrix, saito, verify
from coxsaito.coxeter import (BasicInvariants, anti_invariant_Q, build_datum,
                              validate_invariants)
from coxsaito.errors import ConfigError, SingularMatrix
from coxsaito.fraction import FactoredFraction, PowerBase
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly, contact_order
from coxsaito.saito import (PolyDerivation, bk_matrix, build_context,
                            christoffel_star, contact_defect, derivation_apply,
                            derivation_bracket, dkx, nabla_xi,
                            primitive_derivation, xi_basis)
from coxsaito.verify import (CheckReport, check_flat_remark, check_hodge,
                             check_lemma21, check_lemma22, check_metric,
                             check_thm24_thm25_prop26, run_suites)


def _value_on_form(theta, ctx, h):
    """theta(alpha_H) for the h-th hyperplane form, coefficient by coefficient."""
    form = ctx.datum.forms[h]
    value = MultiPoly.zero(ctx.rank, ctx.datum.field)
    for c, a in zip(theta.poly_coeffs(), form):
        value = value + c * a
    return value


def test_contact_order_a1_xi3():
    ctx = shared_context("A", 1)
    assert contact_defect(3, ctx) is None
    value = _value_on_form(xi_basis(3, ctx)[0], ctx, 0)
    alpha = ctx.datum.form_poly(0)
    assert contact_order(value, alpha, 9) == 3  # order exactly 3
    assert contact_order(value, alpha, 2) == 2


def test_contact_order_zero_always_passes():
    ctx = shared_context("B", 2)
    x = MultiPoly.variable(2, 0)
    for alpha in ctx.datum.form_polys():
        assert contact_order(x + MultiPoly.const(2, 7), alpha, 0) == 0
        assert contact_order(MultiPoly.zero(2), alpha, 5) == 5
    assert contact_defect(0, ctx) is None


def test_contact_order_b2_gradient_fails_at_two():
    # the xi^(1) row, the gradients of the basic invariants, has contact
    # order exactly 1 somewhere
    ctx = fresh_context("B", 2)
    ctx.xi_table[2] = list(xi_basis(1, ctx))
    j, h, order = contact_defect(2, ctx)
    assert order == 1
    assert contact_order(_value_on_form(xi_basis(1, ctx)[j], ctx, h),
                         ctx.datum.form_poly(h), 2) == 1


def test_contact_defect_scans_xi_before_hyperplanes():
    # at m = 3, xi^(1)_2 = grad(x^4+y^4) first fails on hyperplane 3 and
    # xi^(1)_1 on hyperplane 1: the defect is that of the first derivation
    ctx = fresh_context("B", 2)
    ctx.xi_table[3] = list(reversed(xi_basis(1, ctx)))
    assert contact_defect(3, ctx) == (0, 2, 1)


def test_contact_order_divides_at_most_m_times(monkeypatch):
    x = MultiPoly.variable(2, 0)
    calls = []
    divide = MultiPoly.exact_divide
    monkeypatch.setattr(MultiPoly, "exact_divide",
                        lambda f, g: calls.append(1) or divide(f, g))
    assert contact_order(x ** 10, x, 3) == 3
    assert len(calls) == 3


def test_contact_defect_is_built_once_per_m(monkeypatch):
    # once thm25.member/m=3 has run, hodge.contact/p=2 divides nothing
    ctx = fresh_context("B", 2)
    assert contact_defect(3, ctx) is None

    def refuse(f, g):
        raise AssertionError("exact_divide after the contact table was filled")

    monkeypatch.setattr(MultiPoly, "exact_divide", refuse)
    assert contact_defect(3, ctx) is None


def _diagonal(m, ctx):
    """The row x_j^(d_j) d/dx_j, d_j the degree of xi^(m)_j that Theorem 2.5
    (2) states: homogeneous columns of degree sum m N with det(x0) != 0 at
    every point off the coordinate hyperplanes, outside D^(m)(A) for m >= 1."""
    k, h, field = m // 2, ctx.datum.coxeter_number, ctx.datum.field
    return [PolyDerivation([MultiPoly.variable(ctx.rank, i, field) ** (k * h + m % 2 * e)
                            if i == j else MultiPoly.zero(ctx.rank, field)
                            for i in range(ctx.rank)])
            for j, e in enumerate(ctx.datum.exponents)]


def test_contact_defect_judges_a_replaced_row_again():
    # the verdict is kept with the row it judged: a row that replaces
    # xi_table[m] after the first verdict is judged again
    ctx = fresh_context("B", 2)
    assert contact_defect(2, ctx) is None
    ctx.xi_table[2] = _diagonal(2, ctx)
    assert contact_defect(2, ctx) == reference_contact_defect(2, ctx) is not None


def _spy_dp_matrix(monkeypatch):
    """The (matrix, directions) of every dp_matrix call from now on."""
    seen = []
    real = saito.dp_matrix

    def spy(m, ks, context):
        seen.append((m, tuple(ks)))
        return real(m, ks, context)

    monkeypatch.setattr(saito, "dp_matrix", spy)
    monkeypatch.setattr(verify, "dp_matrix", spy)
    return seen


def _chain_off(monkeypatch):
    """Switch the Theorem 2.4 chain off: its base fails, so every check it
    decides takes its own route."""
    monkeypatch.setattr(saito, "chain_base", lambda ctx: False)
    monkeypatch.setattr(verify, "chain_base", lambda ctx: False)


def test_lemma22_differentiates_g_inverse_only_on_fallback(monkeypatch):
    # a passing run decides every lemma22 check by the base of Lemma 2.2: G
    # is not differentiated and G^-1 is never built; J(P) is differentiated
    # only in direction l, for B^(1) = Gamma*_l, and christoffel_star takes
    # one direction at a time, so that an integrity error stays with its k
    ctx = fresh_context("A", 3)
    seen = _spy_dp_matrix(monkeypatch)
    assert all(r.status == "pass" for r in check_lemma22(ctx))
    every = (1, 2, 3)
    assert [ks for m, ks in seen if m is ctx.jac_P] == [(3,)]
    assert len(seen) == 1
    assert ctx._metric_G_inv is None
    # with Gamma*_1 tampered the base fails, and the statements differentiate
    # G and G^-1 exactly once each, in every direction
    ctx = fresh_context("A", 3)
    star = christoffel_star(1, ctx)
    ctx.christoffel_table[1] = with_entry(star, 0, 0, star[0, 0] + MultiPoly.const(3, 1))
    seen.clear()
    assert {r.name for r in check_lemma22(ctx) if r.status != "pass"} == {
        "lemma22.2/k=1", "lemma22.13/k=1", "lemma22.B"}
    assert [ks for m, ks in seen if m is ctx.metric_G_inv()] == [every]
    assert [ks for m, ks in seen if m is ctx.metric_G] == [every]
    assert sorted(ks for m, ks in seen if m is ctx.jac_P) == [(2,), (3,)]
    assert len(seen) == 4
    # without the chain's base every check takes its statement, as above
    _chain_off(monkeypatch)
    ctx = fresh_context("A", 3)
    seen.clear()
    assert all(r.status == "pass" for r in check_lemma22(ctx))
    assert [ks for m, ks in seen if m is ctx.metric_G] == [every]
    assert [ks for m, ks in seen if m is ctx.metric_G_inv()] == [every]
    assert len(seen) == 5


def _plus_at(name, i, j, delta):
    """Tamper: delta(ctx) added to entry (i, j) of the matrix held at name
    (a context attribute, or ("star", t) for Gamma*_t); i, j = -1 is l."""
    def tamper(ctx):
        ii, jj = i % ctx.rank, j % ctx.rank
        if isinstance(name, tuple):
            t = name[1] % (ctx.rank + 1) or ctx.rank
            m = christoffel_star(t, ctx)
            ctx.christoffel_table[t] = with_entry(m, ii, jj, m[ii, jj] + delta(ctx))
        else:
            m = getattr(ctx, name)
            setattr(ctx, name, with_entry(m, ii, jj, m[ii, jj] + delta(ctx)))
    return tamper


def _one(ctx):
    return MultiPoly.const(ctx.rank, 1, ctx.datum.field)


def _x1(ctx):
    return MultiPoly.variable(ctx.rank, 0, ctx.datum.field)


def _scaled_dp1(ctx, over_q):
    """Row 1 of J(P)^-1 doubled, or put over one more power of q, which
    leaves Gamma*_1 alone not polynomial."""
    rows = ctx.jac_P_inv.entries
    first = [FactoredFraction(e.numerator, ctx.q_base, e.exp + 1) if over_q else e + e
             for e in rows[0]]
    ctx.jac_P_inv = Matrix([first, *rows[1:]])


def _unipotent(ctx):
    """The constant invertible U = I + E_12 + E_(l-1,l)."""
    ell, field = ctx.rank, ctx.datum.field
    return Matrix.from_scalars(
        [[1 if i == j or (i, j) in ((0, 1), (ell - 2, ell - 1)) else 0
          for j in range(ell)] for i in range(ell)], ell, field)


def _congruent_metric(ctx):
    """G replaced by U^T G U: symmetric, det G times 1, no group's metric."""
    u = _unipotent(ctx)
    ctx.metric_G = u.transpose() * ctx.metric_G * u


def _antisymmetric_star1(ctx):
    """Gamma*_1 + (E_12 - E_21): Gamma*_1 + (Gamma*_1)^T is unchanged, so
    Lemma 2.2 (2) still holds, but the torsion identity (B) does not."""
    _plus_at(("star", 1), 0, 1, _one)(ctx)
    _plus_at(("star", 1), 1, 0, lambda c: -_one(c))(ctx)


def _copy_star1(ctx):
    """Gamma*_1 in `christoffel_table` replaced by an equal matrix, another
    object: no Gamma*_t is then certainly the kept one."""
    ctx.christoffel_table[1] = Matrix(christoffel_star(1, ctx).entries)


def _double_p1(ctx):
    """The basic invariants with P_1 doubled, after the build: J(P) is no
    longer their Jacobian, and nothing the statements read changes."""
    polys = ctx.invariants.polys
    ctx.invariants = BasicInvariants((polys[0] + polys[0], *polys[1:]), True)


LEMMA22_TAMPERINGS = {
    "none": lambda ctx: None,
    "star1.11+1": _plus_at(("star", 1), 0, 0, _one),
    "starl.l1+x1": _plus_at(("star", -1), -1, 0, _x1),
    "jac_P_inv.row1x2": lambda ctx: _scaled_dp1(ctx, False),
    "jac_P_inv.row1/q": lambda ctx: _scaled_dp1(ctx, True),
    "G.12,21+1": lambda ctx: (_plus_at("metric_G", 0, 1, _one)(ctx),
                              _plus_at("metric_G", 1, 0, _one)(ctx)),
    "G=U^T G U": _congruent_metric,
    "G.12+1": _plus_at("metric_G", 0, 1, _one),
    "G=G U": lambda ctx: setattr(ctx, "metric_G", ctx.metric_G * _unipotent(ctx)),
    "star1+E12-E21": _antisymmetric_star1,
    "star1 copy": _copy_star1,
    "invariants.P1x2": _double_p1,
}
# the tamperings that change no value the statements read: each breaks one
# premise of the base of Lemma 2.2 alone
LEMMA22_PASSING = {"none", "star1 copy", "invariants.P1x2"}


def _outcomes(results):
    return [(r.name, r.paper_ref, r.status, r.witness, r.integrity) for r in results]


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
@pytest.mark.parametrize("tamper", list(LEMMA22_TAMPERINGS))
def test_lemma22_matches_the_per_k_route(label, rank, tamper):
    # the base of Lemma 2.2 decides the suite only on passing runs: on every
    # tampering the statuses and witnesses are those of the per-k route
    got, want = fresh_context(label, rank), fresh_context(label, rank)
    LEMMA22_TAMPERINGS[tamper](got)
    LEMMA22_TAMPERINGS[tamper](want)
    outcomes = _outcomes(check_lemma22(got))
    assert outcomes == _outcomes(per_k_lemma22(want))
    assert (tamper in LEMMA22_PASSING) == all(
        status == "pass" for _, _, status, *_ in outcomes)


# the tamperings that break one premise of the base of Lemma 2.2 alone
LEMMA22_PREMISE_BROKEN = {"star1 copy": "kept stars", "invariants.P1x2": "own frame",
                          "jac_P_inv.row1x2": "dual frame"}


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
@pytest.mark.parametrize("tamper", list(LEMMA22_PREMISE_BROKEN))
def test_each_lemma22_premise_is_broken_alone(label, rank, tamper):
    ctx = fresh_context(label, rank)
    LEMMA22_TAMPERINGS[tamper](ctx)
    ell, field = ctx.rank, ctx.datum.field
    holds = {
        "kept stars": all(christoffel_star(t, ctx) is saito._gamma_star(t, ctx)
                          for t in range(1, ell + 1)),
        "own frame": saito._own_frame(ctx),
        "dual frame": ctx.jac_P_inv * ctx.jac_P == Matrix.identity(ell, ell, field)}
    assert [name for name, ok in holds.items() if not ok] == [LEMMA22_PREMISE_BROKEN[tamper]]
    assert saito.chain_base(ctx) and not saito.connection_base(ctx)


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
def test_torsion_alone_sends_lemma22_13_to_the_per_k_route(label, rank):
    # Gamma*_1 + (E_12 - E_21) keeps Lemma 2.2 (2) and breaks (B): lemma22.13/k=1
    # fails by the standard Christoffel formula, and every other k passes
    ctx = fresh_context(label, rank)
    _antisymmetric_star1(ctx)
    assert {r.name for r in check_lemma22(ctx) if r.status != "pass"} == {
        "lemma22.13/k=1", "lemma22.B"}
    assert ctx._metric_G_inv is not None


@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 2), ("I2", 5), ("H3", 3)])
def test_passing_lemma22_forms_nothing_from_g(label, rank, request, monkeypatch):
    # the base of Lemma 2.2 decides every check: a passing run forms no
    # product with G on the left (no T = G S), no determinant of G and no
    # G^-1, and does not differentiate G
    ctx = _fresh_group_context(label, rank, request)
    lefts, mul = [], Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: lefts.append(a) or mul(a, b))
    tables, seen = _spy_minor_tables(monkeypatch), _spy_dp_matrix(monkeypatch)
    assert all(r.status == "pass" for r in check_lemma22(ctx))
    assert not any(m is ctx.metric_G for m in lefts)
    assert not any(m is ctx.metric_G for _, m in tables)
    assert not any(m is ctx.metric_G for m, _ in seen)
    assert ctx._metric_G_inv is None


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3)])
def test_failed_inversion_of_g_forms_one_determinant(label, rank, monkeypatch):
    # with G(1,2) + 1, det G is no c q^a: every lemma22.13/k fails on the
    # inversion of G, and each try reads the table G keeps, so the run forms
    # one determinant of G
    ctx = fresh_context(label, rank)
    _plus_at("metric_G", 0, 1, _one)(ctx)
    tables = _spy_minor_tables(monkeypatch)
    report = run_suites(ctx, "all", 2, 3, 1)
    broken = [r.name for r in report.results if r.integrity]
    assert broken == [f"lemma22.13/k={k}" for k in range(1, rank + 1)]
    assert sum(m is ctx.metric_G for _, m in tables) == 1
    assert ctx._metric_G_inv is None


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3)])
def test_compatible_torsion_free_holds_for_any_symmetric_invertible_metric(
        label, rank):
    # the one fact the base of Lemma 2.2 assumes for (1)+(3): for a G that is
    # no group's metric, G' = U^T G U, the -G' Gamma_k(G') of the standard
    # formula satisfy Lemma 2.2 (2) and (B), and lemma22.13 passes with them
    ctx = fresh_context(label, rank)
    _congruent_metric(ctx)
    directions = range(1, rank + 1)
    stars = [levi_civita_star(k, ctx) for k in directions]
    assert stars[0] != christoffel_star(1, ctx)
    ctx.christoffel_table.update(zip(directions, stars))
    results = {r.name: r.status for r in check_lemma22(ctx)}
    assert all(results[f"lemma22.13/k={k}"] == "pass" for k in directions)


def _contact_variants(ctx, m):
    """Contexts like ctx with nothing cached, holding the xi^(m) row of ctx
    and, for m >= 1, the lower-order stand-in xi^(m-1) as xi^(m)."""
    rows = [xi_basis(m, ctx)] + ([xi_basis(m - 1, ctx)] if m else [])
    for row in rows:
        fresh = build_context(ctx.datum, ctx.invariants)
        fresh.xi_table[m] = list(row)
        yield fresh


CONTACT_BOUNDS = [(("A", 1), 7), (("A", 2), 7), (("B", 2), 7), (("I2", 5), 7),
                  (("I2", 8), 7), (("B", 3), 7), (("D", 3), 7), (("A", 3), 7),
                  (("D", 4), 5)]


def _assert_contact_scans_agree(ctx, m_max):
    defects = []
    for m in range(m_max + 1):
        for fresh in _contact_variants(ctx, m):
            want = reference_contact_defect(m, fresh)
            assert contact_defect(m, fresh) == want, m
            defects.append(want)
    # the true rows pass, and the stand-ins reach the witness order
    assert defects[0] is None and any(d is not None for d in defects)


@pytest.mark.parametrize("group,m_max", CONTACT_BOUNDS)
def test_contact_defect_matches_reference_scan(group, m_max):
    _assert_contact_scans_agree(shared_context(*group), m_max)


def test_h3_contact_defect_matches_reference_scan(h3_context):
    _assert_contact_scans_agree(h3_context, 3)


def _tamper_contact(ctx, m, j, h):
    """xi^(m)_j plus alpha_h^(m-1) prod_(g != h) alpha_g^m in its first
    coordinate that alpha_h reads: its value on alpha_h then has order exactly
    m - 1, and every other hyperplane still divides it m times."""
    datum = ctx.datum
    alphas = datum.form_polys()
    i = next(i for i, a in enumerate(datum.forms[h]) if a)
    extra = alphas[h] ** (m - 1)
    for g, alpha in enumerate(alphas):
        if g != h:
            extra = extra * alpha ** m
    row = list(xi_basis(m, ctx))
    coeffs = list(row[j].coeffs)
    coeffs[i] = coeffs[i] + extra
    row[j] = PolyDerivation(coeffs)
    ctx.xi_table[m] = row


ORDER_ONE_SHORT = {
    (("B", 2), 3): "xi^(3)_2: hyperplane 4 (x+y): order 2 < 3",
    (("I2", 5), 5): "xi^(5)_2: hyperplane 5 (x+(1/5*t^3)*y): order 4 < 5",
}


@pytest.mark.parametrize("group,m", list(ORDER_ONE_SHORT))
def test_contact_order_one_short_is_witnessed_by_the_fallback(group, m, monkeypatch):
    # the last (j, h) scanned fails: every earlier entry passes its one
    # division, and only the failing one runs contact_order for its order
    ctx = fresh_context(*group)
    last = len(ctx.datum.forms) - 1
    _tamper_contact(ctx, m, 1, last)
    calls = []
    order_of = saito.contact_order
    monkeypatch.setattr(saito, "contact_order",
                        lambda f, alpha, m: calls.append(m) or order_of(f, alpha, m))
    by_name = {r.name: r for r in run_suites(ctx, ["theorems"], 0, m, 0).results}
    member = by_name[f"thm25.member/m={m}"]
    assert member.status == "fail" and not member.integrity
    assert member.witness == ORDER_ONE_SHORT[(group, m)]
    assert calls == [m]
    assert contact_defect(m, ctx) == (1, last, m - 1)
    assert reference_contact_defect(m, ctx) == (1, last, m - 1)


# (group, lo, hi) -> witness of thm25.member/m=hi when xi^(lo)_2 stands in for
# xi^(hi)_2; the order printed is the exact contact order of xi^(lo)_2
MEMBER_WITNESSES = {
    (("B", 2), 1, 3): "xi^(3)_2: hyperplane 3 (x-y): order 1 < 3",
    (("A", 3), 3, 5): "xi^(5)_2: hyperplane 1 (x-y): order 3 < 5",
    (("I2", 5), 3, 5): "xi^(5)_2: hyperplane 1 (y): order 3 < 5",
    (("I2", 8), 2, 7): "xi^(7)_2: hyperplane 1 (y): order 2 < 7",
    (("D", 3), 4, 6): "xi^(6)_2: hyperplane 1 (x-y): order 4 < 6",
}


def _lower_order_stand_in(group, lo, hi):
    ctx = fresh_context(*group)
    row = list(xi_basis(hi, ctx))
    row[1] = xi_basis(lo, ctx)[1]
    ctx.xi_table[hi] = row
    return ctx


@pytest.mark.parametrize("group,lo,hi", list(MEMBER_WITNESSES))
def test_thm25_member_witness_names_first_low_order(group, lo, hi):
    ctx = _lower_order_stand_in(group, lo, hi)
    by_name = {r.name: r for r in run_suites(ctx, ["theorems"], 0, hi, 0).results}
    member = by_name[f"thm25.member/m={hi}"]
    assert member.status == "fail" and not member.integrity
    assert member.witness == MEMBER_WITNESSES[(group, lo, hi)]


def test_hodge_contact_carries_the_thm25_member_witness():
    ctx = _lower_order_stand_in(("B", 2), 1, 3)
    by_name = {r.name: r for r in
               run_suites(ctx, ["theorems", "hodge"], 1, 3, 2).results}
    assert by_name["hodge.contact/p=2"].status == "fail"
    assert (by_name["hodge.contact/p=2"].witness
            == by_name["thm25.member/m=3"].witness
            == "xi^(3)_2: hyperplane 3 (x-y): order 1 < 3")


def test_non_polynomial_xi_is_an_integrity_failure():
    # D[x] has det J(P) in its denominator; every check that needs the
    # polynomial coefficients of xi^(3) reports it, none crashes the run
    ctx = fresh_context("B", 2)
    xis = xi_basis(3, ctx)
    bad = xis[0].coeffs[0] + dkx(1, ctx)[0]
    ctx.xi_table[3] = [PolyDerivation([bad, xis[0].coeffs[1]]), xis[1]]
    report = run_suites(ctx, ["theorems", "hodge"], 1, 3, 2)
    broken = {r.name: r.witness for r in report.results if r.integrity}
    assert set(broken) == {"thm25.member/m=3", "thm25.basis/m=3",
                           "hodge.winv/p=2", "hodge.contact/p=2"}
    assert set(broken.values()) == {
        "integrity error: derivation has a non-polynomial coefficient"}


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("D", 3),
    ("I2", 3), ("I2", 4), ("I2", 5), ("I2", 6), ("I2", 7), ("I2", 8),
])
def test_all_builtins_pass(label, rank):
    report = shared_report(label, rank)
    fails = [r for r in report.results if r.status == "fail"]
    assert not fails, [(r.name, r.witness) for r in fails]
    assert report.counts["pass"] > 0


def test_reports_are_deterministic():
    ctx = shared_context("B", 2)
    r1 = run_suites(ctx, "all", 2, 3, 2)
    r2 = run_suites(ctx, "all", 2, 3, 2)
    strip = lambda rep: [(r.name, r.paper_ref, r.status, r.witness)
                         for r in rep.results]
    assert strip(r1) == strip(r2)


def test_one_suite_name_is_one_suite():
    # a string other than "all" names one suite, not one suite per character
    ctx = shared_context("B", 2)
    statuses = lambda rep: [(r.name, r.status, r.witness) for r in rep.results]
    one = run_suites(ctx, "flat", 1, 1, 1)
    assert statuses(one) == statuses(run_suites(ctx, ["flat"], 1, 1, 1))
    assert {r.name.split("/")[0].split(".")[0] for r in one.results} == {"flat"}


@pytest.mark.parametrize("suites", ["flatt", ["metric", "lemma"], ("f",)])
def test_unknown_suite_is_a_config_error(suites):
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suites(shared_context("B", 2), suites, 1, 1, 1)


def test_every_check_name_unique():
    report = shared_report("B", 2)
    names = [r.name for r in report.results]
    assert len(names) == len(set(names))


def test_failures_always_carry_witness():
    ctx = fresh_context("B", 2)
    bk_matrix(2, ctx)
    one = MultiPoly.const(2, 1)
    tampered = with_entry(ctx.bk_table[2], 0, 0, ctx.bk_table[2][0, 0] + one)
    ctx.bk_table[2] = tampered
    results = check_lemma21(ctx, 3)
    fails = [r for r in results if r.status == "fail"]
    assert fails
    assert all(r.witness for r in fails)


def test_mutated_b2_matrix_detected_with_entry_witness():
    ctx = fresh_context("B", 2)
    bk_matrix(2, ctx)
    one = MultiPoly.const(2, 1)
    ctx.bk_table[2] = with_entry(ctx.bk_table[2], 0, 0, ctx.bk_table[2][0, 0] + one)
    results = check_lemma21(ctx, 2)
    failed = {r.name for r in results if r.status == "fail"}
    assert "lemma21.4/k=1" in failed
    witness = next(r.witness for r in results if r.name == "lemma21.4/k=1")
    assert "(1,1)" in witness


def test_witness_prints_polynomial_sides_as_polynomials():
    # both sides of thm24.1 are polynomial matrices; B^(1)^-1 has a constant
    # determinant, which the witness folds into the coefficients
    ctx = fresh_context("A", 2)
    bk_matrix(1, ctx)
    one = MultiPoly.const(2, 1)
    ctx.bk_table[1] = with_entry(ctx.bk_table[1], 0, 0, ctx.bk_table[1][0, 0] + one)
    results = check_thm24_thm25_prop26(ctx, 1, 3)
    witness = next(r.witness for r in results if r.name == "thm24.1/k=1")
    assert witness == (
        "entry (1,1): lhs = -32*x^2-32*x*y-32*y^2, "
        "rhs = -18*x^2*y-18*x*y^2-32*x^2-32*x*y-32*y^2, "
        "difference = 18*x^2*y+18*x*y^2")


def test_mutated_metric_detected():
    ctx = fresh_context("B", 2)
    one = MultiPoly.const(2, 1)
    ctx.metric_G = with_entry(ctx.metric_G, 0, 1, ctx.metric_G[0, 1] + one)
    results = check_metric(ctx)
    failed = {r.name for r in results if r.status == "fail"}
    assert "metric/recompute" in failed
    witness = next(r.witness for r in results if r.name == "metric/recompute")
    assert "(1,2)" in witness


def test_mutated_xi3_detected():
    ctx = fresh_context("B", 2)
    xis = xi_basis(3, ctx)
    perturbed = PolyDerivation(
        [xis[0].coeffs[0] + MultiPoly.const(2, 1), xis[0].coeffs[1]])
    ctx.xi_table[3] = [perturbed, xis[1]]
    results = check_thm24_thm25_prop26(ctx, 1, 3)
    failed = {r.name: r for r in results if r.status == "fail"}
    # a constant in the first coefficient has order 0 along x = 0; nabla_D
    # kills the constant, so thm24.1/k=1 still passes
    assert set(failed) == {"thm25.member/m=3", "thm25.basis/m=3", "thm25.2/m=3",
                           "prop26/k=1"}
    assert not any(r.integrity for r in failed.values())
    assert (failed["thm25.member/m=3"].witness
            == "xi^(3)_1: hyperplane 1 (x): order 0 < 3")
    sextic = "-16/3*x^6+80/3*x^4*y^2+80/3*x^2*y^4-16/3*y^6"
    assert failed["prop26/k=1"].witness == (
        f"entry (1,1): lhs = {sextic}+2*x, rhs = {sextic}, difference = 2*x")


def test_tampered_xi1_fails_disc_with_q_once_but_not_twice():
    # theta(Q^2) = 2 Q theta(Q) always lies in Q R, so only the division by
    # Q^2 sees that a constant added to xi^(1)_1 breaks Q | theta(Q)
    ctx = fresh_context("B", 2)
    xis = xi_basis(1, ctx)
    tampered = PolyDerivation([xis[0].coeffs[0] + MultiPoly.const(2, 1),
                               xis[0].coeffs[1]])
    ctx.xi_table[1] = [tampered, xis[1]]
    disc = next(r for r in check_hodge(ctx, 1) if r.name == "hodge.disc")
    assert disc.status == "fail" and not disc.integrity
    assert disc.witness == ("xi^(1)_1(Q^2) = 16*x^6*y^2-32*x^4*y^4+16*x^2*y^6"
                            "+6*x^5*y^2-8*x^3*y^4+2*x*y^6 not in Q^2 R")
    q = anti_invariant_Q(ctx.datum)
    ((value,),) = derivation_apply([tampered], [q * q], ctx)
    value = value.as_poly()
    assert value.exact_divide(q) is not None


def test_zero_b2_fails_lemma21_2_as_det_zero():
    ctx = fresh_context("B", 2)
    zero = MultiPoly.zero(2)
    ctx.bk_table[2] = Matrix([[zero, zero], [zero, zero]])
    det = next(r for r in check_lemma21(ctx, 2) if r.name == "lemma21.2/k=2")
    assert (det.status, det.witness, det.integrity) == ("fail", "det is zero", False)


def test_xi1_over_q_squared_fails_disc_as_not_polynomial():
    # xi^(1)_1 with first coefficient 1/q^2: xi^(1)_1(Q) is not polynomial,
    # and neither is xi^(1)_1(Q^2) = 2 Q xi^(1)_1(Q), which the witness names
    ctx = fresh_context("B", 2)
    xis = xi_basis(1, ctx)
    over_q2 = FactoredFraction(_one(ctx), ctx.q_base, 2)
    ctx.xi_table[1] = [PolyDerivation([over_q2, *xis[0].coeffs[1:]]), *xis[1:]]
    disc = next(r for r in check_hodge(ctx, 1) if r.name == "hodge.disc")
    assert (disc.status, disc.witness, disc.integrity) == (
        "fail", "xi^(1)_1(Q^2) is not polynomial", False)


def test_constant_metric_fails_det_dg_as_zero(monkeypatch):
    ctx = fresh_context("B", 2)
    _chain_off(monkeypatch)
    ctx.metric_G = Matrix.identity(2, 2, ctx.datum.field)
    det = next(r for r in check_flat_remark(ctx, 1) if r.name == "flat.detDG")
    assert (det.status, det.witness, det.integrity) == ("fail", "det D[G] = 0", False)


def _jac_p_plus_x1_cubed(ctx):
    """J(P) with x1^3 added at (1, l) before anything is built, and q, J(P)^-1
    and G rebuilt from it, G kept with its build record as `SaitoContext`
    keeps it: the chain's base holds for this J(P), but it is the Jacobian
    of no invariants, so D[B^(1)] is not zero."""
    ell = ctx.rank - 1
    jp = with_entry(ctx.jac_P, 0, ell, ctx.jac_P[0, ell] + _x1(ctx) ** 3)
    ctx.jac_P, ctx.q_base = jp, PowerBase(jp.det())
    ctx.jac_P_inv = jp.inverse(ctx.q_base)
    ctx.metric_G = jp.transpose() * ctx.gram_poly * jp
    ctx.kept[("G", 0)] = (jp, ctx.gram_poly), ctx.metric_G


def test_d2g_under_the_base_reports_its_statement_witness():
    # the base alone does not decide flat.D2G: with D[B^(1)] != 0 the
    # statement differentiates D[G] = B^(1) + (B^(1))^T and names the entry
    ctx = fresh_context("B", 2)
    _jac_p_plus_x1_cubed(ctx)
    assert saito.chain_base(ctx)
    d2g = next(r for r in check_flat_remark(ctx, 1) if r.name == "flat.D2G")
    assert (d2g.status, d2g.witness, d2g.integrity) == (
        "fail", "entry (2,2): D^2[G] = (12/5*x*y)/((x^3*y-4/5*x*y^3))", False)


G0_WITNESSES = {
    ("B", 2): "coefficient (5/2*y)/((x^3*y-x*y^3))",
    ("A", 2): "coefficient (4/3*x+8/3*y)/((x^3+3/2*x^2*y-3/2*x*y^2-y^3))",
    ("I2", 5): "coefficient (12/25*y)/((x^4*y-2*x^2*y^3+1/5*y^5))",
}


def _scale_xi1_by_p_ell(ctx):
    """xi^(1)_1 replaced by P_l xi^(1)_1."""
    xis = xi_basis(1, ctx)
    p_ell = ctx.invariants.polys[-1]
    ctx.xi_table[1] = [PolyDerivation([c * p_ell for c in xis[0].coeffs]), *xis[1:]]


@pytest.mark.parametrize("label,rank", list(G0_WITNESSES))
def test_xi1_scaled_by_p_ell_fails_g0_and_poincare(label, rank):
    # P_l xi^(1)_1 keeps W-invariance and contact order, but D[P_l] = 1, so
    # [D, nabla_D (P_l xi^(1)_1)] = nabla_D xi^(1)_1 is not zero; its degree
    # moves by deg P_l, which the Poincare series sees
    ctx = fresh_context(label, rank)
    _scale_xi1_by_p_ell(ctx)
    failed = {r.name: r.witness for r in check_hodge(ctx, 1) if r.status != "pass"}
    assert set(failed) == {"hodge.g0/p=1", "hodge.poincare/p=1"}
    assert failed["hodge.g0/p=1"] == ("[D, nabla_D^1 xi^(1)_1] != 0: "
                                      + G0_WITNESSES[(label, rank)])


def _perturb_xi(m, delta):
    """Tamper: delta(ctx) added to the first coefficient of xi^(m)_1."""
    def tamper(ctx):
        xis = xi_basis(m, ctx)
        first = xis[0].coeffs
        ctx.xi_table[m] = [PolyDerivation([first[0] + delta(ctx), *first[1:]]),
                           *xis[1:]]
    return tamper


def _plus_bk2(ctx):
    bk = bk_matrix(2, ctx)
    ctx.bk_table[2] = with_entry(bk, 0, 0, bk[0, 0] + _one(ctx))


def _copy_bk1(ctx):
    """B^(1) in `bk_table` replaced by an equal matrix, another object."""
    ctx.bk_table[1] = Matrix(bk_matrix(1, ctx).entries)


def _copy_jac_p_after_b1(ctx):
    """J(P) replaced by an equal matrix once B^(1) is built: Gamma*_l is
    derived again, so B^(1) is no longer that object."""
    bk_matrix(1, ctx)
    ctx.jac_P = Matrix(ctx.jac_P.entries)


def _perturb_dkx1(ctx):
    first, *rest = dkx(1, ctx)
    ctx.dkx_table[1] = (first + _x1(ctx), *rest)


def _plus_certified_b2(ctx):
    """The certified B^(2) with 1 added at (1,1), before anything reads it:
    xi^(4), xi^(5) and `bk_table[2]` are built from it."""
    b2 = saito._certified_bk(2, ctx)
    ctx._bk_memo[2] = with_entry(b2, 0, 0, b2[0, 0] + _one(ctx))


# jac_P.11+1 and jac_P_inv/D.l1+1 are the tamper kinds "jac_P" and
# "jac_P_inv/D" of test_saito.py; the last five each break one premise of the
# Theorem 2.4 chain
STATED_ROUTE_TAMPERINGS = {
    "none": lambda ctx: None,
    "xi3.11+x1": _perturb_xi(3, _x1),
    "xi3.11+D[x1]": _perturb_xi(3, lambda ctx: dkx(1, ctx)[0]),
    "bk_table[2].11+1": _plus_bk2,
    "jac_P.11+1": _plus_at("jac_P", 0, 0, _one),
    "jac_P_inv/D.l1+1": _plus_at("jac_P_inv", -1, 0, _one),
    "G.12+1": _plus_at("metric_G", 0, 1, _one),
    "xi1.1*P_l": _scale_xi1_by_p_ell,
    "bk_table[1] copy": _copy_bk1,
    "dkx_table[1].1+x1": _perturb_dkx1,
    "gram_poly.12+1": _plus_at("gram_poly", 0, 1, _one),
    "jac_P copy after B^(1)": _copy_jac_p_after_b1,
    "_bk_memo[2].11+1": _plus_certified_b2,
}
# the tamperings that change no value
EQUAL_COPIES = {"none", "bk_table[1] copy", "jac_P copy after B^(1)"}


# the groups of the differential test, with their k_max = p_max: H3 is a fresh
# context from the session's H3 file
STATED_ROUTE_GROUPS = {("B", 2): 3, ("A", 3): 3, ("I2", 5): 3, ("D", 3): 3,
                       ("H3", 3): 1}


def _fresh_group_context(label, rank, request):
    if label == "H3":
        h3 = request.getfixturevalue("h3_context")
        return build_context(h3.datum, h3.invariants)
    return fresh_context(label, rank)


@pytest.mark.parametrize("label,rank", list(STATED_ROUTE_GROUPS))
@pytest.mark.parametrize("tamper", list(STATED_ROUTE_TAMPERINGS))
def test_identities_report_as_the_stated_routes(label, rank, tamper, request):
    # thm24.1 and prop26 compare in the coordinate frame and hodge.g0 reads
    # its brackets on the invariants: on every tampering the names, statuses,
    # witnesses and integrity flags are those of the stated routes
    n = STATED_ROUTE_GROUPS[(label, rank)]
    got = _fresh_group_context(label, rank, request)
    want = _fresh_group_context(label, rank, request)
    STATED_ROUTE_TAMPERINGS[tamper](got)
    STATED_ROUTE_TAMPERINGS[tamper](want)
    results = (check_thm24_thm25_prop26(got, n, 0) + check_hodge(got, n)
               + check_flat_remark(got, n))
    by_name = {r.name: r for r in results}
    reference = stated_route_checks(want, n, n)
    strip = lambda r: (r.name, r.status, r.witness, r.integrity)
    assert [strip(by_name[r.name]) for r in reference] == [strip(r) for r in reference]
    assert (tamper in EQUAL_COPIES) == all(r.status == "pass" for r in reference)


@pytest.mark.parametrize("label,rank", list(STATED_ROUTE_GROUPS))
@pytest.mark.parametrize("tamper", list(STATED_ROUTE_TAMPERINGS))
def test_chain_reports_as_its_fallback(label, rank, tamper, request, monkeypatch):
    # every check the Theorem 2.4 chain decides reports, on every tampering,
    # the name, reference, status, witness and integrity flag of the run
    # with the chain switched off
    n = STATED_ROUTE_GROUPS[(label, rank)]
    got = _fresh_group_context(label, rank, request)
    STATED_ROUTE_TAMPERINGS[tamper](got)
    on = _outcomes(run_suites(got, "all", n, 1, n).results)
    _chain_off(monkeypatch)
    want = _fresh_group_context(label, rank, request)
    STATED_ROUTE_TAMPERINGS[tamper](want)
    assert on == _outcomes(run_suites(want, "all", n, 1, n).results)


# passing runs at the CLI defaults, and the tampered runs of the chain's
# differential test, each with its (k_max, m_max, p_max)
DECISION_OFF_CASES = (
    [(label, rank, "none", (3, 7, 3))
     for label, rank in (("A", 3), ("B", 2), ("I2", 5), ("D", 4), ("H3", 3))]
    + [(label, rank, tamper, (3, 1, 3))
       for label, rank in (("B", 2), ("A", 3), ("I2", 5), ("D", 3))
       for tamper in STATED_ROUTE_TAMPERINGS])


@pytest.mark.parametrize("label,rank,tamper,bounds", DECISION_OFF_CASES,
                         ids=[f"{label}-{rank}-{tamper}-mmax={bounds[1]}"
                              for label, rank, tamper, bounds in DECISION_OFF_CASES])
def test_every_decision_off_reports_as_on(label, rank, tamper, bounds, request,
                                          monkeypatch):
    # a decision can only pass: with every decision off (`_holds` false),
    # each check takes its statement, and the names, references, statuses,
    # witnesses and integrity flags stay those of the run with them on
    got = _fresh_group_context(label, rank, request)
    STATED_ROUTE_TAMPERINGS[tamper](got)
    on = _outcomes(run_suites(got, "all", *bounds).results)
    monkeypatch.setattr(verify, "_holds", lambda decided, *args: False)
    want = _fresh_group_context(label, rank, request)
    STATED_ROUTE_TAMPERINGS[tamper](want)
    assert on == _outcomes(run_suites(want, "all", *bounds).results)


def _broken_at(name, at, broken):
    """saito.name, with its value replaced by broken(value) for first
    argument at: a premise of the chain broken at one level or step."""
    real = getattr(saito, name)

    def patched(k, *args):
        if k != at:
            return real(k, *args)
        return broken(real(k, *args))
    return patched


def _singular(value):
    raise SingularMatrix("tampered")


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
def test_chain_reads_each_premise(label, rank, monkeypatch):
    # a premise broken at level or step 2 rejects exactly the chains that
    # reach it (step 2 reads the inverse of B^(2) through lead(2)); the base
    # rejects every chain.  The chain raises an error of a premise, and the
    # runner reads it as a failure (`verify._holds`)
    ctx = fresh_context(label, rank)
    holds = verify._holds
    assert holds(saito.chain_holds, 3, 3, ctx) and holds(saito.primitive_dual, ctx)
    for name, broken, level, step in (
            ("d_bk", lambda m: with_entry(m, 0, 0, m[0, 0] + _one(ctx)), True, False),
            ("_bk_inverse", _singular, True, True),
            ("prop26_holds", lambda holds: False, False, True),
            ("bk_step", lambda holds: False, False, True)):
        with monkeypatch.context() as patch:
            patch.setattr(saito, name, _broken_at(name, 2, broken))
            assert holds(saito.chain_holds, 3, 1, ctx) != level, name
            assert holds(saito.chain_holds, 1, 3, ctx) != step, name
            assert holds(saito.chain_holds, 1, 1, ctx), name
    with monkeypatch.context() as patch:
        patch.setattr(saito, "_own_frame", lambda context: False)
        assert holds(saito.chain_holds, 3, 3, ctx) and not holds(saito.primitive_dual, ctx)
    _copy_bk1(ctx)
    assert not holds(saito.chain_base, ctx) and not holds(saito.chain_holds, 1, 0, ctx)


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
def test_brackets_vanish_decides_as_the_bracket(label, rank):
    # the fields d/dP_k, the rows of J(P)^-1, commute with D = d/dP_l; the
    # Euler field E does not, [E, d/dP_k] = -deg P_k d/dP_k
    ctx = shared_context(label, rank)
    fields = [PolyDerivation(row) for row in ctx.jac_P_inv.entries]
    d = primitive_derivation(ctx)
    euler = PolyDerivation([MultiPoly.variable(ctx.rank, i, ctx.datum.field)
                            for i in range(ctx.rank)])
    for theta, vanish in ((d, True), (euler, False)):
        for eta in fields:
            assert derivation_bracket(theta, eta, ctx).is_zero() == vanish
    # [D, E] = deg P_l D != 0
    assert not derivation_bracket(d, euler, ctx).is_zero()


def _spy_products(monkeypatch):
    """The name of the check that forms each bracket [D, eta], each
    invariant-frame matrix J(P)^T M in `verify` and each nabla_D theta in
    `saito` from now on."""
    checks, brackets, frames, nablas = [], [], [], []
    run, bracket = verify._Runner.run, verify.derivation_bracket
    frame, nabla = verify._invariant_frame, saito.nabla_D
    monkeypatch.setattr(verify._Runner, "run", lambda self, name, ref, fn, decided=None:
                        checks.append(name) or run(self, name, ref, fn, decided))
    monkeypatch.setattr(verify, "derivation_bracket", lambda d, eta, ctx:
                        brackets.append((checks[-1], eta)) or bracket(d, eta, ctx))
    monkeypatch.setattr(verify, "_invariant_frame", lambda m, ctx:
                        frames.append(checks[-1]) or frame(m, ctx))
    monkeypatch.setattr(saito, "nabla_D", lambda theta, ctx:
                        nablas.append(checks[-1]) or nabla(theta, ctx))
    return brackets, frames, nablas


def test_passing_run_forms_no_bracket_frame_or_nabla(monkeypatch):
    # a passing A3 run at the CLI defaults decides thm24.1, thm24.2 and
    # hodge.g0 from the premise chain: no bracket, no invariant frame and no
    # nabla_D at all
    brackets, frames, nablas = _spy_products(monkeypatch)
    assert not run_suites(fresh_context("A", 3), "all", 3, 7, 3).failed
    assert brackets == frames == nablas == []
    # with P_l xi^(1)_1 the base fails, so every check the chain decides
    # takes its stated route: hodge.g0/p forms the brackets [D, eta] in turn
    # up to the first that does not vanish, [D, nabla_D xi^(1)_1] at p = 1,
    # and thm24.1/k and thm24.2/k map their sides to the invariant frame;
    # prop26/k does so only at k = 1, where its comparison fails
    ctx = fresh_context("A", 3)
    _scale_xi1_by_p_ell(ctx)
    report = run_suites(ctx, "all", 3, 7, 3)
    assert {r.name for r in report.results if r.status == "fail"} == {
        "thm25.basis/m=1", "thm25.2/m=1", "thm24.1/k=1", "thm24.2/k=1",
        "prop26/k=1", "hodge.g0/p=1", "hodge.poincare/p=1"}
    assert brackets == [("hodge.g0/p=1", nabla_xi(1, 1, ctx)[0])] + [
        (f"hodge.g0/p={p}", eta) for p in (2, 3) for eta in nabla_xi(2 * p - 1, p, ctx)]
    assert frames == ["thm24.1/k=1", "thm24.1/k=1", "thm24.2/k=1", "prop26/k=1",
                      "prop26/k=1", "thm24.1/k=2", "thm24.1/k=2", "thm24.2/k=2",
                      "thm24.1/k=3", "thm24.1/k=3", "thm24.2/k=3"]
    assert set(nablas) == {"thm24.1/k=1", "thm24.1/k=2", "thm24.1/k=3",
                           "thm24.2/k=1", "thm24.2/k=2", "thm24.2/k=3"}


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 3), ("B", 2), ("I2", 5),
                                        ("I2", 8), ("H3", 3)])
def test_passing_run_differentiates_no_xi_row_and_not_g(label, rank, request,
                                                         monkeypatch):
    # at the CLI defaults the chain decides Theorem 2.4, hodge.g0 and the
    # flat checks, and lemma22 reads d/dP_k[G] as Gamma*_k + (Gamma*_k)^T
    ctx = _fresh_group_context(label, rank, request)
    seen, nablas, nabla = _spy_dp_matrix(monkeypatch), [], saito.nabla_D
    monkeypatch.setattr(saito, "nabla_D", lambda theta, context:
                        nablas.append(theta) or nabla(theta, context))
    assert not run_suites(ctx, "all", 3, 7, 3).failed
    assert nablas == [] and not any(m is ctx.metric_G for m, _ in seen)


def test_hodge_substitutes_only_the_entries_of_b1(monkeypatch):
    # hodge.winv/p reads the certificate of saito.w_stable: xi^(1) by its
    # gradient form, B^(2) by the sum rule of bk_moved; only the entries of
    # B^(1) are substituted, once per generator of the generating prefix,
    # and a second run substitutes nothing
    ctx = fresh_context("I2", 8)
    seen, subst = [], MultiPoly.subst_linear
    monkeypatch.setattr(MultiPoly, "subst_linear",
                        lambda self, matrix: seen.append(self) or subst(self, matrix))
    assert not any(r.status == "fail" for r in check_hodge(ctx, 3))
    b1 = [e for row in bk_matrix(1, ctx).entries for e in row]
    assert [id(p) for p in seen] == [id(e) for _ in range(ctx.datum.n_generating)
                                     for e in b1]
    seen.clear()
    check_hodge(ctx, 3)
    assert seen == []


def test_xi3_scaled_by_p1_fails_hodge_only_at_poincare():
    # P_1 is invariant and D[P_1] = 0, so P_1 xi^(3)_1 keeps W-invariance,
    # contact order and the G_0 bracket; only its degree moves, by deg P_1
    ctx = fresh_context("B", 2)
    xis = xi_basis(3, ctx)
    p1 = ctx.invariants.polys[0]
    ctx.xi_table[3] = [PolyDerivation([c * p1 for c in xis[0].coeffs]), xis[1]]
    failed = {r.name: r.witness for r in check_hodge(ctx, 2) if r.status == "fail"}
    assert failed == {"hodge.poincare/p=2": (
        "series differ: ((0, 0, 0, 0, 0, 0, 0, 2), (1, 0, -1, 0, -1, 0, 1)) "
        "vs ((0, 0, 0, 0, 0, 1, 0, 1), (1, 0, -1, 0, -1, 0, 1))")}


def test_inhomogeneous_xi_fails_poincare_naming_j():
    ctx = fresh_context("B", 2)
    xis = xi_basis(1, ctx)
    ctx.xi_table[1] = [xis[0], PolyDerivation(
        [xis[1].coeffs[0] + MultiPoly.const(2, 1), xis[1].coeffs[1]])]
    poincare = next(r for r in check_hodge(ctx, 1) if r.name == "hodge.poincare/p=1")
    assert (poincare.status, poincare.witness) == ("fail",
                                                   "xi^(1)_2 is not homogeneous")


def _assert_tampered(report, not_passed, inverting, premise):
    """The checks not passed are as listed; of them, exactly the checks that
    invert the tampered matrix are integrity failures naming its det premise."""
    assert {r.name: r.status for r in report.results
            if r.status != "pass"} == not_passed
    broken = {r.name: r.witness for r in report.results if r.integrity}
    assert set(broken) == inverting
    assert all(premise in w for w in broken.values()), broken


FLAT_SKIPS = {"flat.B1": "skipped", "flat.Bk/k=1": "skipped",
              "flat.Bk/k=2": "skipped"}


def test_tampered_metric_fails_where_it_did_and_names_det_premise():
    # det G = c Q^2 is certified only by lemma22.13, from det G alone, before
    # any inversion of G; no CLI input reaches this state, since det J(P) = c Q
    # is certified at ingest.  thm24 and hodge.g0 read nabla_D, the flat
    # connection, which does not involve G, so they pass.
    ctx = fresh_context("B", 2)
    one = MultiPoly.const(2, 1)
    ctx.metric_G = with_entry(ctx.metric_G, 0, 1, ctx.metric_G[0, 1] + one)
    fails = ["metric/symmetry", "metric/recompute", "lemma22.13/k=1",
             "lemma22.13/k=2", "lemma22.B", "prop26/k=1", "prop26/k=2"]
    inverting = {"lemma22.13/k=1", "lemma22.13/k=2"}
    _assert_tampered(run_suites(ctx, "all", 2, 3, 1),
                     dict.fromkeys(fails, "fail") | FLAT_SKIPS, inverting,
                     "determinant is not a nonzero constant times a power of q")


def test_tampered_b2_matrix_fails_where_it_did_and_names_det_premise():
    # det B^(k) is a nonzero constant by Lemma 2.1 (2)
    ctx = fresh_context("B", 2)
    bk_matrix(2, ctx)
    one = MultiPoly.const(2, 1)
    ctx.bk_table[2] = with_entry(ctx.bk_table[2], 0, 0, ctx.bk_table[2][0, 0] + one)
    fails = ["lemma21.4/k=1", "lemma21.2/k=2", "lemma21.3/k=2", "lemma21.4/k=2",
             "thm24.1/k=1", "thm24.1/k=2", "thm24.2/k=2", "prop26/k=2"]
    _assert_tampered(run_suites(ctx, "all", 3, 5, 2),
                     dict.fromkeys(fails, "fail") | FLAT_SKIPS
                     | {"flat.Bk/k=3": "skipped"},
                     {"thm24.1/k=2", "prop26/k=2"},
                     "determinant is not a nonzero constant")


def test_flat_closed_forms_skipped_for_catalogue_b2():
    ctx = shared_context("B", 2)
    results = check_flat_remark(ctx, 3)
    by_name = {r.name: r for r in results}
    assert by_name["flat.detDG"].status == "pass"
    assert by_name["flat.D2G"].status == "pass"
    assert by_name["flat.B1"].status == "skipped"
    assert "not flat-normalized" in by_name["flat.B1"].witness


def test_flat_closed_forms_a1_quarter():
    datum = build_datum("A", 1)
    x = MultiPoly.variable(1, 0)
    inv = validate_invariants(datum, [x * x * Fraction(1, 4)], source="custom")
    ctx = build_context(datum, inv)
    results = check_flat_remark(ctx, 3)
    assert all(r.status == "pass" for r in results), \
        [(r.name, r.status, r.witness) for r in results]


def test_flat_normalized_b2_found_by_ansatz():
    # oracle: brute-force the ansatz P1 = c1(x^2+y^2),
    # P2 = x^4+y^4 + a(x^2+y^2)^2 over a small rational grid, selecting the
    # parameters that make D[G] the antidiagonal identity
    datum = build_datum("B", 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    r2 = x * x + y * y
    p4 = x ** 4 + y ** 4
    hits = []
    from coxsaito.saito import dp_matrix
    for c1 in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        for a in (Fraction(0), Fraction(-1, 4), Fraction(-1, 2),
                  Fraction(-3, 4), Fraction(-1)):
            inv = validate_invariants(datum, [r2 * c1, p4 + r2 * r2 * a],
                                      source="ansatz")
            ctx = build_context(datum, inv)
            (dg,) = dp_matrix(ctx.metric_G, [2], ctx)
            want = [[0, 1], [1, 0]]
            if all(dg[i, j] == MultiPoly.const(2, want[i][j]) for i in range(2)
                   for j in range(2)):
                hits.append((c1, a, ctx))
    assert len(hits) == 1
    c1, a, ctx = hits[0]
    assert (c1, a) == (Fraction(1, 8), Fraction(-3, 4))
    results = check_flat_remark(ctx, 3)
    assert all(r.status == "pass" for r in results), \
        [(r.name, r.status, r.witness) for r in results]
    b1 = bk_matrix(1, ctx)
    assert b1 == Matrix([[MultiPoly.const(2, 0), MultiPoly.const(2, Fraction(3, 4))],
                         [MultiPoly.const(2, Fraction(1, 4)), MultiPoly.const(2, 0)]])


def test_unimodular_recombination_keeps_basis_property():
    # replacing xi^(3) by an integer unimodular recombination keeps both the
    # membership checks and (up to a nonzero constant) the determinant
    ctx = fresh_context("B", 2)
    xis = xi_basis(3, ctx)
    mixed = PolyDerivation([a + b for a, b in zip(xis[0].coeffs, xis[1].coeffs)])
    ctx.xi_table[3] = [mixed, xis[1]]
    results = check_thm24_thm25_prop26(ctx, 1, 3)
    by_name = {r.name: r for r in results}
    assert by_name["thm25.member/m=3"].status == "pass"
    assert by_name["thm25.basis/m=3"].status == "pass"


def _plus_constant(row, ctx, m):
    return [PolyDerivation([row[0].coeffs[0] + _one(ctx), *row[0].coeffs[1:]]), *row[1:]]


# each tampering replaces xi_table[m] for every m <= 3 by change(row, ctx, m)
BASIS_TAMPERINGS = {
    "none": None,
    "duplicated column": lambda row, ctx, m: [row[0], *row[:-1]],
    "column times x1": lambda row, ctx, m: [
        PolyDerivation([c * _x1(ctx) for c in row[0].coeffs]), *row[1:]],
    "unimodular recombination": lambda row, ctx, m: [
        PolyDerivation([a + b for a, b in zip(row[0].coeffs, row[1].coeffs)]), *row[1:]],
    "constant added": _plus_constant,
    "non-polynomial": lambda row, ctx, m: [
        PolyDerivation([row[0].coeffs[0] + dkx(1, ctx)[0], *row[0].coeffs[1:]]), *row[1:]],
    "diagonal after a run": lambda row, ctx, m: _diagonal(m, ctx),
}


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("D", 3), ("I2", 5),
                                        ("H3", 3)])
@pytest.mark.parametrize("tamper", list(BASIS_TAMPERINGS))
def test_basis_reports_as_the_determinant_route(label, rank, tamper, request):
    # thm25.basis passes from the build records of the xi tower, which a
    # replaced row breaks, and else takes the determinant: on every
    # tampering the statuses, witnesses and integrity flags are those of the
    # determinant divided m times by Q; the last tampering replaces each row
    # after a first run has decided it
    ctx = _fresh_group_context(label, rank, request)
    change = BASIS_TAMPERINGS[tamper]
    if tamper == "diagonal after a run":
        assert not any(r.status == "fail" for r in check_thm24_thm25_prop26(ctx, 0, 3))
    if change is not None:
        for m in range(4):
            ctx.xi_table[m] = change(list(xi_basis(m, ctx)), ctx, m)
    got = [r for r in check_thm24_thm25_prop26(ctx, 0, 3) if r.name.startswith("thm25.basis")]
    want = determinant_route_basis(ctx, 3)
    strip = lambda r: (r.name, r.status, r.witness, r.integrity)
    assert [strip(r) for r in got] == [strip(r) for r in want]
    assert (tamper in ("none", "unimodular recombination")) == all(
        r.status == "pass" for r in want)


def _singular_gram(ctx):
    """A replaced by a singular matrix, every row its first, before anything
    is built."""
    ctx.gram_poly = Matrix([ctx.gram_poly.entries[0]] * ctx.rank)


def _p1_plus_x1(ctx):
    """P_1 + x1 as P_1 and J(P) + E_11 as J(P), before anything is built: J(P)
    is the Jacobian of the invariants, and det J(P) is no c Q."""
    polys = ctx.invariants.polys
    ctx.invariants = BasicInvariants((polys[0] + _x1(ctx), *polys[1:]), True)
    ctx.jac_P = with_entry(ctx.jac_P, 0, 0, ctx.jac_P[0, 0] + _one(ctx))


# the one premise of `saito.basis_holds` beside the build records that each
# tampering breaks
BASIS_PREMISE_TAMPERINGS = {"singular A": (_singular_gram, "own frame"),
                            "P_1 + x1": (_p1_plus_x1, "jacobian criterion")}


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5)])
@pytest.mark.parametrize("kind", list(BASIS_PREMISE_TAMPERINGS))
def test_each_basis_premise_is_broken_alone(label, rank, kind):
    # xi^(0) and xi^(1) are the recorded builds from T_0 = I, yet det A = 0
    # or det J(P) is no c Q: thm25.basis declines, and reports as the
    # determinant route, which fails
    tamper, broken = BASIS_PREMISE_TAMPERINGS[kind]
    ctx = fresh_context(label, rank)
    tamper(ctx)
    got = [r for r in check_thm24_thm25_prop26(ctx, 0, 1) if r.name.startswith("thm25.basis")]
    holds = {"records": all(saito._xi_built(m, ctx) for m in (0, 1)),
             "own frame": saito._own_frame(ctx),
             "jacobian criterion": saito.jacobian_criterion(ctx)}
    assert [name for name, ok in holds.items() if not ok] == [broken]
    want = determinant_route_basis(ctx, 1)
    strip = lambda r: (r.name, r.status, r.witness, r.integrity)
    assert [strip(r) for r in got] == [strip(r) for r in want]
    assert "fail" in [r.status for r in want]


def _spy_minor_tables(monkeypatch):
    """(check name, matrix) of every MinorTable built from now on."""
    checks, tables = [], []
    run, real = verify._Runner.run, matrix.MinorTable
    monkeypatch.setattr(verify._Runner, "run", lambda self, name, ref, fn, decided=None:
                        checks.append(name) or run(self, name, ref, fn, decided))

    class Spy(real):
        def __init__(self, m):
            tables.append((checks[-1] if checks else None, m))
            super().__init__(m)

    monkeypatch.setattr(matrix, "MinorTable", Spy)
    return tables


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 3), ("B", 2), ("I2", 5)])
def test_passing_basis_checks_form_no_polynomial_determinant(label, rank, monkeypatch):
    # at the CLI defaults every thm25.basis/m passes from the build records
    # of the xi tower and forms no determinant; with a constant added to a
    # coefficient of xi^(3)_1 the row is no recorded build, and
    # thm25.basis/m=3 alone forms the determinant of its coefficient matrix
    tables = _spy_minor_tables(monkeypatch)

    def basis_tables(ctx):
        tables.clear()
        report = run_suites(ctx, "all", 3, 7, 3)
        return report, [(name, any(e.constant_value() is None for row in m.entries
                                   for e in row))
                        for name, m in tables if name.startswith("thm25.basis")]

    report, basis = basis_tables(fresh_context(label, rank))
    assert not report.failed
    assert basis == []
    ctx = fresh_context(label, rank)
    _perturb_xi(3, _one)(ctx)
    report, basis = basis_tables(ctx)
    assert {r.name: r.status for r in report.results}["thm25.basis/m=3"] == "fail"
    assert [t for t in basis if t[1]] == [("thm25.basis/m=3", True)]


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 4), ("I2", 5), ("H3", 3)])
def test_a_passing_run_forms_each_determinant_once(label, rank, request, monkeypatch):
    # a matrix keeps its table of minors: det J(P) is formed once, in
    # build_context, for the base q and J(P)^-1, and metric/jacobian and the
    # basis decisions read its verdict; lemma21.2/k and the inverse of B^(k)
    # share one det B^(k)
    tables = _spy_minor_tables(monkeypatch)
    ctx = _fresh_group_context(label, rank, request)
    assert not run_suites(ctx, "all", 3, 7, 3).failed
    assert [name for name, m in tables if m is ctx.jac_P] == [None]
    assert [name for name, _ in tables if name == "metric/jacobian"] == []
    assert [sum(m is bk_matrix(k, ctx) for _, m in tables) for k in (1, 2, 3)] == [1, 1, 1]


def test_report_json_shape():
    report = shared_report("A", 1)
    doc = report.to_dict()
    assert set(doc) == {"group", "field", "invariants", "checks", "summary"}
    for check in doc["checks"]:
        assert {"name", "paper_ref", "status", "ms"} <= set(check)
    assert doc["summary"]["total"] == len(doc["checks"])
