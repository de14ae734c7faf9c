import hashlib
import json
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest
from conftest import (accumulating_apply, assert_same_form, fresh_context,
                      h3_document, invariant_frame_matrix, ladder_jdkx_inv,
                      nabla_matrix_reference,
                      nabla_power_reference, old_identity_accepts,
                      product_bk, reference_bracket,
                      reference_dkx, reference_dp_matrix, reference_nabla_xi,
                      shared_context, with_entry, xi_coefficient_matrix)

from coxsaito import saito
from coxsaito.coxeter import build_datum, builtin_invariants, validate_invariants
from coxsaito.errors import CoxsaitoError, NonPolynomialEntry, SingularMatrix
from coxsaito.fraction import FactoredFraction, PowerBase
from coxsaito.invariants_io import ingest_invariants
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly
from coxsaito.saito import (PolyDerivation, _certified_bk, bk_matrix, build_context,
                            christoffel_star, contact_defect, derivation_apply,
                            derivation_bracket, derivation_degree,
                            derivation_transform, dkx, dp_matrix, jdkx,
                            jdkx_inv, nabla_D, nabla_xi, primitive_derivation,
                            xi_basis)
from coxsaito.verify import check_lemma21, run_suites


@pytest.fixture(scope="module")
def a1():
    d = build_datum("A", 1)
    return build_context(d, builtin_invariants(d))


@pytest.fixture(scope="module")
def b2():
    d = build_datum("B", 2)
    return build_context(d, builtin_invariants(d))


@pytest.fixture(scope="module")
def a1_quarter():
    # normalized invariant P = x^2/4
    d = build_datum("A", 1)
    x = MultiPoly.variable(1, 0)
    inv = validate_invariants(d, [x * x * Fraction(1, 4)], source="custom")
    return build_context(d, inv)


def x1():
    return MultiPoly.variable(1, 0)


def dp_unit(k, ctx):
    """d/dP_k, whose coordinate coefficients are row k of J(P)^-1; k is
    1-based."""
    return PolyDerivation(ctx.jac_P_inv.entries[k - 1])


def hk(k, ctx):
    """H_k = (-1)^k (B^(1))^-1 G ... (B^(k))^-1 G.  Each det B^(i) is a
    nonzero constant, so H_k is a polynomial matrix."""
    h = Matrix.identity(ctx.rank, ctx.rank, ctx.datum.field)
    for i in range(1, k + 1):
        h = -(h * bk_matrix(i, ctx).inverse() * ctx.metric_G)
    return h


def test_a1_jacobian_and_metric(a1):
    x = x1()
    assert a1.jac_P == Matrix([[2 * x]])
    assert a1.metric_G == Matrix([[4 * x * x]])


def test_b2_metric(b2):
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert b2.metric_G[0, 0] == 4 * (x * x + y * y)
    assert b2.metric_G == b2.metric_G.transpose()
    recomputed = b2.jac_P.transpose() * b2.gram_poly * b2.jac_P
    assert recomputed == b2.metric_G


def test_a1_primitive_derivation(a1):
    base = a1.q_base
    d = primitive_derivation(a1)
    ((dx,),) = derivation_apply([d], [MultiPoly.variable(1, 0)], a1)
    assert dx == FactoredFraction(MultiPoly.const(1, Fraction(1, 2)), base, 1)
    ((d2x,),) = derivation_apply([d], [dx], a1)
    assert d2x == FactoredFraction(MultiPoly.const(1, Fraction(-1, 4)), base, 3)
    ((d3x,),) = derivation_apply([d], [d2x], a1)
    assert d3x == FactoredFraction(MultiPoly.const(1, Fraction(3, 8)), base, 5)


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("B", 2), ("I2", 4), ("I2", 5)])
def test_primitive_derivation_on_invariants(label, rank):
    d = build_datum(label, rank)
    ctx = build_context(d, builtin_invariants(d))
    values = derivation_apply([primitive_derivation(ctx)], ctx.invariants.polys, ctx)
    for i, val in enumerate(values[0]):
        expected = 1 if i == ctx.rank - 1 else 0
        assert val.as_poly() == MultiPoly.const(ctx.rank, expected, d.field)


def test_dkx_values_and_cache(a1):
    x = x1()
    assert dkx(0, a1)[0].as_poly() == x
    assert dkx(1, a1)[0] == FactoredFraction(MultiPoly.const(1, Fraction(1, 2)),
                                             a1.q_base, 1)
    assert dkx(2, a1)[0] == FactoredFraction(MultiPoly.const(1, Fraction(-1, 4)),
                                             a1.q_base, 3)
    assert 2 in a1.dkx_table


def test_a1_bk_golden(a1):
    for k, val in ((1, 2), (2, 6), (3, 10)):
        b = bk_matrix(k, a1)
        assert b == Matrix([[MultiPoly.const(1, val)]])


def test_a1_normalized_bk_remark(a1_quarter):
    # with P = x^2/4 the closed form B^(k) = (k-1) + m_1/h = (k-1) + 1/2
    for k in (1, 2, 3):
        b = bk_matrix(k, a1_quarter)
        assert b == Matrix([[MultiPoly.const(1, Fraction(2 * k - 1, 2))]])


def test_a1_normalized_flat_metric(a1_quarter):
    (dg,) = dp_matrix(a1_quarter.metric_G, [1], a1_quarter)
    assert dg[0, 0].as_poly() == MultiPoly.const(1, 1)


def test_b2_bk_corner_is_zero(b2):
    for k in (1, 2, 3):
        b = bk_matrix(k, b2)
        assert b[0, 0].is_zero()
        det = b.det()
        c = det.constant_value()
        assert c is not None and c != 0


def test_christoffel_last_equals_b1(b2, a1):
    for ctx in (b2, a1):
        assert christoffel_star(ctx.rank, ctx) == bk_matrix(1, ctx)


def test_christoffel_compat_with_metric(b2):
    for k, lhs in zip((1, 2), dp_matrix(b2.metric_G, (1, 2), b2)):
        star = christoffel_star(k, b2)
        rhs = star + star.transpose()
        assert lhs.simplify() == Matrix(
            [[FactoredFraction.from_poly(rhs[i, j]) for j in range(2)]
             for i in range(2)])


def test_a1_christoffel(a1):
    assert christoffel_star(1, a1) == Matrix([[MultiPoly.const(1, 2)]])


def test_a1_invariant_frame_chain_rule(a1):
    # xi^(0) = d/dx, and d/dx = 2x d/dP for P = x^2
    assert xi_basis(0, a1)[0].coeffs[0].as_poly() == MultiPoly.const(1, 1)
    assert invariant_frame_matrix(0, 0, a1) == Matrix([[2 * x1()]])


def test_primitive_derivation_is_dual_to_invariants(b2):
    # D is d/dP_l: D(P_i) = delta_il, through its coordinate coefficients
    d = primitive_derivation(b2)
    for i, value in enumerate(derivation_apply([d], b2.invariants.polys, b2)[0]):
        assert value == MultiPoly.const(2, int(i == 1))


FRAME_GROUPS = pytest.mark.parametrize("label,rank", [
    ("B", 2), ("I2", 5), ("A", 3)])


@FRAME_GROUPS
def test_frame_roundtrip_on_xi1(group_context, label, rank):
    # J(P)^-T takes the invariant-frame columns back to the coordinate frame
    ctx = group_context(label, rank)
    back = ctx.jac_P_inv.transpose() * invariant_frame_matrix(1, 0, ctx)
    assert back.simplify() == xi_coefficient_matrix(1, ctx)


def test_a1_xi_golden(a1):
    x = x1()
    expect = {0: MultiPoly.const(1, 1), 1: 2 * x, 2: -2 * x * x, 3: -4 * x ** 3}
    for m, val in expect.items():
        xi = xi_basis(m, a1)
        assert len(xi) == 1
        assert xi[0].coeffs[0].as_poly() == val


def test_xi1_is_gradient_for_orthonormal_gram(b2):
    xi = xi_basis(1, b2)
    for j in range(2):
        for i in range(2):
            assert xi[j].coeffs[i].as_poly() == b2.jac_P[i, j]


def test_b2_xi3_degrees(b2):
    xi = xi_basis(3, b2)
    assert derivation_degree(xi[0]) == 5
    assert derivation_degree(xi[1]) == 7


def test_a1_nabla_of_xi1(a1):
    # xi^(1) = 2x d/dx = 4x^2 d/dP, and nabla_D xi^(1) = D[2x] d/dx = 2 d/dP
    xi1 = xi_basis(1, a1)[0]
    assert xi1.coeffs[0].as_poly() == 2 * x1()
    result = nabla_D(xi1, a1)
    assert result.coeffs[0] == FactoredFraction(MultiPoly.const(1, 1), a1.q_base, 1)
    assert invariant_frame_matrix(1, 0, a1) == Matrix([[4 * x1() * x1()]])
    assert invariant_frame_matrix(1, 1, a1) == Matrix([[MultiPoly.const(1, 2)]])


def test_nabla_of_xi1_row_is_b1(b2):
    # J(P)^T nabla_D xi^(1) = B^(1), Theorem 2.4 (2) at k = 1
    columns = Matrix([nabla_D(theta, b2).coeffs
                      for theta in xi_basis(1, b2)]).transpose()
    assert (b2.jac_P.transpose() * columns).simplify() == bk_matrix(1, b2)


def test_nabla_is_t_linear(b2):
    # multiplying by P_1 (killed by D) commutes with nabla_D
    p1 = b2.invariants.polys[0]
    theta = xi_basis(1, b2)[0]
    scaled = PolyDerivation([c * p1 for c in theta.coeffs])
    lhs = nabla_D(scaled, b2)
    rhs = nabla_D(theta, b2)
    for i in range(2):
        assert lhs.coeffs[i] == rhs.coeffs[i] * p1


def test_hk_identity_and_a1(a1):
    x = x1()
    assert hk(0, a1) == Matrix.identity(1, 1, a1.datum.field)
    h1 = hk(1, a1)
    assert h1[0, 0] == -2 * x * x
    xi3 = xi_basis(3, a1)[0]
    xi1 = xi_basis(1, a1)[0]
    assert xi3.coeffs[0] == xi1.coeffs[0] * h1[0, 0]


@pytest.mark.parametrize("k", [1, 2])
def test_xi_row_via_hk(b2, k):
    xi1 = xi_coefficient_matrix(1, b2)
    assert xi1 * hk(k, b2) == xi_coefficient_matrix(2 * k + 1, b2)


@pytest.mark.parametrize("k", [1, 2])
def test_dk_of_hk_invertible(b2, k):
    # D^k[H_k] is invertible: entries are polynomial and the determinant is a
    # nonzero constant (the matrix itself need not be constant; for B2 the
    # (1,2) entry of D[H_1] is -4(x^2+y^2)).
    dk_hk = hk(k, b2)
    for _ in range(k):
        (dk_hk,) = dp_matrix(dk_hk, [2], b2)
    entries = [[dk_hk[i, j].as_poly() for j in range(2)] for i in range(2)]
    assert all(p is not None for row in entries for p in row)
    det = Matrix(entries).det().constant_value()
    assert det is not None and det != 0


def test_d_of_h1_nonconstant_entry_b2(b2):
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    (dh1,) = dp_matrix(hk(1, b2), [2], b2)
    assert dh1[0, 1].as_poly() == -4 * (x * x + y * y)


def test_bracket_with_dp_basis(b2):
    d = primitive_derivation(b2)
    for k in (1, 2):
        dp = dp_unit(k, b2)
        assert derivation_bracket(d, dp, b2).is_zero()


def test_bracket_rank_one():
    d = build_datum("A", 1)
    ctx = build_context(d, builtin_invariants(d))
    x = x1()
    ddx = PolyDerivation([MultiPoly.const(1, 1)])
    xddx = PolyDerivation([x])
    br = derivation_bracket(ddx, xddx, ctx)
    assert br.coeffs[0].as_poly() == MultiPoly.const(1, 1)


@pytest.mark.parametrize("k", [1, 2])
def test_bracket_of_nabla_power_with_d(b2, k):
    xi = xi_basis(2 * k - 1, b2)
    d = primitive_derivation(b2)
    for theta in xi:
        eta = nabla_power_reference(theta, k, b2)
        assert derivation_bracket(d, eta, b2).is_zero()


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("I2", 5)])
def test_nabla_xi_matches_references(label, rank):
    # differential oracle: the cached flat-connection chain, read in the
    # invariant frame, agrees with the Christoffel route on J(P)^T Xi, for
    # every power read by the theorem checks
    d = build_datum(label, rank)
    ctx = build_context(d, builtin_invariants(d))
    for m in range(8):
        for t in range(4):
            assert invariant_frame_matrix(m, t, ctx) == nabla_matrix_reference(m, t, ctx), \
                (m, t)


def _report(ctx):
    report = run_suites(ctx, ["theorems", "hodge"], 1, 3, 2)
    return [(r.name, r.status, r.witness, r.integrity) for r in report.results]


def _xi3_plus_x_d_dx(ctx):
    """The xi^(3) row with xi^(3)_1 + x d/dx in its place, a new object."""
    row = list(xi_basis(3, ctx))
    first = row[0].coeffs
    row[0] = PolyDerivation([first[0] + MultiPoly.variable(ctx.rank, 0), *first[1:]])
    return row


def test_nabla_xi_reads_a_replaced_row():
    # each nabla_D^t xi^(m) is kept with the power t - 1 it was built from:
    # a row that replaces xi_table[3] after nabla_D xi^(3) and nabla_D^2
    # xi^(3) were built reaches thm24.1 and hodge.g0 as it reaches prop26,
    # and the report is the one of a row replaced before any power was built
    early = fresh_context("B", 2)
    early.xi_table[3] = _xi3_plus_x_d_dx(early)
    want = _report(early)
    late = fresh_context("B", 2)
    built = nabla_xi(3, 1, late), nabla_xi(3, 2, late)
    late.xi_table[3] = _xi3_plus_x_d_dx(late)
    assert _report(late) == want
    statuses = {name: status for name, status, _, _ in want}
    assert statuses["prop26/k=1"] == statuses["thm24.1/k=1"] == "fail"
    assert nabla_xi(3, 1, late) != built[0] and nabla_xi(3, 2, late) != built[1]


def _assert_dp_matrix_matches_reference(ctx):
    # differential oracle: d/dP_k of a matrix in every direction, from one
    # Jacobian and one product, agrees in form with entrywise d/dP_k one
    # product and one running sum at a time, for polynomial and fraction
    # matrices, all directions in one call, in either order
    ell = ctx.rank
    (dg,) = dp_matrix(ctx.metric_G, [ell], ctx)
    for m in (ctx.metric_G, ctx.jac_P, bk_matrix(1, ctx), ctx.metric_G_inv(), dg):
        want = {k: reference_dp_matrix(m, k, ctx) for k in range(1, ell + 1)}
        for ks in (range(1, ell + 1), range(ell, 0, -1)):
            got = dp_matrix(m, ks, ctx)
            assert len(got) == ell
            for k, dm in zip(ks, got):
                for g_row, w_row in zip(dm.entries, want[k].entries):
                    for g, w in zip(g_row, w_row):
                        assert_same_form(g, w, k)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("I2", 5), ("A", 3)])
def test_dp_matrix_every_direction_matches_reference(label, rank):
    _assert_dp_matrix_matches_reference(shared_context(label, rank))


def test_h3_dp_matrix_every_direction_matches_reference(h3_context):
    _assert_dp_matrix_matches_reference(h3_context)


def _assert_derivations_match_references(ctx, k_max):
    # differential oracle: D^k[X], nabla_D^t xi^(m) and brackets
    # through the coefficient row times the Jacobian agree in form with
    # one product and one running sum at a time (conftest references)
    def same(got, want, what):
        assert len(got) == len(want), what
        for g, w in zip(got, want):
            assert_same_form(g, w, what)

    for k in range(k_max + 1):
        same(dkx(k, ctx), reference_dkx(k, ctx), k)
    for m, t in ((1, 1), (2, 1), (3, 2)):
        for theta, ref in zip(nabla_xi(m, t, ctx), reference_nabla_xi(m, t, ctx)):
            same(theta.coeffs, ref.coeffs, (m, t))
    d = primitive_derivation(ctx)
    xi1 = xi_basis(1, ctx)
    pairs = [(d, eta) for eta in nabla_xi(1, 1, ctx) + nabla_xi(3, 2, ctx)]
    pairs += [(d, theta) for theta in xi1] + [(xi1[0], theta) for theta in xi1[1:]]
    assert any(not derivation_bracket(a, b, ctx).is_zero() for a, b in pairs)
    for a, b in pairs:
        same(derivation_bracket(a, b, ctx).coeffs, reference_bracket(a, b).coeffs,
             "bracket")


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2), ("I2", 5)])
def test_derivation_routes_match_accumulating_references(label, rank):
    d = build_datum(label, rank)
    _assert_derivations_match_references(
        build_context(d, builtin_invariants(d)), 3)


def test_h3_derivation_routes_match_accumulating_references(h3_context):
    _assert_derivations_match_references(h3_context, 2)


def test_derivation_apply(a1):
    x = x1()
    xi1 = xi_basis(1, a1)[0]
    ((val,),) = derivation_apply([xi1], [x * x], a1)
    assert val.as_poly() == 4 * x * x


def test_derivation_apply_takes_a_row_of_derivations(b2):
    # one tuple per derivation, one value per function, each the value of
    # the derivation applied alone
    row = [*xi_basis(1, b2), primitive_derivation(b2)]
    fs = [*b2.invariants.polys, dkx(1, b2)[0]]
    values = derivation_apply(row, fs, b2)
    assert len(values) == len(row) and all(len(v) == len(fs) for v in values)
    for theta, got in zip(row, values):
        assert list(got) == [accumulating_apply(theta.coeffs, f) for f in fs]


def test_derivation_transform_fixes_xi(b2):
    for theta in xi_basis(3, b2):
        for idx in range(len(b2.datum.generators)):
            assert derivation_transform(theta, b2, idx) == theta


@pytest.mark.parametrize("label,rank,k", [
    ("B", 2, 1), ("B", 2, 2), ("A", 2, 1), ("A", 2, 2), ("I2", 4, 2),
    ("A", 1, 1), ("A", 1, 2), ("A", 1, 3), ("B", 3, 1), ("D", 3, 1)])
def test_cleared_inverse_agrees_with_generic(label, rank, k):
    # jdkx_inv (solved from the definition of B^(k)) is a two-sided inverse of
    # J(D^k[X])
    d = build_datum(label, rank)
    ctx = build_context(d, builtin_invariants(d))
    ident = Matrix.identity(ctx.rank, ctx.rank, d.field)
    assert (jdkx(k, ctx) * jdkx_inv(k, ctx)).simplify() == ident
    assert (jdkx_inv(k, ctx) * jdkx(k, ctx)).simplify() == ident


@pytest.mark.parametrize("label,rank", [
    ("A", 1), ("A", 2), ("B", 2), ("I2", 5), ("I2", 8), ("A", 3), ("B", 3),
    ("D", 3)])
def test_jdkx_inv_matches_reduced_minor_ladder(label, rank):
    # differential oracle: the B^(k) recursion against the reduced-minor
    # ladder of the cleared matrix, a route that never forms B^(k)
    d = build_datum(label, rank)
    ctx = build_context(d, builtin_invariants(d))
    for k in (1, 2, 3):
        assert jdkx_inv(k, ctx) == ladder_jdkx_inv(k, ctx), k


@contextmanager
def _spied_products(monkeypatch):
    """The names `_certify_poly_matrix` is called with inside the block: a
    B^(k) among them is one `_certified_bk` sent to the defining product."""
    names = []

    def spy(m, what):
        names.append(what)
        return certify(m, what)

    certify = saito._certify_poly_matrix
    with monkeypatch.context() as patch:
        patch.setattr(saito, "_certify_poly_matrix", spy)
        yield names


def _product_certified_levels(ctx, top, monkeypatch):
    """The levels k <= top whose B^(k) `_certified_bk` certified through the
    defining product, read from a spy on `_certify_poly_matrix`."""
    with _spied_products(monkeypatch) as names:
        for k in range(1, top + 1):
            _certified_bk(k, ctx)
    return [k for k in range(1, top + 1) if f"B^({k})" in names]


def _assert_bk_matches_product_route(ctx, top, monkeypatch):
    # differential oracle: B^(k) from the premise chain (Gamma*_l, then the
    # Lemma 2.1 (4) candidate) agrees in form with the defining product,
    # built on a second context whose every level takes the product route;
    # on true data no level takes the product
    assert _product_certified_levels(ctx, top, monkeypatch) == []
    reference = build_context(ctx.datum, ctx.invariants)
    monkeypatch.setattr(saito, "_certified_bk", product_bk)
    for k in range(1, top + 1):
        got, want = _certified_bk(k, ctx), product_bk(k, reference)
        for g_row, w_row in zip(got.entries, want.entries):
            for g, w in zip(g_row, w_row):
                assert_same_form(g, w, k)


@pytest.mark.parametrize("label,rank,top", [
    ("A", 2, 4), ("B", 2, 4), ("I2", 5, 4), ("I2", 8, 4), ("B", 3, 4),
    ("D", 3, 4), ("A", 3, 4), ("D", 4, 3)])
def test_certified_bk_matches_product_route(label, rank, top, monkeypatch):
    _assert_bk_matches_product_route(fresh_context(label, rank), top, monkeypatch)


def test_h3_certified_bk_matches_product_route(h3_context, monkeypatch):
    _assert_bk_matches_product_route(
        build_context(h3_context.datum, h3_context.invariants), 2, monkeypatch)


def _tamper(ctx, kind):
    """Break one construction of ctx, in place."""
    one = MultiPoly.const(ctx.rank, 1, ctx.datum.field)
    last = ctx.rank - 1
    if kind in ("jac_P", "jac_P_inv", "gram_poly"):
        m = getattr(ctx, kind)
        setattr(ctx, kind, with_entry(m, 0, 0, m[0, 0] + one))
    elif kind == "jac_P_inv/D":
        ctx.jac_P_inv = with_entry(ctx.jac_P_inv, last, 0,
                                   ctx.jac_P_inv[last, 0] + one)
    elif kind == "jac_P_inv row 1 over q":
        ctx.jac_P_inv = Matrix([[FactoredFraction(e.numerator, ctx.q_base, e.exp + 1)
                                 for e in row] if i == 0 else row
                                for i, row in enumerate(ctx.jac_P_inv.entries)])
    elif kind == "metric_G":
        ctx.metric_G = with_entry(ctx.metric_G, 0, 1, ctx.metric_G[0, 1] + one)
    elif kind == "bk_table[2]":
        bk = bk_matrix(2, ctx)
        ctx.bk_table[2] = with_entry(bk, 0, 0, bk[0, 0] + one)
    elif kind == "_bk_memo[1]":
        ctx._bk_memo[1] = _certified_bk(1, ctx) * 2
    elif kind == "_bk_memo[2]":
        # det B^(2) stays constant (the cofactor of (l,l) vanishes by
        # degree), but D[B^(2)] != 0
        bk = _certified_bk(2, ctx)
        x1 = MultiPoly.variable(ctx.rank, 0, ctx.datum.field)
        ctx._bk_memo[2] = with_entry(bk, last, last, bk[last, last] + x1)
    elif kind == "christoffel_table[l]":
        # before any B^(k) is built: B^(1) must not read the table
        star = christoffel_star(ctx.rank, ctx)
        ctx.christoffel_table[ctx.rank] = with_entry(star, 0, 0, star[0, 0] + one)
    elif kind == "gram_poly singular":
        # B^(1) first, with the true A, so that J(D[X])^-1 stays certified and
        # B^(2) meets the singular A in its identity, not in its premise
        _certified_bk(1, ctx)
        zero = MultiPoly.zero(ctx.rank, ctx.datum.field)
        ctx.gram_poly = Matrix([[zero if 0 in (i, j) else e for j, e in enumerate(row)]
                                for i, row in enumerate(ctx.gram_poly.entries)])
    else:
        raise ValueError(kind)


def _stripped_report(ctx):
    report = run_suites(ctx, "all", 2, 3, 1).to_dict()
    for check in report["checks"]:
        del check["ms"]
    return report


TAMPER_KINDS = ["jac_P", "jac_P_inv", "jac_P_inv/D", "gram_poly", "metric_G",
                "bk_table[2]", "_bk_memo[1]", "gram_poly singular", "_bk_memo[2]",
                "christoffel_table[l]"]


@pytest.mark.parametrize("kind", TAMPER_KINDS)
@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3)])
def test_tampered_reports_match_product_route(label, rank, kind, monkeypatch):
    # a level whose premise fails falls back to the defining product, so a
    # tampered run reports what the product route alone reports
    ctx = fresh_context(label, rank)
    _tamper(ctx, kind)
    got = _stripped_report(ctx)
    monkeypatch.setattr(saito, "_certified_bk", product_bk)
    reference = fresh_context(label, rank)
    _tamper(reference, kind)
    assert got == _stripped_report(reference)


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3)])
def test_identity_error_reports_as_the_product_route(label, rank, monkeypatch):
    # with row 1 of J(P)^-1 over one more power of q, which no premise of the
    # chain reads, the run reports what the product route reports
    test_tampered_reports_match_product_route(label, rank, "jac_P_inv row 1 over q",
                                              monkeypatch)


def _identity_decisions(ctx, top, monkeypatch):
    """(decisions, references) for the levels 2 <= k <= top whose identity
    was decided, those built and one whose product raised: whether
    `_certified_bk` accepted the Lemma 2.1 (4) candidate for B^(k), that is,
    did not take the product, and whether `old_identity_accepts` does.  The
    levels stop at the first one that raises."""
    with _spied_products(monkeypatch) as names:
        try:
            for k in range(1, top + 1):
                _certified_bk(k, ctx)
        except CoxsaitoError:
            pass
    product = [k for k in range(2, top + 1) if f"B^({k})" in names]
    decided = [k for k in range(2, top + 1) if k in ctx._bk_memo or k in product]
    return ([k not in product for k in decided],
            [old_identity_accepts(k, ctx) for k in decided])


@pytest.mark.parametrize("label,rank", [
    ("A", 2), ("B", 2), ("I2", 5), ("I2", 8), ("A", 3), ("D", 3), ("D", 4)])
def test_identity_decides_as_its_earlier_form(label, rank, monkeypatch):
    # decision oracle: on true data both forms accept the candidate at every
    # level, B^(2..4), on D4 B^(2..3)
    top = 3 if rank == 4 else 4
    got, want = _identity_decisions(fresh_context(label, rank), top, monkeypatch)
    assert got == want == [True] * (top - 1)


def test_h3_identity_decides_as_its_earlier_form(h3_context, monkeypatch):
    ctx = build_context(h3_context.datum, h3_context.invariants)
    assert _identity_decisions(ctx, 2, monkeypatch) == ([True], [True])


# The decisions at k = 2, 3, 4 under each tampering, the same on B2 and A3.
# A tampered J(P) or A leaves B^(1) non-polynomial, so no level k >= 2 is
# decided; no premise reads row 1 of J(P)^-1, B^(k) never reads G, and
# bk_table[2] and christoffel_table[l] reach only the checks.  D[B^(2)] != 0
# sends B^(3) to the product, and B^(4) is not reached.
TAMPERED_DECISIONS = {
    "jac_P": [], "jac_P_inv": [True] * 3, "jac_P_inv/D": [False],
    "gram_poly": [], "metric_G": [True] * 3, "bk_table[2]": [True] * 3,
    "_bk_memo[1]": [False] * 3, "gram_poly singular": [False],
    "_bk_memo[2]": [True, False], "christoffel_table[l]": [True] * 3}


@pytest.mark.parametrize("kind", TAMPER_KINDS)
@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3)])
def test_tampered_identity_decides_as_its_earlier_form(label, rank, kind,
                                                       monkeypatch):
    ctx = fresh_context(label, rank)
    _tamper(ctx, kind)
    got, want = _identity_decisions(ctx, 4, monkeypatch)
    assert got == want == TAMPERED_DECISIONS[kind]


def test_tower_takes_one_jacobian_per_level(monkeypatch):
    # B^(1..4) on A3: dkx and jdkx never run; the only Jacobians are of the
    # entries of J(P), for Gamma*_l = B^(1), and of B^(1), B^(2) and B^(3),
    # for the premise D[B^(k-1)] == 0 of each level k >= 2
    ctx = fresh_context("A", 3)
    calls, jacobians = [], []
    jacobian = saito.jacobian

    def tracked(name, fn):
        def spy(k, c):
            calls.append((name, k))
            return fn(k, c)
        return spy

    def spy_jacobian(polys, nvars):
        flat = [[e for row in m.entries for e in row]
                for m in (ctx.jac_P, *ctx._bk_memo.values())]
        jacobians.append(flat.index(list(polys)))
        return jacobian(polys, nvars)

    monkeypatch.setattr(saito, "dkx", tracked("dkx", saito.dkx))
    monkeypatch.setattr(saito, "jdkx", tracked("jdkx", saito.jdkx))
    monkeypatch.setattr(saito, "jacobian", spy_jacobian)
    for k in range(1, 5):
        _certified_bk(k, ctx)
    assert calls == []
    assert jacobians == [0, 1, 2, 3]  # J(P), then B^(1), B^(2), B^(3)
    assert sorted(ctx._bk_memo) == [1, 2, 3, 4]
    assert ctx.jdkx_table == {} and sorted(ctx.dkx_table) == [0]


def _assert_no_jacobian_of_dkx(ctx, report):
    # no J(D^k[X]) is formed at any k; D[X] = D, which hodge.g0 reads, is
    # the only power of D
    assert report.counts["fail"] == 0
    assert ctx.jdkx_table == {} and set(ctx.dkx_table) <= {0, 1}


@pytest.mark.parametrize("label,rank", [("A", 3), ("D", 3), ("B", 2), ("I2", 5)])
def test_passing_run_forms_no_higher_jacobian(label, rank):
    # at the CLI defaults: B^(1..4), xi^(0..7)
    ctx = fresh_context(label, rank)
    _assert_no_jacobian_of_dkx(ctx, run_suites(ctx, "all", 3, 7, 3))


def test_h3_passing_run_forms_no_higher_jacobian(h3_context):
    # the suite set and bounds of the h3-file benchmark workload
    ctx = build_context(h3_context.datum, h3_context.invariants)
    _assert_no_jacobian_of_dkx(ctx, run_suites(ctx, ["metric", "theorems", "flat"],
                                               1, 1, 1))


def _perturbed(ctx, premise):
    """Break one premise of the chain in ctx, in place; the level whose
    premise is broken."""
    if premise == "D[P] != e_l":
        _tamper(ctx, "jac_P_inv/D")
        return 1
    if premise == "B^(1) is not Gamma*_l":
        ctx._bk_memo[1] = Matrix(_certified_bk(1, ctx).entries)  # equal, not the same
        return 2
    if premise == "A singular":
        _tamper(ctx, "gram_poly singular")
        return 2
    if premise == "det B^(2) not constant":  # D[P_1] = 0, so D[B^(2)] stays 0
        p1 = ctx.invariants.polys[0]
        ctx._bk_memo[2] = (_certified_bk(2, ctx)
                           + Matrix.identity(ctx.rank, ctx.rank, ctx.datum.field) * p1)
    else:
        _tamper(ctx, "_bk_memo[2]")
    return 3


@pytest.mark.parametrize("label,rank", [("B", 2), ("A", 3), ("I2", 5), ("D", 4)])
def test_identity_rejects_perturbed_candidates(label, rank):
    # the chain accepts the candidates for B^(1..3) on true data, and breaking
    # any one premise rejects the candidate of that level
    ctx = fresh_context(label, rank)
    assert all(saito._tower_candidate(k, ctx) is not None for k in (1, 2, 3))
    for premise in ("D[P] != e_l", "B^(1) is not Gamma*_l", "A singular",
                    "det B^(2) not constant", "D[B^(2)] != 0"):
        ctx = fresh_context(label, rank)
        k = _perturbed(ctx, premise)
        assert saito._tower_candidate(k, ctx) is None, premise


def test_rejected_candidate_falls_back_to_the_product(monkeypatch):
    # B^(1) doubled in the memo is not Gamma*_l, so the candidate is not
    # taken, and the product with the halved inverse gives the polynomial
    # B^(2)/2, so lemma21.4 fails with a value witness
    ctx = fresh_context("B", 2)
    _tamper(ctx, "_bk_memo[1]")
    assert _product_certified_levels(ctx, 3, monkeypatch) == [2, 3]
    witness = next(r.witness for r in check_lemma21(ctx, 1)
                   if r.name == "lemma21.4/k=1")
    assert witness == "entry (1,2): lhs = -5, rhs = 16, difference = -21"


def _tampered_b2(kind, monkeypatch):
    """B2 context that breaks one premise of jdkx_inv: B^(1) is zero
    ("singular"), or J(D[X]) is broken.  For the latter the row of D is then
    changed, so that d J(P) != e_l sends B^(1) to the defining product,
    which at k = 1 reads J(D[X]), J(P) and A but not J(P)^-1."""
    d = build_datum("B", 2)
    ctx = build_context(d, builtin_invariants(d))
    if kind == "singular":
        zero = MultiPoly.zero(2)
        ctx._bk_memo[1] = Matrix([[zero, zero], [zero, zero]])
        return ctx
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    one = MultiPoly.const(2, 1)
    jd = jdkx(1, ctx)
    _tamper(ctx, "jac_P_inv/D")
    if kind == "foreign":
        bad = with_entry(jd, 0, 0, FactoredFraction(one, PowerBase(x + 2 * y), 1))
    elif kind == "exponent":
        bad = with_entry(jd, 0, 0, jd[0, 0] + FactoredFraction(one, ctx.q_base, 3))
    else:
        bad = Matrix([[FactoredFraction.from_poly(x), MultiPoly.zero(2)],
                      [MultiPoly.zero(2), one]])
    monkeypatch.setattr("coxsaito.saito.jdkx",
                        lambda k, c: bad if k == 1 and c is ctx else jdkx(k, c))
    return ctx


JDKX_INV_PREMISES = [("foreign", NonPolynomialEntry, "other than det J"),
                     ("exponent", NonPolynomialEntry, "power 3 > 2"),
                     ("nonconstant", NonPolynomialEntry, "not a constant"),
                     ("singular", SingularMatrix, "J(D^1[X]) is singular")]


@pytest.mark.parametrize("kind,error,message", JDKX_INV_PREMISES,
                         ids=[f"{kind}-{message}" for kind, _, message in JDKX_INV_PREMISES])
def test_jdkx_inv_rejects_broken_premises(kind, error, message, monkeypatch):
    with pytest.raises(error, match=re.escape(message)):
        jdkx_inv(1, _tampered_b2(kind, monkeypatch))


# The B^(2) witness under J(D^2[X]) + (1/q at entry (1,1)): the rendered
# product entry, pinned as text for B2 and by length and SHA-256 for the H3
# file (12,950 characters), so any change to the form of a product entry --
# its numerator or its exponent -- shows here.
BK_WITNESS_PINS = {
    "B2": (125, "B^(2) entry (1,1) is not polynomial: (16/3*x^15*y^3-128/3*x^13*y^5"
                "+96*x^11*y^7-256/3*x^9*y^9+80/3*x^7*y^11)/((x^3*y-x*y^3)^4)"),
    "H3": (12950, "a225387abdde1b8e1f0412d08cb0a956cb4153b1b28907baf91dd0a3ea09f6d4"),
}


@pytest.mark.parametrize("label", sorted(BK_WITNESS_PINS))
def test_certified_bk_witness_text_is_pinned(label, monkeypatch, tmp_path):
    if label == "B2":
        d = build_datum("B", 2)
        ctx = build_context(d, builtin_invariants(d))
    else:
        path = tmp_path / "h3.json"
        path.write_text(json.dumps(h3_document()), encoding="utf-8")
        ctx = build_context(*ingest_invariants(path))
    # B^(2) reaches the defining product by a broken premise: B^(1) is an
    # equal copy, not the Gamma*_l the chain certified
    ctx._bk_memo[1] = Matrix(_certified_bk(1, ctx).entries)
    jd = jdkx(2, ctx)
    one = MultiPoly.const(ctx.rank, 1, ctx.datum.field)
    bad = with_entry(jd, 0, 0, jd[0, 0] + FactoredFraction(one, ctx.q_base, 1))
    monkeypatch.setattr("coxsaito.saito.jdkx",
                        lambda k, c: bad if k == 2 and c is ctx else jdkx(k, c))
    with pytest.raises(NonPolynomialEntry) as caught:
        _certified_bk(2, ctx)
    text = str(caught.value)
    length, pin = BK_WITNESS_PINS[label]
    assert len(text) == length
    assert (text if label == "B2" else hashlib.sha256(text.encode()).hexdigest()) == pin


def test_foreign_denominator_is_an_integrity_failure(monkeypatch):
    report = run_suites(_tampered_b2("foreign", monkeypatch), ["theorems"],
                        1, 2, 1)
    witnesses = [r.witness for r in report.results if r.integrity]
    assert report.integrity_error
    assert any("other than det J" in w for w in witnesses), witnesses


@FRAME_GROUPS
def test_invariant_frame_columns_are_values(group_context, label, rank):
    # entry (i, j) of the invariant-frame matrix of xi^(m) is xi^(m)_j(P_i)
    ctx = group_context(label, rank)
    for m in (1, 3):
        mat = invariant_frame_matrix(m, 0, ctx)
        for j, theta in enumerate(xi_basis(m, ctx)):
            values = derivation_apply([theta], ctx.invariants.polys, ctx)[0]
            for i, value in enumerate(values):
                assert mat[i, j] == value, (m, i, j)


def test_poly_coeffs_raises_on_fractions(a1):
    from coxsaito.errors import NonPolynomialCoefficients
    d = primitive_derivation(a1)  # coefficient 1/(2x)
    with pytest.raises(NonPolynomialCoefficients):
        d.poly_coeffs()


def test_concurrent_cache_fills_are_value_identical():
    # cache fills are idempotent: racing readers agree with a cold context,
    # also where the threads substitute xi^(5) by the dense generator of
    # I2(5), and each power of the hyperplane forms that contact_defect
    # divides by sits under its exponent: the rows are certified W-stable,
    # so only the first form of each orbit
    from concurrent.futures import ThreadPoolExecutor

    def work(ctx):
        return (bk_matrix(3, ctx), xi_basis(7, ctx)[1].coeffs,
                [theta.coeffs for theta in nabla_xi(7, 2, ctx)],
                [derivation_transform(theta, ctx, g).coeffs
                 for theta in xi_basis(5, ctx) for g in range(len(ctx.datum.subst))],
                [contact_defect(m, ctx) for m in (7, 5, 6)])

    for label, rank, rounds in (("B", 2, 1), ("I2", 5, 6)):
        d = build_datum(label, rank)
        want = work(build_context(d, builtin_invariants(d)))
        for _ in range(rounds):
            d = build_datum(label, rank)
            ctx = build_context(d, builtin_invariants(d))
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda _: work(ctx), range(16)))
            assert all(got == want for got in results)
            assert sorted(ctx.form_bases) == [orbit[0] for orbit in d.orbits]
            for base in ctx.form_bases.values():
                assert sorted(base._powers) == list(range(8))
                assert all(base._powers[e] == base.q ** e for e in base._powers)


# the keys each table holds after a full run: the build records add no row,
# level or inverse that no check asked for
TABLE_KEYS = {(3, 7, 3): ([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 4], [0, 1, 2, 3]),
              (1, 1, 1): ([0, 1, 3], [0, 1, 2], [0, 1])}


@pytest.mark.parametrize("bounds", sorted(TABLE_KEYS))
@pytest.mark.parametrize("label,rank", [("A", 3), ("B", 4), ("D", 4), ("I2", 5), ("H3", 3)])
def test_a_full_run_fills_exactly_the_pinned_table_keys(label, rank, bounds, tmp_path):
    if label == "H3":
        path = tmp_path / "h3.json"
        path.write_text(json.dumps(h3_document()), encoding="utf-8")
        ctx = build_context(*ingest_invariants(path))
    else:
        ctx = fresh_context(label, rank)
    assert not run_suites(ctx, "all", *bounds).failed
    assert (sorted(ctx.xi_table), sorted(ctx.bk_table),
            sorted(ctx.jdkx_inv_table)) == TABLE_KEYS[bounds]
