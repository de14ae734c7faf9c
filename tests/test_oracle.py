"""An independent oracle: B^(k), xi^(1), xi^(2) to xi^(5), nabla_D xi^(1),
nabla_D xi^(3), D[G], det G, Gamma*_k and the torsion form T recomputed in
sympy from the raw datum, Proposition 2.6 at k = 1, 2 and det xi^(m) = c_m Q^m
for m <= 5 tested there, and the W-invariance of xi^(1), B^(k) and Gamma*_k
decided by sympy substitution.

Every other reference in the suite runs on the kernels it checks.  Here the
basic invariants, the Gram matrix A and the generators are read off the
datum and the rest is sympy's: J(P), the primitive derivation D (the last
row of J(P)^-1), D^k[X], the defining product

    B^(k) = -J(P)^T A J(D^k[X]) J(D^(k-1)[X])^-1 J(P),

xi^(1) = A J(P), whose column j is the A-gradient of P_j, xi^(2k) =
A J(D^k[X])^-1, xi^(2k+1) = xi^(2k) J(P), G = J(P)^T A J(P), and the action
of a generator g: with S = g^T, a polynomial f goes to f(Sx) and a
derivation with coefficient column c to S c(Sx).

Rank 3 is left out: this route does not finish A3 at k = 2 within two minutes.
"""

import pytest
import sympy
from conftest import fresh_context

from coxsaito.saito import (basis_holds, bk_matrix, bk_moved, chain_holds,
                            christoffel_star, columns, connection_base, lead,
                            prop26_holds, w_stable, xi_basis)


def _rational(v):
    return sympy.Rational(v.numerator, v.denominator)


def to_sympy(poly, xs):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                       for exps, c in poly.iter_terms()))


def oracle_frame(ctx):
    """(xs, A, J(P), the row d of D, jac) in sympy, jac(fs) the Jacobian with
    entry (i, j) = d f_j / d x_i."""
    ell = ctx.rank
    xs = sympy.symbols(f"x1:{ell + 1}")
    polys = [to_sympy(p, xs) for p in ctx.invariants.polys]
    gram = sympy.Matrix(ctx.datum.gram).applyfunc(_rational)

    def jac(fs):
        return sympy.Matrix(ell, ell, lambda i, j: sympy.diff(fs[j], xs[i]))

    jp = jac(polys)
    return xs, gram, jp, list(jp.inv()[ell - 1, :]), jac


def oracle_q(ctx, xs):
    """Q, the product of the hyperplane forms, in sympy."""
    return sympy.Mul(*(sum(_rational(a) * x for a, x in zip(form, xs))
                       for form in ctx.datum.forms))


def oracle_bk(ctx, k_max):
    """[B^(1), ..., B^(k_max)] as sympy matrices, by the defining product."""
    xs, gram, jp, d, jac = oracle_frame(ctx)
    dkx, out = list(xs), []
    prev = sympy.eye(ctx.rank)
    for _ in range(k_max):
        dkx = [sympy.cancel(sum(di * sympy.diff(f, x) for di, x in zip(d, xs)))
               for f in dkx]
        cur = jac(dkx)
        out.append((-jp.T * gram * cur * prev.inv() * jp).applyfunc(sympy.cancel))
        prev = cur
    return out


def assert_equals_sympy(got, want, xs, what):
    """Every entry of the package's polynomial matrix got equals want's."""
    for i in range(want.rows):
        for j in range(want.cols):
            assert sympy.simplify(to_sympy(got[i, j], xs) - want[i, j]) == 0, (what, i, j)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_bk_matches_sympy_defining_product(label, rank):
    ctx = fresh_context(label, rank)
    xs = sympy.symbols(f"x1:{rank + 1}")
    for k, want in enumerate(oracle_bk(ctx, 3), start=1):
        got = bk_matrix(k, ctx)
        for i in range(rank):
            for j in range(rank):
                assert sympy.expand(to_sympy(got[i, j], xs) - want[i, j]) == 0, (k, i, j)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_xi1_and_bk_are_invariant_by_sympy_substitution(label, rank):
    ctx = fresh_context(label, rank)
    datum, xs = ctx.datum, sympy.symbols(f"x1:{rank + 1}")
    gram = sympy.Matrix(datum.gram).applyfunc(_rational)
    polys = [to_sympy(p, xs) for p in ctx.invariants.polys]
    xi1 = gram * sympy.Matrix(rank, rank, lambda i, j: sympy.diff(polys[j], xs[i]))
    got = sympy.Matrix(rank, rank, lambda i, j: to_sympy(
        xi_basis(1, ctx)[j].coeffs[i].as_poly(), xs))
    assert (got - xi1).expand() == sympy.zeros(rank, rank)
    bks = [bk_matrix(k, ctx).entries for k in (1, 2, 3)]
    for g in datum.generators:
        s = sympy.Matrix(g).applyfunc(_rational).T
        image = dict(zip(xs, s * sympy.Matrix(xs)))
        moved = (s * xi1.subs(image, simultaneous=True) - xi1).expand()
        assert moved == sympy.zeros(rank, rank), g
        for k, bk in enumerate(bks, start=1):
            for row in bk:
                for e in row:
                    f = to_sympy(e, xs)
                    assert sympy.expand(f.subs(image, simultaneous=True) - f) == 0, (g, k)
    # the package's certificates agree: xi^(1) by its gradient form, B^(2)
    # and B^(3) by the sum rule
    assert w_stable(1, ctx) and all(bk_moved(k, ctx) is None for k in (1, 2, 3))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_xi_tower_and_prop26_match_sympy(label, rank):
    # what the build records decide without forming it: xi^(2k) =
    # A J(D^k[X])^-1 and xi^(2k+1) = xi^(2k) J(P), for k = 1, 2, satisfy
    # Proposition 2.6, xi^(2k+1) = -xi^(2k-1) (B^(k))^-1 G, and equal the
    # package's rows; every side is built in sympy from the raw datum
    ctx = fresh_context(label, rank)
    xs, gram, jp, d, jac = oracle_frame(ctx)
    g, bks = jp.T * gram * jp, oracle_bk(ctx, 2)
    dkx, odd = list(xs), gram * jp
    for k in (1, 2):
        dkx = [sympy.cancel(sum(di * sympy.diff(f, x) for di, x in zip(d, xs)))
               for f in dkx]
        even = (gram * jac(dkx).inv()).applyfunc(sympy.cancel)
        nxt = (even * jp).applyfunc(sympy.cancel)
        stated = (nxt + odd * bks[k - 1].inv() * g).applyfunc(sympy.cancel)
        assert stated == sympy.zeros(rank, rank), k
        assert_equals_sympy(columns(xi_basis(2 * k, ctx)), even, xs, f"xi^({2 * k})")
        assert_equals_sympy(columns(xi_basis(2 * k + 1, ctx)), nxt, xs,
                            f"xi^({2 * k + 1})")
        odd = nxt
    assert all(prop26_holds(k, ctx) and w_stable(2 * k, ctx) for k in (1, 2))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_xi_determinants_are_powers_of_q_by_sympy(label, rank):
    # Theorem 2.5 (1) as `thm25.basis` states it, with no build record read:
    # xi^(0) = A, xi^(1) = A J(P), xi^(2k) = A J(D^k[X])^-1 and xi^(2k+1) =
    # xi^(2k) J(P) are built in sympy from the raw datum, and for m <= 5 the
    # determinant of each is c_m Q^m with c_m a nonzero number; the
    # package's decision from the records agrees
    ctx = fresh_context(label, rank)
    xs, gram, jp, d, jac = oracle_frame(ctx)
    dkx, rows = list(xs), [gram, gram * jp]
    for _ in (1, 2):
        dkx = [sympy.cancel(sum(di * sympy.diff(f, x) for di, x in zip(d, xs)))
               for f in dkx]
        even = (gram * jac(dkx).inv()).applyfunc(sympy.cancel)
        rows += [even, (even * jp).applyfunc(sympy.cancel)]
    q = oracle_q(ctx, xs)
    for m, xi in enumerate(rows):
        c = sympy.cancel(xi.det() / q ** m)
        assert c.is_number and c != 0, m
    assert all(basis_holds(m, ctx) for m in range(6))


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_nabla_rows_and_dg_match_sympy(label, rank):
    # what the Theorem 2.4 chain decides without forming it: nabla_D xi^(1)
    # in the invariant frame is B^(1), nabla_D xi^(3) is lead(1) B^(2) in the
    # coordinate frame, and D[G] is B^(1) + (B^(1))^T; xi^(3) = A J(D[X])^-1
    # J(P) and G = J(P)^T A J(P) are built in sympy from the raw datum
    ctx = fresh_context(label, rank)
    xs, gram, jp, d, jac = oracle_frame(ctx)

    def prim(m):  # D applied to every entry
        return m.applyfunc(lambda f: sympy.cancel(
            sum(di * sympy.diff(f, x) for di, x in zip(d, xs))))

    b1 = bk_matrix(1, ctx)
    assert_equals_sympy(b1, jp.T * prim(gram * jp), xs, "nabla_D xi^(1)")
    xi3 = gram * jac(d).inv() * jp
    assert_equals_sympy(lead(1, ctx) * bk_matrix(2, ctx), prim(xi3), xs, "nabla_D xi^(3)")
    assert_equals_sympy(b1 + b1.transpose(), prim(jp.T * gram * jp), xs, "D[G]")
    assert chain_holds(1, 1, ctx) and chain_holds(2, 1, ctx)


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_lemma22_base_facts_match_sympy(label, rank):
    # what the base of Lemma 2.2 decides without forming it: det G = c Q^2,
    # Gamma*_k = J(P)^T A d/dP_k[J(P)] for k < l (Gamma*_l is B^(1)), each
    # entry W-invariant, which makes Gamma*_k polynomial, and
    # T[k,(i,j)] = sum_t G_kt (Gamma*_t)_ij, which is the Hessian form
    # grad P_i^T A Hess(P_j) A grad P_k and so symmetric in i and k
    ctx = fresh_context(label, rank)
    assert connection_base(ctx)
    assert [key for key in ctx.kept if key[0] == "gamma_star" and key[1] < rank] == []
    xs, gram, jp, _, _ = oracle_frame(ctx)
    polys = [to_sympy(p, xs) for p in ctx.invariants.polys]
    g = jp.T * gram * jp
    assert_equals_sympy(ctx.metric_G, g, xs, "G")
    c = sympy.cancel(g.det() / oracle_q(ctx, xs) ** 2)
    assert c.is_number and c != 0
    jp_inv = jp.inv()

    def dp(k, m):  # d/dP_k, the row k of J(P)^-1, applied to every entry
        return m.applyfunc(lambda f: sympy.cancel(
            sum(jp_inv[k, a] * sympy.diff(f, x) for a, x in enumerate(xs))))

    stars = [(jp.T * gram * dp(k, jp)).applyfunc(sympy.cancel) for k in range(rank)]
    for k in range(rank - 1):
        assert_equals_sympy(christoffel_star(k + 1, ctx), stars[k], xs, f"Gamma*_{k + 1}")
    for gen in ctx.datum.generators:
        s = sympy.Matrix(gen).applyfunc(_rational).T
        image = dict(zip(xs, s * sympy.Matrix(xs)))
        for k, star in enumerate(stars, start=1):
            moved = (star.subs(image, simultaneous=True) - star).applyfunc(sympy.cancel)
            assert moved == sympy.zeros(rank, rank), (gen, f"Gamma*_{k}")
    grads = [sympy.Matrix([sympy.diff(p, x) for x in xs]) for p in polys]
    for i in range(rank):
        for j in range(rank):
            hess = sympy.hessian(polys[j], xs)
            for k in range(rank):
                t = sum(g[k, s] * stars[s][i, j] for s in range(rank))
                form = (grads[i].T * gram * hess * gram * grads[k])[0, 0]
                mirror = (grads[k].T * gram * hess * gram * grads[i])[0, 0]
                assert sympy.expand(t - form) == 0, ("T", i, j, k)
                assert sympy.expand(form - mirror) == 0, ("symmetry", i, j, k)
    assert connection_base(ctx)
