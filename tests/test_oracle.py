"""An independent oracle: B^(k) recomputed in sympy from the raw datum.

Every other reference in the suite runs on the kernels it checks.  Here the
basic invariants and the Gram matrix A are read off the datum and the rest
is sympy's: J(P), the primitive derivation D (the last row of J(P)^-1),
D^k[X] and the defining product

    B^(k) = -J(P)^T A J(D^k[X]) J(D^(k-1)[X])^-1 J(P).

Rank 3 is left out: this route does not finish A3 at k = 2 within two minutes.
"""

import pytest
import sympy
from conftest import fresh_context

from coxsaito.saito import bk_matrix


def to_sympy(poly, xs):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
                       for exps, c in poly.iter_terms()))


def oracle_bk(ctx, k_max):
    """[B^(1), ..., B^(k_max)] as sympy matrices, by the defining product."""
    ell = ctx.rank
    xs = sympy.symbols(f"x1:{ell + 1}")
    polys = [to_sympy(p, xs) for p in ctx.invariants.polys]
    gram = sympy.Matrix(ell, ell, lambda i, j: sympy.Rational(
        ctx.datum.gram[i][j].numerator, ctx.datum.gram[i][j].denominator))

    def jac(fs):  # entry (i, j) = d f_j / d x_i
        return sympy.Matrix(ell, ell, lambda i, j: sympy.diff(fs[j], xs[i]))

    jp = jac(polys)
    d = list(jp.inv()[ell - 1, :])
    dkx, out = list(xs), []
    prev = sympy.eye(ell)
    for _ in range(k_max):
        dkx = [sympy.cancel(sum(di * sympy.diff(f, x) for di, x in zip(d, xs)))
               for f in dkx]
        cur = jac(dkx)
        out.append((-jp.T * gram * cur * prev.inv() * jp).applyfunc(sympy.cancel))
        prev = cur
    return out


@pytest.mark.parametrize("label,rank", [("A", 2), ("B", 2)])
def test_bk_matches_sympy_defining_product(label, rank):
    ctx = fresh_context(label, rank)
    xs = sympy.symbols(f"x1:{rank + 1}")
    for k, want in enumerate(oracle_bk(ctx, 3), start=1):
        got = bk_matrix(k, ctx)
        for i in range(rank):
            for j in range(rank):
                assert sympy.expand(to_sympy(got[i, j], xs) - want[i, j]) == 0, (k, i, j)
