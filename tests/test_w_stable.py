"""The W-stability certificate (`saito.w_stable`) and what it decides:
`hodge.winv/p` and `thm25.member/m`, m >= 1, on one hyperplane per W-orbit;
and the sum rule of `saito.bk_moved`, which decides `lemma21.1w/k` for
k >= 2.  Every verdict and witness must be that of the substitution and the
full contact scan, which the reference runs take with both certificates
switched off."""

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from conftest import (determinant_route_basis, fresh_context, reference_contact_defect,
                      shared_context, with_entry)
from test_verify import _one, _perturb_xi, _plus_at, _tamper_contact, _x1

from coxsaito import saito, verify
from coxsaito.coxeter import first_moved, jacobian
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly
from coxsaito.saito import (PolyDerivation, _first_moved_derivation, basis_holds,
                            bk_matrix, bk_moved, bk_step, columns, contact_defect,
                            invariance_defect, lead, prop26_holds, w_stable, xi_basis)
from coxsaito.verify import run_suites


def _bk1_plus_x1(ctx):
    bk = bk_matrix(1, ctx)
    ctx.bk_table[1] = with_entry(bk, 0, 0, bk[0, 0] + _x1(ctx))


def _xi1_times_x1(ctx):
    xis = xi_basis(1, ctx)
    ctx.xi_table[1] = [PolyDerivation([c * _x1(ctx) for c in xis[0].coeffs]),
                       *xis[1:]]


def _xi3_from_lead(ctx):
    """xi^(3) replaced by the right side of Proposition 2.6 at k = 1,
    -xi^(1) (B^(1))^-1 G from the tables as they stand, so that `prop26/1`
    holds and only another premise can reject the row."""
    right = lead(1, ctx) * ctx.metric_G
    ctx.xi_table[3] = [PolyDerivation(right.column(j)) for j in range(ctx.rank)]


def _then_xi3_from_lead(tamper):
    def both(ctx):
        tamper(ctx)
        _xi3_from_lead(ctx)
    return both


def _bkll_plus_x1(ctx):
    # the cofactor of entry (l, l) vanishes for these groups (B^(1)_11 = 0,
    # and B^(1)_12 = 0 in rank 3), so det B^(1) stays the same constant
    bk, ell = bk_matrix(1, ctx), ctx.rank - 1
    ctx.bk_table[1] = with_entry(bk, ell, ell, bk[ell, ell] + _x1(ctx))


def _gram_plus_half(ctx):
    """A with 1/2 added at (1,2) and (2,1), before any xi is built: on B2 the
    nonsingular [[1, 1/2], [1/2, 1]], which no reflection of B2 preserves."""
    grid = [list(row) for row in ctx.gram_poly.entries]
    half = MultiPoly.const(ctx.rank, Fraction(1, 2), ctx.datum.field)
    grid[0][1], grid[1][0] = grid[0][1] + half, grid[1][0] + half
    ctx.gram_poly = Matrix(grid)


def _bk_plus(deltas):
    """Tamper: deltas[k](ctx) added to entry (1,1) of B^(k) in `bk_table`,
    for each k of deltas."""
    def tamper(ctx):
        for k, delta in deltas.items():
            bk = bk_matrix(k, ctx)
            ctx.bk_table[k] = with_entry(bk, 0, 0, bk[0, 0] + delta(ctx))
    return tamper


TAMPERINGS = {
    "xi3.11+x1": _perturb_xi(3, _x1),
    "xi5.11+x1": _perturb_xi(5, _x1),
    "bk_table[1].11+x1": _bk1_plus_x1,
    "G.11+1": _plus_at("metric_G", 0, 0, _one),
    "G.12+x1": _plus_at("metric_G", 0, 1, _x1),
    "xi1.1*x1": _xi1_times_x1,
    # a non-invariant G or B^(1) with xi^(3) that agrees with it
    "G.12+x1, xi3 by prop26": _then_xi3_from_lead(_plus_at("metric_G", 0, 1, _x1)),
    "bk_table[1].ll+x1, xi3 by prop26": _then_xi3_from_lead(_bkll_plus_x1),
}
# run on B2 alone, after the cases above
CERTIFICATE_KINDS = {
    # the gradient certificate of xi^(1) reads A and J from the datum and the
    # invariants, not these
    "gram_poly.12+1/2": _gram_plus_half,
    "jac_P.11+x1": _plus_at("jac_P", 0, 0, _x1),
    # the sum rule of bk_moved(k), k >= 2: a moved B^(3); an invariant B^(2)
    # that breaks lemma21.4; a moved B^(2) with B^(3) - B^(2) unchanged; a
    # moved B^(1) with an invariant B^(2) and B^(3) - B^(2) == B^(1) + (B^(1))^T
    "bk_table[3].11+x1": _bk_plus({3: _x1}),
    "bk_table[2].11+1": _bk_plus({2: _one}),
    "bk_table[2,3].11+x1": _bk_plus({2: _x1, 3: _x1}),
    "bk_table[1,3].11+x1,2x1": _bk_plus({1: _x1, 3: lambda ctx: 2 * _x1(ctx)}),
}
# `_tamper_contact` of xi^(m)_2 on the last form of the datum's first orbit,
# which is not that orbit's representative, by kind
CONTACT_KINDS = {f"contact m={m} off representative": m for m in (3, 4, 6, 7)}
CASES = ([(group, kind) for group in (("A", 3), ("I2", 5), ("B", 2))
          for kind in TAMPERINGS]
         + [(group, kind) for group in (("I2", 8), ("B", 3)) for kind in CONTACT_KINDS]
         + [(("B", 2), kind) for kind in CERTIFICATE_KINDS])


def _tamper(ctx, kind):
    if kind in CONTACT_KINDS:
        _tamper_contact(ctx, CONTACT_KINDS[kind], 1, ctx.datum.orbits[0][-1])
    else:
        {**TAMPERINGS, **CERTIFICATE_KINDS}[kind](ctx)


def _outcome(fn):
    """fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def _uncertified(monkeypatch):
    """Switch both certificates off: every row and every B^(k) takes the
    substitution, and every row the full contact scan."""
    def substituted(k, ctx):
        return first_moved(ctx.datum, [e for row in bk_matrix(k, ctx).entries for e in row])

    monkeypatch.setattr(saito, "w_stable", lambda m, ctx: False)
    monkeypatch.setattr(saito, "bk_moved", substituted)
    monkeypatch.setattr(verify, "bk_moved", substituted)


def _outcomes(report):
    return [(r.name, r.status, r.witness, r.integrity) for r in report.results]


@pytest.mark.parametrize("group,kind", CASES)
def test_tampered_reports_match_the_substitution_route(group, kind, monkeypatch):
    ctx = fresh_context(*group)
    _tamper(ctx, kind)
    got = _outcomes(run_suites(ctx, "all", 3, 7, 3))
    _uncertified(monkeypatch)
    reference = fresh_context(*group)
    _tamper(reference, kind)
    want = _outcomes(run_suites(reference, "all", 3, 7, 3))
    assert got == want
    assert any(status == "fail" for _, status, _, _ in got)
    for m in range(8):
        assert _outcome(lambda: contact_defect(m, ctx)) == \
            _outcome(lambda: reference_contact_defect(m, ctx)), m
    if kind in CONTACT_KINDS:
        # the tampered row is not certified, and the full scan reaches the
        # form outside the representatives
        m, h = CONTACT_KINDS[kind], ctx.datum.orbits[0][-1]
        assert not w_stable(m, ctx) and h != ctx.datum.orbits[0][0]
        assert contact_defect(m, ctx) == (1, h, m - 1)


@pytest.mark.parametrize("group", [("A", 3), ("I2", 5), ("B", 2)])
def test_certificate_rejects_each_tampered_premise(group):
    # each tampering breaks one premise; rows above it fall back
    for kind, uncertified in (("xi3.11+x1", 3), ("bk_table[1].11+x1", 3),
                              ("G.12+x1", 3), ("xi1.1*x1", 1),
                              ("G.12+x1, xi3 by prop26", 3),
                              ("bk_table[1].ll+x1, xi3 by prop26", 3),
                              ("gram_poly.12+1/2", 1), ("jac_P.11+x1", 1),
                              ("bk_table[3].11+x1", 6), ("bk_table[2].11+1", 4),
                              ("bk_table[2,3].11+x1", 4), ("bk_table[1,3].11+x1,2x1", 3)):
        ctx = fresh_context(*group)
        _tamper(ctx, kind)
        assert [w_stable(m, ctx) for m in range(uncertified, 8)] == \
            [False] * (8 - uncertified), kind
    # G + 1 stays W-invariant, but it is not J^T cols(xi^(1)) any more
    ctx = fresh_context(*group)
    TAMPERINGS["G.11+1"](ctx)
    assert w_stable(1, ctx) and not w_stable(3, ctx)
    ctx = fresh_context(*group)
    assert all(w_stable(m, ctx) for m in range(1, 8))


def _spy_substitutions(monkeypatch):
    """The derivations `saito.derivation_transform` and the polynomials
    `MultiPoly.subst_linear` substitute from now on."""
    derivations, polys = [], []
    transform, subst = saito.derivation_transform, MultiPoly.subst_linear
    monkeypatch.setattr(saito, "derivation_transform", lambda theta, ctx, idx:
                        derivations.append(theta) or transform(theta, ctx, idx))
    monkeypatch.setattr(MultiPoly, "subst_linear", lambda self, matrix:
                        polys.append(self) or subst(self, matrix))
    return derivations, polys


def _b1_entries_once_per_generator(polys, ctx):
    b1 = [e for row in bk_matrix(1, ctx).entries for e in row]
    return (all(any(p is e for e in b1) for p in polys)
            and len(polys) == len(b1) * ctx.datum.n_generating)


@pytest.mark.parametrize("group,calls", [(("A", 3), 9), (("I2", 5), 4)])
def test_passing_run_substitutes_xi1_only(group, calls, monkeypatch):
    # xi^(1) is the one row the fallback substitutes first, `calls` times,
    # once per j and generator of the generating prefix; a passing run takes
    # its gradient certificate and substitutes no derivation at all, and no
    # polynomial but the entries of B^(1), whose sum rule certifies B^(k)
    ctx = fresh_context(*group)
    derivations, polys = _spy_substitutions(monkeypatch)
    assert not run_suites(ctx, "all", 3, 7, 3).failed
    assert derivations == [] and _b1_entries_once_per_generator(polys, ctx)
    assert _first_moved_derivation(xi_basis(1, ctx), ctx) is None
    assert len(derivations) == calls == ctx.rank * ctx.datum.n_generating


def test_hodge_alone_reaches_the_certificate(monkeypatch):
    ctx = fresh_context("A", 3)
    derivations, polys = _spy_substitutions(monkeypatch)
    assert not run_suites(ctx, ["hodge"], 3, 7, 3).failed
    assert derivations == [] and _b1_entries_once_per_generator(polys, ctx)
    assert w_stable(1, ctx) and ("stable", 1) not in ctx.kept


@pytest.mark.parametrize("group", [("A", 3), ("B", 3), ("I2", 5)])
def test_passing_run_forms_no_prop26_product(group, monkeypatch):
    # prop26/k, the certificate and the dual frame hold by how the objects
    # were built: a passing run forms no lead(k) G, no cols(xi^(2k)) J and
    # no J(P)^-1 J(P)
    ctx = fresh_context(*group)
    products, even = [], []
    mul, cols = Matrix.__mul__, saito.columns

    def spy(self, other):
        if other is ctx.metric_G or (self is ctx.jac_P_inv and other is ctx.jac_P):
            products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    monkeypatch.setattr(saito, "columns", lambda row: (
        even.append(row) if any(row is ctx.xi_table.get(m) for m in (2, 4, 6)) else None)
        or cols(row))
    assert not run_suites(ctx, "all", 3, 7, 3).failed
    assert products == [] and even == []
    assert _deleted_comparisons(ctx.kept) == []
    # the xi^(1) premises are read from the build records, and Gamma*_t is
    # formed for t = l alone, as B^(1)
    assert [key for key in ctx.kept if key in (("stable", 1), ("metric", 1))
            or key[0] == "gamma_star" and key[1] < ctx.rank] == []


def _copy_row(m):
    """Tamper: xi^(m) replaced by an equal row, another object."""
    def tamper(ctx):
        ctx.xi_table[m] = list(xi_basis(m, ctx))
    return tamper


def _replace_level(table, k, build, change=lambda ctx, m: Matrix(m.entries), rows=True):
    """Tamper: entry k of the table `build` fills replaced by change(ctx,
    entry), by default an equal matrix; after xi^(2k+1) is built, or before
    without rows."""
    def tamper(ctx):
        if rows:
            xi_basis(2 * k + 1, ctx)
        getattr(ctx, table)[k] = change(ctx, build(k, ctx))
    return tamper


def _plus_x1(ctx, m):
    return with_entry(m, 0, 0, m[0, 0] + _x1(ctx))


def _copy_frame(attr):
    """Tamper: ctx.<attr> replaced by an equal matrix once xi^(3) is built."""
    def tamper(ctx):
        xi_basis(3, ctx)
        setattr(ctx, attr, Matrix(getattr(ctx, attr).entries))
    return tamper


def _copy_bk_inverse(ctx):
    """Tamper: the kept (B^(1))^-1 replaced by an equal matrix once xi^(3) is
    built, so that only the record of T_1 names another N_1."""
    xi_basis(3, ctx)
    read, inv = ctx.kept[("bk_inverse", 1)]
    ctx.kept[("bk_inverse", 1)] = read, Matrix(inv.entries)


def _bases(*ms):
    return {(basis_holds, m) for m in ms}


# each tampering replaces an object that a build record names; the decisions
# (decision, index) that the broken record turns down.  J(P)^-1 enters no
# record of the towers, so its copy reaches the dual verdict alone
PROVENANCE_TAMPERINGS = {
    "jdkx_inv_table[2] copy": (_replace_level("jdkx_inv_table", 2, saito.jdkx_inv),
                               {(prop26_holds, 2), (prop26_holds, 3), (w_stable, 4),
                                *_bases(4, 5, 6, 7)}),
    "jdkx_inv_table[2].11+x1": (_replace_level("jdkx_inv_table", 2, saito.jdkx_inv, _plus_x1),
                                {(prop26_holds, 2), (prop26_holds, 3), (w_stable, 4),
                                 *_bases(4, 5, 6, 7)}),
    # xi^(4) and xi^(5) are then built from the replaced T_2: only the record
    # of `jdkx_inv(2)` tells that T_2 is not -T_1 J (B^(2))^-1 J^T A
    "jdkx_inv_table[2].11+x1 before xi^(4)": (
        _replace_level("jdkx_inv_table", 2, saito.jdkx_inv, _plus_x1, rows=False),
        {(prop26_holds, 2), *_bases(4, 5, 6, 7)}),
    "xi_table[4] copy": (_copy_row(4), {(w_stable, 4), *_bases(4)}),
    "xi_table[3] copy": (_copy_row(3), {(prop26_holds, 1), (prop26_holds, 2), (w_stable, 2),
                                        *_bases(3)}),
    "xi_table[5] copy": (_copy_row(5), {(prop26_holds, 2), (prop26_holds, 3), (w_stable, 4),
                                        *_bases(5)}),
    # the run inverts the copy (`_bk_inverse` of `bk_matrix(2)`): the kept
    # N_2 is then another object than the one the record of T_2 names
    "bk_table[2] copy": (_replace_level("bk_table", 2, bk_matrix),
                         {(prop26_holds, 2), (bk_step, 1), (bk_step, 2), *_bases(4, 5, 6, 7)}),
    "G.11+1": (TAMPERINGS["G.11+1"], {(prop26_holds, 1), (prop26_holds, 2)}),
    "jac_P copy": (_copy_frame("jac_P"), {(prop26_holds, 1), (w_stable, 2),
                                          *_bases(2, 3, 4, 5, 6, 7)}),
    "jac_P_inv copy": (_copy_frame("jac_P_inv"), set()),
    # T_0 replaced before anything is built: xi^(1) is then the recorded
    # build (A T_0) J(P), and only the record of T_0 tells that it is not
    # A J(P).  2 I doubles every row, which stay a basis
    "jdkx_inv_table[0] copy": (_replace_level("jdkx_inv_table", 0, saito.jdkx_inv,
                                              rows=False),
                               {(w_stable, 1), *_bases(0, 1, 2, 3, 4, 5, 6, 7)}),
    "jdkx_inv_table[0]=2I": (_replace_level("jdkx_inv_table", 0, saito.jdkx_inv,
                                            lambda ctx, m: m + m, rows=False),
                             {(w_stable, 1), *_bases(0, 1, 2, 3, 4, 5, 6, 7)}),
    # N_1 alone: T_1 and every row stay the recorded builds
    "kept bk_inverse[1] copy": (_copy_bk_inverse, {(prop26_holds, 1), (w_stable, 2),
                                                   *_bases(2, 3, 4, 5, 6, 7)}),
}


def _deleted_comparisons(keys):
    """The keys of the coordinate comparisons that the build records replace:
    Proposition 2.6, the even W-stability step and Lemma 2.1 (4)."""
    return [key for key in keys if key[0] in ("prop26", "step")
            or key[0] == "stable" and key[1] % 2 == 0]


@pytest.mark.parametrize("group", [("B", 2), ("A", 3), ("I2", 5)])
@pytest.mark.parametrize("kind", list(PROVENANCE_TAMPERINGS))
def test_replaced_build_records_take_the_comparison(group, kind, monkeypatch):
    # with a build record broken, prop26/k, the even-m certificate and
    # lemma21.4/k decline and their statements compare, with no coordinate
    # comparison kept; J(P)^-1 J(P) is formed again once either matrix is
    # replaced; the report is that of the statements alone
    tamper, declined = PROVENANCE_TAMPERINGS[kind]
    ctx = fresh_context(*group)
    pair = ctx.jac_P_inv, ctx.jac_P
    tamper(ctx)
    got = _outcomes(run_suites(ctx, "all", 3, 7, 3))
    assert not any(decision(index, ctx) for decision, index in declined)
    assert _deleted_comparisons(ctx.kept) == []
    assert saito._dual(ctx) == (True,) * ctx.rank
    formed_again = any(a is not b for a, b in zip(ctx.kept[("dual", 0)][0], pair))
    assert formed_again == ("jac_P" in kind)
    monkeypatch.setattr(saito, "_xi_built", lambda m, ctx: False)
    reference = fresh_context(*group)
    reference.kept.pop(("dual", 0))
    tamper(reference)
    assert got == _outcomes(run_suites(reference, "all", 3, 7, 3))


def _records_agree(ctx, monkeypatch):
    """For k <= 3 and even m <= 6, `prop26_holds(k)`, the even step of
    `w_stable(m)` and `bk_step(k)` are decided by the build records, asking
    `_kept` for no comparison, and agree with the comparisons formed here;
    so do `basis_holds(m)`, m <= 7, with the determinant route, and the
    record of G with J^T A J, J and A formed from the datum."""
    asked, kept = [], saito._kept
    monkeypatch.setattr(saito, "_kept", lambda ctx, key, objects, build: (
        asked.append(key) or kept(ctx, key, objects, build)))
    decided = ([prop26_holds(k, ctx) for k in (1, 2, 3)]
               + [w_stable(m, ctx) for m in (2, 4, 6)]
               + [bk_step(k, ctx) for k in (1, 2, 3)])
    bases = [basis_holds(m, ctx) for m in range(8)]
    monkeypatch.undo()
    assert bases == [r.status == "pass" for r in determinant_route_basis(ctx, 7)] == [True] * 8
    assert _deleted_comparisons(asked) == []
    jac = jacobian(ctx.invariants.polys, ctx.rank)
    b1 = bk_matrix(1, ctx)
    formed = ([columns(xi_basis(2 * k + 1, ctx)) == lead(k, ctx) * ctx.metric_G
               for k in (1, 2, 3)]
              + [columns(xi_basis(m, ctx)) * jac == columns(xi_basis(m + 1, ctx))
                 for m in (2, 4, 6)]
              + [bk_matrix(k + 1, ctx) - bk_matrix(k, ctx) == b1 + b1.transpose()
                 for k in (1, 2, 3)])
    assert decided == formed == [True] * 9
    (jp, a), g = ctx.kept[("G", 0)]
    gram = Matrix.from_scalars(ctx.datum.gram, ctx.rank, ctx.datum.field)
    assert jp is ctx.jac_P and a is ctx.gram_poly and g is ctx.metric_G
    assert g == jac.transpose() * gram * jac


@pytest.mark.parametrize("group", [("A", 3), ("B", 3), ("D", 4), ("I2", 5)])
def test_build_records_agree_with_the_comparisons(group, monkeypatch):
    _records_agree(fresh_context(*group), monkeypatch)


def test_build_records_agree_with_the_comparisons_on_h3(h3_context, monkeypatch):
    _records_agree(h3_context, monkeypatch)


@pytest.mark.parametrize("group", [("I2", 8), ("B", 3), ("A", 3)])
def test_passing_run_divides_only_at_representatives(group):
    # every m >= 1 divides only at the first form of each orbit, so only
    # those have a power base, with the powers up to alpha_H^7
    ctx = fresh_context(*group)
    assert not run_suites(ctx, ["theorems"], 3, 7, 3).failed
    assert set(ctx.form_bases) == {orbit[0] for orbit in ctx.datum.orbits}
    for base in ctx.form_bases.values():
        assert sorted(base._powers) == list(range(8))


def test_consistent_xi3_passes_prop26_and_fails_its_other_premise():
    # the replaced xi^(3) is no build record, so prop26/k=1 passes by its
    # statement; the certificate of xi^(3) still fails on the other premise
    for kind in ("G.12+x1, xi3 by prop26", "bk_table[1].ll+x1, xi3 by prop26"):
        ctx = fresh_context("B", 2)
        TAMPERINGS[kind](ctx)
        assert not prop26_holds(1, ctx) and invariance_defect(1, ctx) is None
        assert not w_stable(3, ctx) and invariance_defect(3, ctx) is not None
        prop26 = next(r for r in verify.check_thm24_thm25_prop26(ctx, 1, 0)
                      if r.name == "prop26/k=1")
        assert (prop26.status, prop26.witness, prop26.integrity) == ("pass", None, False)


def test_representatives_cover_every_orbit(monkeypatch):
    # f E, E the Euler derivation and f = (xy)^2, is W-invariant on B2: its
    # contact order is 3 along x and y and 1 along x - y and x + y, the
    # second orbit, whose representative the scan must reach
    ctx = fresh_context("B", 2)
    x, y = (MultiPoly.variable(2, i) for i in (0, 1))
    f = (x * y) ** 2
    ctx.xi_table[3] = [PolyDerivation([f * x, f * y])] * 2
    monkeypatch.setattr(saito, "w_stable", lambda m, ctx: True)
    assert ctx.datum.orbits == ((0, 1), (2, 3))
    assert contact_defect(3, ctx) == (0, 2, 1)


@pytest.mark.parametrize("group,sizes", [(("A", 3), [6]), (("B", 3), [3, 6]),
                                         (("I2", 8), [4, 4]), (("I2", 5), [5]),
                                         (("D", 4), [12])])
def test_orbits_partition_the_forms_and_are_closed(group, sizes):
    datum = fresh_context(*group).datum
    assert [len(orbit) for orbit in datum.orbits] == sizes
    assert sorted(h for orbit in datum.orbits for h in orbit) == \
        list(range(len(datum.forms)))
    # each generator maps a form of an orbit to a multiple of a form of it
    alphas = datum.form_polys()
    for orbit in datum.orbits:
        for h in orbit:
            for sub in datum.subst:
                image, _ = alphas[h].subst_linear(sub).monic()
                assert any(image == alphas[g].monic()[0] for g in orbit)


def _certificate_verdicts(ctx):
    return ([w_stable(m, ctx) for m in (7, 6, 5, 4, 3, 2, 1)],
            [invariance_defect(m, ctx) for m in (5, 3, 1)],
            [contact_defect(m, ctx) for m in (7, 6, 5, 4, 3, 2)])


@pytest.mark.parametrize("kind", [None, "xi3.11+x1", "contact m=6 off representative"])
def test_concurrent_certificates_agree_with_a_cold_context(kind):
    # eight threads race to fill one context's certificate and its verdicts
    def context():
        ctx = fresh_context("I2", 8)
        if kind is not None:
            _tamper(ctx, kind)
        return ctx

    want = _certificate_verdicts(context())
    for _ in range(3):
        ctx = context()
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: _certificate_verdicts(ctx), range(16)))
        assert all(got == want for got in results)
    assert all(want[0]) == (kind is None)


def _record_verdicts(ctx):
    return ([prop26_holds(k, ctx) for k in (3, 2, 1)] + [w_stable(m, ctx) for m in (6, 4, 2)]
            + [bk_step(k, ctx) for k in (3, 2, 1)])


def test_racing_fills_keep_one_object_per_record():
    # threads that race to build one context store one object per record and
    # table entry, so every decision made from the build records holds in
    # every thread; a short switch interval makes the races frequent
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            ctx = fresh_context("I2", 8)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_record_verdicts, ctx) for _ in range(16)]
                results = [future.result(timeout=120) for future in futures]
            assert results == [[True] * 9] * 16
    finally:
        sys.setswitchinterval(interval)


DIFFERENTIAL_GROUPS = ([("A", n) for n in (1, 2, 3, 4)] + [("B", n) for n in (2, 3, 4)]
                       + [("D", 3), ("D", 4)] + [("I2", m) for m in range(3, 13)])


def _differential(ctx, k_max=3):
    """The gradient verdict on xi^(1) against its substitution, and the sum
    rule's verdict on B^(k), k = 2..k_max+1, against `first_moved`."""
    assert w_stable(1, ctx) == (_first_moved_derivation(xi_basis(1, ctx), ctx) is None)
    for k in range(2, k_max + 2):
        assert _outcome(lambda: bk_moved(k, ctx)) == _outcome(lambda: first_moved(
            ctx.datum, [e for row in bk_matrix(k, ctx).entries for e in row])), k


@pytest.mark.parametrize("group", DIFFERENTIAL_GROUPS)
def test_certificates_agree_with_the_substitution(group):
    _differential(shared_context(*group))


def test_certificates_agree_with_the_substitution_on_h3(h3_context):
    _differential(h3_context)


@pytest.mark.parametrize("kind", ["gram_poly.12+1/2", "jac_P.11+x1", "xi1.1*x1",
                                  "bk_table[1].11+x1", "bk_table[3].11+x1",
                                  "bk_table[2].11+1", "bk_table[2,3].11+x1",
                                  "bk_table[1,3].11+x1,2x1"])
def test_certificates_agree_with_the_substitution_on_tampered_b2(kind):
    ctx = fresh_context("B", 2)
    _tamper(ctx, kind)
    _differential(ctx)
