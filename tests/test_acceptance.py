"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import time
from fractions import Fraction

import pytest
from conftest import (fresh_context, report_elapsed, shared_context,
                      shared_report, with_entry)
from test_properties import (run_adjugate_inverse, run_contact_division_oracle,
                             run_dense_substitution_oracle,
                             run_exact_divide_oracle, run_exact_divide_roundtrip,
                             run_field_axioms, run_fraction_oracle,
                             run_lowest_power_rescaling, run_nf_divide_oracle,
                             run_nf_product_oracle, run_q_kernel_oracle,
                             run_shared_substitution_oracle,
                             run_substitution_roundtrip)

from coxsaito.coxeter import (build_datum, builtin_invariants,
                              poincare_closed_form, poincare_equal,
                              validate_invariants)
from coxsaito.fraction import FactoredFraction
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly
from coxsaito.saito import (PolyDerivation, bk_matrix, build_context,
                            derivation_degree, dkx, dp_matrix, xi_basis)
from coxsaito.verify import (check_lemma21, check_lemma22, check_metric,
                             check_thm24_thm25_prop26)

GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3),
          ("I2", 4), ("I2", 5), ("I2", 6), ("D", 4), ("B", 4)]
RANK_TWO = [("A", 2), ("B", 2), ("I2", 4), ("I2", 5), ("I2", 6)]


def _announce(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_rank_one_golden_values():
    t0 = time.perf_counter()
    datum = build_datum("A", 1)
    ctx = build_context(datum, builtin_invariants(datum))
    x = MultiPoly.variable(1, 0)

    assert ctx.q_base.q == x
    assert dkx(1, ctx)[0] == FactoredFraction(MultiPoly.const(1, Fraction(1, 2)),
                                              ctx.q_base, 1)
    assert dkx(2, ctx)[0] == FactoredFraction(MultiPoly.const(1, Fraction(-1, 4)),
                                              ctx.q_base, 3)
    for k, val in ((1, 2), (2, 6), (3, 10)):
        assert bk_matrix(k, ctx) == Matrix([[MultiPoly.const(1, val)]])
    golden_xi = {0: MultiPoly.const(1, 1), 1: 2 * x, 2: -2 * x * x, 3: -4 * x ** 3}
    for m, val in golden_xi.items():
        assert xi_basis(m, ctx)[0].coeffs[0].as_poly() == val

    quarter = validate_invariants(datum, [x * x * Fraction(1, 4)], source="custom")
    ctx_q = build_context(datum, quarter)
    for k in (1, 2, 3):
        assert bk_matrix(k, ctx_q) == Matrix(
            [[MultiPoly.const(1, Fraction(2 * k - 1, 2))]])
    (dg,) = dp_matrix(ctx_q.metric_G, [1], ctx_q)
    assert dg[0, 0].as_poly() == MultiPoly.const(1, 1)

    elapsed = time.perf_counter() - t0
    _announce("1", elapsed < 1.0,
              f"(rank-1 golden values exact, {elapsed:.3f}s < 1s)")


@pytest.mark.parametrize("label,rank", GROUPS)
def test_criterion_2_full_suites(label, rank):
    report = shared_report(label, rank)
    fails = [(r.name, r.witness) for r in report.results if r.status == "fail"]
    _announce(f"2[{report.group}]", not fails, f"{report.counts} {fails}")


def test_h3_file_full_suite_at_cli_defaults(h3_full_report):
    # the H3 test file over Q(sqrt 5) at kmax 3, mmax 7, pmax 3: every check
    # passes but the flat Remark's, which its invariants are not normalized for
    skipped = [r.name for r in h3_full_report.results if r.status == "skipped"]
    ok = (h3_full_report.counts == {"total": 78, "pass": 74, "fail": 0, "skipped": 4}
          and skipped == ["flat.B1", "flat.Bk/k=1", "flat.Bk/k=2", "flat.Bk/k=3"])
    _announce("2[H3 file]", ok, f"{h3_full_report.counts} {skipped}")


def test_f4_file_full_suite_at_cli_defaults(f4_full_report):
    # the F4 test file over Q at kmax 3, mmax 7, pmax 3: every check passes
    # but the flat Remark's, which its invariants are not normalized for
    skipped = [r.name for r in f4_full_report.results if r.status == "skipped"]
    ok = (f4_full_report.counts == {"total": 80, "pass": 76, "fail": 0, "skipped": 4}
          and skipped == ["flat.B1", "flat.Bk/k=1", "flat.Bk/k=2", "flat.Bk/k=3"])
    _announce("2[F4 file]", ok, f"{f4_full_report.counts} {skipped}")


def test_criterion_2_runtime_budget():
    for label, rank in RANK_TWO:
        elapsed = report_elapsed(label, rank)
        _announce(f"2-runtime[{label}{rank}]", elapsed < 5.0,
                  f"({elapsed:.2f}s < 5s)")
    total = sum(report_elapsed(label, rank) for label, rank in GROUPS)
    _announce("2-runtime[total]", total < 300.0, f"({total:.1f}s < 300s)")


@pytest.mark.parametrize("label,rank", GROUPS)
def test_criterion_3_degree_law(label, rank):
    ctx = shared_context(label, rank)
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    for m in range(0, 8):
        k = m // 2
        for j, theta in enumerate(xi_basis(m, ctx)):
            want = k * h if m % 2 == 0 else k * h + exps[j]
            got = derivation_degree(theta)
            assert got == want, (label, rank, m, j, got, want)
    _announce(f"3[{ctx.datum.label()}]", True, "(degrees kh / kh+m_j, m <= 7)")


def test_rank_four_a4_lemma21_passes():
    # scale beyond D4: A4's q = det J(P) has 120 terms; B^(1) is Gamma*_l and
    # B^(2), B^(3) are Lemma 2.1 (4) candidates certified by the premise
    # chain, with no J(D^k[X]) at any k; the context build is included in the
    # time
    t0 = time.perf_counter()
    ctx = fresh_context("A", 4)
    results = check_lemma21(ctx, 2)
    elapsed = time.perf_counter() - t0
    checks = {r.name: r.status for r in results}
    want = {f"lemma21.{part}/k={k}": "pass"
            for k in (1, 2) for part in ("1d", "1w", "2", "3", "4")}
    _announce("2[A4 lemma21]", checks == want and elapsed < 10.0
              and not ctx.jdkx_table and set(ctx.dkx_table) <= {0, 1},
              f"({checks}, {elapsed:.2f}s < 10s)")


def test_rank_four_a4_lemma22_passes():
    # every lemma22.13 on A4 is decided by Lemma 2.2 (2) and (B), with no
    # derivative of G^-1; the context build is included in the time
    t0 = time.perf_counter()
    results = check_lemma22(fresh_context("A", 4))
    elapsed = time.perf_counter() - t0
    checks = {r.name: r.status for r in results}
    want = {f"lemma22.{part}/k={k}": "pass" for k in range(1, 5) for part in ("2", "13")}
    want |= {"lemma22.B": "pass", "lemma22.4": "pass"}
    _announce("2[A4 lemma22]", checks == want and elapsed < 5.0,
              f"({checks}, {elapsed:.2f}s < 5s)")


def test_criterion_4_b2_vanishing_corner():
    ctx = shared_context("B", 2)
    for k in (1, 2, 3):
        bk = bk_matrix(k, ctx)
        assert bk[0, 0].is_zero(), k
        det = bk.det().constant_value()
        assert det is not None and det != 0, k
    _announce("4", True, "(B2 corner entries vanish, determinants constant)")


@pytest.mark.parametrize("label,rank", GROUPS)
def test_criterion_5_saito_flatness(label, rank):
    report = shared_report(label, rank)
    by_name = {r.name: r for r in report.results}
    ok = (by_name["flat.detDG"].status == "pass"
          and by_name["flat.D2G"].status == "pass")
    _announce(f"5[{report.group}]", ok, "(det D[G] constant, D^2[G] = 0)")


@pytest.mark.parametrize("label,rank", GROUPS)
def test_criterion_6_poincare_identity(label, rank):
    ctx = shared_context(label, rank)
    h = ctx.datum.coxeter_number
    exps = ctx.datum.exponents
    # computed degrees: of xi^(2p-1)_j, of P_1..P_(l-1), and h = 2N/l
    degrees = [f.total_degree() for f in ctx.invariants.polys[:-1]]
    degrees.append(2 * len(ctx.datum.forms) // ctx.rank)
    for p in (1, 2, 3):
        gens = [derivation_degree(theta) for theta in xi_basis(2 * p - 1, ctx)]
        lhs = poincare_closed_form(gens, degrees)
        rhs = poincare_closed_form([(p - 1) * h + m for m in exps],
                                   [m + 1 for m in exps])
        assert poincare_equal(lhs, rhs), (label, rank, p)
    report = shared_report(label, rank)
    hodge_poincare = [r for r in report.results
                      if r.name.startswith("hodge.poincare")]
    assert hodge_poincare and all(r.status == "pass" for r in hodge_poincare)
    _announce(f"6[{ctx.datum.label()}]", True, "(cross-multiplied, p <= 3)")


def test_criterion_7_mutation_b2_matrix():
    ctx = fresh_context("B", 2)
    bk_matrix(2, ctx)
    one = MultiPoly.const(2, 1)
    ctx.bk_table[2] = with_entry(ctx.bk_table[2], 0, 0, ctx.bk_table[2][0, 0] + one)
    results = check_lemma21(ctx, 2)
    fails = [r for r in results if r.status == "fail"]
    located = [r for r in fails if r.witness and "(1,1)" in r.witness]
    _announce("7[B^(2)]", bool(located),
              f"({[r.name for r in fails]} locate the tampered entry)")


def test_criterion_7_mutation_metric():
    ctx = fresh_context("B", 2)
    one = MultiPoly.const(2, 1)
    ctx.metric_G = with_entry(ctx.metric_G, 1, 0, ctx.metric_G[1, 0] + one)
    results = check_metric(ctx)
    fails = [r for r in results if r.status == "fail"]
    located = [r for r in fails if r.witness and "(2,1)" in r.witness
               or r.witness and "(1,2)" in r.witness]
    _announce("7[G]", bool(located),
              f"({[r.name for r in fails]} locate the tampered entry)")


def test_criterion_7_mutation_xi3():
    ctx = fresh_context("B", 2)
    xis = xi_basis(3, ctx)
    tampered = PolyDerivation(
        [xis[0].coeffs[0] + MultiPoly.const(2, 1), xis[0].coeffs[1]])
    ctx.xi_table[3] = [tampered, xis[1]]
    results = check_thm24_thm25_prop26(ctx, 1, 3)
    fails = [r for r in results if r.status == "fail"]
    located = [r for r in fails
               if r.witness and ("xi^(3)_1" in r.witness or "(1,1)" in r.witness)]
    _announce("7[xi^(3)]", bool(located),
              f"({[r.name for r in fails]} locate the tampered coefficient)")


def test_criterion_8_property_suites():
    counts = {
        "field axioms": run_field_axioms(),
        "exact_divide roundtrip": run_exact_divide_roundtrip(),
        "exact_divide oracle": run_exact_divide_oracle(),
        "adjugate inverse": run_adjugate_inverse(),
        "fraction oracle": run_fraction_oracle(),
        "substitution roundtrip": run_substitution_roundtrip(),
        "lowest power rescaling": run_lowest_power_rescaling(),
        "nf product oracle": run_nf_product_oracle(),
        "nf exact_divide oracle": run_nf_divide_oracle(),
        "q kernel oracle": run_q_kernel_oracle(),
        "contact division oracle": run_contact_division_oracle(),
        "dense substitution oracle": run_dense_substitution_oracle(),
        "shared substitution oracle": run_shared_substitution_oracle(),
    }
    ok = all(v >= 1000 for v in counts.values())
    _announce("8", ok, f"({counts} randomized instances, fixed seeds)")
