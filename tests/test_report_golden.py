"""Golden check-set for the rank-1 smoke group, and pinned full reports.

Pins the exact check names, order, and statuses of a default full run, so any
accidental change to suite composition, naming, or canonical ordering shows up
as a diff here rather than silently shifting the report schema.  For seven
more groups, and for the H3 test file at the h3-file benchmark's bounds and
at the CLI defaults, the whole report, timings removed, is pinned by hash:
names, paper references, statuses and any witness text.  So are B2 and A3
under three tamperings that reach the d/dP_k checks, with the failing
witnesses of lemma21.1d and flat.D2G also spelled out.
"""

import contextlib
import hashlib
import io
import json

import pytest
from conftest import fresh_context, shared_report, with_entry

from coxsaito.cli import RunConfig, run
from coxsaito.matrix import Matrix
from coxsaito.poly import MultiPoly
from coxsaito.saito import bk_matrix
from coxsaito.verify import run_suites

GOLDEN = [
    ("metric/symmetry", "pass"),
    ("metric/recompute", "pass"),
    ("metric/jacobian", "pass"),
    ("lemma21.1d/k=1", "pass"),
    ("lemma21.1w/k=1", "pass"),
    ("lemma21.2/k=1", "pass"),
    ("lemma21.3/k=1", "pass"),
    ("lemma21.4/k=1", "pass"),
    ("lemma21.1d/k=2", "pass"),
    ("lemma21.1w/k=2", "pass"),
    ("lemma21.2/k=2", "pass"),
    ("lemma21.3/k=2", "pass"),
    ("lemma21.4/k=2", "pass"),
    ("lemma21.1d/k=3", "pass"),
    ("lemma21.1w/k=3", "pass"),
    ("lemma21.2/k=3", "pass"),
    ("lemma21.3/k=3", "pass"),
    ("lemma21.4/k=3", "pass"),
    ("lemma22.2/k=1", "pass"),
    ("lemma22.13/k=1", "pass"),
    ("lemma22.B", "pass"),
    ("lemma22.4", "pass"),
    ("thm25.member/m=0", "pass"),
    ("thm25.basis/m=0", "pass"),
    ("thm25.2/m=0", "pass"),
    ("thm25.member/m=1", "pass"),
    ("thm25.basis/m=1", "pass"),
    ("thm25.2/m=1", "pass"),
    ("thm25.member/m=2", "pass"),
    ("thm25.basis/m=2", "pass"),
    ("thm25.2/m=2", "pass"),
    ("thm25.member/m=3", "pass"),
    ("thm25.basis/m=3", "pass"),
    ("thm25.2/m=3", "pass"),
    ("thm25.member/m=4", "pass"),
    ("thm25.basis/m=4", "pass"),
    ("thm25.2/m=4", "pass"),
    ("thm25.member/m=5", "pass"),
    ("thm25.basis/m=5", "pass"),
    ("thm25.2/m=5", "pass"),
    ("thm25.member/m=6", "pass"),
    ("thm25.basis/m=6", "pass"),
    ("thm25.2/m=6", "pass"),
    ("thm25.member/m=7", "pass"),
    ("thm25.basis/m=7", "pass"),
    ("thm25.2/m=7", "pass"),
    ("thm24.1/k=1", "pass"),
    ("thm24.2/k=1", "pass"),
    ("prop26/k=1", "pass"),
    ("thm24.1/k=2", "pass"),
    ("thm24.2/k=2", "pass"),
    ("prop26/k=2", "pass"),
    ("thm24.1/k=3", "pass"),
    ("thm24.2/k=3", "pass"),
    ("prop26/k=3", "pass"),
    ("hodge.disc", "pass"),
    ("hodge.winv/p=1", "pass"),
    ("hodge.g0/p=1", "pass"),
    ("hodge.poincare/p=1", "pass"),
    ("hodge.contact/p=1", "pass"),
    ("hodge.winv/p=2", "pass"),
    ("hodge.g0/p=2", "pass"),
    ("hodge.poincare/p=2", "pass"),
    ("hodge.contact/p=2", "pass"),
    ("hodge.winv/p=3", "pass"),
    ("hodge.g0/p=3", "pass"),
    ("hodge.poincare/p=3", "pass"),
    ("hodge.contact/p=3", "pass"),
    ("flat.detDG", "pass"),
    ("flat.D2G", "pass"),
    ("flat.B1", "skipped"),
    ("flat.Bk/k=1", "skipped"),
    ("flat.Bk/k=2", "skipped"),
    ("flat.Bk/k=3", "skipped"),
]


def test_a1_report_matches_golden_check_set():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(RunConfig(type_label="A", rank=1, fmt="json"))
    assert code == 0
    doc = json.loads(buf.getvalue())
    assert [(c["name"], c["status"]) for c in doc["checks"]] == GOLDEN
    assert doc["summary"] == {"total": 74, "pass": 70, "fail": 0, "skipped": 4}
    skip = next(c for c in doc["checks"] if c["name"] == "flat.B1")
    assert skip["witness"] == "skipped (invariants not flat-normalized)"
    assert every_ref_nonempty(doc)


def every_ref_nonempty(doc) -> bool:
    return all(c["paper_ref"] for c in doc["checks"])


# SHA-256 of json.dumps(report.to_dict() without "ms", indent=2,
# sort_keys=True): run_suites(ctx, "all", 3, 7, 3) for the built-in groups,
# the H3 test file at the h3-file benchmark's suites and bounds and at the
# CLI defaults, and the F4 test file at the CLI defaults
REPORT_SHA256 = {
    ("A", 2): "69404529fa03a0a8426a52af083be564e2012dcd6704a752eae60691e049ec42",
    ("B", 2): "cefe2483abba625c2defb5922e94ef002ea420365fa02204827325a0a2b2a155",
    ("I2", 5): "88c80782265a66a0173aa5d4244c47855dda3e53d702d94f8741ba1b3716f89d",
    ("B", 3): "f10bb2b37390093745d85cd044cbb3fbfa4b6cda774331310e101f8f1dda3848",
    ("D", 3): "03e68a0f38efee97bf504333838b2c0a3e918da3bcfea3694d3b1d65ddbac8cc",
    ("I2", 7): "4a792c6baedff09bc697257651dc128971cae3eb5d240913b8af5b9f980083cb",
    ("I2", 8): "a2ae9c0f52ac83f9a8a62ffaafe507d743dfce61725c0e913fac42bfac6a729c",
    ("H3", "file"): "83da0326da8c89810f4a31673ee6f63dbcc7b9baa3baa6fddfb0d40ab6b150ee",
    ("H3", "defaults"): "a0e5e2a00b89655701abe581eec68075cb327e3d24878ff39e49a1103e1a510d",
    ("F4", "defaults"): "6ac4eda24dbf3f66dfe1f9930327b34c8e71bbfa7d0e3e8a7d5efc0bb3d941f7",
}


@pytest.mark.parametrize("label,rank", list(REPORT_SHA256))
def test_full_report_matches_pinned_hash(label, rank, request):
    if (label, rank) == ("H3", "defaults"):
        report = request.getfixturevalue("h3_full_report")
    elif label == "F4":
        report = request.getfixturevalue("f4_full_report")
    elif label == "H3":
        report = run_suites(request.getfixturevalue("h3_context"),
                            ("metric", "theorems", "flat"), 1, 1, 1)
    else:
        report = shared_report(label, rank, 3, 7, 3)
    assert _stripped_sha256(report) == REPORT_SHA256[(label, rank)]


def _stripped_sha256(report) -> str:
    doc = report.to_dict()
    for check in doc["checks"]:
        del check["ms"]
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode()).hexdigest()


def _double_dp1(ctx):
    rows = ctx.jac_P_inv.entries
    ctx.jac_P_inv = Matrix([[e + e for e in rows[0]], *rows[1:]])


def _b1_plus_x1(ctx):
    x1 = MultiPoly.variable(ctx.rank, 0, ctx.datum.field)
    b1 = bk_matrix(1, ctx)
    ctx.bk_table[1] = with_entry(b1, 0, 0, b1[0, 0] + x1)


def _metric_plus_x1_cubed(ctx):
    x1 = MultiPoly.variable(ctx.rank, 0, ctx.datum.field)
    ctx.metric_G = with_entry(ctx.metric_G, 0, 0, ctx.metric_G[0, 0] + x1 ** 3)


# row 1 of J(P)^-1 doubled; x_1 added to B^(1)_11; x_1^3 added to G_11
TAMPERINGS = {"jac_P_inv.row1x2": _double_dp1,
              "B1.11+x1": _b1_plus_x1,
              "G.11+x1^3": _metric_plus_x1_cubed}

# the same digest of run_suites(ctx, "all", 2, 3, 1) on a tampered context;
# these tamperings reach the d/dP_k checks: lemma21.1d, lemma22 and flat
TAMPERED_SHA256 = {
    ("B", 2, "jac_P_inv.row1x2"):
        "71aa9c5c540fee83048c5745c4921f9653e625b4508c42f9e7cbe6f417a2b16f",
    ("B", 2, "B1.11+x1"):
        "46e8ec7e3b9882d614e31273d528427c95e836665c23b5f098fc1cbad9694851",
    ("B", 2, "G.11+x1^3"):
        "8524535bce5c0f81a02feae3af4eccc25eb84f465d021326857dc5811844f13b",
    ("A", 3, "jac_P_inv.row1x2"):
        "1e6d6c4f9a41ebca866328be6b11f3bc6e52ca1dcfce18a3d728fce775a145d0",
    ("A", 3, "B1.11+x1"):
        "329afff44ffcd17471c4447af6b761d89e57149d0abc2490928d44bf1f17af49",
    ("A", 3, "G.11+x1^3"):
        "6a973d729c77a0b7f22f4f9f5d5f50de378711f4b4cfe9b358ec921644fe3657",
}

TAMPERED_WITNESSES = {
    ("B", 2, "B1.11+x1", "lemma21.1d/k=1"):
        "entry (1,1): D[entry] = (1/4*y)/((x^3*y-x*y^3))",
    ("B", 2, "G.11+x1^3", "flat.D2G"):
        "entry (1,1): D^2[G] = (-9/16*x^4*y^3-3/16*x^2*y^5)/((x^3*y-x*y^3)^3)",
    ("A", 3, "B1.11+x1", "lemma21.1d/k=1"):
        "entry (1,1): D[entry] = (1/8*x^2*y-1/8*x^2*z+3/8*x*y^2-3/8*x*z^2+1/4*y^3"
        "+3/8*y^2*z-3/8*y*z^2-1/4*z^3)/((x^5*y-x^5*z+5/2*x^4*y^2-5/2*x^4*z^2"
        "+2*x^3*y^2*z-2*x^3*y*z^2-5/2*x^2*y^4-2*x^2*y^3*z+2*x^2*y*z^3+5/2*x^2*z^4"
        "-x*y^5+2*x*y^3*z^2-2*x*y^2*z^3+x*z^5+y^5*z+5/2*y^4*z^2-5/2*y^2*z^4"
        "-y*z^5))",
}


@pytest.mark.parametrize("label,rank,tamper", list(TAMPERED_SHA256))
def test_tampered_report_matches_pinned_hash(label, rank, tamper):
    ctx = fresh_context(label, rank)
    TAMPERINGS[tamper](ctx)
    report = run_suites(ctx, "all", 2, 3, 1)
    for (*key, name), witness in TAMPERED_WITNESSES.items():
        if tuple(key) == (label, rank, tamper):
            got = next(r for r in report.results if r.name == name)
            assert (got.status, got.witness) == ("fail", witness)
    assert _stripped_sha256(report) == TAMPERED_SHA256[(label, rank, tamper)]
