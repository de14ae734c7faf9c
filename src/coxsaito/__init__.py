"""coxsaito: exact verification of derivation-module identities for Coxeter arrangements."""

from .coxeter import (BasicInvariants, CoxeterDatum, anti_invariant_Q,
                      build_datum, builtin_invariants, poincare_closed_form,
                      poincare_equal, validate_invariants)
from .field import RATIONALS, FieldContext, Scalar
from .fraction import FactoredFraction
from .invariants_io import ingest_invariants
from .matrix import Matrix
from .poly import MultiPoly
from .saito import (PolyDerivation, SaitoContext, bk_matrix, build_context,
                    christoffel_star, derivation_bracket, dkx, nabla_D, xi_basis)
from .verify import (CheckReport, CheckResult, check_flat_remark, check_hodge,
                     check_lemma21, check_lemma22, check_metric,
                     check_thm24_thm25_prop26, run_suites)

__all__ = [
    "RATIONALS", "FieldContext", "Scalar", "FactoredFraction", "Matrix",
    "MultiPoly",
    "BasicInvariants", "CoxeterDatum", "anti_invariant_Q", "build_datum",
    "builtin_invariants", "poincare_closed_form", "poincare_equal",
    "validate_invariants",
    "ingest_invariants",
    "PolyDerivation", "SaitoContext", "bk_matrix", "build_context",
    "christoffel_star", "derivation_bracket", "dkx", "nabla_D", "xi_basis",
    "CheckReport", "CheckResult", "check_flat_remark", "check_hodge",
    "check_lemma21", "check_lemma22", "check_metric",
    "check_thm24_thm25_prop26", "run_suites",
]
