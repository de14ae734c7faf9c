"""Command-line front end.

    coxsaito verify --type B --rank 2 --kmax 3 --mmax 7 --format json
    coxsaito verify --invariants my_group.json --suite lemma21,flat
    coxsaito basis --type B --rank 2 -m 3

Exit codes: 0 all selected checks passed (skipped does not count as failed),
1 at least one check failed, 2 configuration, parse or file error (an
input that cannot be read, an --out that cannot be written), 3 internal
integrity error (e.g. a polynomiality certification failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .coxeter import (build_datum, builtin_invariants, is_dihedral_label,
                      series_builder)
from .errors import (ConfigError, CoxsaitoError, ParseError, RankOutOfRange,
                     UnsupportedType, ValidationError)
from .invariants_io import ingest_invariants
from .saito import build_context, derivation_degree, xi_basis
from .verify import SUITE_ORDER, CheckReport, run_suites

FORM_NOTE = "hyperplane forms are normalized to leading coefficient 1"


# a plain class, as `verify.CheckResult` is: `dataclasses` would cost each
# command-line run about 12 ms and 1 MiB of imports
class RunConfig:
    """The group, suites, bounds and output of one run; suites None means all."""

    __slots__ = ("type_label", "rank", "i2_m", "invariants_path", "suites",
                 "k_max", "m_max", "p_max", "fmt", "out")

    def __init__(self, type_label: str | None = None, rank: int | None = None,
                 i2_m: int | None = None, invariants_path: str | None = None,
                 suites: list | None = None, k_max: int = 3, m_max: int = 7,
                 p_max: int = 3, fmt: str = "text", out: str | None = None):
        self.type_label, self.rank, self.i2_m = type_label, rank, i2_m
        self.invariants_path, self.suites = invariants_path, suites
        self.k_max, self.m_max, self.p_max = k_max, m_max, p_max
        self.fmt, self.out = fmt, out

    def validate(self):
        if self.invariants_path is None and self.type_label is None:
            raise ConfigError("select a group with --type or --invariants")
        if self.k_max < 1 or self.m_max < 1 or self.p_max < 1:
            raise ConfigError("bounds must be >= 1")
        if self.suites is not None:
            if not self.suites:
                raise ConfigError("--suite names no suite")
            unknown = [s for s in self.suites if s not in SUITE_ORDER]
            if unknown:
                raise ConfigError(
                    f"unknown suite(s) {unknown}; available: {', '.join(SUITE_ORDER)}")
        if self.fmt not in ("text", "json"):
            raise ConfigError("format must be text or json")


def _build_pair(config: RunConfig):
    if config.invariants_path is not None:
        return ingest_invariants(config.invariants_path)
    label = config.type_label
    if is_dihedral_label(label):
        if config.i2_m is None:
            raise ConfigError("I2 groups need --m")
        datum = build_datum("I2", config.i2_m)
    else:
        build = series_builder(label)
        if config.rank is None:
            raise ConfigError(f"type {label} needs --rank")
        datum = build(config.rank)
    return datum, builtin_invariants(datum)


def render_text(report: CheckReport) -> str:
    lines = [f"group {report.group}  field {report.field_desc}  "
             f"invariants {report.invariants_id}"]
    for r in report.results:
        line = f"{r.status.upper():7s} {r.name:20s} [{r.paper_ref}] ({r.ms:.1f} ms)"
        lines.append(line)
        if r.witness:
            lines.append(f"        witness: {r.witness}")
    c = report.counts
    lines.append(f"summary: total={c['total']} pass={c['pass']} "
                 f"fail={c['fail']} skipped={c['skipped']}")
    lines.append(f"note: {FORM_NOTE}")
    return "\n".join(lines)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def run(config: RunConfig) -> int:
    """Execute a verification run and emit its report; returns the exit code."""
    config.validate()
    datum, invariants = _build_pair(config)
    ctx = build_context(datum, invariants)
    report = run_suites(ctx, "all" if config.suites is None else config.suites,
                        config.k_max, config.m_max, config.p_max,
                        invariants_id=invariants.source)
    if config.fmt == "json":
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), config.out)
    else:
        _emit(render_text(report), config.out)
    if report.integrity_error:
        return 3
    return 1 if report.failed else 0


def run_basis(config: RunConfig, m: int) -> int:
    config.validate()
    if m < 0:
        raise ConfigError("basis order must be >= 0")
    datum, invariants = _build_pair(config)
    ctx = build_context(datum, invariants)
    xis = xi_basis(m, ctx)
    if config.fmt == "json":
        doc = {"group": datum.label(), "field": datum.field.describe(), "m": m,
               "basis": [{"j": j + 1,
                          "degree": derivation_degree(theta),
                          "derivation": theta.render()}
                         for j, theta in enumerate(xis)],
               "note": FORM_NOTE}
        _emit(json.dumps(doc, indent=2, sort_keys=True), config.out)
    else:
        lines = [f"group {datum.label()}  field {datum.field.describe()}  m={m}"]
        for j, theta in enumerate(xis):
            deg = derivation_degree(theta)
            lines.append(f"xi^({m})_{j + 1}  (degree {deg})")
            lines.append(f"  = {theta.render()}")
        lines.append(f"note: {FORM_NOTE}")
        _emit("\n".join(lines), config.out)
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--type", dest="type_label",
                        help="group family: A, B, D or I2")
    parser.add_argument("--rank", type=int, help="rank for A/B/D")
    parser.add_argument("--m", dest="i2_m", type=int,
                        help="m for the dihedral group I2(m)")
    parser.add_argument("--invariants", dest="invariants_path",
                        help="path to an invariants file (custom group)")
    parser.add_argument("--format", dest="fmt", choices=("text", "json"),
                        default="text")
    parser.add_argument("--out", help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxsaito",
        description="Exact verification of contact-order / Hodge filtration "
                    "identities for finite Coxeter arrangements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run check suites")
    _add_common(p_verify)
    p_verify.add_argument("--suite", default="all",
                          help="comma-separated suites "
                               f"({', '.join(SUITE_ORDER)}) or 'all'")
    # an unset bound is left out of the namespace: RunConfig holds the defaults
    p_verify.add_argument("--kmax", dest="k_max", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--mmax", dest="m_max", type=int, default=argparse.SUPPRESS)
    p_verify.add_argument("--pmax", dest="p_max", type=int, default=argparse.SUPPRESS)

    p_basis = sub.add_parser("basis", help="print a contact-order basis")
    _add_common(p_basis)
    p_basis.add_argument("-m", "--order", dest="order", type=int, required=True,
                         help="contact order of the basis to print")
    return parser


def _config_from_args(args) -> RunConfig:
    suites = None
    if getattr(args, "suite", "all") != "all":
        suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    bounds = {name: value for name, value in vars(args).items()
              if name in ("k_max", "m_max", "p_max")}
    return RunConfig(type_label=args.type_label, rank=args.rank, i2_m=args.i2_m,
                     invariants_path=args.invariants_path, suites=suites,
                     fmt=args.fmt, out=args.out, **bounds)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "verify":
            return run(config)
        return run_basis(config, args.order)
    except (ParseError, ValidationError, UnsupportedType, RankOutOfRange,
            ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoxsaitoError as exc:
        # anything else escaping a run is an internal integrity problem
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
