"""Invariant-file parsing and canonical serialization.

The file format is JSON with every field element spelled out as a vector of
rationals over the power basis of the field (a rational is a two-int array
[numerator, denominator]), so nothing is ever parsed out of a string:

    {
      "label": "H3",
      "field": {"minimal_polynomial": [scalar, ...],   # ascending, monic
                 "generator_description": "sqrt(5)"},
      "rank": 3,
      "exponents": [1, 5, 9],
      "gram": [[scalar, ...], ...],
      "hyperplanes": [[scalar, ...], ...],
      "generators": [[[scalar, ...], ...], ...],
      "invariants": [{"terms": [{"exponents": [2,0,0],
                                  "coefficient": scalar}, ...]}, ...]
    }

    scalar := [[num, den], ...]   # length = field degree
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .coxeter import BasicInvariants, CoxeterDatum, validate_invariants
from .errors import CoxsaitoError, ParseError
from .field import FieldContext
from .poly import MASK, MultiPoly


# -- scalar / polynomial encoding ----------------------------------------------------


def rational_to_json(q: Fraction):
    return [q.numerator, q.denominator]


def scalar_to_json(value, field: FieldContext):
    return [rational_to_json(c) for c in field.to_coeffs(value)]


def scalar_from_json(node, field: FieldContext, where: str):
    if (not isinstance(node, list) or len(node) != field.degree
            or not all(isinstance(r, list) and len(r) == 2
                       and all(type(v) is int for v in r) for r in node)):
        raise ParseError(f"{where}: expected a scalar as {field.degree} "
                         "[numerator, denominator] pairs")
    try:
        return field.from_coeffs([Fraction(n, d) for n, d in node])
    except ZeroDivisionError:
        raise ParseError(f"{where}: zero denominator") from None


def poly_to_json(p: MultiPoly) -> dict:
    terms = [{"exponents": list(e), "coefficient": scalar_to_json(c, p.field)}
             for e, c in p.iter_terms()]
    return {"terms": terms}


def poly_from_json(node, nvars: int, field: FieldContext, where: str) -> MultiPoly:
    if not isinstance(node, dict) or "terms" not in node:
        raise ParseError(f"{where}: expected an object with a 'terms' list")
    if not isinstance(node["terms"], list):
        raise ParseError(f"{where}.terms: expected a list")
    items = []
    for t, term in enumerate(node["terms"]):
        spot = f"{where}.terms[{t}]"
        if not isinstance(term, dict):
            raise ParseError(f"{spot}: expected an object")
        exps = term.get("exponents")
        if (not isinstance(exps, list) or len(exps) != nvars
                or not all(type(e) is int and 0 <= e <= MASK for e in exps)):
            raise ParseError(f"{spot}: bad exponent vector")
        coeff = scalar_from_json(term.get("coefficient"), field,
                                 f"{spot}.coefficient")
        items.append((exps, coeff))
    return MultiPoly.from_terms(nvars, items, field)


# -- invariant files ---------------------------------------------------------------------


def _expect(node, key, kind, where):
    if not isinstance(node, dict) or key not in node:
        raise ParseError(f"{where}: missing key {key!r}")
    value = node[key]
    # exact types: JSON true/false are Python bools, which subclass int
    if kind is not None and type(value) is not kind:
        raise ParseError(f"{where}.{key}: expected {kind.__name__}")
    return value


def ingest_invariants(path) -> tuple[CoxeterDatum, BasicInvariants]:
    """Parse an invariants file and run the full validation on it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    label = _expect(doc, "label", str, "$")
    field_node = _expect(doc, "field", dict, "$")
    minpoly_node = _expect(field_node, "minimal_polynomial", list, "$.field")
    minpoly = []
    for i, r in enumerate(minpoly_node):
        if not (isinstance(r, list) and len(r) == 2
                and all(type(v) is int for v in r)):
            raise ParseError(f"$.field.minimal_polynomial[{i}]: expected [num, den]")
        if r[1] == 0:
            raise ParseError(f"$.field.minimal_polynomial[{i}]: zero denominator")
        minpoly.append(Fraction(r[0], r[1]))
    desc = "custom"
    if "generator_description" in field_node:
        desc = _expect(field_node, "generator_description", str, "$.field")
    try:
        field = FieldContext(minpoly, desc)
    except ValueError as exc:
        raise ParseError(f"$.field: {exc}") from None
    rank = _expect(doc, "rank", int, "$")
    exponents = _expect(doc, "exponents", list, "$")
    if not all(type(e) is int and e >= 1 for e in exponents):
        raise ParseError("$.exponents: expected positive integers")

    def scalar_matrix(node, rows, cols, where):
        if not isinstance(node, list) or len(node) != rows:
            raise ParseError(f"{where}: expected {rows} rows")
        out = []
        for i, row in enumerate(node):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(f"{where}[{i}]: expected {cols} entries")
            out.append([scalar_from_json(v, field, f"{where}[{i}][{j}]")
                        for j, v in enumerate(row)])
        return out

    gram = scalar_matrix(_expect(doc, "gram", list, "$"), rank, rank, "$.gram")
    hyper_node = _expect(doc, "hyperplanes", list, "$")
    hyperplanes = []
    for i, row in enumerate(hyper_node):
        if not isinstance(row, list) or len(row) != rank:
            raise ParseError(f"$.hyperplanes[{i}]: expected {rank} coefficients")
        hyperplanes.append([scalar_from_json(v, field, f"$.hyperplanes[{i}][{j}]")
                            for j, v in enumerate(row)])
    gens_node = _expect(doc, "generators", list, "$")
    generators = [scalar_matrix(g, rank, rank, f"$.generators[{i}]")
                  for i, g in enumerate(gens_node)]
    inv_node = _expect(doc, "invariants", list, "$")
    polys = [poly_from_json(p, rank, field, f"$.invariants[{i}]")
             for i, p in enumerate(inv_node)]
    try:
        datum = CoxeterDatum(label, rank, field, gram, hyperplanes, generators,
                             exponents)
    except CoxsaitoError as exc:
        # the file describes no valid Coxeter group: bad input, not a fault
        raise ParseError(f"$: {exc}") from None
    invariants = validate_invariants(datum, polys, source=str(path))
    return datum, invariants


def datum_to_json(datum: CoxeterDatum, invariants: BasicInvariants) -> dict:
    field = datum.field
    return {
        "label": datum.type_label,
        "field": {"minimal_polynomial": [rational_to_json(c) for c in field.minpoly],
                  "generator_description": field.generator_description},
        "rank": datum.rank,
        "exponents": list(datum.exponents),
        "gram": [[scalar_to_json(v, field) for v in row] for row in datum.gram],
        "hyperplanes": [[scalar_to_json(v, field) for v in f] for f in datum.forms],
        "generators": [[[scalar_to_json(v, field) for v in row] for row in g]
                       for g in datum.generators],
        "invariants": [poly_to_json(p) for p in invariants.polys],
    }
