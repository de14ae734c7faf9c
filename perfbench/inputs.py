"""Workload definitions and the seeded invariants files they feed the program.

Every group reaches the program as an invariants file, so every seed takes
the same `--invariants` code path.  The seed picks, per group, a signed
permutation T of the coordinates (x = T y); seed 0 is the identity.  The file
then describes the same group in the new coordinates:

    forms        a'[pi(i)] = s_i a[i]                      (a' = T^t a)
    gram, gens   M'[pi(i)][pi(j)] = s_i s_j M[i][j]        (M' = T^t M T)
    invariants   P'(y) = P(T y)

T is orthogonal, so the Gram matrix and the generators transform alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    groups: tuple
    suites: tuple | None  # None runs every suite
    k_max: int
    m_max: int
    p_max: int


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    # one group, dense (A3) and sparse (D3) realization, CLI defaults, over Q
    "q-rank3": Workload(("A3", "D3"), None, 3, 7, 3),
    # rank 2 over number fields of degree 4, 6 and 8, CLI defaults
    "dihedral-nf": Workload(("I2-5", "I2-7", "I2-8"), None, 3, 7, 3),
    # the scale target; the full suite set does not fit a run yet
    "h3-file": Workload(("H3",), ("metric", "theorems", "flat"), 1, 1, 1),
}


def _scalar_times(node, sign):
    return node if sign > 0 else [[-n, d] for n, d in node]


def signed_permutation(group: str, seed: int, rank: int):
    """(pi, s) with x_i = s_i y_pi(i); seed 0 gives the identity."""
    if seed == 0:
        return list(range(rank)), [1] * rank
    rng = random.Random(f"{seed}/{group}")
    perm = list(range(rank))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(rank)]


def conjugate(doc: dict, perm, signs) -> dict:
    """The invariants document in the coordinates y of x = T y."""
    n = doc["rank"]

    def vector(v):
        out = [None] * n
        for i in range(n):
            out[perm[i]] = _scalar_times(v[i], signs[i])
        return out

    def matrix(m):
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[perm[i]][perm[j]] = _scalar_times(m[i][j], signs[i] * signs[j])
        return out

    def poly(p):
        terms = []
        for term in p["terms"]:
            exps = term["exponents"]
            sign = 1
            new = [0] * n
            for i, e in enumerate(exps):
                new[perm[i]] = e
                if signs[i] < 0 and e % 2:
                    sign = -sign
            terms.append({"exponents": new,
                          "coefficient": _scalar_times(term["coefficient"], sign)})
        return {"terms": terms}

    out = dict(doc)
    out["gram"] = matrix(doc["gram"])
    out["hyperplanes"] = [vector(f) for f in doc["hyperplanes"]]
    out["generators"] = [matrix(g) for g in doc["generators"]]
    out["invariants"] = [poly(p) for p in doc["invariants"]]
    return out


def base_document(group: str) -> dict:
    """Seed-0 invariants document: a built-in group, or H3."""
    if group == "H3":
        return h3_document()
    from coxsaito.coxeter import build_datum, builtin_invariants
    from coxsaito.invariants_io import datum_to_json
    if group.startswith("I2-"):
        datum = build_datum("I2", int(group[3:]))
    else:
        datum = build_datum(group[0], int(group[1:]))
    return datum_to_json(datum, builtin_invariants(datum))


def document(group: str, seed: int) -> dict:
    doc = base_document(group)
    perm, signs = signed_permutation(group, seed, doc["rank"])
    return conjugate(doc, perm, signs)


def h3_document() -> dict:
    """The icosahedral group over Q(sqrt 5): 15 reflections and invariants of
    degree 2, 6, 10, symmetrized powers over the icosahedron and dodecahedron
    vertex axes (the construction of the repository's H3 file test)."""
    from coxsaito.field import FieldContext
    from coxsaito.invariants_io import poly_to_json, scalar_to_json
    from coxsaito.poly import MultiPoly

    field = FieldContext((-5, 0, 1), "sqrt(5)")
    one, zero = field.one, field.coerce(0)
    tau = field.from_coeffs((Fraction(1, 2), Fraction(1, 2)))  # golden ratio
    sigma = tau - 1                                             # 1/tau

    def cyclic(v):
        a, b, c = v
        return [(a, b, c), (c, a, b), (b, c, a)]

    # roots: the 2-fold axes of the icosahedron with vertices cyclic(0, +-1, +-tau)
    roots = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    for s in (one, -one):
        for u in (one, -one):
            roots.extend(cyclic((one, tau * tau * s, tau * u)))

    def reflection(r):
        inv_norm = field.invert(sum((c * c for c in r), zero))
        return [[(one if i == j else zero) - 2 * r[i] * r[j] * inv_norm
                 for j in range(3)] for i in range(3)]

    x, y, z = (MultiPoly.variable(3, i, field) for i in range(3))

    def axis_power_sum(axes, power):
        total = MultiPoly.zero(3, field)
        for v in axes:
            total = total + (x * v[0] + y * v[1] + z * v[2]) ** power
        return total

    icosa = cyclic((zero, one, tau)) + cyclic((zero, one, -tau))
    dodeca = ([(one, one, one), (one, one, -one), (one, -one, one),
               (one, -one, -one)]
              + cyclic((sigma, zero, tau)) + cyclic((sigma, zero, -tau)))
    invariants = (x * x + y * y + z * z, axis_power_sum(icosa, 6),
                  axis_power_sum(dodeca, 10))

    def scalars(rows):
        return [[scalar_to_json(v, field) for v in row] for row in rows]

    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    return {
        "label": "H3",
        "field": {"minimal_polynomial": [[-5, 1], [0, 1], [1, 1]],
                  "generator_description": "sqrt(5)"},
        "rank": 3,
        "exponents": [1, 5, 9],
        "gram": scalars(identity),
        "hyperplanes": scalars(roots),
        "generators": [scalars(reflection(r)) for r in roots],
        "invariants": [poly_to_json(p) for p in invariants],
    }
