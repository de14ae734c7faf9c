"""Stage spans and kernel counters, recorded from outside the coxsaito package.

`Tracer.install` rebinds coxsaito's public stage functions and kernel methods
to timing wrappers; `uninstall` restores the originals.  Nothing under `src/`
is edited.  A function is rebound in every coxsaito module namespace that
bound it (`verify` does `from .saito import bk_matrix`), and a method under
every class attribute that holds it (`MultiPoly.__rmul__` is `__mul__`).

* Stage calls become spans: name, k/m index, group, start, end, parent.  A
  cached stage whose index is already in the context's table is counted as a
  hit and gets no span, because it does no work.
* Kernel calls are aggregated per enclosing span: calls, total time and self
  time.  Self time excludes every nested wrapped call; stdlib `Fraction` work
  is not wrapped, so it lands in the innermost wrapped caller.

Span times:
  ``s``       duration minus the nested stage spans (own kernels included);
  ``self_s``  duration minus every nested wrapped call.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

_MISSING = object()

# metric name -> (module, attribute, context table probed for cache hits)
STAGES = {
    "invariants_io.ingest_invariants": ("coxsaito.invariants_io", "ingest_invariants", None),
    "coxeter.validate_invariants": ("coxsaito.coxeter", "validate_invariants", None),
    "coxeter.anti_invariant_Q": ("coxsaito.coxeter", "anti_invariant_Q", "_q"),
    "saito.build_context": ("coxsaito.saito", "build_context", None),
    "saito.dkx": ("coxsaito.saito", "dkx", "dkx_table"),
    "saito.jdkx": ("coxsaito.saito", "jdkx", "jdkx_table"),
    "saito.jdkx_inv": ("coxsaito.saito", "jdkx_inv", "jdkx_inv_table"),
    "saito.bk_matrix": ("coxsaito.saito", "bk_matrix", "bk_table"),
    "saito.xi_basis": ("coxsaito.saito", "xi_basis", "xi_table"),
    "saito.christoffel_star": ("coxsaito.saito", "christoffel_star", "christoffel_table"),
    "saito.metric_G_inv": ("coxsaito.saito", "SaitoContext.metric_G_inv", "_metric_G_inv"),
    "saito.nabla_D": ("coxsaito.saito", "nabla_D", None),
    "saito.derivation_bracket": ("coxsaito.saito", "derivation_bracket", None),
    "saito.derivation_transform": ("coxsaito.saito", "derivation_transform", None),
    "verify.run_suites": ("coxsaito.verify", "run_suites", None),
    "verify.metric": ("coxsaito.verify", "check_metric", None),
    "verify.lemma21": ("coxsaito.verify", "check_lemma21", None),
    "verify.lemma22": ("coxsaito.verify", "check_lemma22", None),
    "verify.theorems": ("coxsaito.verify", "check_thm24_thm25_prop26", None),
    "verify.hodge": ("coxsaito.verify", "check_hodge", None),
    "verify.flat": ("coxsaito.verify", "check_flat_remark", None),
}

# metric name -> (module, Class.method)
KERNELS = {
    "poly.mul": ("coxsaito.poly", "MultiPoly.__mul__"),
    "poly.add": ("coxsaito.poly", "MultiPoly.__add__"),
    "poly.exact_divide": ("coxsaito.poly", "MultiPoly.exact_divide"),
    "poly.subst_linear": ("coxsaito.poly", "MultiPoly.subst_linear"),
    "poly.partial": ("coxsaito.poly", "MultiPoly.partial"),
    "fraction.add": ("coxsaito.fraction", "FactoredFraction.__add__"),
    "fraction.mul": ("coxsaito.fraction", "FactoredFraction.__mul__"),
    "fraction.simplify": ("coxsaito.fraction", "FactoredFraction.simplify"),
    "field.scalar_mul": ("coxsaito.field", "Scalar.__mul__"),
    "field.scalar_add": ("coxsaito.field", "Scalar.__add__"),
    "field.invert": ("coxsaito.field", "FieldContext.invert"),
    "matrix.mul": ("coxsaito.matrix", "Matrix.__mul__"),
    "matrix.det": ("coxsaito.matrix", "Matrix.det"),
    "matrix.inverse": ("coxsaito.matrix", "Matrix.inverse"),
}


class Span:
    __slots__ = ("id", "name", "index", "group", "parent", "start", "end",
                 "stage_child", "wrapped_child", "kernels")

    def __init__(self, sid, name, index, group, parent, start):
        self.id = sid
        self.name = name
        self.index = index
        self.group = group
        self.parent = parent
        self.start = start
        self.end = start
        self.stage_child = 0.0    # time in nested stage spans
        self.wrapped_child = 0.0  # time in nested stage spans and kernels
        self.kernels: dict = {}   # kernel -> [calls, total_s, self_s, returned_none]

    @property
    def s(self) -> float:
        return self.end - self.start - self.stage_child

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.wrapped_child

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "index": self.index,
                "group": self.group, "parent": self.parent,
                "start": self.start, "end": self.end,
                "s": self.s, "self_s": self.self_s, "kernels": self.kernels}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.clock = time.perf_counter
        root = Span(0, "root", None, None, None, self.clock())
        self.spans: list[Span] = [root]
        self.hits: dict = {}
        self.misses: dict = {}
        self.missing: list[str] = []
        self.group = None
        self._span_stack: list[Span] = [root]
        # one cell per open wrapped call (stage or kernel): time of its
        # nested wrapped calls, so the caller's self time can exclude them
        self._call_stack: list[list] = [[0.0]]
        self._saved: list = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name, index=None, group=_MISSING):
        """Open a stage span; `group` also labels every span nested in it."""
        clock = self.clock
        outer_group = self.group
        if group is not _MISSING:
            self.group = group
        parent = self._span_stack[-1]
        sp = Span(len(self.spans), name, index, self.group, parent.id, clock())
        self.spans.append(sp)
        self._span_stack.append(sp)
        cell = [0.0]
        self._call_stack.append(cell)
        try:
            yield sp
        finally:
            sp.end = clock()
            dt = sp.end - sp.start
            sp.wrapped_child = cell[0]
            self._call_stack.pop()
            self._call_stack[-1][0] += dt
            self._span_stack.pop()
            self._span_stack[-1].stage_child += dt
            self.group = outer_group

    def _stage_wrapper(self, fn, name, table):
        tracer = self
        hits, misses = self.hits, self.misses

        def is_hit(args):
            if table.startswith("_"):  # lazily set on the first argument
                return getattr(args[0], table, None) is not None
            cached = getattr(args[1], table, None) if len(args) > 1 else None
            return cached is not None and args[0] in cached

        def wrapper(*args, **kwargs):
            if table is not None:
                if is_hit(args):
                    hits[name] = hits.get(name, 0) + 1
                    return fn(*args, **kwargs)
                misses[name] = misses.get(name, 0) + 1
            index = args[0] if args and type(args[0]) is int else None
            with tracer.span(name, index):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel_wrapper(self, fn, name):
        clock = self.clock
        calls = self._call_stack
        spans = self._span_stack

        def wrapper(*args, **kwargs):
            cell = [0.0]
            calls.append(cell)
            result = _MISSING
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                calls.pop()
                calls[-1][0] += dt
                agg = spans[-1].kernels
                rec = agg.get(name)
                if rec is None:
                    agg[name] = rec = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - cell[0]
                if result is None:
                    rec[3] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _resolve(self, module, path):
        obj = importlib.import_module(module)
        owner = None
        for part in path.split("."):
            owner, obj = obj, getattr(obj, part, _MISSING)
            if obj is _MISSING:
                return None, None
        return owner, obj

    def _rebind(self, owner, original, wrapper):
        if isinstance(owner, type):
            places = [owner]
        else:
            places = [mod for mname, mod in list(sys.modules.items())
                      if mname == "coxsaito" or mname.startswith("coxsaito.")]
        for place in places:
            for attr, value in list(vars(place).items()):
                if value is original:
                    self._saved.append((place, attr, original))
                    setattr(place, attr, wrapper)

    def install(self):
        for name, (module, path, table) in STAGES.items():
            owner, fn = self._resolve(module, path)
            if fn is None:
                self.missing.append(name)
                continue
            self._rebind(owner, fn, self._stage_wrapper(fn, name, table))
        for name, (module, path) in KERNELS.items():
            owner, fn = self._resolve(module, path)
            if fn is None:
                self.missing.append(name)
                continue
            self._rebind(owner, fn, self._kernel_wrapper(fn, name))

    def uninstall(self):
        while self._saved:
            place, attr, original = self._saved.pop()
            setattr(place, attr, original)

    # -- results -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": [sp.to_dict() for sp in self.spans],
                "cache_hits": self.hits, "cache_misses": self.misses,
                "not_found": self.missing}
