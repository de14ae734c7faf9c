"""One measured pass over a workload's groups, in a fresh interpreter.

    python3 -m perfbench.worker JOB.json

JOB.json names the mode (`setup`, `verdict` or `trace`), the invariants files
and the suite bounds.  Each group is driven through the public API in the
order `coxsaito.cli.run` uses: ingest_invariants -> build_context ->
run_suites -> report.to_dict() rendered as JSON.  The pass prints one JSON
line with its timings, the check statuses and, after timing stops, SHA-256
digests of the rendered B^(k) and xi^(m) read from the context's tables.

A `setup` or `verdict` pass runs under a SpeedProbe, which times a fixed
pure-Python loop every 50 ms, so that the run can tell how fast the machine
ran the interpreter while the pass ran (see `run.scaled`).
"""

from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
PROBE_MIN_SAMPLES = 5  # a pass with fewer samples is topped up right after it

# the operand of reference_loop: 16 terms in three variables over Q
_PROBE_POLY = {(i, j, i * j % 3): Fraction(i + 1, j + 2)
               for i in range(4) for j in range(4)}


def reference_loop() -> dict:
    """A fixed piece of pure-Python work, under 1 ms, that shares no code with
    coxsaito but is the kind of work its kernels do: the square of a small
    polynomial held as a dict from exponent tuples to Fractions."""
    out = {}
    for ea, ca in _PROBE_POLY.items():
        for eb, cb in _PROBE_POLY.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return out


class SpeedProbe:
    """Times `reference_loop` on a SIGALRM timer while a pass runs.

    `samples` are the loop's times; `spent` is their sum, which `clock`
    leaves out, so the probe adds no time to what the pass reports.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter without the time spent in the probe."""
        return time.perf_counter() - self.spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def table_digests(ctx) -> dict:
    out = {}
    for k, b in sorted(getattr(ctx, "bk_table", {}).items()):
        if k:
            out[f"B{k}"] = _sha256("\n".join(
                ";".join(b[i, j].render() for j in range(b.cols))
                for i in range(b.rows)))
    for m, xis in sorted(getattr(ctx, "xi_table", {}).items()):
        out[f"xi{m}"] = _sha256("\n".join(theta.render() for theta in xis))
    return out


def _strip_ms(report: dict) -> dict:
    checks = [{k: v for k, v in c.items() if k != "ms"} for c in report["checks"]]
    return dict(report, checks=checks)


def run_pass(job: dict, tracer=None, clock=time.perf_counter) -> dict:
    """Run one pass; with a tracer, its wrappers are live during the pass."""
    t0 = clock()
    import coxsaito  # noqa: F401  (import time is part of set-up)
    import_s = clock() - t0
    from coxsaito import invariants_io, saito, verify

    if tracer is not None:
        tracer.install()
    groups = []
    try:
        for name, path in job["groups"]:
            span = (tracer.span("group", group=name) if tracer is not None
                    else nullcontext())
            with span:
                t0 = clock()
                datum, invariants = invariants_io.ingest_invariants(path)
                t1 = clock()
                ctx = saito.build_context(datum, invariants)
                t2 = clock()
                if job["mode"] == "setup":
                    groups.append({"group": name, "ingest_s": t1 - t0,
                                   "build_s": t2 - t1})
                    continue
                report = verify.run_suites(
                    ctx, job["suites"] or "all", job["k_max"], job["m_max"],
                    job["p_max"], invariants_id=invariants.source)
                t3 = clock()
                text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
                t4 = clock()
            groups.append({
                "group": name, "ingest_s": t1 - t0, "build_s": t2 - t1,
                "verify_s": t3 - t2, "serialize_s": t4 - t3,
                "interval_s": t4 - t0,
                "checks": [[r.name, r.status, r.integrity, r.ms / 1000]
                           for r in report.results],
                "report": _strip_ms(json.loads(text)),
                "digests": table_digests(ctx)})
            del ctx, report
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import_s": import_s, "groups": groups, "rss_mib": rss_kib / 1024}


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    if job["mode"] == "trace":
        from perfbench.tracer import Tracer
        tracer = Tracer()
        result = run_pass(job, tracer)
        with open(job["trace_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    else:
        with SpeedProbe() as probe:
            result = run_pass(job, clock=probe.clock)
        while len(probe.samples) < PROBE_MIN_SAMPLES:
            probe.sample()
        result["probe_s"] = probe.samples
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
