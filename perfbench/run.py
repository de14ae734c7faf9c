"""coxsaito benchmark: time to an exact verdict, per workload.

    python3 perfbench/run.py --workload q-rank3 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The run writes the workload's invariants
files for `--seed`, then makes verify passes, each in a fresh interpreter,
until it has made one and `--seconds` have gone by, with set-up samples in
fresh interpreters after each pass.  Every time is scaled to a reference
speed of the machine, which each pass measures as it runs (see `scaled`).
Every pass is checked against `expected.json`; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 1` it makes one plain pass and one traced pass instead and reports
the per-layer metrics; the spans go to
`.perfbench/trace-<workload>-seed<seed>.json` and the per-group stage table
to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:  # run as a script: the parent imports both packages too
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.tracer import KERNELS, STAGES  # noqa: E402

WORK = ROOT / ".perfbench"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# A run makes verify passes until it has MIN_PASSES and --seconds have gone
# by; one scaled pass is already steady (see README.md).  After each pass it
# samples set-up in fresh interpreters for SETUP_SECONDS_PER_PASS (at least
# once), so the set-up samples spread over the whole run like the passes do.
MIN_PASSES = 1
SETUP_SECONDS_PER_PASS = 1.5
RUN_BUDGET_S = 170.0  # every run ends within 180 s

# worker.reference_loop takes this long at the reference speed: the 10th
# percentile of its times inside verify passes on the 2-core VM the
# benchmark was written on (Python 3.11.7).  It only fixes the unit of the
# scaled times.
REFERENCE_LOOP_S = 0.00065

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "verify_s": "s",
                    "peak_rss_mib": "MiB", "ok_ratio": "ratio"}

SUITES = ("metric", "lemma21", "lemma22", "theorems", "hodge", "flat")
GROUPS = ("A3", "D3", "I2-5", "I2-7", "I2-8", "H3")
SAITO_STAGES = ("dkx", "jdkx", "xi_basis", "christoffel_star", "metric_G_inv",
                "nabla_D", "derivation_bracket", "derivation_transform")
CACHED_STAGES = tuple(name for name, (_, _, table) in STAGES.items()
                      if table and name.startswith("saito."))


def per_layer_units() -> dict:
    """Every per-layer metric, in report order, with its unit."""
    units = {"invariants_io.ingest_invariants.self_s": "s",
             "coxeter.validate_invariants.s": "s",
             "coxeter.anti_invariant_Q.s": "s"}
    units.update({f"saito.{st}.s": "s" for st in SAITO_STAGES})
    units.update({f"saito.jdkx_inv.k{k}.s": "s" for k in (1, 2, 3)})
    units["saito.jdkx_inv.fallbacks"] = "count"
    units.update({f"saito.bk_matrix.k{k}.s": "s" for k in (1, 2, 3, 4)})
    units["saito.cache_hit_ratio"] = "ratio"
    units.update({f"verify.{suite}.s": "s" for suite in SUITES})
    units["verify.unattributed_s"] = "s"
    units.update({f"verify.group.{g}.s": "s" for g in GROUPS})
    for kernel in KERNELS:
        units[f"{kernel}.calls"] = "count"
        units[f"{kernel}.self_s"] = "s"
    units["poly.exact_divide.none_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    pass


# -- passes ----------------------------------------------------------------------


def run_worker(job: dict, workdir: Path, deadline: float) -> dict:
    """One pass in a fresh single-threaded interpreter, with no D^k[X] cache."""
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "COXSAITO_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the pass started")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", str(job_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['mode']} pass exceeded the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} pass exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_s(result: dict) -> float:
    return result["import_s"] + sum(g["ingest_s"] + g["build_s"]
                                    for g in result["groups"])


def verdict_s(result: dict) -> float:
    """First ingest to last serialized report; digests are taken outside."""
    return sum(g["interval_s"] for g in result["groups"])


def verify_s(result: dict) -> float:
    return sum(g["verify_s"] for g in result["groups"])


def speed(result: dict) -> float:
    """The machine's mean speed during a pass, as a share of the reference
    speed: the mean over the probe's samples of REFERENCE_LOOP_S over the
    sample.  The samples are evenly spaced in time, so this weighs each
    stretch of the pass by how long it lasted."""
    return statistics.fmean(REFERENCE_LOOP_S / t for t in result["probe_s"])


def scaled(seconds: float, result: dict) -> float:
    """A time of the pass `result`, in seconds at the reference speed.

    The VM this runs on shares its host with other tenants.  Each of its
    cores switches, every few seconds, between a fast state and one about
    1.45x slower, with no steal time reported; the two cores switch
    independently.  So the pass's own process times a sub-millisecond loop
    of fixed work every 50 ms (worker.SpeedProbe), and each stretch of the
    pass counts at the speed measured in it.  The loop shares no code with
    coxsaito: a change to the program moves the scaled time as much as the
    wall time.
    """
    return seconds * speed(result)


# -- correctness --------------------------------------------------------------------


def judge(result: dict, expected: dict, seed: int, reference=None):
    """(attempted, bad, problems) for one pass.

    A check is bad when it is missing, extra, failed, an integrity error or
    at another status than expected.  At seed 0 a digest mismatch makes every
    check of its group bad; so does a report that differs from `reference`
    (the plain pass, when judging a traced one).
    """
    attempted = bad = 0
    problems = []
    for i, g in enumerate(result["groups"]):
        want = expected[g["group"]]
        want_status = dict(want["checks"])
        got = {name: status + (" (integrity error)" if integrity else "")
               for name, status, integrity, _ in g["checks"]}
        names = list(want_status) + [n for n in got if n not in want_status]
        group_bad = [n for n in names
                     if got.get(n, "absent") != want_status.get(n, "absent")]
        problems.extend(f"{g['group']}: {n}: expected {want_status.get(n, 'absent')}, "
                        f"got {got.get(n, 'absent')}" for n in group_bad[:5])
        if seed == 0 and g["digests"] != want["digests"]:
            problems.append(f"{g['group']}: B^(k)/xi^(m) digests differ")
            group_bad = names
        if reference is not None and g["report"] != reference["groups"][i]["report"]:
            problems.append(f"{g['group']}: traced report differs from the plain one")
            group_bad = names
        attempted += len(names)
        bad += len(group_bad)
    return attempted, bad, problems


# -- metrics -----------------------------------------------------------------------


def end_to_end_metrics(passes, setups, attempted, bad) -> dict:
    """Medians over the run's verify passes and set-up samples (worker
    results; every pass is a set-up sample too), with times scaled to the
    reference speed."""
    def median_scaled(results, metric):
        return statistics.median(scaled(metric(r), r) for r in results)
    values = {
        "verdict_s": median_scaled(passes, verdict_s),
        "setup_s": median_scaled(passes + setups, setup_s),
        "verify_s": median_scaled(passes, verify_s),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "ok_ratio": (attempted - bad) / attempted,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(trace: dict, traced: dict, plain: dict) -> dict:
    spans = trace["spans"][1:]
    s_by = defaultdict(float)        # (name, index) and name -> sum of span s
    self_by = defaultdict(float)     # name -> sum of span self_s
    wall_by = defaultdict(float)     # name -> sum of span duration
    group_wall = defaultdict(float)  # group -> run_suites duration
    kernels = defaultdict(lambda: [0, 0.0, 0.0, 0])
    fallbacks = 0
    for sp in spans:
        name, dur = sp["name"], sp["end"] - sp["start"]
        s_by[name] += sp["s"]
        s_by[(name, sp["index"])] += sp["s"]
        self_by[name] += sp["self_s"]
        wall_by[name] += dur
        if name == "verify.run_suites":
            group_wall[sp["group"]] += dur
        if name == "saito.jdkx_inv":
            fallbacks += sp["kernels"].get("matrix.inverse", [0])[0]
    for sp in trace["spans"]:
        for kernel, rec in sp["kernels"].items():
            agg = kernels[kernel]
            for i in range(4):
                agg[i] += rec[i]
    hits = sum(trace["cache_hits"].get(n, 0) for n in CACHED_STAGES)
    misses = sum(trace["cache_misses"].get(n, 0) for n in CACHED_STAGES)

    values = {"invariants_io.ingest_invariants.self_s":
              self_by["invariants_io.ingest_invariants"],
              "coxeter.validate_invariants.s": s_by["coxeter.validate_invariants"],
              "coxeter.anti_invariant_Q.s": s_by["coxeter.anti_invariant_Q"]}
    for st in SAITO_STAGES:
        values[f"saito.{st}.s"] = s_by[f"saito.{st}"]
    for k in (1, 2, 3):
        values[f"saito.jdkx_inv.k{k}.s"] = s_by[("saito.jdkx_inv", k)]
    values["saito.jdkx_inv.fallbacks"] = fallbacks
    for k in (1, 2, 3, 4):
        values[f"saito.bk_matrix.k{k}.s"] = s_by[("saito.bk_matrix", k)]
    values["saito.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for suite in SUITES:
        values[f"verify.{suite}.s"] = wall_by[f"verify.{suite}"]
    values["verify.unattributed_s"] = verify_s(traced) - sum(
        c[3] for g in traced["groups"] for c in g["checks"])
    for g in GROUPS:
        values[f"verify.group.{g}.s"] = group_wall[g]
    for kernel in KERNELS:
        calls, _total, self_time, _none = kernels[kernel]
        values[f"{kernel}.calls"] = calls
        values[f"{kernel}.self_s"] = self_time
    calls, _total, _self, nones = kernels["poly.exact_divide"]
    values["poly.exact_divide.none_ratio"] = nones / calls if calls else 0.0
    values["trace.overhead_s"] = verdict_s(traced) - verdict_s(plain)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()}


def stage_table(trace: dict) -> list[str]:
    """Per group: each stage's span count, s, self_s and top kernels by self
    time, then the group's kernel totals."""
    rows = defaultdict(lambda: [0, 0.0, 0.0, defaultdict(float)])
    totals = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for sp in trace["spans"][1:]:
        for kernel, rec in sp["kernels"].items():
            totals[sp["group"]][kernel][0] += rec[0]
            totals[sp["group"]][kernel][1] += rec[2]
        if sp["name"] == "group":
            continue
        index = "" if sp["index"] is None else f"[{sp['index']}]"
        row = rows[(sp["group"], sp["name"] + index)]
        row[0] += 1
        row[1] += sp["s"]
        row[2] += sp["self_s"]
        for kernel, rec in sp["kernels"].items():
            row[3][kernel] += rec[2]
    lines = []
    for group in totals:
        lines.append(f"group {group}: stage, spans, s, self_s, top kernels by self_s")
        mine = sorted(((name, row) for (g, name), row in rows.items() if g == group),
                      key=lambda item: -item[1][1])
        for name, (n, s, self_s, kern) in mine:
            top = sorted(kern.items(), key=lambda kv: -kv[1])[:3]
            lines.append(f"  {name:34s} {n:5d} {s:8.3f} {self_s:8.3f}  "
                         + ", ".join(f"{k} {v:.3f}" for k, v in top))
        lines.append(f"group {group}: kernel, calls, self_s")
        for kernel, (calls, self_s) in sorted(totals[group].items(),
                                              key=lambda kv: -kv[1][1]):
            lines.append(f"  {kernel:34s} {calls:9d} {self_s:8.3f}")
    return lines


# -- runs ----------------------------------------------------------------------------


def write_inputs(workload, seed: int, workdir: Path):
    from perfbench import inputs
    paths = []
    for group in workload.groups:
        path = workdir / f"{group}.json"
        path.write_text(json.dumps(inputs.document(group, seed)), encoding="utf-8")
        paths.append([group, str(path)])
    return paths


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    from perfbench.inputs import WORKLOADS
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    job = {"mode": "verdict", "groups": write_inputs(workload, seed, workdir),
           "suites": workload.suites, "k_max": workload.k_max,
           "m_max": workload.m_max, "p_max": workload.p_max}
    attempted = bad = 0
    problems = []

    def checked(result, reference=None):
        nonlocal attempted, bad
        a, b, p = judge(result, expected, seed, reference)
        attempted, bad = attempted + a, bad + b
        problems.extend(p)
        return result

    if trace:
        plain = checked(run_worker(job, workdir, deadline))
        trace_path = WORK / f"trace-{name}-seed{seed}.json"
        traced = checked(run_worker(dict(job, mode="trace", trace_out=str(trace_path)),
                                    workdir, deadline), reference=plain)
        spans = json.loads(trace_path.read_text(encoding="utf-8"))
        print("\n".join(stage_table(spans)), file=sys.stderr)
        metrics = per_layer_metrics(spans, traced, plain)
    else:
        passes, setups = [], []
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            t0 = time.monotonic()
            passes.append(checked(run_worker(job, workdir, deadline)))
            print(f"pass {len(passes)}: verdict_s {verdict_s(passes[-1]):.3f} wall, "
                  f"{scaled(verdict_s(passes[-1]), passes[-1]):.3f} scaled "
                  f"(speed {speed(passes[-1]):.3f})", file=sys.stderr)
            t1 = time.monotonic()
            while time.monotonic() - t1 < SETUP_SECONDS_PER_PASS:
                setups.append(run_worker(dict(job, mode="setup"), workdir, deadline))
            now = time.monotonic()
            if now + (now - t0) > deadline:  # no room for another pass
                break
        metrics = end_to_end_metrics(passes, setups, attempted, bad)
    for line in problems[:20]:
        print(f"wrong output: {line}", file=sys.stderr)
    return {"correct": bad == 0, "attempted": attempted, "failed": bad,
            "metrics": metrics}


def main(argv=None) -> int:
    from perfbench.inputs import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "coxsaito" / "__init__.py").is_file():
        print(f"error: no coxsaito sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
