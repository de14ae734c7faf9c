"""Run the benchmark in alternating pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr 27 \
        --claim q-rank3:verify_s --note "what the change does"

`--parent` and `--change` are two checkouts of the repository.  For every
workload in the change's `BENCHMARK.json` and each of ten seeds from 500,
the script runs `perfbench/run.py --trace 0` for the benchmark's
`run_seconds` once in each checkout, one run at a time; the checkout that
runs first alternates from pair to pair.  The file records both
`git rev-parse HEAD` values, the Python version and CPU count of the
machine, and, per workload and end-to-end metric, each side's value in every
pair, the medians and interquartile ranges of the two sides and the number
of pairs in which the change was better and worse, by the metric's `better`
direction; `claim` is null without `--claim`.  A run that exits non-zero,
prints no result or reports `correct: false` stops the script before
anything is written.  A `--claim` that is not `workload:metric`, with a
workload and an end-to-end metric of `BENCHMARK.json`, stops it before the
first run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py", "--trace", "0"]
SEEDS = list(range(500, 510))


def head(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, text=True,
                          capture_output=True, check=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result object, which must be correct."""
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds)],
                          cwd=checkout, text=True, capture_output=True)
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            pass
    if not isinstance(result, dict) or result.get("correct") is not True:
        raise SystemExit(f"{checkout}: {workload} seed {seed} was not correct "
                         f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return result


def iqr(values) -> float:
    """The distance between the quartiles (`statistics.quantiles`, n = 4)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def summarize(end_to_end, parent_runs, change_runs) -> dict:
    """Per metric of `end_to_end` (BENCHMARK.json entries with `name` and
    `better`): the values of each side in pair order, medians, IQRs, and
    pairs where the change was better or worse.  The i-th parent run and the
    i-th change run form one pair."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("parent and change have different numbers of runs")
    out = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        out[name] = {
            "parent_values": [round(v, 4) for v in parent],
            "change_values": [round(v, 4) for v in change],
            "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "parent_iqr": round(iqr(parent), 4),
            "change_iqr": round(iqr(change), 4),
            "pairs_change_better": sum(g > 0 for g in gains),
            "pairs_change_worse": sum(g < 0 for g in gains),
        }
    return out


def parse_claim(claim: str, spec: dict) -> tuple[str, str]:
    """(workload, metric) of a `workload:metric` claim; ValueError unless the
    workload is one of spec's `workloads` and the metric one of its
    `end_to_end` metrics."""
    parts = claim.split(":")
    if len(parts) != 2:
        raise ValueError(f"--claim {claim!r} is not of the form workload:metric")
    workload, metric = parts
    for what, name, key in (("workload", workload, "workloads"),
                            ("metric", metric, "end_to_end")):
        names = [entry["name"] for entry in spec[key]]
        if name not in names:
            raise ValueError(f"--claim {what} {name!r} is not one of {names}")
    return workload, metric


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    ap.add_argument("--claim", help="workload:metric the change claims")
    ap.add_argument("--note", default="", help="what the change does")
    args = ap.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        claim = parse_claim(args.claim, spec) if args.claim else None
    except ValueError as exc:
        ap.error(str(exc))
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"change": args.note, "parent_commit": head(sides["parent"]),
           "change_commit": head(sides["change"]),
           "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                      f"--seconds {seconds:g} --trace 0",
           "protocol": f"{len(SEEDS)} pairs per workload, parent and change on "
                       "the same seed in each pair, the side that runs first "
                       "alternating by pair; one run at a time; times are "
                       f"perfbench's scaled seconds; {os.cpu_count()} CPUs, "
                       f"Python {platform.python_version()}",
           "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(SEEDS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(sides[side], workload, seed, seconds))
                print(f"{workload} seed {seed} {side} done", file=sys.stderr)
        doc["workloads"][workload] = {
            "pairs": len(SEEDS), "seeds": SEEDS,
            "metrics": summarize(spec["end_to_end"], runs["parent"], runs["change"]),
            "correct": True}
    doc["claim"] = None
    if claim:
        workload, metric = claim
        row = doc["workloads"][workload]["metrics"][metric]
        doc["claim"] = {"workload": workload, "metric": metric,
                        **{key: row[key] for key in ("parent_median", "change_median",
                                                     "pairs_change_better", "parent_iqr")}}
    out = args.change / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
