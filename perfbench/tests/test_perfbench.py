"""Self-test of the benchmark on B2, a group that verifies in well under a
second: tracing changes no report, the spans cover every B^(k), the wrappers
reach every binding, and the metric names agree with BENCHMARK.json."""

import json
import re
import signal
import time
from pathlib import Path

import pytest

from perfbench import inputs, run, worker
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def _job(tmp_path, seed):
    path = tmp_path / f"B2-seed{seed}.json"
    path.write_text(json.dumps(inputs.document("B2", seed)), encoding="utf-8")
    return {"mode": "verdict", "groups": [["B2", str(path)]], "suites": None,
            "k_max": 3, "m_max": 7, "p_max": 3}


def _passes(tmp_path, seed):
    job = _job(tmp_path, seed)
    plain = worker.run_pass(job)
    tracer = Tracer()
    traced = worker.run_pass(dict(job, mode="trace"), tracer)
    return plain, traced, tracer.to_dict()


@pytest.mark.parametrize("seed", [0, 7])
def test_traced_report_equals_plain_report(tmp_path, seed):
    plain, traced, trace = _passes(tmp_path, seed)
    (p,), (t,) = plain["groups"], traced["groups"]
    assert t["report"] == p["report"]
    assert t["digests"] == p["digests"]
    assert [c[1] for c in p["checks"]].count("fail") == 0
    bk = {sp["index"] for sp in trace["spans"] if sp["name"] == "saito.bk_matrix"}
    assert bk == {1, 2, 3, 4}  # k = 1..kmax+1
    assert not trace["not_found"]


def test_wrappers_reach_aliases_and_are_removed():
    from coxsaito import saito, verify
    from coxsaito.poly import MultiPoly
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.bk_matrix is saito.bk_matrix
        assert saito.bk_matrix.__wrapped__ is not None
        x = MultiPoly.variable(2, 0)
        with tracer.span("probe"):
            x * x
            2 * x  # MultiPoly.__rmul__
    finally:
        tracer.uninstall()
    probe = tracer.spans[-1]
    assert probe.kernels["poly.mul"][0] == 2
    assert not hasattr(saito.bk_matrix, "__wrapped__")
    assert verify.bk_matrix is saito.bk_matrix
    assert MultiPoly.__rmul__ is MultiPoly.__mul__


def test_metric_names_match_benchmark_json(tmp_path):
    plain, traced, trace = _passes(tmp_path, 0)
    plain["probe_s"] = [run.REFERENCE_LOOP_S]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = {
        "end_to_end": run.end_to_end_metrics([plain], [], 1, 0),
        "per_layer": run.per_layer_metrics(trace, traced, plain),
    }
    for key, metrics in emitted.items():
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared
        assert all(METRIC_NAME.match(name) for name in metrics)
    assert emitted["per_layer"]["poly.mul.calls"]["value"] > 0
    assert emitted["per_layer"]["saito.jdkx_inv.k3.s"]["value"] > 0


def test_speed_probe_samples_and_leaves_its_time_out():
    probe = worker.SpeedProbe(interval=0.01)
    with probe:
        t0, w0 = probe.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 0.2:
            pass
        clocked, wall = probe.clock() - t0, time.perf_counter() - w0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 2
    assert clocked == pytest.approx(wall - probe.spent, abs=0.002)
    # half the pass at the reference speed and half at half of it
    result = {"probe_s": [run.REFERENCE_LOOP_S, 2 * run.REFERENCE_LOOP_S]}
    assert run.scaled(10.0, result) == pytest.approx(7.5)
