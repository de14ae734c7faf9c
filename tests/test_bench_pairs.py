import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "verify_s", "better": "lower"},
              {"name": "ok_ratio", "better": "higher"}]


def run(verify_s, ok_ratio=1.0):
    """A canned result object of perfbench/run.py."""
    return {"correct": True, "attempted": 6, "failed": 0,
            "metrics": {"verify_s": {"value": verify_s, "unit": "s"},
                        "ok_ratio": {"value": ok_ratio, "unit": "ratio"}}}


def test_summary_counts_pairs_by_direction_and_takes_medians():
    parent = [run(v) for v in (0.40, 0.38, 0.42, 0.39, 0.41)]
    change = [run(v, r) for v, r in ((0.30, 1.0), (0.39, 1.0), (0.31, 0.5),
                                     (0.29, 1.0), (0.41, 1.0))]
    got = bench_pairs.summarize(END_TO_END, parent, change)
    assert got["verify_s"] == {
        "parent_values": [0.4, 0.38, 0.42, 0.39, 0.41],
        "change_values": [0.3, 0.39, 0.31, 0.29, 0.41],
        "parent_median": 0.4, "change_median": 0.31,
        "parent_iqr": 0.03, "change_iqr": 0.105,
        "pairs_change_better": 3, "pairs_change_worse": 1}
    assert got["ok_ratio"]["pairs_change_better"] == 0
    assert got["ok_ratio"]["pairs_change_worse"] == 1
    assert json.loads(json.dumps(got)) == got
    with pytest.raises(ValueError):
        bench_pairs.summarize(END_TO_END, parent, change[:-1])


@pytest.mark.parametrize("returncode,stdout", [
    (1, json.dumps(dict(run(0.3), correct=False)) + "\n"),
    (0, json.dumps(dict(run(0.3), correct=False)) + "\n"),
    (1, "Traceback (most recent call last):\n"),
    (0, "a last line that is not JSON\n"),
    (0, "[1, 2]\n"),
    (0, ""),
], ids=["incorrect-exit-1", "incorrect-exit-0", "crash", "not-json", "not-object",
        "no-output"])
def test_a_run_that_is_not_correct_stops_the_script(returncode, stdout, monkeypatch,
                                                    tmp_path):
    class Done:
        pass

    Done.returncode, Done.stdout, Done.stderr = returncode, stdout, "the run's stderr"
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done)
    with pytest.raises(SystemExit, match="not correct.*the run's stderr"):
        bench_pairs.run_once(tmp_path, "q-rank3", 500, 10)


def test_a_correct_run_is_returned(monkeypatch, tmp_path):
    class Done:
        returncode, stdout, stderr = 0, "progress\n" + json.dumps(run(0.3)) + "\n", ""

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done)
    assert bench_pairs.run_once(tmp_path, "q-rank3", 500, 10) == run(0.3)


SPEC = {"run_seconds": 10, "workloads": [{"name": "q-rank3"}, {"name": "h3-file"}],
        "end_to_end": END_TO_END}


def test_a_claim_names_a_workload_and_a_metric():
    assert bench_pairs.parse_claim("h3-file:ok_ratio", SPEC) == ("h3-file", "ok_ratio")


@pytest.mark.parametrize("claim,message", [
    ("q-rank3", "not of the form workload:metric"),
    ("q-rank3:verify_s:x", "not of the form workload:metric"),
    ("q-rank:verify_s", "workload 'q-rank' is not one of"),
    ("q-rank3:verify", "metric 'verify' is not one of"),
    (":verify_s", "workload '' is not one of"),
    ("q-rank3:", "metric '' is not one of"),
], ids=["no-colon", "two-colons", "workload", "metric", "no-workload", "no-metric"])
def test_a_bad_claim_stops_the_script_before_the_first_run(claim, message, capsys,
                                                           monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--pr", "0", "--claim", claim])
    assert stop.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCHMARK.json"]


@pytest.mark.parametrize("claim", [None, "h3-file:verify_s"])
def test_the_file_holds_every_pair_and_a_null_claim_without_one(claim, monkeypatch,
                                                                tmp_path):
    # each side's per-pair values are written for every metric, so a change
    # without a claim still shows, run by run, that no metric regressed
    values = iter(range(1, 1 + 2 * len(SPEC["workloads"]) * len(bench_pairs.SEEDS)))
    monkeypatch.setattr(bench_pairs, "head", lambda checkout: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda checkout, w, seed, seconds: run(next(values) / 100))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--pr", "0"]
    assert bench_pairs.main(argv + (["--claim", claim] if claim else [])) == 0
    doc = json.loads((tmp_path / "BENCH_0.json").read_text())
    metrics = doc["workloads"]["q-rank3"]["metrics"]
    # the side that runs first alternates: parent, change, then change, parent
    assert metrics["verify_s"]["parent_values"][:2] == [0.01, 0.04]
    assert metrics["verify_s"]["change_values"][:2] == [0.02, 0.03]
    for workload in doc["workloads"].values():
        for row in workload["metrics"].values():
            assert len(row["parent_values"]) == len(row["change_values"]) == 10
    assert "claim" in doc
    if claim is None:
        assert doc["claim"] is None
    else:
        assert doc["claim"]["workload"] == "h3-file"
        # the canned values grow run by run: the change is better exactly
        # in the five pairs it runs first
        assert doc["claim"]["pairs_change_better"] == 5
