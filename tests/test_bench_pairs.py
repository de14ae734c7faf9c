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
