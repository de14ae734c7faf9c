"""The rendered B^(k) and xi^(m) of every benchmark group, pinned to the
seed-0 statuses and digests the benchmark checks against.

Each group runs through `perfbench.worker.run_pass`, the benchmark's own
pass, with the bounds of the workload it belongs to; the test only reads
`perfbench/`.
"""

import json
from pathlib import Path

import pytest

from perfbench import inputs, worker

EXPECTED = json.loads((Path(inputs.__file__).resolve().parent / "expected.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("group,workload", [
    (group, name) for name, bounds in inputs.WORKLOADS.items()
    for group in bounds.groups])
def test_seed_zero_statuses_and_digests(tmp_path, group, workload):
    bounds = inputs.WORKLOADS[workload]
    path = tmp_path / f"{group}.json"
    path.write_text(json.dumps(inputs.document(group, 0)), encoding="utf-8")
    job = {"mode": "verdict", "groups": [[group, str(path)]],
           "suites": bounds.suites, "k_max": bounds.k_max,
           "m_max": bounds.m_max, "p_max": bounds.p_max}
    (result,) = worker.run_pass(job)["groups"]
    want = EXPECTED[group]
    assert [[name, status] for name, status, *_ in result["checks"]] == want["checks"]
    assert result["digests"] == want["digests"]
