"""Smoke test of the benchmark suite (``pytest benchmarks/suite``; tier-1
collects ``tests/`` only).  Each workload runs once, traced, at 5 % of
its counts in a worker process exactly as ``run.py`` starts it."""

import json

import pytest

import run
from repro.obs.report import validate_chrome_trace


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_traced_smoke(workload, tmp_path):
    trace_path = tmp_path / "spans" / f"{workload}.trace.json"
    result = run.run_worker(workload, seed=0, scale=0.05, mode="trace",
                            trace_out=str(trace_path))
    assert result["error"] is None
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) <= set(run.names.ALL)
    for name in run.names.END_TO_END:
        assert result["metrics"][name] > 0, name

    trace = validate_chrome_trace(json.loads(trace_path.read_text()))
    spans = {e["args"]["id"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
    assert {e["name"] for e in spans.values() if e["args"]["parent"] < 0} == {
        "suite.setup", "suite.timed", "suite.check"}

    tol_us = 1.0  # 1e-6 s
    self_us = {i: e["dur"] for i, e in spans.items()}
    root_of = {}
    for i in sorted(spans):  # a parent always has a smaller id
        e = spans[i]
        parent = e["args"]["parent"]
        if parent < 0:
            root_of[i] = i
            continue
        p = spans[parent]
        assert p["ts"] - tol_us <= e["ts"], "child starts before its parent"
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + tol_us, (
            "child ends after its parent")
        self_us[parent] -= e["dur"]
        root_of[i] = root_of[parent]
    for root in set(root_of.values()):
        total = sum(self_us[i] for i, r in root_of.items() if r == root)
        assert abs(total - spans[root]["dur"]) <= tol_us


def test_schema_matches_benchmark_json():
    assert run.schema_errors(run.load_spec()) == []
