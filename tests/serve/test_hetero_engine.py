"""Heterogeneous serving: mixed LLM + Whisper + denoise on one engine."""

import json

import pytest

from repro.models import TINY_DENOISE, TINY_LLAMA, TINY_WHISPER
from repro.obs import validate_chrome_trace
from repro.runtime import TEST_DEVICE
from repro.serve import (
    EngineConfig,
    SchedulerConfig,
    ServingEngine,
    WorkloadConfig,
    generate,
)


def _engine(num_blocks=64, policy="swap", **sched_kwargs):
    sched = SchedulerConfig(
        max_num_seqs=8, max_num_batched_tokens=64, prefill_chunk=8,
        eviction=policy, **sched_kwargs,
    )
    return ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=num_blocks, scheduler=sched),
        whisper_config=TINY_WHISPER,
        denoise_config=TINY_DENOISE,
    )


def _workload(seed=1, n=24, rate=100.0, **kwargs):
    defaults = dict(
        num_requests=n, seed=seed, arrival_rate=rate,
        prompt_min=4, prompt_max=16, output_min=2, output_max=10,
        whisper_fraction=0.3, denoise_fraction=0.2,
    )
    defaults.update(kwargs)
    return WorkloadConfig(**defaults)


def test_mixed_run_finishes_with_per_type_metrics():
    wl = generate(_workload())
    kinds = {r.kind for r in wl}
    assert kinds == {"llm", "whisper", "denoise"}
    report = _engine().run(wl)
    s = report.summary
    assert s["num_finished"] == len(wl)
    assert s["kv_pool"]["leaked_blocks"] == 0
    per_type = s["per_type"]
    assert set(per_type) == kinds
    for kind in kinds:
        row = per_type[kind]
        assert row["num_finished"] == sum(1 for r in wl if r.kind == kind)
        assert row["ttft_s"]["p50"] > 0
        assert row["tpot_s"]["p50"] is None or row["tpot_s"]["p50"] > 0
    # Every request row carries its kind tag.
    by_id = {d["req_id"]: d for d in report.to_dict()["requests"]}
    for r in wl:
        assert by_id[r.req_id]["kind"] == r.kind


def test_mixed_runs_are_deterministic():
    wl = generate(_workload())
    r1 = _engine().run(wl)
    r2 = _engine().run(wl)
    assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)
    assert (
        json.dumps(r1.chrome_trace(), sort_keys=True)
        == json.dumps(r2.chrome_trace(), sort_keys=True)
    )


@pytest.mark.parametrize("policy", ["swap", "recompute"])
def test_mixed_pressure_preempts_only_llms_and_stays_leak_free(policy):
    # Effectively simultaneous arrivals: the pool (11 usable blocks)
    # must thrash under 8 concurrent sequences of up to 44 KV tokens.
    wl = generate(_workload(seed=3, n=16, rate=1e6, prompt_max=20,
                            output_min=2, output_max=24,
                            whisper_fraction=0.25, denoise_fraction=0.25))
    report = _engine(num_blocks=12, policy=policy).run(wl)
    s = report.summary
    assert s["num_finished"] == len(wl)
    assert s["preemptions"] > 0
    assert s["kv_pool"]["leaked_blocks"] == 0
    # Write-once cross KV makes whisper (and KV-free denoise) requests
    # ineligible as preemption victims.
    for m in report.requests:
        if m.kind != "llm":
            assert m.preemptions == 0


def test_hetero_trace_has_phase_slices_per_request(tmp_path):
    wl = generate(_workload(n=12))
    report = _engine().run(wl)
    trace = report.export_chrome_trace(str(tmp_path / "hetero.json"))
    validate_chrome_trace(trace)
    events = trace["traceEvents"]

    def names_for(req_id):
        return {e["name"] for e in events
                if e["ph"] == "X" and e["pid"] == 1 and e["tid"] == req_id}

    for r in wl:
        if r.kind == "whisper":
            assert {"encode", "cross_project", "decode"} <= names_for(r.req_id)
        elif r.kind == "denoise":
            assert names_for(r.req_id) == {"denoise"}
        else:
            assert "decode" in names_for(r.req_id)
    # Heterogeneous iteration records expose step/chunk counts.
    assert any(it.get("steps", 0) > 0 for it in report.iterations)
    assert any(it.get("chunk_tokens", 0) > 0 for it in report.iterations)


def test_llm_only_reports_keep_the_legacy_schema():
    wl = generate(_workload(whisper_fraction=0.0, denoise_fraction=0.0))
    report = _engine().run(wl)
    # Schema 2: the heterogeneous sections are present and inactive.
    d = report.to_dict()
    assert d["summary"]["per_type"] is None
    assert all(r["kind"] == "llm" for r in d["requests"])
    assert all(it["steps"] == it["chunk_tokens"] == 0
               for it in d["iterations"])


def test_requests_without_a_runner_are_rejected():
    engine = ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=64),
    )
    wl = generate(_workload(n=8, whisper_fraction=1.0,
                            denoise_fraction=0.0))
    assert all(r.kind == "whisper" for r in wl)
    with pytest.raises(ValueError, match="whisper"):
        engine.run(wl)
