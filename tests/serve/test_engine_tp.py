"""Tensor-parallel serving: the engine above the mesh runs unchanged.

``EngineConfig(tp=N)`` swaps the single VM for a :class:`MeshVM` over
an N-device mesh; everything above it — scheduler, paged KV accounting,
prefix cache, speculative decoding — is SPMD-oblivious.  These tests pin
the contract: same-seed runs stay byte-identical, the scheduling outcome
matches tp=1 request-for-request (only timing moves), the paged pool
balances, and the communication observability (summary key + per-shard
Perfetto tracks) appears only behind the telemetry gate.
"""

import json

import pytest

from repro.models import TINY_LLAMA_TP
from repro.runtime import TEST_DEVICE
from repro.serve import (
    EngineConfig,
    SchedulerConfig,
    ServingEngine,
    SpecConfig,
    TelemetryConfig,
    WorkloadConfig,
    generate,
)


def _engine(tp=2, num_blocks=64, spec=None, telemetry=None):
    sched = SchedulerConfig(
        max_num_seqs=8, max_num_batched_tokens=128, prefill_chunk=16,
    )
    return ServingEngine(
        TINY_LLAMA_TP, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=num_blocks, scheduler=sched,
                     tp=tp, spec=spec, telemetry=telemetry,
                     enable_prefix_caching=False),
    )


def _workload(seed=0, n=16):
    return WorkloadConfig(
        num_requests=n, seed=seed, arrival_rate=200.0,
        prompt_min=4, prompt_max=20, output_min=2, output_max=12,
    )


def test_tp_run_finishes_clean():
    # run() ends with the paged pool's leak and refcount audits;
    # reaching the report means it balanced block-for-block.
    report = _engine().run(generate(_workload()))
    s = report.summary
    assert s["num_finished"] == 16
    assert s["kv_pool"]["leaked_blocks"] == 0


def test_tp_same_seed_runs_are_bit_identical():
    r1 = _engine().run(generate(_workload()))
    r2 = _engine().run(generate(_workload()))
    assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)
    assert (
        json.dumps(r1.chrome_trace(), sort_keys=True)
        == json.dumps(r2.chrome_trace(), sort_keys=True)
    )


def test_tp_matches_tp1_scheduling_outcome():
    # The mesh only changes *when* steps finish, never *what* they
    # compute or how the scheduler batches: every request produces the
    # same token counts with the same preemption history as tp=1.
    one = _engine(tp=1).run(generate(_workload()))
    two = _engine(tp=2).run(generate(_workload()))
    assert len(one.requests) == len(two.requests)
    for a, b in zip(one.requests, two.requests):
        assert (a.req_id, a.prompt_len, a.output_len, a.preemptions) == (
            b.req_id, b.prompt_len, b.output_len, b.preemptions)
    assert one.summary["num_finished"] == two.summary["num_finished"]
    # Sharded decode is faster on the modeled device at equal batch.
    assert two.summary["makespan_s"] != one.summary["makespan_s"]


def test_tp_charges_comm_time_tp1_does_not():
    one = _engine(tp=1).run(generate(_workload()))
    two = _engine(tp=2).run(generate(_workload()))
    assert two.stats.comm_time_s > 0
    assert one.stats.comm_time_s == 0
    # The summary surfaces comm time only when it exists, so tp=1
    # serialization is byte-identical to the pre-mesh engine.
    assert "comm_time_s" in two.summary["vm"]
    assert "comm_time_s" not in one.summary["vm"]


def test_tp_comm_fraction_is_telemetry_gated():
    plain = _engine().run(generate(_workload()))
    assert "comm_fraction" not in plain.summary
    told = _engine(telemetry=TelemetryConfig()).run(generate(_workload()))
    assert 0 < told.summary["comm_fraction"] < 1


def test_tp_per_shard_counter_tracks_in_trace():
    told = _engine(telemetry=TelemetryConfig()).run(generate(_workload()))
    trace = json.dumps(told.chrome_trace())
    for rank in range(2):
        assert f"shard{rank}_comm" in trace
        assert f"shard{rank}_kv_pressure" in trace
    # Single-VM runs must not grow shard tracks.
    one = _engine(tp=1, telemetry=TelemetryConfig()).run(
        generate(_workload()))
    assert "shard0_comm" not in json.dumps(one.chrome_trace())


def test_tp_speculative_decoding_composes():
    spec = SpecConfig(num_spec_tokens=2, draft_quality=0.8)
    r1 = _engine(spec=spec).run(generate(_workload()))
    r2 = _engine(spec=spec).run(generate(_workload()))
    s = r1.summary["spec_decode"]
    assert s["proposed"] > 0 and s["accepted"] > 0
    assert r1.summary["num_finished"] == 16
    assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)


def test_tp_must_divide_kv_heads():
    with pytest.raises(ValueError, match="num_kv_heads"):
        _engine(tp=8).run(generate(_workload(n=2)))
