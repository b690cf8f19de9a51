"""End-to-end serving engine: determinism, leaks, metrics, Perfetto."""

import json

import pytest

from repro.models import TINY_LLAMA
from repro.obs import validate_chrome_trace
from repro.runtime import TEST_DEVICE
from repro.serve.log import IterationEvent, of_type
from repro.serve import (
    CacheError,
    EngineConfig,
    Request,
    SchedulerConfig,
    ServingEngine,
    WorkloadConfig,
    generate,
)


def _engine(policy="swap", num_blocks=64, **sched_kwargs):
    sched = SchedulerConfig(
        max_num_seqs=8, max_num_batched_tokens=128, prefill_chunk=16,
        eviction=policy, **sched_kwargs,
    )
    return ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=num_blocks, scheduler=sched),
    )


def _workload(seed=0, n=24, rate=200.0, out_max=12):
    return WorkloadConfig(
        num_requests=n, seed=seed, arrival_rate=rate,
        prompt_min=4, prompt_max=20, output_min=2, output_max=out_max,
    )


def test_same_seed_runs_are_bit_identical():
    r1 = _engine().run(generate(_workload()))
    r2 = _engine().run(generate(_workload()))
    assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)
    assert (
        json.dumps(r1.chrome_trace(), sort_keys=True)
        == json.dumps(r2.chrome_trace(), sort_keys=True)
    )
    r3 = _engine().run(generate(_workload(seed=1)))
    assert r1.to_json(sort_keys=True) != r3.to_json(sort_keys=True)


def test_all_requests_finish_with_full_metrics_and_no_leaks():
    requests = generate(_workload())
    report = _engine().run(requests)
    s = report.summary
    assert s["num_finished"] == len(requests)
    assert s["kv_pool"]["leaked_blocks"] == 0
    for key in ("ttft_s", "tpot_s", "itl_s"):
        assert set(s[key]) == {"mean", "p50", "p90", "p99"}
        assert s[key]["p50"] > 0
        assert s[key]["mean"] > 0
    assert s["throughput_tokens_per_s"] > 0
    assert s["goodput_requests_per_s"] >= 0
    for m in report.requests:
        assert m.finish_s is not None
        assert len(m.token_times) == m.output_len
        assert m.token_times == sorted(m.token_times)
        assert m.ttft is not None and m.ttft >= 0
    # The clock is the VM's analytical clock plus swap time.
    assert s["makespan_s"] >= report.stats.time_s - 1e-12


@pytest.mark.parametrize("policy", ["swap", "recompute"])
def test_preemption_under_memory_pressure(policy):
    report = _engine(policy=policy, num_blocks=10).run(
        generate(_workload(n=16, out_max=24))
    )
    s = report.summary
    assert s["num_finished"] == 16
    assert s["preemptions"] > 0
    assert s["kv_pool"]["leaked_blocks"] == 0
    if policy == "swap":
        assert s["swap_time_s"] > 0
    else:
        assert s["swap_time_s"] == 0


def test_perfetto_export_validates_with_one_track_per_request(tmp_path):
    requests = generate(_workload(n=6))
    report = _engine().run(requests)
    path = tmp_path / "serve_trace.json"
    trace = report.export_chrome_trace(str(path))
    validate_chrome_trace(trace)  # schema validator must accept it
    on_disk = json.loads(path.read_text())
    assert on_disk == trace
    events = trace["traceEvents"]
    # One named thread track per request on the requests process.
    names = {
        e["tid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 1
    }
    assert set(names) == {r.req_id for r in requests}
    # Every request decodes at least once on its own track.
    for r in requests:
        assert any(
            e["ph"] == "X" and e["pid"] == 1 and e["tid"] == r.req_id
            for e in events
        )
    # Engine track slices cover the whole makespan.
    iter_slices = [e for e in events if e["ph"] == "X" and e["pid"] == 0]
    total_us = sum(e["dur"] for e in iter_slices)
    assert total_us <= report.summary["makespan_s"] * 1e6 + 1e-3


def test_chunked_prefill_interleaves_with_decode():
    """With chunking, some iteration runs decode and prefill together."""
    report = _engine().run(generate(_workload(n=12, rate=1000.0)))
    assert any(
        it["decode_batch"] > 0 and it["prefill_tokens"] > 0
        for it in report.iterations
    )
    # Token budget respected everywhere.
    assert all(
        it["num_batched_tokens"] <= 128 for it in report.iterations
    )


def test_stall_on_impossible_request_is_an_error():
    engine = _engine(num_blocks=3)  # 2 usable blocks = 8 tokens
    wl = WorkloadConfig(num_requests=1, seed=0, arrival_rate=100.0,
                        prompt_min=32, prompt_max=32, output_min=2,
                        output_max=2)
    with pytest.raises(CacheError):
        engine.run(generate(wl))


def test_iteration_deltas_sum_to_vm_totals():
    """The engine's per-iteration accounting telescopes to the VM clock
    plus swap time, exactly (a pool small enough to swap)."""
    engine = _engine(num_blocks=10)
    start = engine.vm.stats.copy()
    report = engine.run(generate(_workload(n=16, out_max=24)))
    vm_time = engine.vm.stats.delta(start).time_as
    events = [e for _, e in of_type(report.log, IterationEvent)]
    swap = sum(e.swap_as for e in events)
    assert swap > 0  # the identity covers the swap term too
    assert sum(e.t_end - e.t_begin for e in events) == vm_time + swap


# ---------------------------------------------------------------------------
# Prefix caching
# ---------------------------------------------------------------------------


def _prefix_engine(enable=True, num_blocks=96, policy="swap",
                   num_seqs=8, **eng_kwargs):
    sched = SchedulerConfig(
        max_num_seqs=num_seqs, max_num_batched_tokens=128, prefill_chunk=16,
        eviction=policy,
    )
    return ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=num_blocks, scheduler=sched,
                     enable_prefix_caching=enable, **eng_kwargs),
    )


def _prefix_workload(seed=0, n=24, families=3, prefix_len=10, rate=200.0):
    return WorkloadConfig(
        num_requests=n, seed=seed, arrival_rate=rate,
        prompt_min=12, prompt_max=32, output_min=2, output_max=8,
        prefix_families=families, prefix_len=prefix_len,
    )


def test_prefix_cached_runs_are_bit_identical_and_leak_free():
    wl = generate(_prefix_workload())
    r1 = _prefix_engine().run(wl)
    r2 = _prefix_engine().run(wl)
    assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)
    assert (
        json.dumps(r1.chrome_trace(), sort_keys=True)
        == json.dumps(r2.chrome_trace(), sort_keys=True)
    )
    s = r1.summary
    assert s["num_finished"] == len(wl)
    assert s["kv_pool"]["leaked_blocks"] == 0
    # Shared prompts actually hit the cache.
    pc = s["prefix_cache"]
    assert pc["hits"] > 0
    assert 0 < pc["hit_rate"] <= 1
    assert 0 < pc["cached_token_fraction"] < 1
    assert pc["matched_tokens"] > 0


def test_prefix_cache_lowers_prefill_work_and_ttft():
    wl = generate(_prefix_workload())
    on = _prefix_engine(True).run(wl)
    off = _prefix_engine(False).run(wl)
    assert off.summary["prefix_cache"] is None
    # Cached tokens are never prefilled: strictly less prefill work.
    prefill_on = sum(it["prefill_tokens"] for it in on.iterations)
    prefill_off = sum(it["prefill_tokens"] for it in off.iterations)
    assert prefill_on < prefill_off
    assert on.summary["ttft_s"]["mean"] < off.summary["ttft_s"]["mean"]
    # Both runs drain leak-free and finish everything.
    assert on.summary["num_finished"] == off.summary["num_finished"] == len(wl)


def test_identical_prompts_trigger_copy_on_write():
    """Duplicate page-aligned prompts: the second request matches all but
    the last token, and its first prefill writes into the shared tail
    page — which must fork, not mutate the cached copy."""
    prompt = tuple(range(1000, 1016))  # 16 tokens = 4 full pages
    reqs = [
        Request(req_id=i, arrival_s=float(i), prompt_len=16, output_len=2,
                prompt_tokens=prompt)
        for i in range(3)
    ]
    report = _prefix_engine().run(reqs)
    s = report.summary
    assert s["num_finished"] == 3
    assert s["kv_pool"]["cow_copies"] >= 2  # one fork per follower
    assert s["prefix_cache"]["hits"] == 2
    # Followers match 15 of 16 tokens (one must remain to produce logits).
    assert s["prefix_cache"]["matched_tokens"] == 30
    per_req = {r.req_id: r.cached_prompt_tokens for r in report.requests}
    assert per_req == {0: 0, 1: 15, 2: 15}


def test_cache_hit_instants_appear_on_request_tracks():
    wl = generate(_prefix_workload())
    report = _prefix_engine().run(wl)
    hits = [
        e for e in report.trace_events
        if e["ph"] == "i" and e["name"] == "prefix_cache_hit"
    ]
    assert hits, "no prefix_cache_hit instants recorded"
    for e in hits:
        assert e["pid"] == 1
        assert e["args"]["cached_tokens"] > 0
    assert sum(e["args"]["cached_tokens"] for e in hits) == (
        report.summary["prefix_cache"]["matched_tokens"]
    )
    # Iteration records agree with the trace.
    assert sum(it["cached_tokens"] for it in report.iterations) == (
        report.summary["prefix_cache"]["matched_tokens"]
    )


@pytest.mark.parametrize("policy", ["swap", "recompute"])
def test_preemption_with_sharing_stays_leak_free(policy):
    """Memory pressure + prefix sharing: preempted victims release only
    their references, swap costing charges only private tokens, and the
    pool drains exactly."""
    wl = generate(_prefix_workload(n=20, rate=500.0))
    report = _prefix_engine(num_blocks=14, policy=policy).run(wl)
    s = report.summary
    assert s["num_finished"] == len(wl)
    assert s["preemptions"] > 0
    assert s["kv_pool"]["leaked_blocks"] == 0
    if policy == "recompute":
        assert s["swap_time_s"] == 0


def test_peak_required_blocks_counts_cache_as_reclaimable():
    wl = generate(_prefix_workload())
    on = _prefix_engine(True).run(wl)
    off = _prefix_engine(False).run(wl)
    pool_on, pool_off = on.summary["kv_pool"], off.summary["kv_pool"]
    # Required never exceeds raw, and equals it with caching off.
    assert pool_on["peak_required_blocks"] <= pool_on["peak_used_blocks"]
    assert pool_off["peak_required_blocks"] == pool_off["peak_used_blocks"]
    assert pool_on["peak_required_blocks"] <= pool_off["peak_required_blocks"]


class TestSteppableAPI:
    """submit()/step()/drain()/report() — the protocol run() wraps."""

    def test_stepwise_run_matches_run_wrapper(self):
        requests = generate(_workload())
        baseline = _engine().run(requests)
        engine = _engine()
        engine.submit(requests)
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
        report = engine.report()
        assert report.to_json(sort_keys=True) == baseline.to_json(
            sort_keys=True)
        assert steps >= len(baseline.iterations)

    def test_incremental_submit_matches_upfront_submit(self):
        requests = generate(_workload())
        baseline = _engine().run(requests)
        engine = _engine()
        # Feed arrivals in two batches, as the cluster router does: the
        # later batch lands before the clock reaches its arrival times.
        engine.submit(requests[:12])
        engine.step()
        engine.submit(requests[12:])
        engine.drain()
        report = engine.report()
        assert report.to_json(sort_keys=True) == baseline.to_json(
            sort_keys=True)

    def test_step_without_submit_raises(self):
        with pytest.raises(RuntimeError, match="submit"):
            _engine().step()

    def test_report_without_run_raises(self):
        with pytest.raises(RuntimeError, match="no active run"):
            _engine().report()

    def test_report_before_drain_raises(self):
        engine = _engine()
        engine.submit(generate(_workload()))
        with pytest.raises(RuntimeError, match="drain"):
            engine.report()
        engine.drain()
        engine.report()  # and now it works

    def test_duplicate_req_id_rejected(self):
        engine = _engine()
        requests = generate(_workload())
        engine.submit(requests)
        with pytest.raises(ValueError, match="already submitted"):
            engine.submit([requests[0]])

    def test_failed_submit_leaves_the_run_unchanged(self):
        # A duplicate in the middle of a batch used to register the
        # requests before it without ever queueing them: the run then
        # "drained" and reported them as unfinished, with no error.
        engine = _engine()
        r0, r1, r2, r3 = generate(_workload(n=4))
        engine.submit([r0])
        run = engine.active_run
        for bad in ([r1, r2, r0, r3], [r1, r2, r1]):
            with pytest.raises(ValueError, match="already submitted"):
                engine.submit(bad)
            assert list(run.states) == [r0.req_id]
            assert run.requests == [r0]
            assert [req_id for _, req_id in run.pending] == [r0.req_id]
        engine.submit([r1, r2, r3])
        engine.drain()
        s = engine.report().summary
        assert (s["num_requests"], s["num_finished"]) == (4, 4)

    def test_rejected_kind_registers_nothing(self):
        engine = _engine()
        r0, r1 = generate(_workload(n=2))
        whisper = Request(req_id=9, arrival_s=0.0, prompt_len=8,
                          output_len=2, kind="whisper")
        with pytest.raises(ValueError, match="without whisper_config"):
            engine.submit([r0, whisper, r1])
        assert engine.active_run is None

    def test_report_ends_the_run(self):
        engine = _engine()
        engine.submit(generate(_workload(n=4)))
        engine.drain()
        engine.report()
        assert engine.active_run is None
        with pytest.raises(RuntimeError, match="no active run"):
            engine.report()

    def test_clock_is_monotonic_across_steps(self):
        engine = _engine()
        engine.submit(generate(_workload(n=8)))
        last = engine.clock
        while engine.has_work:
            engine.step()
            assert engine.clock >= last
            last = engine.clock
