"""Serve-layer telemetry: determinism contract + component lockdown.

Four invariant families:

1. **Pure observer** — enabling telemetry must not change a single
   core-summary value, request metric, iteration record or pre-existing
   trace event: nulling the telemetry sections of a telemetered report
   yields the plain report.
2. **Telemetry is a fold** — two fresh same-seed telemetered runs
   produce byte-identical telemetry JSON and Prometheus text (sliding
   windows slide on the analytical clock; nothing reads wall time), and
   folding a *plain* run's event log gives exactly the telemetered
   run's telemetry.
3. **Component behaviour** — the metrics registry (labels, histogram
   windows, exposition format), the SLO monitor (stall / storm /
   violation anomalies) and the span recorder (lifecycle nesting),
   folded from small hand-built logs.
4. **Perfetto schema** — telemetered serve timelines (request lifecycle
   spans + counter tracks + merged VM kernel events) pass the chrome
   trace validator, and lifecycle spans nest inside their request's
   root span on the shared clock.
"""

import json

import pytest

from repro.models import TINY_DENOISE, TINY_LLAMA, TINY_WHISPER
from repro.obs import validate_chrome_trace
from repro.runtime import TEST_DEVICE
from repro.runtime.device import ALL_DEVICES
from repro.runtime.profiler import to_as
from repro.serve import (
    EngineConfig,
    EngineTelemetry,
    MetricsRegistry,
    SchedulerConfig,
    ServingEngine,
    SpecConfig,
    TelemetryConfig,
    WorkloadConfig,
    generate,
    serve_workload,
)
from repro.serve.log import (
    Arrival,
    Finish,
    Gauges,
    IterationEvent,
    Participation,
    RunStart,
    Teardown,
)
from repro.serve.slo import (
    STALL_ITERATIONS,
    STORM_PREEMPTIONS,
    WINDOW_REQUESTS,
)

DEVICE = ALL_DEVICES["NVIDIA RTX 4090"]


def _engine_config(telemetry=None, spec=None, num_blocks=128):
    return EngineConfig(
        page_size=4, num_blocks=num_blocks,
        scheduler=SchedulerConfig(max_num_seqs=8,
                                  max_num_batched_tokens=64,
                                  prefill_chunk=16),
        spec=spec, telemetry=telemetry,
    )


def _workload(**over):
    base = dict(num_requests=10, seed=0, arrival="poisson",
                arrival_rate=100.0, prompt_min=4, prompt_max=12,
                output_min=4, output_max=12)
    base.update(over)
    return WorkloadConfig(**base)


def _run(telemetry=None, spec=None, num_blocks=128, **wl):
    return serve_workload(TINY_LLAMA, DEVICE, _workload(**wl),
                          _engine_config(telemetry, spec, num_blocks))


# Hand-built logs for the component tests: a run start, then events.


def _it(t0, t1=None, **fields):
    """An iteration over ``[t0, t1]`` seconds (logs carry attoseconds)."""
    return IterationEvent(to_as(t0), to_as(t0 if t1 is None else t1),
                          **fields)


def _arrivals(*req_ids):
    return [Arrival(0, r, "llm", 8, 4) for r in req_ids]


def _finish(seq_id, ttft, tpot=None, tokens=1):
    return Finish(seq_id, ttft, tpot, ttft, tokens, 0)


def _fold(*events, window_s=None):
    start = RunStart(num_blocks=16, page_size=4, max_num_seqs=8,
                     max_num_batched_tokens=64, slo_ttft_s=1.0,
                     slo_tpot_s=0.1, vm_names=("llm",), prefix_cache=False,
                     capture_kernels=False)
    return EngineTelemetry([start, *events], window_s)


# ---------------------------------------------------------------------------
# 1. Telemetry is a pure observer
# ---------------------------------------------------------------------------


def test_telemetry_defaults_off_and_changes_nothing():
    plain = _run()
    told = _run(telemetry=TelemetryConfig())

    assert plain.telemetry is None
    assert plain.to_dict()["telemetry"] is None
    assert plain.summary["telemetry"] is None

    # The telemetered run fills the telemetry sections but never changes
    # anything else: nulling them yields the identical document.
    d = told.to_dict()
    assert told.telemetry is not None
    assert d["telemetry"] is not None
    assert d["summary"]["telemetry"] is not None
    d["telemetry"] = d["summary"]["telemetry"] = None
    assert json.dumps(d, sort_keys=True) == plain.to_json(sort_keys=True)

    # Pre-existing trace events are untouched; telemetry only appends.
    plain_trace = plain.chrome_trace()["traceEvents"]
    told_trace = told.chrome_trace()["traceEvents"]
    assert told_trace[: len(plain_trace)] == plain_trace
    assert len(told_trace) > len(plain_trace)


def test_refcount_audit_always_on_report_and_clean():
    # The engine audits the pool once per run, telemetry or not; the
    # telemetry JSON exports that same audit.
    for report in (_run(), _run(telemetry=TelemetryConfig())):
        audit = report.summary["kv_pool"]["refcount_audit"]
        assert audit is not None
        assert audit["leaked_blocks"] == 0
        assert audit["tracked_sequences"] == 0
        assert audit["used_blocks"] == audit["expected_used_blocks"]
        # Reference traffic balances: every allocate was freed except
        # the survivors (padding page + cache-held blocks).
        assert (audit["allocated_total"] - audit["freed_total"]
                == audit["used_blocks"])
    told = _run(telemetry=TelemetryConfig())
    assert (told.telemetry.to_dict()["refcount_audit"]
            == told.summary["kv_pool"]["refcount_audit"])


# ---------------------------------------------------------------------------
# 2. Telemetry-on determinism; telemetry is a fold over the log
# ---------------------------------------------------------------------------


def test_telemetry_deterministic_across_same_seed_runs():
    cfg = TelemetryConfig(window_s=0.01)
    a = _run(telemetry=cfg, spec=SpecConfig(num_spec_tokens=2))
    b = _run(telemetry=cfg, spec=SpecConfig(num_spec_tokens=2))
    assert (json.dumps(a.telemetry.to_dict(), sort_keys=True)
            == json.dumps(b.telemetry.to_dict(), sort_keys=True))
    assert a.telemetry.to_prometheus() == b.telemetry.to_prometheus()
    assert (json.dumps(a.chrome_trace(), sort_keys=True)
            == json.dumps(b.chrome_trace(), sort_keys=True))


def _pressure_run(telemetry):
    return serve_workload(
        TINY_LLAMA, TEST_DEVICE,
        _workload(num_requests=16, seed=0, arrival_rate=200.0,
                  prompt_min=4, prompt_max=20, output_min=2,
                  output_max=24),
        EngineConfig(
            page_size=4, num_blocks=10,
            scheduler=SchedulerConfig(max_num_seqs=8,
                                      max_num_batched_tokens=128,
                                      prefill_chunk=16),
            telemetry=telemetry,
        ),
    )


def _mixed_run(telemetry):
    engine = ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=12, telemetry=telemetry,
                     scheduler=SchedulerConfig(max_num_seqs=8,
                                               max_num_batched_tokens=64,
                                               prefill_chunk=8)),
        whisper_config=TINY_WHISPER, denoise_config=TINY_DENOISE)
    return engine.run(generate(WorkloadConfig(
        num_requests=12, seed=3, arrival_rate=1e6, prompt_min=4,
        prompt_max=20, output_min=2, output_max=12,
        whisper_fraction=0.25, denoise_fraction=0.25)))


#: Telemetered scenarios without kernel capture: ``(make(telemetry),
#: telemetry window)``.
FOLD_CASES = {
    "plain": (lambda tel: _run(telemetry=tel), None),
    "spec_window": (lambda tel: _run(
        telemetry=tel, spec=SpecConfig(num_spec_tokens=2)), 0.01),
    "pressure": (_pressure_run, None),
    "mixed": (_mixed_run, None),
}


@pytest.mark.parametrize("case", sorted(FOLD_CASES))
def test_plain_run_log_folds_to_the_telemetered_report(case):
    # Telemetry is a fold over the log, and the log does not depend on
    # whether telemetry is on: folding a plain run's log reproduces the
    # telemetered run's telemetry byte for byte.
    make, window_s = FOLD_CASES[case]
    plain = make(None)
    told = make(TelemetryConfig(window_s=window_s))
    folded = EngineTelemetry(plain.log, window_s)
    assert (json.dumps(folded.to_dict(), sort_keys=True)
            == json.dumps(told.telemetry.to_dict(), sort_keys=True))
    assert folded.to_prometheus() == told.telemetry.to_prometheus()
    assert folded.trace_extension() == told.telemetry.trace_extension()


def test_telemetry_counters_match_engine_truth():
    report = _run(telemetry=TelemetryConfig(),
                  spec=SpecConfig(num_spec_tokens=2))
    counters = report.telemetry.registry.to_dict()["counters"]
    s = report.summary
    assert counters["iterations_total"] == len(report.iterations)
    total_tokens = sum(v for k, v in counters.items()
                       if k.startswith("tokens_total"))
    assert total_tokens == s["total_output_tokens"]
    assert counters["spec_proposed_total"] == s["spec_decode"]["proposed"]
    assert counters["spec_accepted_total"] == s["spec_decode"]["accepted"]
    assert (counters["spec_rollback_tokens_total"]
            == s["spec_decode"]["proposed"] - s["spec_decode"]["accepted"])
    finished = sum(v for k, v in counters.items()
                   if k.startswith("requests_finished_total"))
    assert finished == s["num_finished"]


def test_preemption_telemetry_under_pool_pressure():
    report = _pressure_run(TelemetryConfig())
    assert report.summary["preemptions"] > 0
    counters = report.telemetry.registry.to_dict()["counters"]
    preempts = sum(v for k, v in counters.items()
                   if k.startswith("preemptions_total"))
    assert preempts == report.summary["preemptions"]
    names = {s["name"] for s in report.telemetry.spans.to_dicts()}
    assert any(n.startswith("preempted[") for n in names)


# ---------------------------------------------------------------------------
# 3a. Metrics registry
# ---------------------------------------------------------------------------


def test_registry_get_or_create_and_labels():
    reg = MetricsRegistry()
    c1 = reg.counter("reqs_total", "requests", kind="llm")
    c2 = reg.counter("reqs_total", "requests", kind="llm")
    c3 = reg.counter("reqs_total", "requests", kind="whisper")
    assert c1 is c2 and c1 is not c3
    c1.inc(2)
    c3.inc()
    d = reg.to_dict()["counters"]
    assert d['reqs_total{kind="llm"}'] == 2
    assert d['reqs_total{kind="whisper"}'] == 1


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_counter_rejects_decrease():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1)


def test_histogram_sliding_window_prunes_on_analytical_clock():
    tel = _fold(_it(0.0, batched_tokens=10), _it(0.5, batched_tokens=20),
                _it(2.0, batched_tokens=30),  # evicts ts 0.0, 0.5 (cutoff 1.0)
                window_s=1.0)
    snap = tel.registry.to_dict()["histograms"]["iteration_batched_tokens"]
    assert snap["count"] == 3           # cumulative survives the window
    assert snap["sum"] == 60.0
    assert snap["window_count"] == 1
    assert snap["p50"] == 30.0 and snap["min"] == 30.0


def test_histogram_no_window_keeps_everything():
    tel = _fold(*(_it(float(i), batched_tokens=i) for i in range(100)))
    snap = tel.registry.to_dict()["histograms"]["iteration_batched_tokens"]
    assert snap["window_count"] == 100
    assert snap["p50"] == 49.0


def test_prometheus_exposition_format():
    decode = Participation(0, "decode", "decode", 4, 1)
    tel = _fold(
        *_arrivals(0, 1),
        _it(1.0, participations=(decode,) * 3,
            gauges=Gauges(waiting=3, swapped=2),
            finished=(_finish(0, ttft=0.5), _finish(1, ttft=1.5))))
    text = tel.to_prometheus()
    lines = text.splitlines()
    assert "# TYPE repro_serve_tokens_total counter" in lines
    assert 'repro_serve_tokens_total{path="decode"} 3.0' in lines
    assert "# TYPE repro_serve_queue_depth gauge" in lines
    assert "repro_serve_queue_depth 5.0" in lines
    assert "# TYPE repro_serve_ttft_seconds summary" in lines
    assert 'repro_serve_ttft_seconds{quantile="0.5"} 0.5' in lines
    assert "repro_serve_ttft_seconds_sum 2.0" in lines
    assert "repro_serve_ttft_seconds_count 2" in lines
    assert text.endswith("\n")
    # HELP precedes TYPE precedes samples for each metric.
    assert (lines.index("# HELP repro_serve_tokens_total output units "
                        "committed")
            < lines.index("# TYPE repro_serve_tokens_total counter"))


# ---------------------------------------------------------------------------
# 3b. SLO monitor (folded from hand-built logs at the real thresholds)
# ---------------------------------------------------------------------------


def _kinds(tel, kind):
    return [a for a in tel.slo.anomalies if a["kind"] == kind]


def test_slo_stall_anomaly_fires_once_at_threshold():
    idle = [_it(float(i)) for i in range(STALL_ITERATIONS + 2)]
    tel = _fold(*idle)
    stalls = _kinds(tel, "stall")
    assert len(stalls) == 1
    # Exactly at the threshold.
    assert stalls[0]["iteration"] == STALL_ITERATIONS - 1
    # Progress resets the streak; a fresh stall can fire again.
    progress = _it(100.0, participations=(
        Participation(0, "decode", "decode", 4, 3),))
    again = [_it(101.0 + i) for i in range(STALL_ITERATIONS)]
    tel = _fold(*idle, progress, *again)
    assert len(_kinds(tel, "stall")) == 2


def test_slo_preemption_storm_edge_triggered():
    evict = ((0, 4, "swap"), (1, 4, "swap"))
    tel = _fold(*(_it(float(i), preempted=evict)
                  for i in range(STORM_PREEMPTIONS)))
    storms = _kinds(tel, "preemption_storm")
    assert len(storms) == 1  # stays open, does not re-fire every step
    assert storms[0]["window_preemptions"] >= STORM_PREEMPTIONS
    assert storms[0]["iteration"] == STORM_PREEMPTIONS // 2 - 1


def test_slo_attainment_and_violation_records():
    three = (_finish(0, ttft=0.5, tpot=0.05), _finish(1, ttft=2.0, tpot=0.05),
             _finish(2, ttft=0.5, tpot=0.5))
    tel = _fold(*_arrivals(*range(3)),
                *(_it(1.0 + i, finished=(f,)) for i, f in enumerate(three)))
    mon = tel.slo
    assert mon.window_ttft_attainment == pytest.approx(2 / 3)
    assert mon.window_tpot_attainment == pytest.approx(2 / 3)
    assert mon.violations == 2
    kinds = [a["kind"] for a in mon.anomalies]
    assert kinds.count("slo_violation") == 2
    snap = mon.snapshot()
    json.dumps(snap)  # JSON-ready
    assert snap["anomaly_counts"] == {"slo_violation": 2}
    assert snap["window_ttft_s"]["p50"] == 0.5
    assert snap["window_requests"] == WINDOW_REQUESTS
    # A full window of good finishes slides the violations out of the
    # attainment window; the violation count is cumulative.
    good = [_finish(3 + i, ttft=0.5, tpot=0.05)
            for i in range(WINDOW_REQUESTS)]
    tel = _fold(*_arrivals(*range(3 + WINDOW_REQUESTS)),
                *(_it(1.0 + i, finished=(f,))
                  for i, f in enumerate(three + tuple(good))))
    assert tel.slo.window_ttft_attainment == 1.0
    assert tel.slo.violations == 2


def test_slo_one_token_request_vacuously_meets_tpot():
    tel = _fold(*_arrivals(0), _it(1.0, finished=(_finish(0, ttft=0.2),)))
    assert tel.slo.violations == 0
    assert tel.slo.window_tpot_attainment is None  # nothing to measure


# ---------------------------------------------------------------------------
# 3c. Lifecycle spans (folded from hand-built logs)
# ---------------------------------------------------------------------------


def _spans(tel):
    return {(s.name, s.depth): s for s in tel.spans.spans}


def test_span_lifecycle_with_queueing_and_phases():
    prefill = Participation(7, "prefill", "prefill", 0, 4)
    tel = _fold(
        Arrival(0, 7, "llm", 8, 3),
        _it(1.0, 2.0, admitted=(7,), participations=(prefill,)),
        # merges into one segment
        _it(2.0, 3.0, participations=(prefill._replace(past=4),)),
        # closes prefill
        _it(3.0, 4.0, participations=(
            Participation(7, "decode", "decode", 8, 1),)),
        _it(4.0, 5.0, finished=(_finish(7, ttft=1.0, tokens=3),)))
    spans = _spans(tel)
    assert spans[("queued", 0)].start_s == 0.0
    assert spans[("queued", 0)].end_s == 1.0
    assert spans[("prefill", 1)].start_s == 1.0
    assert spans[("prefill", 1)].end_s == 3.0  # merged, not two segments
    # The decode segment ends at its last recorded activity (4.0), not
    # at the finish — no activity was claimed over [4, 5].
    assert spans[("decode", 1)].end_s == 4.0
    root = spans[("request", 0)]
    assert (root.start_s, root.end_s) == (1.0, 5.0)
    assert root.args["output_tokens"] == 3
    assert root.args["kind"] == "llm"


def test_span_preemption_and_resume():
    decode = Participation(1, "decode", "decode", 4, 1)
    tel = _fold(
        *_arrivals(1),
        _it(0.0, 1.0, admitted=(1,), participations=(decode,)),
        _it(1.0, 2.0, preempted=((1, 8, "swap"),)),
        _it(3.0, 4.0, swapped_in=((1, 8),), participations=(decode,),
            finished=(_finish(1, ttft=1.0),)))
    names = [s.name for s in tel.spans.spans]
    assert "preempted[swap]" in names
    pre = next(s for s in tel.spans.spans if s.name == "preempted[swap]")
    assert (pre.start_s, pre.end_s) == (1.0, 3.0)
    assert pre.args == {"copied_tokens": 8}
    # Two decode segments: preemption closed the first.
    assert names.count("decode") == 2


def test_span_recompute_readmission_closes_preemption():
    tel = _fold(
        *_arrivals(2),
        _it(0.0, 1.0, admitted=(2,), participations=(
            Participation(2, "decode", "decode", 4, 1),)),
        _it(1.0, 2.0, preempted=((2, 0, "recompute"),)),
        # re-admission, not a new root
        _it(2.5, 3.0, admitted=(2,), finished=(_finish(2, ttft=1.0),)))
    names = [s.name for s in tel.spans.spans]
    assert names.count("request") == 1
    assert names.count("queued") == 0  # only once, and admission at
    # t=0 == arrival produced no queued span at all
    pre = next(s for s in tel.spans.spans if s.name == "preempted[recompute]")
    assert (pre.start_s, pre.end_s) == (1.0, 2.5)


def test_span_finalize_closes_dangling():
    tel = _fold(
        *_arrivals(3),
        _it(0.5, 1.0, admitted=(3,), participations=(
            Participation(3, "prefill", "prefill", 0, 4),)),
        Teardown(to_as(2.0), {}))
    root = next(s for s in tel.spans.spans if s.name == "request")
    assert root.end_s == 2.0
    assert root.args["unfinished"] is True
    assert not tel.spans._open_phase and not tel.spans._open_root


# ---------------------------------------------------------------------------
# 4. Perfetto schema over serve-engine timelines
# ---------------------------------------------------------------------------


def _lifecycle_nesting_ok(trace):
    events = trace["traceEvents"]
    roots = {}
    for e in events:
        if e.get("cat") == "lifecycle" and e["name"] == "request":
            roots[e["tid"]] = (e["ts"], e["ts"] + e["dur"])
    children = [e for e in events
                if e.get("cat") == "lifecycle"
                and e["name"] not in ("request", "queued")]
    assert children, "no lifecycle child spans emitted"
    for e in children:
        lo, hi = roots[e["tid"]]
        assert lo - 1e-6 <= e["ts"] and e["ts"] + e["dur"] <= hi + 1e-6, (
            f"span {e['name']} of request {e['tid']} escapes its root"
        )
    return roots


def test_telemetered_trace_validates_and_spans_nest():
    report = _run(telemetry=TelemetryConfig())
    trace = validate_chrome_trace(report.chrome_trace())
    roots = _lifecycle_nesting_ok(trace)
    assert len(roots) == report.summary["num_finished"]
    counter_names = {e["name"] for e in trace["traceEvents"]
                     if e["ph"] == "C"}
    assert {"sched_queue", "batch_occupancy", "token_budget_util",
            "kv_pressure"} <= counter_names


def test_merged_export_spans_counters_and_kernels_shared_clock():
    # Acceptance scenario: mixed LLM + Whisper + denoise workload with
    # speculation, kernel capture on — one Perfetto file carries request
    # lifecycle spans (pid 1), scheduler/pool counter tracks (pid 0) and
    # per-op VM kernel events (pid 2) on the same engine clock.
    sched = SchedulerConfig(max_num_seqs=8, max_num_batched_tokens=64,
                            prefill_chunk=8)
    engine = ServingEngine(
        TINY_LLAMA, TEST_DEVICE,
        EngineConfig(page_size=4, num_blocks=96, scheduler=sched,
                     spec=SpecConfig(num_spec_tokens=2),
                     telemetry=TelemetryConfig(capture_kernels=True)),
        whisper_config=TINY_WHISPER,
        denoise_config=TINY_DENOISE,
    )
    wl = generate(WorkloadConfig(
        num_requests=12, seed=1, arrival_rate=100.0,
        prompt_min=4, prompt_max=12, output_min=2, output_max=8,
        whisper_fraction=0.25, denoise_fraction=0.25,
    ))
    assert {r.kind for r in wl} == {"llm", "whisper", "denoise"}
    report = engine.run(wl)
    trace = validate_chrome_trace(report.chrome_trace())
    events = trace["traceEvents"]
    _lifecycle_nesting_ok(trace)

    kernels = [e for e in events if e["pid"] == 2 and e["ph"] == "X"]
    assert kernels, "kernel capture produced no merged VM events"
    vm_threads = {e["args"]["name"] for e in events
                  if e["ph"] == "M" and e["pid"] == 2
                  and e["name"] == "thread_name"}
    assert vm_threads == {"vm[llm]", "vm[draft]", "vm[whisper]",
                          "vm[denoise]"}
    # Shared clock: every kernel lies inside the run's makespan (with
    # sub-microsecond slack for the trailing event's duration).
    end_us = report.summary["makespan_s"] * 1e6
    for e in kernels:
        assert -1e-6 <= e["ts"] <= end_us + 1.0
    # The draft VM's kernels only exist because speculation ran.
    draft_tid = next(e["tid"] for e in events
                     if e["ph"] == "M" and e["pid"] == 2
                     and e["args"]["name"] == "vm[draft]")
    assert any(e["tid"] == draft_tid for e in kernels)
    # Lifecycle spans cover the heterogeneous phases too.
    lifecycle = {e["name"] for e in events if e.get("cat") == "lifecycle"}
    assert {"request", "spec_decode"} <= lifecycle
    assert lifecycle & {"encode", "cross_project", "denoise"}


def test_kernel_capture_restores_vm_tracers():
    engine = ServingEngine(
        TINY_LLAMA, DEVICE,
        _engine_config(TelemetryConfig(capture_kernels=True)),
    )
    assert all(vm.tracer is None for vm in engine._vms)
    engine.run(generate(_workload()))
    assert all(vm.tracer is None for vm in engine._vms)
