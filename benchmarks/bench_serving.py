"""Serving benchmark: throughput vs latency curves per device model.

Sweeps request arrival rate and serves the same seeded workload on each
device's analytical model, producing the classic serving-paper plot data:
as offered load rises, throughput saturates and TTFT/TPOT blow up.  The
engine runs the real compiled Executable per iteration (abstract-mode
VM), so the curves reflect kernel launches, CUDA-graph capture/replay
and library dispatch on each device — not a closed-form model.

Run directly (no pytest-benchmark needed)::

    python benchmarks/bench_serving.py

or under pytest, which executes the same sweep at smoke scale.
"""

import os
from dataclasses import replace

from repro.bench import (
    compile_cache_stats,
    dump_results,
    print_table,
    results_payload,
)
from repro.models import TINY_DENOISE, TINY_LLAMA, TINY_WHISPER
from repro.runtime import ALL_DEVICES
from repro.serve import (
    EngineConfig,
    SchedulerConfig,
    ServingEngine,
    SpecConfig,
    WorkloadConfig,
    generate,
)

DEVICES = ["NVIDIA RTX 4090", "AMD Radeon 7900 XTX"]
RATES = [4.0, 16.0, 64.0, 256.0]
SEED = 0


def _engine_config() -> EngineConfig:
    return EngineConfig(
        page_size=16,
        num_blocks=256,
        scheduler=SchedulerConfig(
            max_num_seqs=16, max_num_batched_tokens=256, prefill_chunk=64,
        ),
    )


def _workload(rate: float, num_requests: int) -> WorkloadConfig:
    return WorkloadConfig(
        num_requests=num_requests, seed=SEED, arrival="poisson",
        arrival_rate=rate, prompt_min=16, prompt_max=64,
        output_min=8, output_max=32,
    )


def sweep(num_requests: int = 64, rates=RATES, devices=DEVICES):
    """Returns {device: {rate: summary}} — one engine per device, so the
    compile cache turns the rate sweep into one compile per device."""
    out = {}
    for device_name in devices:
        device = ALL_DEVICES[device_name]
        engine = ServingEngine(TINY_LLAMA, device, _engine_config())
        per_rate = {}
        for rate in rates:
            report = engine.run(generate(_workload(rate, num_requests)))
            per_rate[rate] = report.summary
        out[device_name] = per_rate
    return out


def payload_from_sweep(results, rates):
    rows = {}
    for device_name, per_rate in results.items():
        rows[f"{device_name} tok/s"] = [
            per_rate[r]["throughput_tokens_per_s"] for r in rates
        ]
        rows[f"{device_name} TTFT p50 ms"] = [
            per_rate[r]["ttft_s"]["p50"] * 1e3 for r in rates
        ]
        rows[f"{device_name} TTFT p99 ms"] = [
            per_rate[r]["ttft_s"]["p99"] * 1e3 for r in rates
        ]
        rows[f"{device_name} TPOT p50 ms"] = [
            per_rate[r]["tpot_s"]["p50"] * 1e3 for r in rates
        ]
        rows[f"{device_name} goodput req/s"] = [
            per_rate[r]["goodput_requests_per_s"] for r in rates
        ]
    return results_payload(
        "Serving: throughput vs latency under rising request rate "
        f"(tiny-llama, seed {SEED})",
        [f"{r} req/s" for r in rates],
        rows,
        unit="mixed",
        compile_cache=compile_cache_stats(),
    )


def _prefix_engine_config(enable_cache: bool) -> EngineConfig:
    return EngineConfig(
        page_size=4,
        num_blocks=256,
        enable_prefix_caching=enable_cache,
        scheduler=SchedulerConfig(
            max_num_seqs=16, max_num_batched_tokens=256,
        ),
    )


def _prefix_workload(num_requests: int = 32) -> WorkloadConfig:
    """Few long shared prefixes, short private suffixes — the workload
    shape (system prompts, few-shot exemplars) prefix caching targets."""
    return WorkloadConfig(
        num_requests=num_requests, seed=SEED, arrival="poisson",
        arrival_rate=200.0, prompt_min=36, prompt_max=48,
        output_min=8, output_max=24, prefix_families=2, prefix_len=32,
    )


def prefix_sweep(num_requests: int = 32, devices=DEVICES):
    """Same seeded shared-prefix workload with caching on vs off.

    Returns {device: {"on": summary, "off": summary}}."""
    out = {}
    requests = generate(_prefix_workload(num_requests))
    for device_name in devices:
        device = ALL_DEVICES[device_name]
        per_mode = {}
        for mode, enable in (("on", True), ("off", False)):
            engine = ServingEngine(
                TINY_LLAMA, device, _prefix_engine_config(enable)
            )
            per_mode[mode] = engine.run(requests).summary
        out[device_name] = per_mode
    return out


def payload_from_prefix_sweep(results):
    rows = {}
    for device_name, per_mode in results.items():
        on, off = per_mode["on"], per_mode["off"]
        rows[f"{device_name} TTFT mean ms"] = [
            off["ttft_s"]["mean"] * 1e3, on["ttft_s"]["mean"] * 1e3,
        ]
        rows[f"{device_name} peak required blocks"] = [
            off["kv_pool"]["peak_required_blocks"],
            on["kv_pool"]["peak_required_blocks"],
        ]
        rows[f"{device_name} cache hit rate"] = [
            0.0, on["prefix_cache"]["hit_rate"],
        ]
        rows[f"{device_name} cached token fraction"] = [
            0.0, on["prefix_cache"]["cached_token_fraction"],
        ]
        rows[f"{device_name} COW copies"] = [
            off["kv_pool"]["cow_copies"], on["kv_pool"]["cow_copies"],
        ]
    return results_payload(
        "Serving: shared-prefix workload with prefix caching off vs on "
        f"(tiny-llama, seed {SEED})",
        ["cache off", "cache on"],
        rows,
        unit="mixed",
        compile_cache=compile_cache_stats(),
    )


def _hetero_engine_config() -> EngineConfig:
    return EngineConfig(
        page_size=4,
        num_blocks=256,
        scheduler=SchedulerConfig(
            max_num_seqs=16, max_num_batched_tokens=64, prefill_chunk=8,
        ),
    )


def _hetero_workload(rate: float, num_requests: int) -> WorkloadConfig:
    """Mixed traffic: half LLM chat, a quarter streaming transcription,
    a quarter iterative denoise — all arriving on one engine."""
    return WorkloadConfig(
        num_requests=num_requests, seed=SEED, arrival="poisson",
        arrival_rate=rate, prompt_min=4, prompt_max=12,
        output_min=4, output_max=12,
        whisper_fraction=0.25, denoise_fraction=0.25,
    )


def hetero_sweep(num_requests: int = 48, rates=RATES, devices=DEVICES):
    """Mixed Llama + Whisper + denoise stream on one engine per device.

    Returns {device: {rate: summary}}; every summary carries the
    ``per_type`` breakdown."""
    out = {}
    for device_name in devices:
        device = ALL_DEVICES[device_name]
        engine = ServingEngine(
            TINY_LLAMA, device, _hetero_engine_config(),
            whisper_config=TINY_WHISPER, denoise_config=TINY_DENOISE,
        )
        per_rate = {}
        for rate in rates:
            report = engine.run(
                generate(_hetero_workload(rate, num_requests))
            )
            per_rate[rate] = report.summary
        out[device_name] = per_rate
    return out


def _ms(v):
    return None if v is None else v * 1e3


def payload_from_hetero_sweep(results, rates):
    rows = {}
    for device_name, per_rate in results.items():
        rows[f"{device_name} tok/s"] = [
            per_rate[r]["throughput_tokens_per_s"] for r in rates
        ]
        for kind in ("llm", "whisper", "denoise"):
            per_type = {r: per_rate[r]["per_type"][kind] for r in rates}
            rows[f"{device_name} {kind} TTFT p50 ms"] = [
                _ms(per_type[r]["ttft_s"]["p50"]) for r in rates
            ]
            rows[f"{device_name} {kind} TPOT p50 ms"] = [
                _ms(per_type[r]["tpot_s"]["p50"]) for r in rates
            ]
        # Denoise "step latency" is the inter-step gap distribution.
        for pct in ("p50", "p99"):
            rows[f"{device_name} denoise step {pct} ms"] = [
                _ms(per_rate[r]["per_type"]["denoise"]["itl_s"][pct])
                for r in rates
            ]
    return results_payload(
        "Serving: heterogeneous Llama + Whisper + denoise mix under "
        f"rising request rate (tiny models, seed {SEED})",
        [f"{r} req/s" for r in rates],
        rows,
        unit="mixed",
        compile_cache=compile_cache_stats(),
    )


#: Mid-size config for the speculative sweep.  TINY_LLAMA is too small
#: to show the speculation trade-off — per-call overhead dominates and a
#: draft step costs ~2/3 of a target step.  At this size the draft costs
#: ~7% of the target and ragged verification of s tokens is near the
#: price of a 1-token decode, which is the regime speculative decoding
#: actually targets; it still compiles in well under a second.
SPEC_BENCH = replace(
    TINY_LLAMA, name="spec-bench", hidden_size=1024,
    intermediate_size=2816, num_layers=4, num_heads=8, num_kv_heads=2,
    vocab_size=4096, context_length=64,
)
SPEC_QUALITIES = [0.3, 0.5, 0.7, 0.9]
SPEC_TOKENS = 3


def _spec_engine_config(quality=None) -> EngineConfig:
    return EngineConfig(
        page_size=4,
        num_blocks=512,
        scheduler=SchedulerConfig(
            max_num_seqs=16, max_num_batched_tokens=128, prefill_chunk=32,
        ),
        spec=(
            None if quality is None else SpecConfig(
                num_spec_tokens=SPEC_TOKENS, draft_quality=quality,
                seed=SEED,
            )
        ),
    )


def _spec_workload(num_requests: int) -> WorkloadConfig:
    return WorkloadConfig(
        num_requests=num_requests, seed=SEED, arrival="poisson",
        arrival_rate=50.0, prompt_min=8, prompt_max=24,
        output_min=8, output_max=24,
    )


def spec_sweep(num_requests: int = 24, qualities=SPEC_QUALITIES,
               devices=DEVICES):
    """TPOT vs draft quality: one vanilla baseline plus one speculative
    run per acceptance level, per device.  The compiled draft/target pair
    is cached, so the quality sweep compiles once per device.

    Returns {device: {"vanilla": summary, quality: summary}}."""
    out = {}
    requests = generate(_spec_workload(num_requests))
    for device_name in devices:
        device = ALL_DEVICES[device_name]
        per_mode = {}
        engine = ServingEngine(SPEC_BENCH, device, _spec_engine_config())
        per_mode["vanilla"] = engine.run(requests).summary
        for quality in qualities:
            engine = ServingEngine(
                SPEC_BENCH, device, _spec_engine_config(quality)
            )
            per_mode[quality] = engine.run(requests).summary
        out[device_name] = per_mode
    return out


def payload_from_spec_sweep(results, qualities):
    rows = {}
    for device_name, per_mode in results.items():
        vanilla = per_mode["vanilla"]["tpot_s"]["mean"]
        rows[f"{device_name} TPOT mean ms"] = [_ms(vanilla)] + [
            _ms(per_mode[q]["tpot_s"]["mean"]) for q in qualities
        ]
        rows[f"{device_name} TPOT vs vanilla"] = [1.0] + [
            per_mode[q]["tpot_s"]["mean"] / vanilla for q in qualities
        ]
        rows[f"{device_name} acceptance rate"] = [None] + [
            per_mode[q]["spec_decode"]["acceptance_rate"]
            for q in qualities
        ]
        rows[f"{device_name} per-position acceptance"] = [None] + [
            per_mode[q]["spec_decode"]["per_position_acceptance"]
            for q in qualities
        ]
    return results_payload(
        "Serving: speculative decoding TPOT vs draft acceptance rate "
        f"(spec-bench, k={SPEC_TOKENS}, seed {SEED})",
        ["vanilla"] + [f"q={q}" for q in qualities],
        rows,
        unit="mixed",
        compile_cache=compile_cache_stats(),
    )


def test_serving_throughput_latency_smoke():
    """Tier-agnostic smoke: small sweep, invariants only."""
    rates = [8.0, 128.0]
    results = sweep(num_requests=16, rates=rates)
    assert len(results) == len(DEVICES)
    for device_name, per_rate in results.items():
        for rate in rates:
            s = per_rate[rate]
            assert s["num_finished"] == 16
            assert s["kv_pool"]["leaked_blocks"] == 0
        # Higher offered load cannot lower total token throughput at
        # these (unsaturated to saturated) scales.
        assert (
            per_rate[rates[-1]]["throughput_tokens_per_s"]
            >= per_rate[rates[0]]["throughput_tokens_per_s"]
        )
    payload = payload_from_sweep(results, rates)
    assert payload["compile_cache"]["misses"] >= len(DEVICES)


def test_serving_hetero_mix_smoke():
    """Mixed-type smoke: every type finishes on every device, per-type
    metrics are populated, the pool stays leak-free."""
    rates = [8.0, 128.0]
    results = hetero_sweep(num_requests=16, rates=rates)
    assert len(results) == len(DEVICES)
    for device_name, per_rate in results.items():
        for rate in rates:
            s = per_rate[rate]
            assert s["num_finished"] == 16
            assert s["kv_pool"]["leaked_blocks"] == 0
            per_type = s["per_type"]
            assert set(per_type) == {"llm", "whisper", "denoise"}
            for kind, row in per_type.items():
                assert row["num_finished"] == row["num_requests"] > 0
                assert row["ttft_s"]["p50"] > 0
    payload = payload_from_hetero_sweep(results, rates)
    assert payload["rows"]


def test_prefix_caching_improves_ttft_and_memory():
    """Acceptance: with caching on, mean TTFT is strictly lower AND peak
    required pool utilization is lower — on every device model."""
    results = prefix_sweep()
    for device_name, per_mode in results.items():
        on, off = per_mode["on"], per_mode["off"]
        assert on["num_finished"] == off["num_finished"] == 32
        assert on["kv_pool"]["leaked_blocks"] == 0
        assert off["kv_pool"]["leaked_blocks"] == 0
        assert on["ttft_s"]["mean"] < off["ttft_s"]["mean"], device_name
        assert (
            on["kv_pool"]["peak_required_blocks"]
            < off["kv_pool"]["peak_required_blocks"]
        ), device_name
        assert on["prefix_cache"]["hit_rate"] > 0.5


def test_speculative_decoding_lowers_tpot_at_high_acceptance():
    """Acceptance: at draft quality >= 0.7 the speculative mean TPOT is
    strictly lower than vanilla — on every device model — and measured
    per-position acceptance lands on the configured quality."""
    qualities = [0.3, 0.7, 0.9]
    results = spec_sweep(num_requests=16, qualities=qualities)
    for device_name, per_mode in results.items():
        vanilla = per_mode["vanilla"]
        assert vanilla["kv_pool"]["leaked_blocks"] == 0
        assert vanilla["spec_decode"] is None
        for quality in qualities:
            s = per_mode[quality]
            assert s["num_finished"] == vanilla["num_finished"] == 16
            assert s["kv_pool"]["leaked_blocks"] == 0
            sd = s["spec_decode"]
            assert sd["proposed"] > 0
            assert abs(sd["per_position_acceptance"] - quality) < 0.1, (
                device_name, quality)
            if quality >= 0.7:
                assert (
                    s["tpot_s"]["mean"] < vanilla["tpot_s"]["mean"]
                ), (device_name, quality)
        # More drafts accepted => faster decode: TPOT is monotone
        # non-increasing in draft quality.
        tpots = [per_mode[q]["tpot_s"]["mean"] for q in qualities]
        assert tpots == sorted(tpots, reverse=True), device_name
    payload = payload_from_spec_sweep(results, qualities)
    assert payload["rows"]


def main() -> None:
    results = sweep()
    payload = payload_from_sweep(results, RATES)
    print_table(
        payload["title"],
        "series",
        payload["columns"],
        payload["rows"],
        "",
        notes=[
            "one compile per device — the rate sweep hits the compile "
            f"cache ({compile_cache_stats()})",
        ],
    )
    out = os.path.join(
        os.path.dirname(__file__), "artifacts", "serving.json"
    )
    dump_results(out, payload)
    print(f"wrote {out}")

    prefix_payload = payload_from_prefix_sweep(prefix_sweep())
    print_table(
        prefix_payload["title"],
        "series",
        prefix_payload["columns"],
        prefix_payload["rows"],
        "",
        notes=["same seeded workload, caching toggled per run"],
    )
    prefix_out = os.path.join(
        os.path.dirname(__file__), "artifacts", "serving_prefix.json"
    )
    dump_results(prefix_out, prefix_payload)
    print(f"wrote {prefix_out}")

    hetero_payload = payload_from_hetero_sweep(hetero_sweep(), RATES)
    print_table(
        hetero_payload["title"],
        "series",
        hetero_payload["columns"],
        hetero_payload["rows"],
        "",
        notes=[
            "one engine serves all three request types; denoise step "
            "latency = inter-step gap percentiles",
        ],
    )
    hetero_out = os.path.join(
        os.path.dirname(__file__), "artifacts", "serving_hetero.json"
    )
    dump_results(hetero_out, hetero_payload)
    print(f"wrote {hetero_out}")

    spec_payload = payload_from_spec_sweep(spec_sweep(), SPEC_QUALITIES)
    print_table(
        spec_payload["title"],
        "series",
        spec_payload["columns"],
        spec_payload["rows"],
        "",
        notes=[
            "same seeded workload per cell; draft/target pair compiled "
            "once per device via the pair cache",
        ],
    )
    spec_out = os.path.join(
        os.path.dirname(__file__), "artifacts", "accept_rate.json"
    )
    dump_results(spec_out, spec_payload)
    print(f"wrote {spec_out}")


if __name__ == "__main__":
    main()
