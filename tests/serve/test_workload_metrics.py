"""Workload generator determinism/round-trip and metric definitions."""

import pytest

from repro.serve import (
    RequestMetrics,
    WorkloadConfig,
    generate,
    percentile,
    summarize,
    workload_from_json,
    workload_to_json,
)


def test_one_seed_reproduces_the_whole_trace():
    cfg = WorkloadConfig(num_requests=50, seed=7, arrival="gamma",
                         arrival_cv=3.0)
    assert generate(cfg) == generate(cfg)
    assert generate(cfg) != generate(WorkloadConfig(num_requests=50, seed=8,
                                                    arrival="gamma",
                                                    arrival_cv=3.0))


def test_json_round_trip_is_exact():
    cfg = WorkloadConfig(num_requests=20, seed=3, arrival="poisson",
                         arrival_rate=11.5)
    requests = generate(cfg)
    text = workload_to_json(cfg, requests)
    cfg2, requests2 = workload_from_json(text)
    assert cfg2 == cfg
    assert requests2 == requests
    # Regenerating from the deserialized config also matches.
    assert generate(cfg2) == requests


def test_arrival_processes():
    poisson = WorkloadConfig(num_requests=2000, seed=0, arrival="poisson",
                             arrival_rate=10.0)
    arrivals = [r.arrival_s for r in generate(poisson)]
    gaps = [b - a for a, b in zip([0.0] + arrivals, arrivals)]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(0.1, rel=0.1)
    # Gamma with cv=3 is burstier: higher variance at the same mean.
    bursty = WorkloadConfig(num_requests=2000, seed=0, arrival="gamma",
                            arrival_rate=10.0, arrival_cv=3.0)
    bgaps = [r.arrival_s for r in generate(bursty)]
    bgaps = [b - a for a, b in zip([0.0] + bgaps, bgaps)]
    bmean = sum(bgaps) / len(bgaps)
    assert bmean == pytest.approx(0.1, rel=0.15)
    var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
    bvar = sum((g - bmean) ** 2 for g in bgaps) / len(bgaps)
    assert bvar > 3 * var

    with pytest.raises(ValueError):
        generate(WorkloadConfig(arrival="uniform"))


def test_length_ranges_respected():
    cfg = WorkloadConfig(num_requests=300, seed=1, prompt_min=3,
                         prompt_max=9, output_min=2, output_max=5)
    for r in generate(cfg):
        assert 3 <= r.prompt_len <= 9
        assert 2 <= r.output_len <= 5


def test_shared_prefix_mode_materializes_family_prompts():
    cfg = WorkloadConfig(num_requests=40, seed=2, prompt_min=10,
                         prompt_max=24, prefix_families=3, prefix_len=8)
    requests = generate(cfg)
    prefixes = set()
    for r in requests:
        assert r.prompt_tokens is not None
        assert len(r.prompt_tokens) == r.prompt_len
        prefixes.add(r.prompt_tokens[:8])
    # Exactly the configured number of distinct family prefixes appears.
    assert len(prefixes) == 3
    # Legacy mode never materializes token ids.
    for r in generate(WorkloadConfig(num_requests=5, seed=2)):
        assert r.prompt_tokens is None


def test_shared_prefix_mode_preserves_legacy_streams():
    """Prefix draws happen after the legacy draws, so the length/arrival
    trace for a seed is identical with and without prefix mode."""
    legacy = generate(WorkloadConfig(num_requests=30, seed=9))
    shared = generate(WorkloadConfig(num_requests=30, seed=9,
                                     prefix_families=2, prefix_len=4))
    for a, b in zip(legacy, shared):
        assert (a.arrival_s, a.prompt_len, a.output_len) == (
            b.arrival_s, b.prompt_len, b.output_len)


def test_shared_prefix_json_round_trip_is_exact():
    cfg = WorkloadConfig(num_requests=12, seed=5, prompt_min=10,
                         prompt_max=20, prefix_families=2, prefix_len=6)
    requests = generate(cfg)
    cfg2, requests2 = workload_from_json(workload_to_json(cfg, requests))
    assert cfg2 == cfg
    assert requests2 == requests
    assert generate(cfg2) == requests


def test_shared_prefix_mode_validates_config():
    with pytest.raises(ValueError):
        generate(WorkloadConfig(prefix_families=2, prefix_len=0))
    with pytest.raises(ValueError):
        # prefix_len must leave at least one private suffix token.
        generate(WorkloadConfig(prompt_min=8, prefix_families=2,
                                prefix_len=8))


def test_hetero_mix_draws_preserve_legacy_streams():
    base = WorkloadConfig(num_requests=40, seed=11)
    mixed = WorkloadConfig(num_requests=40, seed=11,
                           whisper_fraction=0.25, denoise_fraction=0.25)
    legacy = generate(base)
    hetero = generate(mixed)
    kinds = {r.kind for r in hetero}
    assert kinds == {"llm", "whisper", "denoise"}
    for old, new in zip(legacy, hetero):
        # Arrivals come from the same stream in the same order; LLM
        # requests keep their exact legacy lengths.
        assert new.arrival_s == old.arrival_s
        if new.kind == "llm":
            assert (new.prompt_len, new.output_len) == \
                (old.prompt_len, old.output_len)
        elif new.kind == "whisper":
            assert new.prompt_len % 2 == 0
            assert 8 <= new.prompt_len <= 12
            assert new.output_len == old.output_len
        else:
            assert new.prompt_len == 0
            assert 4 <= new.output_len <= 16


def test_hetero_mix_round_trips_and_validates():
    cfg = WorkloadConfig(num_requests=12, seed=2, whisper_fraction=0.5)
    requests = generate(cfg)
    cfg2, rt = workload_from_json(workload_to_json(cfg, requests))
    assert cfg2 == cfg and rt == requests
    # Pure-LLM requests serialize without a "kind" key (legacy format).
    assert all("kind" not in r.to_dict()
               for r in generate(WorkloadConfig(num_requests=4)))
    with pytest.raises(ValueError):
        generate(WorkloadConfig(whisper_fraction=0.7, denoise_fraction=0.7))
    with pytest.raises(ValueError):
        generate(WorkloadConfig(whisper_fraction=0.2, prefix_families=2,
                                prefix_len=4))


def test_nearest_rank_percentile():
    data = [10.0, 20.0, 30.0, 40.0]
    assert percentile(data, 50) == 20.0
    assert percentile(data, 75) == 30.0
    assert percentile(data, 100) == 40.0
    assert percentile(data, 1) == 10.0
    # Always an actual data point, never interpolated.
    assert percentile(data, 60) in data


def test_percentile_empty_series_is_none():
    # None, not NaN: NaN silently poisons JSON artifacts and forced
    # every caller to guard.
    for p in (0, 1, 50, 99, 100):
        assert percentile([], p) is None


def test_percentile_single_sample_is_that_sample():
    # Nearest rank is well defined for n = 1: every percentile is the
    # one sample (rank clamps to 1).
    for p in (0, 1, 50, 99, 100):
        assert percentile([7.25], p) == 7.25


def test_summarize_with_no_finished_requests_is_json_safe():
    import json

    unfinished = RequestMetrics(req_id=0, arrival_s=0.0, prompt_len=4,
                                output_len=4)
    s = summarize([unfinished])
    assert s["num_finished"] == 0
    for key in ("ttft_s", "tpot_s", "itl_s"):
        assert s[key] == {"mean": None, "p50": None, "p90": None,
                          "p99": None}
    # Round-trips through strict JSON (NaN would need allow_nan).
    json.loads(json.dumps(s, allow_nan=False))


def test_summarize_single_request_needs_no_guards():
    m = _metrics(0.0, [0.5, 0.6])
    s = summarize([m])
    assert s["ttft_s"]["p50"] == pytest.approx(0.5)
    assert s["ttft_s"]["p99"] == pytest.approx(0.5)
    assert s["tpot_s"]["mean"] == pytest.approx(0.1)


def test_per_type_breakdown_gated_on_heterogeneous_runs():
    llm = _metrics(0.0, [0.1, 0.2])
    assert summarize([llm])["per_type"] is None

    whisper = _metrics(0.0, [0.3, 0.4, 0.5])
    whisper.kind = "whisper"
    s = summarize([llm, whisper])
    assert set(s["per_type"]) == {"llm", "whisper"}
    row = s["per_type"]["whisper"]
    assert row["num_requests"] == row["num_finished"] == 1
    assert row["total_output_tokens"] == 3
    assert row["ttft_s"]["p50"] == pytest.approx(0.3)
    assert s["per_type"]["llm"]["total_output_tokens"] == 2


def _metrics(arrival, token_times):
    m = RequestMetrics(req_id=0, arrival_s=arrival, prompt_len=4,
                       output_len=len(token_times))
    m.token_times = list(token_times)
    m.finish_s = token_times[-1]
    return m


def test_request_metric_definitions():
    m = _metrics(1.0, [1.5, 1.6, 1.8, 2.1])
    assert m.ttft == pytest.approx(0.5)
    # TPOT: span after first token / (tokens - 1).
    assert m.tpot == pytest.approx((2.1 - 1.5) / 3)
    assert m.itl == pytest.approx([0.1, 0.2, 0.3])
    assert m.e2e_latency == pytest.approx(1.1)


def test_goodput_counts_only_within_slo():
    fast = _metrics(0.0, [0.1, 0.15, 0.2])
    slow_ttft = _metrics(0.0, [5.0, 5.1, 5.2])
    slow_tpot = _metrics(0.0, [0.1, 1.1, 2.1])
    s = summarize([fast, slow_ttft, slow_tpot],
                  slo_ttft_s=1.0, slo_tpot_s=0.5)
    assert s["num_finished"] == 3
    assert s["slo"]["attained"] == 1
    makespan = s["makespan_s"]
    assert s["goodput_requests_per_s"] == pytest.approx(1 / makespan)
    assert s["throughput_requests_per_s"] == pytest.approx(3 / makespan)
