"""Speculative decoding: determinism + statistics lockdown suite.

Three invariant families pin the draft/verify mode:

1. **Pre-PR byte identity** — a non-speculative run's summary, request
   rows, iterations and Perfetto trace equal the structural goldens
   (``goldens/vanilla_*.json``) captured from the bytes the engine
   produced *before* speculative decoding existed, across three
   canonical configs (plain, pool pressure, prefix sharing) and both
   device models.  Speculation is a strictly additive feature: with
   ``spec=None`` not one byte moves.

2. **Token-stream equality** — speculation may change *when* tokens are
   produced, never *which*: every request's output token stream under
   speculative decoding equals its vanilla stream, across all configs,
   widths, and the adaptive controller.

3. **Acceptance statistics** — each verified position is an independent
   Bernoulli(draft_quality) draw in hash space, so the measured
   per-position acceptance rate converges to the workload's configured
   draft quality under a pinned seed.

Rollback leak-freedom rides along everywhere: the engine runs
``check_no_leaks`` (exact refcount accounting) after every run, and
these tests assert the reported leak count on both vanilla and
speculative runs.
"""

import json

import pytest

from repro.models import TINY_LLAMA
from repro.runtime.device import ALL_DEVICES
from repro.serve import (
    EngineConfig,
    SchedulerConfig,
    SpecConfig,
    WorkloadConfig,
    serve_workload,
)
from repro.serve.spec import TokenOracle

from .test_serve_goldens import (
    VANILLA_DEVICES,
    check_golden,
    vanilla_engine_config as _engine_config,
    vanilla_workload as _workload,
)

DEVICES = list(VANILLA_DEVICES)
CONFIGS = ["plain", "pressure", "prefix"]

# Engine runs are deterministic, so reports are shared across tests
# (SpecConfig is frozen/hashable; None = vanilla).
_REPORTS = {}


def _run(config, device, spec=None):
    key = (config, device, spec)
    if key not in _REPORTS:
        _REPORTS[key] = serve_workload(
            TINY_LLAMA, ALL_DEVICES[device], _workload(config),
            _engine_config(config, spec=spec),
        )
    return _REPORTS[key]


def _streams(report):
    return {r.req_id: list(r.output_tokens) for r in report.requests}


# ---------------------------------------------------------------------------
# 1. Pre-PR byte identity of non-speculative runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("config", CONFIGS)
def test_vanilla_run_byte_identical_to_pre_spec_engine(config, device):
    check_golden(f"vanilla_{config}_{VANILLA_DEVICES[device]}")


def test_vanilla_reports_carry_no_spec_keys():
    report = _run("plain", DEVICES[0])
    assert "spec_decode" not in report.summary
    for rec in report.iterations:
        assert "spec_batch" not in rec
        assert "spec_proposed" not in rec
    for ev in report.trace_events:
        assert ev["name"] != "spec_decode"
    for row in report.to_dict()["requests"]:
        assert "spec_proposed" not in row


# ---------------------------------------------------------------------------
# 2. Token-stream equality: speculation changes *when*, never *which*
# ---------------------------------------------------------------------------

_SPEC = SpecConfig(num_spec_tokens=3, draft_quality=0.7, seed=0)


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("config", CONFIGS)
def test_spec_streams_equal_vanilla(config, device):
    vanilla = _run(config, device)
    spec = _run(config, device, spec=_SPEC)
    assert _streams(spec) == _streams(vanilla)
    # Every finished request emitted exactly its requested output.
    for r in spec.requests:
        assert len(r.output_tokens) == r.output_len
        assert r.finish_s is not None
    # Rollback leak-freedom: the engine's exact-refcount check passed
    # (it raises otherwise) on both runs.
    assert spec.summary["kv_pool"]["leaked_blocks"] == 0
    assert vanilla.summary["kv_pool"]["leaked_blocks"] == 0
    # The speculative run actually speculated.
    assert spec.summary["spec_decode"]["proposed"] > 0


@pytest.mark.parametrize("k", [1, 5])
def test_spec_streams_equal_across_widths(k):
    vanilla = _run("plain", DEVICES[0])
    spec = _run("plain", DEVICES[0],
                spec=SpecConfig(num_spec_tokens=k, draft_quality=0.7, seed=0))
    assert _streams(spec) == _streams(vanilla)


def test_spec_streams_equal_under_adaptive_controller():
    """The acceptance-aware controller only reshapes *widths*; token
    identity is positional, so streams must not move."""
    vanilla = _run("plain", DEVICES[0])
    spec = _run("plain", DEVICES[0],
                spec=SpecConfig(num_spec_tokens=4, draft_quality=0.3,
                                seed=0, adaptive=True, adapt_window=8))
    assert _streams(spec) == _streams(vanilla)
    assert spec.summary["spec_decode"]["adaptive"] is True


def test_spec_streams_equal_under_recompute_eviction():
    """Preempt-by-recompute replays prefill over already-emitted tokens;
    positional token identity must survive the replay interleaved with
    speculative bursts."""
    econf = EngineConfig(
        page_size=4, num_blocks=24,
        scheduler=SchedulerConfig(max_num_seqs=4, max_num_batched_tokens=32,
                                  prefill_chunk=8, eviction="recompute"),
    )
    wl = _workload("pressure")
    dev = ALL_DEVICES[DEVICES[0]]
    vanilla = serve_workload(TINY_LLAMA, dev, wl, econf)
    sconf = EngineConfig(
        page_size=4, num_blocks=24,
        scheduler=SchedulerConfig(max_num_seqs=4, max_num_batched_tokens=32,
                                  prefill_chunk=8, eviction="recompute"),
        spec=_SPEC,
    )
    spec = serve_workload(TINY_LLAMA, dev, wl, sconf)
    assert _streams(spec) == _streams(vanilla)
    assert spec.summary["kv_pool"]["leaked_blocks"] == 0


def test_spec_run_is_deterministic():
    a = serve_workload(TINY_LLAMA, ALL_DEVICES[DEVICES[0]],
                       _workload("plain"),
                       _engine_config("plain", spec=_SPEC))
    b = _run("plain", DEVICES[0], spec=_SPEC)
    assert a.to_json(sort_keys=True) == b.to_json(sort_keys=True)
    assert (json.dumps(a.chrome_trace(), sort_keys=True)
            == json.dumps(b.chrome_trace(), sort_keys=True))


# ---------------------------------------------------------------------------
# 3. Acceptance statistics converge to the configured draft quality
# ---------------------------------------------------------------------------

_CONVERGENCE_WL = WorkloadConfig(
    num_requests=24, seed=7, arrival="poisson", arrival_rate=200.0,
    prompt_min=4, prompt_max=10, output_min=16, output_max=24,
)


def _acceptance_run(quality, k=4):
    econf = EngineConfig(
        page_size=4, num_blocks=256,
        scheduler=SchedulerConfig(max_num_seqs=16,
                                  max_num_batched_tokens=128,
                                  prefill_chunk=32),
        spec=SpecConfig(num_spec_tokens=k, draft_quality=quality, seed=11),
    )
    return serve_workload(TINY_LLAMA, ALL_DEVICES[DEVICES[0]],
                          _CONVERGENCE_WL, econf)


@pytest.mark.parametrize("quality", [0.4, 0.7, 0.9])
def test_per_position_acceptance_converges_to_draft_quality(quality):
    sd = _acceptance_run(quality).summary["spec_decode"]
    assert sd["checked"] >= 200  # enough Bernoulli draws to mean anything
    measured = sd["per_position_acceptance"]
    # Pinned seed => deterministic; the band is the statistical-noise
    # allowance for ~a few hundred draws, not flake tolerance.
    assert abs(measured - quality) < 0.07, (
        f"measured {measured:.3f}, configured {quality}"
    )
    # Greedy prefix matching truncates at the first miss, so drafting
    # efficiency sits at or below the per-position rate.
    assert sd["acceptance_rate"] <= measured + 1e-9


def test_acceptance_extremes():
    perfect = _acceptance_run(1.0).summary["spec_decode"]
    assert perfect["accepted"] == perfect["proposed"] > 0
    assert perfect["acceptance_rate"] == 1.0
    hopeless = _acceptance_run(0.0).summary["spec_decode"]
    assert hopeless["accepted"] == 0
    assert hopeless["per_position_acceptance"] == 0.0


def test_acceptance_statistics_consistent_per_request():
    report = _acceptance_run(0.7)
    summary = report.summary["spec_decode"]
    assert summary["proposed"] == sum(
        r.spec_proposed for r in report.requests)
    assert summary["accepted"] == sum(
        r.spec_accepted for r in report.requests)
    for row in report.to_dict()["requests"]:
        if "spec_proposed" in row:
            assert 0 <= row["spec_accepted"] <= row["spec_proposed"]
    # Iteration records and trace agree with the totals.
    assert summary["proposed"] == sum(
        rec.get("spec_proposed", 0) for rec in report.iterations)
    assert summary["accepted"] == sum(
        ev["args"]["accepted"] for ev in report.trace_events
        if ev["name"] == "spec_decode")


# ---------------------------------------------------------------------------
# Token oracle unit behaviour
# ---------------------------------------------------------------------------


def test_oracle_is_a_pure_function():
    a = TokenOracle(seed=3, vocab_size=101, draft_quality=0.5)
    b = TokenOracle(seed=3, vocab_size=101, draft_quality=0.5)
    for req in (0, 1, 17):
        for pos in range(50):
            assert a.target_token(req, pos) == b.target_token(req, pos)
            assert a.draft_matches(req, pos) == b.draft_matches(req, pos)
    c = TokenOracle(seed=4, vocab_size=101, draft_quality=0.5)
    assert any(a.target_token(0, p) != c.target_token(0, p)
               for p in range(50))


def test_oracle_draft_token_matches_iff_agreement():
    o = TokenOracle(seed=0, vocab_size=64, draft_quality=0.5)
    hits = 0
    for pos in range(400):
        t, d = o.target_token(5, pos), o.draft_token(5, pos)
        if o.draft_matches(5, pos):
            assert d == t
            hits += 1
        else:
            assert d != t
        assert 0 <= d < 64
    assert abs(hits / 400 - 0.5) < 0.08


def test_spec_config_validation():
    with pytest.raises(ValueError):
        SpecConfig(num_spec_tokens=0)
    with pytest.raises(ValueError):
        SpecConfig(draft_quality=1.5)
    with pytest.raises(ValueError):
        SpecConfig(adapt_window=0)
