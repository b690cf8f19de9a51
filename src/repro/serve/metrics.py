"""Serving metrics: latency percentiles, goodput, utilisation.

The quantities LLM-serving papers report: TTFT (time to first token —
queueing + prefill), TPOT (time per output token after the first), ITL
(inter-token latency distribution), throughput, and goodput — requests
per second that met *both* latency SLOs.  Percentiles use the
nearest-rank definition so results are exact data points, never
interpolated values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

# The nearest-rank percentile/distribution helpers are shared with the
# telemetry registry and the obs report layer (one regression-tested
# implementation); re-exported here because the serving API always
# offered them under this module.
from ..obs.stats import dist as _shared_dist
from ..obs.stats import percentile


@dataclass
class RequestMetrics:
    """Per-request timeline filled in by the engine as it runs."""

    req_id: int
    arrival_s: float
    prompt_len: int
    output_len: int
    #: Simulated time each output token became available (first entry is
    #: the token produced by the final prefill chunk).
    token_times: List[float] = field(default_factory=list)
    finish_s: Optional[float] = None
    preemptions: int = 0
    #: Prompt tokens served from the prefix cache at first admission
    #: (``None`` until admitted, or when prefix caching is off).
    cached_prompt_tokens: Optional[int] = None
    #: Request type ("llm", "whisper", "denoise", ...); heterogeneous
    #: runs report latency distributions per type.
    kind: str = "llm"
    #: Output token ids in emission order (filled from the engine's token
    #: oracle).  In-memory only — never serialized — so speculative runs
    #: can be checked token-for-token against vanilla runs without
    #: perturbing the summary/report byte format.
    output_tokens: List[int] = field(default_factory=list)
    #: Draft tokens proposed for / accepted by this request across all
    #: its speculative steps (both stay 0 when speculation is off).
    spec_proposed: int = 0
    spec_accepted: int = 0

    @property
    def ttft(self) -> Optional[float]:
        if not self.token_times:
            return None
        return self.token_times[0] - self.arrival_s

    @property
    def tpot(self) -> Optional[float]:
        """Mean decode latency per output token after the first."""
        if self.finish_s is None or len(self.token_times) < 2:
            return None
        span = self.token_times[-1] - self.token_times[0]
        return span / (len(self.token_times) - 1)

    @property
    def itl(self) -> List[float]:
        return [
            b - a for a, b in zip(self.token_times, self.token_times[1:])
        ]

    @property
    def e2e_latency(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s


#: Version of the serving report layout.  Schema 2: every record kind
#: (engine summary, fleet summary, iteration record, request row) has one
#: fixed key set; a section that does not apply to a run is ``None``,
#: never absent (DESIGN.md §9).
SCHEMA_VERSION = 2


def summarize(
    requests: Sequence[RequestMetrics],
    *,
    slo_ttft_s: float = 1.0,
    slo_tpot_s: float = 0.1,
    queue_depth_samples: Sequence[int] = (),
    kv_utilization_samples: Sequence[float] = (),
) -> Dict[str, Any]:
    """Aggregate a finished run into one JSON-ready dict (schema 2).

    ``per_type`` breaks the latency distributions out per request kind
    and is ``None`` when the run served a single kind; ``queue_depth``
    and ``kv_block_utilization`` are ``None`` without samples.
    """
    done = [r for r in requests if r.finish_s is not None]
    ttfts = [r.ttft for r in done if r.ttft is not None]
    tpots = [r.tpot for r in done if r.tpot is not None]
    itls = [gap for r in done for gap in r.itl]
    makespan = max((r.finish_s for r in done), default=0.0)
    total_tokens = sum(len(r.token_times) for r in done)

    def within_slo(r: RequestMetrics) -> bool:
        if r.ttft is None or r.ttft > slo_ttft_s:
            return False
        tpot = r.tpot
        return tpot is None or tpot <= slo_tpot_s

    good = sum(1 for r in done if within_slo(r))
    dist = _shared_dist

    summary: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "num_requests": len(requests),
        "num_finished": len(done),
        "makespan_s": makespan,
        "total_output_tokens": total_tokens,
        "throughput_tokens_per_s": (
            total_tokens / makespan if makespan > 0 else 0.0
        ),
        "throughput_requests_per_s": (
            len(done) / makespan if makespan > 0 else 0.0
        ),
        "goodput_requests_per_s": good / makespan if makespan > 0 else 0.0,
        "slo": {"ttft_s": slo_ttft_s, "tpot_s": slo_tpot_s,
                "attained": good, "fraction": good / len(done) if done else 0.0},
        "ttft_s": dist(ttfts),
        "tpot_s": dist(tpots),
        "itl_s": dist(itls),
        "preemptions": sum(r.preemptions for r in requests),
    }
    kinds = sorted({r.kind for r in requests})
    per_type: Optional[Dict[str, Any]] = None
    if len(kinds) > 1:
        # For iterative-denoise requests ``itl_s`` is the per-step
        # latency distribution (each "token" is one denoise iteration).
        per_type = {}
        for kind in kinds:
            kdone = [r for r in done if r.kind == kind]
            per_type[kind] = {
                "num_requests": sum(1 for r in requests if r.kind == kind),
                "num_finished": len(kdone),
                "total_output_tokens": sum(len(r.token_times) for r in kdone),
                "ttft_s": dist([r.ttft for r in kdone if r.ttft is not None]),
                "tpot_s": dist([r.tpot for r in kdone if r.tpot is not None]),
                "itl_s": dist([gap for r in kdone for gap in r.itl]),
                "preemptions": sum(
                    r.preemptions for r in requests if r.kind == kind
                ),
            }
    summary["per_type"] = per_type
    summary["queue_depth"] = _mean_max(queue_depth_samples)
    summary["kv_block_utilization"] = _mean_max(kv_utilization_samples)
    return summary


def _mean_max(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    if not samples:
        return None
    return {"mean": sum(samples) / len(samples), "max": max(samples)}
