"""Serve-layer telemetry: deterministic metrics registry + engine sampler.

``EngineConfig.telemetry = TelemetryConfig(...)`` turns the serving
engine from a black box into an instrumented system: a metrics registry
(counters / gauges / histograms) sampled once per engine iteration,
request-lifecycle spans (:mod:`repro.obs.spans`), a sliding-window SLO
monitor (:mod:`repro.serve.slo`), Prometheus text exposition and
extended Perfetto tracks (scheduler/pool counters, lifecycle spans, and
— with ``capture_kernels`` — the VM's per-op events re-based onto the
engine clock, provenance and all).

**Determinism contract.**  Telemetry reads engine state; it never
writes any.  With ``telemetry=None`` (the default) the engine's
summary JSON and Perfetto trace are byte-identical to the untelemetered
engine — pinned by the PR 7 baseline hashes in
``tests/serve/test_spec_decode.py``.  With telemetry *on*, every
counter, gauge, histogram, span and anomaly record derives from the
deterministic discrete-event simulation, so two same-seed runs emit
byte-identical telemetry JSON and Prometheus text.  There is no wall
time anywhere: "sliding windows" slide on the analytical clock, and
histogram percentiles are exact nearest-rank values over the window
(:mod:`repro.obs.stats`) — never streaming approximations, which would
trade determinism for memory this simulation does not need to save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.spans import SpanRecorder
from ..obs.stats import dist, percentile
from ..obs.trace import TraceRecorder
from .slo import SLOConfig, SLOMonitor

Labels = Tuple[Tuple[str, str], ...]


def _labels(kwargs: Dict[str, Any]) -> Labels:
    for k, v in kwargs.items():
        if not isinstance(v, (str, int, float, bool)):
            # Catches the classic misuse counter(name, labels={...}):
            # label values are scalars passed as keyword args.
            raise TypeError(
                f"label {k}={v!r} is not a scalar; pass labels as "
                f"keyword args, e.g. counter(name, kind='llm')"
            )
    return tuple(sorted((k, str(v)) for k, v in kwargs.items()))


def _render(name: str, labels: Labels) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic event count (``_total`` by Prometheus convention)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += n


class Gauge:
    """Last-written instantaneous value."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels
        self.value: Optional[float] = None

    def set(self, v: float) -> None:
        self.value = v


class Histogram:
    """Exact distribution with an optional sliding window on the
    analytical clock.

    Every observation is kept as ``(ts_s, value)``; with ``window_s``
    set, snapshots consider only observations within ``window_s`` of the
    newest one (exact, not bucketed).  Cumulative ``count``/``sum`` are
    retained regardless so rates stay meaningful.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labels: Labels = (),
                 window_s: Optional[float] = None):
        self.name = name
        self.help = help
        self.labels = labels
        self.window_s = window_s
        self.count = 0
        self.sum = 0.0
        self._obs: List[Tuple[float, float]] = []

    def observe(self, value: float, ts_s: float) -> None:
        self.count += 1
        self.sum += value
        self._obs.append((ts_s, value))
        if self.window_s is not None and self._obs:
            cutoff = self._obs[-1][0] - self.window_s
            # Observations arrive in clock order; prune the aged prefix.
            drop = 0
            while drop < len(self._obs) and self._obs[drop][0] < cutoff:
                drop += 1
            if drop:
                del self._obs[:drop]

    def window_values(self) -> List[float]:
        return [v for _, v in self._obs]

    def snapshot(self) -> Dict[str, Any]:
        values = self.window_values()
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "window_count": len(values),
            "min": min(values) if values else None,
            "max": max(values) if values else None,
        }
        out.update(dist(values))
        return out


class MetricsRegistry:
    """Ordered, label-aware registry of deterministic metrics.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create, so call
    sites never pre-declare.  Exports are sorted by rendered name, which
    makes the JSON/Prometheus output independent of creation order (one
    less way for two runs to differ spuriously).
    """

    def __init__(self, prefix: str = "repro_serve"):
        self.prefix = prefix
        self._metrics: Dict[Tuple[str, Labels], Any] = {}

    def _get(self, cls, name: str, help: str, labels: Labels, **kw):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help, labels, **kw)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, help, _labels(labels))

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, help, _labels(labels))

    def histogram(self, name: str, help: str = "",
                  window_s: Optional[float] = None,
                  **labels: Any) -> Histogram:
        return self._get(Histogram, name, help, _labels(labels),
                         window_s=window_s)

    def metrics(self) -> List[Any]:
        return [m for _, m in sorted(self._metrics.items())]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for m in self.metrics():
            key = _render(m.name, m.labels)
            if m.kind == "counter":
                out["counters"][key] = m.value
            elif m.kind == "gauge":
                out["gauges"][key] = m.value
            else:
                out["histograms"][key] = m.snapshot()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (histograms as summaries:
        exact quantiles are what this registry has, and quantile labels
        are how the text format carries them)."""
        lines: List[str] = []
        seen_header: set = set()
        for m in self.metrics():
            full = f"{self.prefix}_{m.name}"
            if m.name not in seen_header:
                seen_header.add(m.name)
                if m.help:
                    lines.append(f"# HELP {full} {m.help}")
                ptype = "summary" if m.kind == "histogram" else m.kind
                lines.append(f"# TYPE {full} {ptype}")
            if m.kind in ("counter", "gauge"):
                value = m.value
                if value is None:
                    continue
                rendered = _render(full, m.labels)
                lines.append(f"{rendered} {_fmt(value)}")
            else:
                snap = m.snapshot()
                for q, key in (("0.5", "p50"), ("0.9", "p90"),
                               ("0.99", "p99")):
                    v = snap[key]
                    if v is None:
                        continue
                    quantiled = m.labels + (("quantile", q),)
                    lines.append(f"{_render(full, quantiled)} {_fmt(v)}")
                lines.append(
                    f"{_render(full + '_sum', m.labels)} {_fmt(snap['sum'])}")
                lines.append(
                    f"{_render(full + '_count', m.labels)} {snap['count']}")
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    """Shortest exact decimal (float repr) — deterministic,
    round-trippable, and uniform whether the metric held an int or a
    float (gauges are fed both)."""
    if isinstance(v, float) and math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    return repr(float(v))


@dataclass(frozen=True)
class TelemetryConfig:
    """Turns on serve-layer telemetry (``EngineConfig.telemetry``).

    The default object enables the registry, spans and the SLO monitor;
    ``capture_kernels`` additionally attaches a
    :class:`~repro.obs.trace.TraceRecorder` to every engine VM and
    merges the per-op kernel events into the exported Perfetto file on
    the engine clock (more memory, same simulated results).
    """

    #: Sliding window (simulated seconds) for latency histograms;
    #: ``None`` keeps the full run (exact cumulative percentiles).
    window_s: Optional[float] = None
    #: Merge VM kernel/library events into the Perfetto export.
    capture_kernels: bool = False
    #: SLO monitor knobs (objectives come from the engine config).
    slo: SLOConfig = field(default_factory=SLOConfig)
    #: Prometheus metric-name prefix.
    prefix: str = "repro_serve"


#: Perfetto process ids of the serve export: 0 = engine iterations and
#: counter tracks (pre-existing), 1 = request tracks (pre-existing
#: slices + lifecycle spans), 2 = VM kernel events per model family.
PID_ENGINE = 0
PID_REQUESTS = 1
PID_KERNELS = 2


class EngineTelemetry:
    """Engine-side sampler: one :meth:`on_iteration` call per scheduled
    step folds the whole serve stack into the registry/spans/SLO state.

    Pure observer — it must never influence scheduling, token identity
    or the clock (the telemetry-off byte-identity tests enforce this
    transitively: any leak of telemetry state into engine decisions
    would show up as a vanilla hash drift the moment it lands).
    """

    def __init__(self, config: TelemetryConfig, *, slo_ttft_s: float,
                 slo_tpot_s: float, vm_names: Sequence[str],
                 max_num_seqs: int, max_num_batched_tokens: int):
        self.config = config
        self.registry = MetricsRegistry(prefix=config.prefix)
        self.spans = SpanRecorder()
        self.slo = SLOMonitor(config.slo, slo_ttft_s=slo_ttft_s,
                              slo_tpot_s=slo_tpot_s)
        self.vm_names = list(vm_names)
        self._max_seqs = max_num_seqs
        self._max_tokens = max_num_batched_tokens
        #: Extra Perfetto events (counter samples + kernel slices).
        self.counter_events: List[Dict[str, Any]] = []
        self.kernel_events: List[Dict[str, Any]] = []
        self.refcount_audit: Optional[Dict[str, Any]] = None
        self._saved_tracers: List[Any] = []
        self._prev_cache: Dict[str, float] = {}
        self._prev_alloc: Dict[str, int] = {}
        self._prev_cow = 0
        self._attached = False

    # -- VM kernel capture -------------------------------------------------------

    def attach(self, vms: Sequence[Any]) -> None:
        if not self.config.capture_kernels:
            return
        for vm in vms:
            self._saved_tracers.append(vm.tracer)
            vm.tracer = TraceRecorder()
        self._attached = True

    def detach(self, vms: Sequence[Any]) -> None:
        if not self._attached:
            return
        for vm, saved in zip(vms, self._saved_tracers):
            vm.tracer = saved
        self._saved_tracers.clear()
        self._attached = False

    # -- per-iteration sampling --------------------------------------------------

    def on_iteration(self, *, it, sched, kv, cache, index: int,
                     t_begin: float, t_end: float, swap_s: float,
                     delta, before, vms: Sequence[Any]) -> None:
        from .scheduler import Phase  # local: avoid cycle at import time

        reg = self.registry
        us = 1e6
        window = self.config.window_s

        # ---- counters: work committed and resources moved this step
        reg.counter("iterations_total", "scheduled engine iterations").inc()
        paths = [s.path for s in it.steps]
        spec_steps = paths.count("spec")
        proposed = sum(s.spec_k or 0 for s in it.steps)
        accepted = sum(it.spec_accepted.values())
        prefill = [c for c in it.chunks if c.state.program.batched_decode]
        units = {
            "decode": paths.count("decode"),
            "spec": accepted + spec_steps,
            "step": paths.count("step"),
            "prefill_first": sum(
                1 for state, _, past, units in prefill
                if past + units == state.prefill_target
                and state.generated == 1
                and state.metrics.token_times
                and state.metrics.token_times[-1] == t_end
            ),
        }
        committed = sum(units.values())
        for path, n in units.items():
            if n or path == "decode":
                reg.counter("tokens_total", "output units committed",
                            path=path).inc(n)
        reg.counter("prefill_tokens_total", "prompt tokens prefilled").inc(
            sum(c.units for c in prefill))
        for _, _, mode in it.preempted:
            reg.counter("preemptions_total", "sequences evicted",
                        mode=mode).inc()
        if it.swapped_in:
            reg.counter("swapins_total", "sequences restored from host").inc(
                len(it.swapped_in))
        reg.counter("swap_seconds_total", "host-link swap time").inc(swap_s)
        reg.counter("vm_seconds_total", "simulated device time").inc(
            delta.time_s)
        reg.counter("kernel_launches_total", "VM kernel launches").inc(
            delta.kernel_launches)
        if spec_steps:
            reg.counter("spec_proposed_total", "draft tokens proposed").inc(
                proposed)
            reg.counter("spec_accepted_total", "draft tokens accepted").inc(
                accepted)
            reg.counter("spec_rollback_tokens_total",
                        "rejected draft KV rolled back").inc(
                proposed - accepted)
        if it.cache_hits:
            reg.counter("prefix_cache_hits_total",
                        "admissions served from cache").inc(
                len(it.cache_hits))
            reg.counter("prefix_cache_tokens_total",
                        "prompt tokens served from cache").inc(
                sum(n for _, n in it.cache_hits))

        # ---- pool/refcount traffic (deltas of cumulative sources)
        alloc = kv.allocator
        traffic = {
            "allocated": alloc.allocated_total,
            "freed": alloc.freed_total,
            "ref_drops": alloc.ref_drops_total,
            "shares": alloc.shares_total,
        }
        for key, total in traffic.items():
            prev = self._prev_alloc.get(key, 0)
            if total > prev:
                reg.counter("kv_block_ops_total",
                            "allocator reference traffic", op=key).inc(
                    total - prev)
            self._prev_alloc[key] = total
        if kv.cow_copies > self._prev_cow:
            reg.counter("kv_cow_copies_total", "copy-on-write forks").inc(
                kv.cow_copies - self._prev_cow)
        self._prev_cow = kv.cow_copies
        if cache is not None:
            stats = cache.stats
            for key in ("lookups", "hits", "evictions", "inserts"):
                total = getattr(stats, key)
                prev = self._prev_cache.get(key, 0)
                if total > prev:
                    reg.counter("prefix_cache_ops_total",
                                "prefix-cache operations", op=key).inc(
                        total - prev)
                self._prev_cache[key] = total

        # ---- gauges: instantaneous engine state at t_end
        waiting = len(sched.waiting)
        swapped = len(sched.swapped)
        running = len(sched.running)
        occupancy = running / self._max_seqs if self._max_seqs else 0.0
        budget_util = (
            it.num_batched_tokens / self._max_tokens
            if self._max_tokens else 0.0
        )
        reg.gauge("queue_depth", "waiting + swapped requests").set(
            sched.queue_depth)
        reg.gauge("waiting_requests", "requests awaiting admission").set(
            waiting)
        reg.gauge("swapped_requests", "requests swapped to host").set(swapped)
        reg.gauge("running_requests", "requests in the running set").set(
            running)
        reg.gauge("batch_occupancy", "running / max_num_seqs").set(occupancy)
        reg.gauge("token_budget_utilization",
                  "batched tokens / max_num_batched_tokens").set(budget_util)
        reg.gauge("kv_free_blocks", "free pool blocks").set(
            kv.num_free_blocks)
        reg.gauge("kv_reclaimable_blocks", "cache-only blocks").set(
            kv.num_reclaimable_blocks)
        reg.gauge("kv_required_utilization",
                  "pool pressure net of reclaimable blocks").set(
            kv.required_utilization())
        reg.gauge("kv_fragmentation",
                  "unused slots in allocated pages").set(kv.fragmentation())
        reg.gauge("unevictable_blocks",
                  "blocks reserved for unevictable programs").set(
            sched.unevictable_blocks)
        if cache is not None:
            reg.gauge("prefix_cache_hit_rate", "cumulative hit rate").set(
                cache.stats.hit_rate)

        # ---- histograms (sliding window on the analytical clock)
        reg.histogram("iteration_seconds", "engine iteration duration",
                      window_s=window).observe(t_end - t_begin, t_end)
        reg.histogram("iteration_batched_tokens",
                      "token budget consumed per iteration",
                      window_s=window).observe(it.num_batched_tokens, t_end)
        if units["decode"] or spec_steps:
            reg.histogram("decode_batch_size",
                          "sequences per batched decode/verify call",
                          window_s=window).observe(
                units["decode"] + spec_steps, t_end)

        # ---- Perfetto counter tracks (one sample per iteration)
        def counter(name: str, args: Dict[str, Any]) -> None:
            self.counter_events.append({
                "name": name, "ph": "C", "pid": PID_ENGINE, "tid": 0,
                "ts": t_end * us, "args": args,
            })

        counter("sched_queue", {"waiting": waiting, "swapped": swapped})
        counter("batch_occupancy", {"running": running})
        counter("token_budget_util", {"used": budget_util})
        counter("kv_pressure", {
            "required": kv.allocator.num_used - kv.num_reclaimable_blocks,
            "reclaimable": kv.num_reclaimable_blocks,
        })
        counter("kv_fragmentation", {"frac": kv.fragmentation()})
        if cache is not None:
            counter("prefix_cache_hit_rate",
                    {"rate": cache.stats.hit_rate})
        if spec_steps:
            counter("spec_tokens",
                    {"proposed": proposed, "accepted": accepted})

        # ---- per-shard mesh tracks (tensor parallelism): one counter
        # track per rank, sampled from the live lockstep stats.  The
        # kv_pressure sample is per-shard bytes resident in that rank's
        # pool — identical across ranks under SPMD, which is exactly the
        # invariant the track makes visible.
        for vm_name, vm in zip(self.vm_names, vms):
            shards = getattr(vm, "shard_stats", None)
            if not shards or len(shards) < 2:
                continue
            for rank, s in enumerate(shards):
                counter(f"{vm_name}_shard{rank}_comm", {
                    "comm_time_s": s.comm_time_s,
                    "comm_fraction": (
                        s.comm_time_s / s.time_s if s.time_s else 0.0
                    ),
                })
                counter(f"{vm_name}_shard{rank}_kv_pressure", {
                    "resident_bytes": s.current_bytes,
                })

        # ---- lifecycle spans
        spans = self.spans
        for state in it.admitted:
            spans.admitted(
                state.seq_id, state.request.arrival_s, t_begin,
                kind=state.request.kind,
                prompt_len=state.request.prompt_len,
                output_len=state.request.output_len,
            )
        for state, copied in it.swapped_in:
            spans.resumed(state.seq_id, t_begin, copied_tokens=copied)
        for state, phase_name, _, _ in it.chunks:
            spans.activity(state.seq_id, phase_name, t_begin, t_end)
        for path, step in zip(paths, it.steps):
            name = ("spec_decode" if path == "spec"
                    else step.state.program.stepped.name)
            spans.activity(step.state.seq_id, name, t_begin, t_end)
        for state, tokens, mode in it.preempted:
            spans.preempted(state.seq_id, t_begin, mode,
                            swapped_tokens=tokens)

        # ---- completions: SLO window + span close (a request is planned
        # at most once per iteration, so no participant repeats)
        for state in ([s.state for s in it.steps]
                      + [c.state for c in it.chunks]):
            m = state.metrics
            if state.phase is not Phase.FINISHED or m.finish_s != t_end:
                continue
            spans.finished(state.seq_id, t_end,
                           output_tokens=len(m.token_times),
                           preemptions=m.preemptions)
            self.slo.on_finish(m, t_end, index)
            if m.ttft is not None:
                reg.histogram("ttft_seconds", "time to first token",
                              window_s=window).observe(m.ttft, t_end)
            if m.tpot is not None:
                reg.histogram("tpot_seconds", "time per output token",
                              window_s=window).observe(m.tpot, t_end)
            if m.e2e_latency is not None:
                reg.histogram("e2e_seconds", "request latency",
                              window_s=window).observe(m.e2e_latency, t_end)
            reg.counter("requests_finished_total", "completed requests",
                        kind=m.kind).inc()
        self.slo.on_iteration(index, t_end, committed=committed,
                              preemptions=len(it.preempted),
                              queue_depth=sched.queue_depth)

        # ---- VM kernel merge onto the engine clock
        if self._attached:
            for i, vm in enumerate(vms):
                tracer = vm.tracer
                base = before[i].time_s
                for e in tracer.events:
                    if e.kind in ("alloc", "free"):
                        continue
                    args = {k: v for k, v in e.args.items()
                            if isinstance(v, (int, float, str, bool))}
                    if e.prov:
                        from ..obs.provenance import render as _prov
                        args["provenance"] = _prov(e.prov)
                    self.kernel_events.append({
                        "name": e.name,
                        "cat": e.kind,
                        "ph": "X",
                        "pid": PID_KERNELS,
                        "tid": i,
                        "ts": (t_begin + (e.ts_s - base)) * us,
                        "dur": e.dur_s * us,
                        "args": args,
                    })
                tracer.clear()

    # -- teardown ---------------------------------------------------------------

    def finalize(self, *, clock: float, kv) -> None:
        self.spans.finalize(clock)
        self.refcount_audit = kv.refcount_audit()
        reg = self.registry
        att = self.slo.window_ttft_attainment
        if att is not None:
            reg.gauge("slo_window_ttft_attainment",
                      "TTFT attainment over the recent window").set(att)
        att = self.slo.window_tpot_attainment
        if att is not None:
            reg.gauge("slo_window_tpot_attainment",
                      "TPOT attainment over the recent window").set(att)
        reg.gauge("slo_anomalies", "anomaly records").set(
            len(self.slo.anomalies))

    # -- export ------------------------------------------------------------------

    def trace_extension(self) -> List[Dict[str, Any]]:
        """Events to append to the engine's Perfetto export: lifecycle
        spans on the request tracks, counter samples on the engine
        process, kernel slices on their own process."""
        meta: List[Dict[str, Any]] = []
        if self.kernel_events:
            meta.append({
                "name": "process_name", "ph": "M", "pid": PID_KERNELS,
                "tid": 0, "args": {"name": "vm kernels"},
            })
            for i, vm_name in enumerate(self.vm_names):
                meta.append({
                    "name": "thread_name", "ph": "M", "pid": PID_KERNELS,
                    "tid": i, "args": {"name": f"vm[{vm_name}]"},
                })
        return (
            meta
            + self.spans.chrome_events(pid=PID_REQUESTS)
            + self.counter_events
            + self.kernel_events
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": {
                "window_s": self.config.window_s,
                "capture_kernels": self.config.capture_kernels,
                "prefix": self.config.prefix,
            },
            "metrics": self.registry.to_dict(),
            "slo": self.slo.snapshot(),
            "spans": self.spans.to_dicts(),
            "refcount_audit": self.refcount_audit,
        }

    def summary_brief(self) -> Dict[str, Any]:
        """The headline block the engine folds into the run summary."""
        snap = self.slo.snapshot()
        return {
            "window_ttft_attainment": snap["window_ttft_attainment"],
            "window_tpot_attainment": snap["window_tpot_attainment"],
            "anomaly_counts": snap["anomaly_counts"],
            "num_spans": len(self.spans.spans),
            "num_metrics": len(self.registry.metrics()),
        }

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()
