"""Serve-layer telemetry: deterministic metrics registry + the log fold.

``EngineConfig.telemetry = TelemetryConfig(...)`` turns the serving
engine from a black box into an instrumented system: a metrics registry
(counters / gauges / histograms), request-lifecycle spans
(:mod:`repro.obs.spans`), a sliding-window SLO monitor
(:mod:`repro.serve.slo`), Prometheus text exposition and extended
Perfetto tracks (scheduler/pool counters, lifecycle spans, and — with
``capture_kernels`` — the VM's per-op events re-based onto the engine
clock, provenance and all).  :class:`EngineTelemetry` builds all of it
from the run's event log (:mod:`repro.serve.log`) when the run reports.

**Determinism contract.**  Telemetry reads the log; it never writes
engine state: a telemetered run's report equals the plain run's once
its telemetry sections are nulled.  Every counter, gauge, histogram,
span and anomaly record derives from the deterministic discrete-event
simulation, so two same-seed runs emit byte-identical telemetry JSON
and Prometheus text.  There is no wall time anywhere: "sliding windows"
slide on the analytical clock, and histogram percentiles are exact
nearest-rank values over the window (:mod:`repro.obs.stats`) — never
streaming approximations, which would trade determinism for memory
this simulation does not need to save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.provenance import render as render_provenance
from ..obs.spans import SpanRecorder
from ..obs.stats import dist
from ..runtime.profiler import to_s
from .log import Arrival, IterationEvent, RunStart, Teardown, untag
from .slo import SLOMonitor

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


class _Metric:
    kind = ""
    value: Optional[float] = None

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels


class Counter(_Metric):
    """Monotonic event count (``_total`` by Prometheus convention)."""

    kind = "counter"
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += n


class Gauge(_Metric):
    """Last-written instantaneous value."""

    kind = "gauge"

    def set(self, v: float) -> None:
        self.value = v


class Histogram(_Metric):
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
        super().__init__(name, help, labels)
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

    def snapshot(self) -> Dict[str, Any]:
        values = [v for _, v in self._obs]
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

    The default object makes the report carry the telemetry fold of the
    run's log (registry, spans, SLO monitor); ``capture_kernels``
    additionally attaches a :class:`~repro.obs.trace.TraceRecorder` to
    every engine VM, whose per-op events the fold re-bases onto the
    engine clock in the Perfetto export (more memory, same simulated
    results).
    """

    #: Sliding window (simulated seconds) for latency histograms;
    #: ``None`` keeps the full run (exact cumulative percentiles).
    window_s: Optional[float] = None
    #: Merge VM kernel/library events into the Perfetto export.
    capture_kernels: bool = False




#: Perfetto process ids of the serve export: 0 = engine iterations and
#: counter tracks, 1 = request tracks (slices + lifecycle spans), 2 = VM
#: kernel events per model family.
PID_ENGINE = 0
PID_REQUESTS = 1
PID_KERNELS = 2

_CHUNKED = ("prefill", "chunk")


class EngineTelemetry:
    """Registry, lifecycle spans, SLO monitor and Perfetto tracks: a fold
    over a run's event log (:mod:`repro.serve.log`).

    It reads nothing but the log, so folding a plain run's log gives
    exactly what the telemetered run reports.  Over a fleet log the
    per-replica metrics carry a ``replica`` label, spans and the SLO
    monitor see the merged stream, and the Perfetto tracks are left to
    each replica's own export.
    """

    def __init__(self, log: Sequence[Any], window_s: Optional[float] = None):
        self.window_s = window_s
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder()
        self.slo: Optional[SLOMonitor] = None
        self.start: Optional[RunStart] = None
        #: Extra Perfetto events (counter samples + kernel slices).
        self.counter_events: List[Dict[str, Any]] = []
        self.kernel_events: List[Dict[str, Any]] = []
        self._arrivals: Dict[int, Arrival] = {}
        #: replica -> cumulative [lookups, hits] (the hit-rate gauge).
        self._cache: Dict[Optional[int], List[int]] = {}
        audits: Dict[Optional[int], Dict[str, Any]] = {}
        end = None
        index = 0
        for replica, e in untag(log):
            kind = type(e)
            if kind is IterationEvent:
                self._iteration(e, index, replica)
                index += 1
            elif kind is Arrival:
                self._arrivals[e.req_id] = e
            elif kind is RunStart and self.start is None:
                self.start = e
                self.slo = SLOMonitor(slo_ttft_s=e.slo_ttft_s,
                                      slo_tpot_s=e.slo_tpot_s)
            elif kind is Teardown:
                audits[replica] = e.refcount_audit
                end = to_s(e.t)
        if end is not None:
            # Once the last run has ended (a fleet's replicas end at
            # different times), whatever is still open is unfinished.
            self.spans.finalize(end)
        #: The engine's teardown audit of the KV pool (replica -> audit
        #: over a fleet log).
        self.refcount_audit = (audits[None] if None in audits
                               else audits or None)
        reg, slo = self.registry, self.slo
        for name, help, att in (
                ("slo_window_ttft_attainment",
                 "TTFT attainment over the recent window",
                 slo.window_ttft_attainment),
                ("slo_window_tpot_attainment",
                 "TPOT attainment over the recent window",
                 slo.window_tpot_attainment)):
            if att is not None:
                reg.gauge(name, help).set(att)
        reg.gauge("slo_anomalies", "anomaly records").set(len(slo.anomalies))

    def _iteration(self, e: IterationEvent, index: int,
                   replica: Optional[int]) -> None:
        reg, spans, start = self.registry, self.spans, self.start
        lab = {} if replica is None else {"replica": replica}
        t0, t1, g, c = to_s(e.t_begin), to_s(e.t_end), e.gauges, e.counters
        us = 1e6
        steps = [p for p in e.participations if p.path not in _CHUNKED]
        chunks = [p for p in e.participations if p.path in _CHUNKED]
        spec = [p for p in steps if p.path == "spec"]
        proposed = sum(p.spec_k for p in spec)
        accepted = sum(p.accepted for p in spec)

        def count(name: str, help: str, n: float = 1, **labels: Any) -> None:
            reg.counter(name, help, **labels, **lab).inc(n)

        def observe(name: str, help: str, value: float) -> None:
            reg.histogram(name, help, window_s=self.window_s,
                          **lab).observe(value, t1)

        def track(name: str, args: Dict[str, Any]) -> None:
            if replica is None:  # a fleet exports each replica's tracks
                self.counter_events.append({"name": name, "ph": "C",
                                            "pid": PID_ENGINE, "tid": 0,
                                            "ts": t1 * us, "args": args})

        # ---- counters: work committed and resources moved this step
        count("iterations_total", "scheduled engine iterations")
        units = {"decode": 0, "spec": 0, "step": 0,
                 "prefill_first": sum(p.first for p in chunks)}
        for p in steps:
            units[p.path] += p.units
        for path, n in units.items():
            if n or path == "decode":
                count("tokens_total", "output units committed", n, path=path)
        count("prefill_tokens_total", "prompt tokens prefilled",
              sum(p.units for p in chunks if p.path == "prefill"))
        for _, _, mode in e.preempted:
            count("preemptions_total", "sequences evicted", mode=mode)
        if e.swapped_in:
            count("swapins_total", "sequences restored from host",
                  len(e.swapped_in))
        stats = e.stats
        count("swap_seconds_total", "host-link swap time", to_s(e.swap_as))
        count("vm_seconds_total", "simulated device time", stats.time_s)
        count("kernel_launches_total", "VM kernel launches",
              stats.kernel_launches)
        if spec:
            count("spec_proposed_total", "draft tokens proposed", proposed)
            count("spec_accepted_total", "draft tokens accepted", accepted)
            count("spec_rollback_tokens_total",
                  "rejected draft KV rolled back", proposed - accepted)
        if e.cache_hits:
            count("prefix_cache_hits_total", "admissions served from cache",
                  len(e.cache_hits))
            count("prefix_cache_tokens_total",
                  "prompt tokens served from cache",
                  sum(n for _, n in e.cache_hits))
        for name, help, ops in (
                ("kv_block_ops_total", "allocator reference traffic",
                 ("allocated", "freed", "ref_drops", "shares")),
                ("prefix_cache_ops_total", "prefix-cache operations",
                 ("lookups", "hits", "evictions", "inserts"))):
            for op in ops:
                if getattr(c, op):
                    count(name, help, getattr(c, op), op=op)
        if c.cow_copies:
            count("kv_cow_copies_total", "copy-on-write forks", c.cow_copies)

        # ---- gauges: instantaneous engine state at t_end
        queue = g.waiting + g.swapped
        occupancy = (g.running / start.max_num_seqs
                     if start.max_num_seqs else 0.0)
        budget = (e.batched_tokens / start.max_num_batched_tokens
                  if start.max_num_batched_tokens else 0.0)
        required = g.used - g.reclaimable
        cache = self._cache.setdefault(replica, [0, 0])
        cache[0] += c.lookups
        cache[1] += c.hits
        hit_rate = cache[1] / cache[0] if cache[0] else 0.0
        gauges = [
            ("queue_depth", "waiting + swapped requests", queue),
            ("waiting_requests", "requests awaiting admission", g.waiting),
            ("swapped_requests", "requests swapped to host", g.swapped),
            ("running_requests", "requests in the running set", g.running),
            ("batch_occupancy", "running / max_num_seqs", occupancy),
            ("token_budget_utilization",
             "batched tokens / max_num_batched_tokens", budget),
            ("kv_free_blocks", "free pool blocks", g.free),
            ("kv_reclaimable_blocks", "cache-only blocks", g.reclaimable),
            ("kv_required_utilization",
             "pool pressure net of reclaimable blocks",
             required / start.num_blocks),
            ("kv_fragmentation", "unused slots in allocated pages",
             g.fragmentation),
            ("unevictable_blocks",
             "blocks reserved for unevictable programs", g.unevictable),
        ]
        if start.prefix_cache:
            gauges.append(("prefix_cache_hit_rate", "cumulative hit rate",
                           hit_rate))
        for name, help, value in gauges:
            reg.gauge(name, help, **lab).set(value)

        # ---- histograms (sliding window on the analytical clock)
        observe("iteration_seconds", "engine iteration duration", t1 - t0)
        observe("iteration_batched_tokens",
                "token budget consumed per iteration", e.batched_tokens)
        if units["decode"] or spec:
            observe("decode_batch_size",
                    "sequences per batched decode/verify call",
                    units["decode"] + len(spec))

        # ---- Perfetto counter tracks (one sample per iteration); under
        # tensor parallelism one comm and one resident-bytes track per
        # rank — identical across ranks under SPMD, which is exactly the
        # invariant the tracks make visible.
        track("sched_queue", {"waiting": g.waiting, "swapped": g.swapped})
        track("batch_occupancy", {"running": g.running})
        track("token_budget_util", {"used": budget})
        track("kv_pressure", {"required": required,
                              "reclaimable": g.reclaimable})
        track("kv_fragmentation", {"frac": g.fragmentation})
        if start.prefix_cache:
            track("prefix_cache_hit_rate", {"rate": hit_rate})
        if spec:
            track("spec_tokens", {"proposed": proposed, "accepted": accepted})
        for vm, ranks in e.shards:
            for rank, (comm, time, resident) in enumerate(ranks):
                name = f"{start.vm_names[vm]}_shard{rank}"
                track(f"{name}_comm", {
                    "comm_time_s": to_s(comm),
                    "comm_fraction": comm / time if time else 0.0,
                })
                track(f"{name}_kv_pressure", {"resident_bytes": resident})

        # ---- lifecycle spans, then completions (SLO window + span close)
        for sid in e.admitted:
            a = self._arrivals[sid]
            spans.admitted(sid, to_s(a.t), t0, kind=a.kind,
                           prompt_len=a.prompt_len, output_len=a.output_len)
        for sid, copied in e.swapped_in:
            spans.resumed(sid, t0, copied_tokens=copied)
        for p in chunks + steps:
            spans.activity(p.seq_id,
                           "spec_decode" if p.path == "spec" else p.phase,
                           t0, t1)
        for sid, _, mode in e.preempted:
            spans.preempted(sid, t0, mode)
        for f in e.finished:
            spans.finished(f.seq_id, t1, output_tokens=f.tokens,
                           preemptions=f.preemptions)
            self.slo.on_finish(f.seq_id, f.ttft, f.tpot, t1, index)
            for name, help, value in (
                    ("ttft_seconds", "time to first token", f.ttft),
                    ("tpot_seconds", "time per output token", f.tpot),
                    ("e2e_seconds", "request latency", f.e2e_s)):
                if value is not None:
                    observe(name, help, value)
            count("requests_finished_total", "completed requests",
                  kind=self._arrivals[f.seq_id].kind)
        self.slo.on_iteration(index, t1, committed=sum(units.values()),
                              preemptions=len(e.preempted),
                              queue_depth=queue)

        # ---- VM kernel events, re-based onto the engine clock
        for vm, (base, events) in enumerate(
                e.kernels if replica is None else ()):
            for k in events:
                if k.kind in ("alloc", "free"):
                    continue
                args = {key: v for key, v in k.args.items()
                        if isinstance(v, (int, float, str, bool))}
                if k.prov:
                    args["provenance"] = render_provenance(k.prov)
                self.kernel_events.append({
                    "name": k.name, "cat": k.kind, "ph": "X",
                    "pid": PID_KERNELS, "tid": vm,
                    "ts": to_s(e.t_begin + k.ts_as - base) * us,
                    "dur": k.dur_s * us, "args": args,
                })

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
            for i, vm_name in enumerate(self.start.vm_names):
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
                "window_s": self.window_s,
                "capture_kernels": self.start.capture_kernels,
                "prefix": self.registry.prefix,
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
