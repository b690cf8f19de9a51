"""Data-parallel serving: a router over replicated engines.

The "millions of users" layer: N independent continuous-batching
engines (each optionally tensor-parallel, ``engine.tp`` VMs in lockstep) serve
one arrival stream behind a router.  The :class:`ClusterEngine` owns
the *shared* analytical timeline the way :class:`~repro.dist.MeshExecutor`
owns the mesh clock — generalized to replicas with **independent**
clocks: every scheduling decision steps the lagging replica first, and
an arrival is only routed once no busy replica's clock is behind it, so
routing state (queue depths, free blocks, prefix-cache contents) is
causally consistent with the arrival time.  The whole simulation stays
deterministic: same workload + same seed → identical per-replica
assignment, identical per-replica reports.

Routing policies are pluggable (:data:`ROUTING_POLICIES`):

* ``round_robin`` — arrival order modulo ``dp``; the baseline.
* ``least_loaded`` — fewest in-flight requests, ties broken toward the
  replica with the most free+reclaimable KV blocks, then lowest index.
* ``prefix_affinity`` — radix-match the prompt against each replica's
  live prefix cache (read-only probe) and route to the longest match,
  so one replica accumulates each prompt family's prefix blocks instead
  of every replica recomputing them; falls back to least-loaded when
  nothing matches.

A dp=1 cluster degenerates to the plain engine: the single replica's
:class:`~repro.serve.engine.ServeReport` equals a direct
``ServingEngine.run()`` on the same (arrival-ordered) trace.  The fleet
summary is schema 2 (:data:`~repro.serve.metrics.SCHEMA_VERSION`): one
key set whatever the replicas ran, ``None`` where a section is inactive.

The fleet's record is a merge: the replicas' event logs interleaved on
the cluster clock, tagged with the replica index, plus one
:class:`~repro.serve.log.Route` per routing decision.  Routing counts,
fleet prefix-cache sums, the fleet SLO monitor and fleet telemetry are
folds over it (:mod:`repro.serve.log`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

from ..models.llama import LlamaConfig
from ..runtime.device import Device
from ..runtime.profiler import ExecutionStats, to_as
from .engine import EngineConfig, ServeReport, ServingEngine
from .log import Route, RunStart, merge, of_type, total_counters
from .metrics import summarize
from .prefix_cache import PrefixCacheStats
from .slo import fleet_slo
from .telemetry import EngineTelemetry
from .workload import Request, WorkloadConfig, generate


# -- routing policies ------------------------------------------------------------


class ReplicaView:
    """What a routing policy may observe about one replica at decision
    time: queue/load feedback and a read-only prefix-cache probe.
    Policies never mutate engine state through this."""

    def __init__(self, index: int, engine: ServingEngine):
        self.index = index
        self.engine = engine

    @property
    def in_flight(self) -> int:
        """Routed-but-unfinished requests on this replica (submitted
        pending + queued + running)."""
        run = self.engine.active_run
        if run is None:
            return 0
        sched = run.sched
        return len(run.pending) + sched.queue_depth + sched.num_running

    @property
    def free_blocks(self) -> int:
        """KV blocks obtainable without preemption (free pool plus
        cache-only reclaimable blocks)."""
        run = self.engine.active_run
        if run is None:
            return self.engine.num_blocks
        return run.kv.num_free_blocks + run.kv.num_reclaimable_blocks

    def prefix_match_tokens(self, prompt_tokens) -> int:
        """Longest full-page prefix of ``prompt_tokens`` cached on this
        replica (0 without a cache, token ids, or any match)."""
        run = self.engine.active_run
        if run is None or run.cache is None or not prompt_tokens:
            return 0
        _, matched = run.cache.match(prompt_tokens)
        return matched


class RoutingPolicy:
    """Base: pick a replica index for each arrival, in arrival order."""

    name = "base"

    def choose(self, request: Request, views: Sequence[ReplicaView]) -> int:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Arrival order modulo dp — load-oblivious baseline."""

    name = "round_robin"

    def __init__(self):
        self._next = 0

    def choose(self, request: Request, views: Sequence[ReplicaView]) -> int:
        idx = self._next % len(views)
        self._next += 1
        return idx


def _least_loaded_index(views: Sequence[ReplicaView]) -> int:
    # Fewest in-flight; ties prefer the roomiest KV pool, then the
    # lowest index (total order → deterministic routing).
    return min(
        views, key=lambda v: (v.in_flight, -v.free_blocks, v.index)
    ).index


class LeastLoadedPolicy(RoutingPolicy):
    """Queue-depth + free-block feedback."""

    name = "least_loaded"

    def choose(self, request: Request, views: Sequence[ReplicaView]) -> int:
        return _least_loaded_index(views)


class PrefixAffinityPolicy(RoutingPolicy):
    """Route to the replica whose prefix cache holds the longest match
    for this prompt; fall back to least-loaded when nothing matches."""

    name = "prefix_affinity"

    def choose(self, request: Request, views: Sequence[ReplicaView]) -> int:
        tokens = request.prompt_tokens
        matches = [(v.prefix_match_tokens(tokens), v) for v in views]
        best = max(m for m, _ in matches)
        if best > 0:
            return _least_loaded_index(
                [v for m, v in matches if m == best]
            )
        return _least_loaded_index(views)


ROUTING_POLICIES: Dict[str, Type[RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
    PrefixAffinityPolicy.name: PrefixAffinityPolicy,
}


def make_policy(name: str) -> RoutingPolicy:
    try:
        cls = ROUTING_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown routing policy {name!r}; "
            f"choose from {sorted(ROUTING_POLICIES)}"
        ) from None
    return cls()


# -- configuration ---------------------------------------------------------------


@dataclass
class ClusterConfig:
    """A dp×tp serving cluster: ``dp`` engine replicas, each
    ``engine.tp``-way tensor-parallel, behind one router."""

    dp: int = 1
    policy: str = "round_robin"
    #: Per-replica engine configuration, shared by every replica.
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self):
        if self.dp < 1:
            raise ValueError(f"dp must be >= 1, got {self.dp}")
        if self.policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.policy!r}; "
                f"choose from {sorted(ROUTING_POLICIES)}"
            )


# -- the cluster -----------------------------------------------------------------


class ClusterEngine:
    """N replica engines on one shared analytical timeline.

    The event loop interleaves two event kinds in causal order — route
    the next arrival, or step the lagging busy replica — choosing
    *routing* only once every busy replica's clock has reached the
    arrival time.  That is the :class:`~repro.dist.MeshExecutor`
    lockstep discipline generalized to independent clocks: nothing is
    ever decided from a replica state that is still in this arrival's
    past, and no replica executes ahead with knowledge of arrivals from
    its future.
    """

    def __init__(
        self,
        cfg: LlamaConfig,
        device: Device,
        cluster_config: Optional[ClusterConfig] = None,
        **engine_kwargs: Any,
    ):
        self.cfg = cfg
        self.device = device
        self.cconfig = cluster_config or ClusterConfig()
        # The compile cache keys on (config, device, flags): replica 0
        # compiles, replicas 1..N-1 reuse the executable.
        self.engines: List[ServingEngine] = [
            ServingEngine(cfg, device, self.cconfig.engine, **engine_kwargs)
            for _ in range(self.cconfig.dp)
        ]
        self.policy = make_policy(self.cconfig.policy)
        self._views = [
            ReplicaView(i, e) for i, e in enumerate(self.engines)
        ]

    @property
    def dp(self) -> int:
        return self.cconfig.dp

    def run(self, requests: Sequence[Request]) -> "ClusterReport":
        """Serve the trace across the fleet; returns the merged report.
        Like ``ServingEngine.run``, always starts fresh: whatever an
        earlier (failed) run left on a replica is dropped first."""
        engines = self.engines
        for e in engines:
            e.reset()
        try:
            routes = self._route_and_drain(requests)
        except BaseException:
            for e in engines:
                e.reset()
            raise
        reports = []
        for e in engines:
            if e.active_run is None:
                # A replica the policy never picked still reports (an
                # empty run): fleet aggregation sees every replica.
                e.submit([])
            reports.append(e.report())
        return ClusterReport.build(
            device=self.device.name,
            model=self.cfg.name,
            policy=self.policy.name,
            replica_reports=reports,
            routes=routes,
        )

    def _route_and_drain(self, requests: Sequence[Request]) -> List[Route]:
        """The event loop; returns the routing decisions in order."""
        unrouted = sorted(((to_as(r.arrival_s), r) for r in requests),
                          key=lambda a: (a[0], a[1].req_id))
        routes: List[Route] = []
        engines = self.engines
        while unrouted or any(e.has_work for e in engines):
            busy = [i for i, e in enumerate(engines) if e.has_work]
            t_floor = min(engines[i].clock for i in busy) if busy else None
            if unrouted and (t_floor is None or unrouted[0][0] <= t_floor):
                # Every busy replica has reached this arrival's time:
                # the router may observe their state and commit.
                t, r = unrouted.pop(0)
                idx = self.policy.choose(r, self._views)
                if not 0 <= idx < len(engines):
                    raise ValueError(
                        f"policy {self.policy.name!r} routed request "
                        f"{r.req_id} to replica {idx} of {len(engines)}"
                    )
                engines[idx].submit([r])
                routes.append(Route(t, r.req_id, idx))
                continue
            # Advance the lagging replica (lowest clock, ties by index).
            idx = min(busy, key=lambda i: (engines[i].clock, i))
            engines[idx].step()
        return routes


def _load_balance_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy of the assignment distribution, normalized to
    [0, 1] by ``log(dp)`` — 1.0 is a perfectly even split.  A dp=1
    cluster is vacuously balanced (defined as 1.0)."""
    import math

    if len(counts) <= 1:
        return 1.0
    total = sum(counts)
    if total == 0:
        return 1.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log(p)
    return h / math.log(len(counts))


@dataclass
class ClusterReport:
    """Fleet-level aggregation over the per-replica ServeReports."""

    device: str
    model: str
    dp: int
    policy: str
    summary: Dict[str, Any]
    replica_reports: List[ServeReport]
    #: The fleet log: replica logs merged on the cluster clock + routes.
    log: List[Any]

    @classmethod
    def build(
        cls,
        *,
        device: str,
        model: str,
        policy: str,
        replica_reports: List[ServeReport],
        routes: List[Route],
    ) -> "ClusterReport":
        dp = len(replica_reports)
        log = merge(routes, [rep.log for rep in replica_reports])
        start = of_type(log, RunStart)[0][1]  # every replica's is the same
        slo = dict(slo_ttft_s=start.slo_ttft_s, slo_tpot_s=start.slo_tpot_s)
        all_metrics = [m for rep in replica_reports for m in rep.requests]
        # Deterministic fleet order: by request id (each id lives on
        # exactly one replica).
        all_metrics.sort(key=lambda m: m.req_id)
        summary = summarize(all_metrics, **slo)
        # Replicas ran concurrently on independent clocks: fleet VM
        # stats follow the lockstep conventions (wall max, counter sum).
        summary["vm"] = ExecutionStats.merge_parallel(
            [rep.stats for rep in replica_reports]
        ).summary()
        counts = [0] * dp
        for _, route in of_type(log, Route):
            counts[route.replica] += 1
        summary["routing"] = {
            "policy": policy,
            "dp": dp,
            "assignments": counts,
            "load_balance_entropy": _load_balance_entropy(counts),
        }
        per_replica: List[Dict[str, Any]] = []
        for i, rep in enumerate(replica_reports):
            s = rep.summary
            cache = s["prefix_cache"]
            per_replica.append({
                "replica": i,
                "num_requests": s["num_requests"],
                "makespan_s": s["makespan_s"],
                "throughput_tokens_per_s": s["throughput_tokens_per_s"],
                "goodput_requests_per_s": s["goodput_requests_per_s"],
                "ttft_mean_s": s["ttft_s"]["mean"],
                "tpot_mean_s": s["tpot_s"]["mean"],
                "preemptions": s["preemptions"],
                "kv_peak_utilization": s["kv_pool"]["peak_utilization"],
                "prefix_cache_hit_rate": (
                    cache["hit_rate"] if cache is not None else None),
                "cached_token_fraction": (
                    cache["cached_token_fraction"]
                    if cache is not None else None),
            })
        summary["per_replica"] = per_replica
        summary["prefix_cache"] = None
        if start.prefix_cache:
            # Fleet cache effectiveness: counters sum across replicas,
            # rates recompute from the sums.
            c = total_counters(log)
            stats = PrefixCacheStats(
                lookups=c.lookups, hits=c.hits,
                requested_tokens=c.requested_tokens,
                matched_tokens=c.matched_tokens).to_dict()
            del stats["inserts"], stats["evictions"]
            summary["prefix_cache"] = stats
        summary["fleet_slo"] = fleet_slo(log, **slo)
        return cls(
            device=device,
            model=model,
            dp=dp,
            policy=policy,
            summary=summary,
            replica_reports=replica_reports,
            log=log,
        )

    @cached_property
    def assignments(self) -> List[Tuple[int, int]]:
        """``(req_id, replica)`` in routing (arrival) order."""
        return [(r.req_id, r.replica) for _, r in of_type(self.log, Route)]

    @cached_property
    def telemetry(self) -> Optional[EngineTelemetry]:
        """Fleet telemetry — the engine fold over the fleet log — when
        the replicas were telemetered, else ``None``."""
        tel = self.replica_reports[0].telemetry
        return None if tel is None else EngineTelemetry(self.log, tel.window_s)

    # -- export ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """Merged Perfetto timeline: one process group per replica.

        Each replica's trace keeps its internal pid layout (engine
        track, request tracks, telemetry extensions), shifted into a
        per-replica pid block and renamed ``replica{i} ...`` — all
        replicas share the one analytical timeline, so the merged view
        lines the fleet up on a common time axis.
        """
        stride = 16  # replica i owns pids [i*stride, (i+1)*stride)
        events: List[Dict[str, Any]] = []
        for i, rep in enumerate(self.replica_reports):
            for ev in rep.chrome_trace()["traceEvents"]:
                ev = dict(ev)
                ev["pid"] = i * stride + ev.get("pid", 0)
                if ev.get("ph") == "M" and ev.get("name") == "process_name":
                    args = dict(ev.get("args", {}))
                    args["name"] = f"replica{i} {args.get('name', '')}"
                    ev["args"] = args
                events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> Dict[str, Any]:
        from ..obs.report import write_chrome_trace

        return write_chrome_trace(self.chrome_trace(), path)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "model": self.model,
            "dp": self.dp,
            "policy": self.policy,
            "summary": self.summary,
            "assignments": [list(a) for a in self.assignments],
            "replicas": [rep.to_dict() for rep in self.replica_reports],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def serve_cluster(
    cfg: LlamaConfig,
    device: Device,
    workload: "WorkloadConfig | Sequence[Request]",
    cluster_config: Optional[ClusterConfig] = None,
    **engine_kwargs: Any,
) -> ClusterReport:
    """Run a workload through a fresh dp×tp cluster (the cluster-level
    twin of :func:`~repro.serve.engine.serve_workload`)."""
    cluster = ClusterEngine(cfg, device, cluster_config, **engine_kwargs)
    if isinstance(workload, WorkloadConfig):
        requests = generate(workload)
    else:
        requests = list(workload)
    return cluster.run(requests)
