"""One event log per serving run; every report is a fold over it.

The engine observes a run in one way only: it appends typed events to
``run.log`` — a :class:`RunStart` with the run's static facts, an
:class:`Arrival` per submitted request, an :class:`IterationEvent` per
executed iteration and a :class:`Teardown` with the pool audit.
Iteration records, Perfetto events, summary samples and telemetry
(:class:`~repro.serve.telemetry.EngineTelemetry`) are functions of that
list.  A fleet log (:func:`merge`) interleaves the replicas' logs on the
cluster clock, each event :class:`Tagged` with its replica, plus the
router's :class:`Route` decisions, so fleet reports are the same folds.
Everything in a log is simulated: same seed, same log.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from ..runtime.profiler import ExecutionStats, to_s


class RunStart(NamedTuple):
    """First event of every engine log: what the folds need to know."""

    num_blocks: int
    page_size: int
    max_num_seqs: int
    max_num_batched_tokens: int
    slo_ttft_s: float
    slo_tpot_s: float
    #: Model-table names, in VM order (telemetry labels tracks with them).
    vm_names: Tuple[str, ...]
    prefix_cache: bool
    #: VM tracers were attached: iteration events carry kernel events.
    capture_kernels: bool
    t: int = 0


class Arrival(NamedTuple):
    """A request submitted to the run (``t`` is its arrival time)."""

    t: int
    req_id: int
    kind: str
    prompt_len: int
    output_len: int


class Route(NamedTuple):
    """The cluster router sent ``req_id`` to ``replica`` at ``t``."""

    t: int
    req_id: int
    replica: int


class Teardown(NamedTuple):
    """The run ended at ``t``; ``refcount_audit`` is the pool's audit."""

    t: int
    refcount_audit: Dict[str, Any]


class Participation(NamedTuple):
    """One request's work in an iteration.

    ``path`` is ``"decode"`` / ``"spec"`` / ``"step"`` for a stepped item
    (``past`` is its context before the step, ``units`` the output units
    it committed) and ``"prefill"`` (a batched-decode program's prompt)
    or ``"chunk"`` for a chunked item (``past`` / ``units`` in the phase's
    units).  ``first``: this prefill chunk committed the first token.
    """

    seq_id: int
    path: str
    phase: str
    past: int
    units: int
    spec_k: Optional[int] = None
    accepted: int = 0
    first: bool = False


class Finish(NamedTuple):
    """A request completed in this iteration (its final latencies)."""

    seq_id: int
    ttft: Optional[float]
    tpot: Optional[float]
    e2e_s: Optional[float]
    tokens: int
    preemptions: int


class Gauges(NamedTuple):
    """Scheduler and KV-pool state at the iteration's end."""

    waiting: int = 0
    swapped: int = 0
    running: int = 0
    used: int = 0
    free: int = 0
    reclaimable: int = 0
    #: ``PagedKVCache.fragmentation()``.
    fragmentation: float = 0.0
    unevictable: int = 0


class Counters(NamedTuple):
    """Allocator, copy-on-write and prefix-cache counter deltas since the
    previous iteration event (the first one counts from zero)."""

    allocated: int = 0
    freed: int = 0
    ref_drops: int = 0
    shares: int = 0
    cow_copies: int = 0
    lookups: int = 0
    hits: int = 0
    requested_tokens: int = 0
    matched_tokens: int = 0
    inserts: int = 0
    evictions: int = 0


class IterationEvent(NamedTuple):
    """Everything one executed scheduler iteration did and left behind."""

    t_begin: int
    t_end: int
    swap_as: int = 0
    #: Per-VM ``ExecutionStats`` deltas, in VM order.
    vm_deltas: Tuple[ExecutionStats, ...] = ()
    #: Stepped items, then chunked items, in scheduling order.
    participations: Tuple[Participation, ...] = ()
    admitted: Tuple[int, ...] = ()
    #: ``(seq_id, tokens copied back)``.
    swapped_in: Tuple[Tuple[int, int], ...] = ()
    #: ``(seq_id, private tokens swapped out, mode)``.
    preempted: Tuple[Tuple[int, int, str], ...] = ()
    #: ``(seq_id, cached prompt tokens)``.
    cache_hits: Tuple[Tuple[int, int], ...] = ()
    finished: Tuple[Finish, ...] = ()
    batched_tokens: int = 0
    gauges: Gauges = Gauges()
    counters: Counters = Counters()
    #: ``(vm index, ((comm_time_as, time_as, current_bytes) per rank))``
    #: for every tensor-parallel VM: cumulative per-shard stats.
    shards: Tuple[Tuple[int, Tuple[Tuple[int, int, int], ...]], ...] = ()
    #: With kernel capture: ``(VM clock at iteration start, its trace
    #: events)`` per VM.
    kernels: Tuple[Tuple[int, Tuple[Any, ...]], ...] = ()

    @property
    def t(self) -> int:
        return self.t_begin

    @property
    def stats(self) -> ExecutionStats:
        """The iteration's device time and counters (VMs ran serially)."""
        return ExecutionStats.merge_serial(list(self.vm_deltas))


class Tagged(NamedTuple):
    """A replica's event inside a fleet log."""

    replica: int
    event: Any


def untag(log: Iterable[Any]) -> Iterator[Tuple[Optional[int], Any]]:
    """``(replica, event)`` for every event; ``replica`` is ``None``
    outside a fleet log."""
    for item in log:
        if type(item) is Tagged:
            yield item
        else:
            yield None, item


def of_type(log: Iterable[Any],
            kind: type) -> List[Tuple[Optional[int], Any]]:
    return [(r, e) for r, e in untag(log) if type(e) is kind]


def merge(routes: Sequence[Route], logs: Sequence[Sequence[Any]]) -> List[Any]:
    """The fleet log: routing decisions and every replica's events, stably
    ordered by event time (ties: routes, then replica order)."""
    items = list(routes) + [
        Tagged(i, e) for i, log in enumerate(logs) for e in log]
    return sorted(items, key=lambda x: x.event.t if type(x) is Tagged else x.t)


def total_counters(log: Iterable[Any]) -> Counters:
    """Every iteration's counter deltas, summed (over replicas too)."""
    return Counters(*map(sum, zip(
        Counters(), *(e.counters for _, e in of_type(log, IterationEvent)))))


def to_dicts(log: Iterable[Any]) -> List[Dict[str, Any]]:
    """JSON form of a log: one ``{"event": type, field: value, ...}`` per
    event (plus ``"replica"`` in a fleet log)."""
    def plain(x):
        if isinstance(x, tuple) and hasattr(x, "_fields"):
            return {k: plain(v) for k, v in zip(x._fields, x)}
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if dataclasses.is_dataclass(x):
            return plain(dataclasses.asdict(x))
        if isinstance(x, dict):
            return {str(k): plain(v) for k, v in x.items()}
        return x

    out = []
    for replica, e in untag(log):
        out.append({"event": type(e).__name__, **plain(e)})
        if replica is not None:
            out[-1]["replica"] = replica
    return out


# -- engine folds -------------------------------------------------------------


def iteration_records(log: Iterable[Any]) -> List[Dict[str, Any]]:
    """One summary row per iteration event (``ServeReport.iterations``)."""
    out: List[Dict[str, Any]] = []
    for _, e in of_type(log, IterationEvent):
        parts, g = e.participations, e.gauges
        paths = [p.path for p in parts]
        out.append({
            "index": len(out),
            "start_s": to_s(e.t_begin),
            "dur_s": to_s(e.t_end - e.t_begin),
            "decode_batch": paths.count("decode"),
            "prefill_tokens": sum(
                p.units for p in parts if p.path == "prefill"),
            "num_batched_tokens": e.batched_tokens,
            "preemptions": len(e.preempted),
            "swap_s": to_s(e.swap_as),
            "kernel_launches": e.stats.kernel_launches,
            "free_blocks": g.free,
            "reclaimable_blocks": g.reclaimable,
            "cache_hits": len(e.cache_hits),
            "cached_tokens": sum(n for _, n in e.cache_hits),
            "queue_depth": g.waiting + g.swapped,
            "steps": paths.count("step"),
            "chunk_tokens": sum(p.units for p in parts if p.path == "chunk"),
            "spec_batch": paths.count("spec"),
            "spec_proposed": sum(p.spec_k or 0 for p in parts),
            "spec_accepted": sum(p.accepted for p in parts),
        })
    return out


def trace_events(log: Iterable[Any]) -> List[Dict[str, Any]]:
    """Perfetto events: an engine track (pid 0: one slice per iteration
    plus a KV-usage counter) and one track per request (pid 1: a slice
    per iteration it took part in, instants for preemptions and prefix
    cache hits)."""
    us = 1e6
    events: List[Dict[str, Any]] = []
    generated: Dict[int, int] = {}
    for rec, (_, e) in zip(iteration_records(log),
                           of_type(log, IterationEvent)):
        ts, dur = rec["start_s"] * us, rec["dur_s"] * us
        events.append({
            "name": f"iteration[{rec['index']}]", "ph": "X", "pid": 0,
            "tid": 0, "ts": ts, "dur": dur,
            "args": {k: rec[k] for k in (
                "decode_batch", "prefill_tokens", "preemptions")}})
        events.append({"name": "kv_used_blocks", "ph": "C", "pid": 0,
                       "tid": 0, "ts": to_s(e.t_end) * us,
                       "args": {"used": e.gauges.used}})
        for p in e.participations:
            chunked = p.path in ("prefill", "chunk")
            # Output units produced so far, this iteration's included.
            n = generated[p.seq_id] = generated.get(p.seq_id, 0) + (
                p.first if chunked else p.units)
            if chunked:
                name, args = p.phase, {"past": p.past, "chunk": p.units}
            elif p.path == "spec":
                name, args = "spec_decode", {"ctx": p.past,
                                             "proposed": p.spec_k,
                                             "accepted": p.accepted}
            elif p.path == "decode":
                name, args = "decode", {"token": n + 1}
            else:
                name, args = p.phase, {"step": n + 1, "ctx": p.past}
            events.append({"name": name, "ph": "X", "pid": 1,
                           "tid": p.seq_id, "ts": ts, "dur": dur,
                           "args": args})
        for sid, name, args in (
                [(sid, f"preempt[{mode}]", {"tokens": n})
                 for sid, n, mode in e.preempted]
                + [(sid, "prefix_cache_hit", {"cached_tokens": n})
                   for sid, n in e.cache_hits]):
            events.append({"name": name, "ph": "i", "pid": 1, "tid": sid,
                           "ts": ts, "s": "t", "args": args})
    return events
