"""Span tracer for the traced run of the benchmark suite.

Everything that times a layer lives in this file: no file under ``src/``
is edited.  :func:`install` wraps the public callables at each layer
boundary *where they are looked up at call time* — the class attribute
for methods, the calling module's global for functions — so the program
itself runs unchanged and the untraced run never imports this module.

A span is ``[name, start, end, parent, phase]`` (host ``perf_counter``
seconds; ``parent`` is an index into the span list, ``-1`` for a root).
Spans stay in memory; :meth:`Tracer.chrome_trace` renders them when the
workload ends.  Everything runs on one thread, so the children of a span
never overlap and a span's *self time* is its duration minus the sum of
its direct children's durations.
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import os
import pstats
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from names import PASS_NAMES, SHARE_BUCKETS, SHARE_PACKAGES


class Tracer:
    """In-memory span recorder (single thread)."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        #: Workload/phase id stamped on every span opened while it is set.
        self.phase = "setup"
        #: ``(span index, PipelineReport)`` per ``transform.build`` call.
        self.build_reports: List[Tuple[int, Any]] = []

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        stack = self._stack
        idx = len(self.spans)
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.phase]
        )
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        assert popped == idx, "spans must close in LIFO order"

    def span(self, name: str) -> "_SpanContext":
        """Context manager for the suite's own call sites."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[int, Any], None]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``on_result(span, result)`` runs
        after a successful call, outside the span.  open()/close() are
        inlined: this wrapper sits on calls made 100 k times a run."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                 self.phase]
            )
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(idx, result)
            return result

        return traced

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time per span: duration minus direct children's durations."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def by_name(self) -> Dict[str, "NameStats"]:
        """Calls, total and self seconds, and every duration, per name."""
        selfs = self.self_times()
        table: Dict[str, NameStats] = {}
        for (name, start, end, _, _), self_s in zip(self.spans, selfs):
            row = table.get(name)
            if row is None:
                row = table[name] = NameStats()
            row.calls += 1
            row.total_s += end - start
            row.self_s += self_s
            row.durations.append(end - start)
        return table

    def child_count(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        spans = self.spans
        return sum(
            1 for name, _, _, p, _ in spans
            if name == child and p >= 0 and spans[p][0] == parent
        )

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (one ``X`` event each)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": process_name}},
        ]
        for idx, (name, start, end, parent, phase) in enumerate(self.spans):
            events.append({
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": idx, "parent": parent, "phase": phase},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class NameStats:
    __slots__ = ("calls", "total_s", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_idx")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> int:
        self._idx = self._tracer.open(self._name)
        return self._idx

    def __exit__(self, *exc) -> None:
        self._tracer.close(self._idx)


# -- installation ------------------------------------------------------------------


def _public_methods(cls) -> Iterable[str]:
    """Names of the plain public methods ``cls`` itself defines."""
    for name, value in vars(cls).items():
        if not name.startswith("_") and inspect.isfunction(value):
            yield name


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the suite reports on (see module doc)."""
    import repro.bench.relax_runner as relax_runner
    import repro.models.llava as llava
    import repro.models.whisper as whisper
    import repro.serve.cluster as cluster
    import repro.serve.engine as engine
    import repro.transform as transform
    from repro.dist.mesh import MeshExecutor
    from repro.runtime.vm import VirtualMachine
    from repro.serve.kv_cache import PagedKVCache
    from repro.serve.prefix_cache import PrefixCache
    from repro.serve.scheduler import ContinuousBatchingScheduler

    def patch(owner, attr: str, name: str, on_result=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), on_result))

    # models: the runner classes import build_whisper/build_llava inside
    # __init__, i.e. from the defining module at call time; build_llama is
    # a module global of relax_runner.
    patch(relax_runner, "build_llama", "models.build_llama")
    patch(whisper, "build_whisper", "models.build_whisper")
    patch(llava, "build_llava", "models.build_llava")

    # transform: every caller (relax_runner, the fuzz oracle, this suite)
    # reaches build through the package attribute.
    def keep_report(idx: int, exe) -> None:
        tracer.build_reports.append(
            (idx, getattr(exe, "pipeline_report", None)))

    patch(transform, "build", "transform.build", keep_report)

    for cls in (transform.PropagateSharding, transform.LowerSharding):
        # Run by build_llama(tp>1) outside any build(); Pass.__call__ is
        # inherited, so the wrapper goes on the subclass.
        patch(cls, "__call__", f"transform.pass.{cls.name}")

    patch(VirtualMachine, "run", "runtime.vm.run")
    patch(MeshExecutor, "run", "dist.mesh.run")

    patch(engine.ServingEngine, "__init__", "serve.engine.init")
    for method in ("submit", "step", "report"):
        patch(engine.ServingEngine, method, f"serve.engine.{method}")
    for method in ("schedule", "finish"):
        patch(ContinuousBatchingScheduler, method, f"serve.scheduler.{method}")
    for method in _public_methods(PagedKVCache):
        patch(PagedKVCache, method, f"serve.kv_cache.{method}")
    for method in _public_methods(PrefixCache):
        patch(PrefixCache, method, f"serve.prefix_cache.{method}")
    patch(engine, "summarize", "serve.metrics.summarize")
    patch(cluster, "summarize", "serve.metrics.summarize")

    for policy in cluster.ROUTING_POLICIES.values():
        patch(policy, "choose", "serve.cluster.route")
    patch(cluster.ClusterEngine, "run", "serve.cluster.run")
    # A classmethod: wrap the underlying function, re-bind as classmethod.
    build = cluster.ClusterReport.__dict__["build"].__func__
    cluster.ClusterReport.build = classmethod(
        tracer.wrap("serve.cluster.report_build", build))


# -- cProfile shares ---------------------------------------------------------------


def _bucket(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    pos = path.rfind(marker)
    if pos >= 0:
        head = path[pos + len(marker):].split("/", 1)[0]
        return head if head in SHARE_PACKAGES else "other"
    if "/numpy/" in path:
        return "numpy"
    return "other"


def profile_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Self-time share per ``repro`` package (``host.share.*``).

    cProfile charges every call a fixed cost, so call-heavy packages read
    high; the span-based numbers are the ones to trust where both exist.
    """
    stats = pstats.Stats(profile)
    totals = {bucket: 0.0 for bucket in SHARE_BUCKETS}
    for (filename, _, funcname), (_, _, tottime, _, _) in stats.stats.items():
        if filename == "~" and "numpy" in funcname:
            totals["numpy"] += tottime  # C-level ufuncs and array methods
        else:
            totals[_bucket(filename)] += tottime
    whole = sum(totals.values())
    return {b: (t / whole if whole else 0.0) for b, t in totals.items()}


# -- per-layer metrics from spans --------------------------------------------------


def layer_metrics(tracer: Tracer, iterations: int) -> Dict[str, float]:
    """Host seconds, calls and percentiles per layer, from the spans.

    A layer no span touched reads 0.  ``iterations`` is the number of
    iteration records the serve engines kept (for ``empty_iters``).
    """
    from repro.serve import percentile  # nearest-rank, as every report here

    rows = tracer.by_name()
    empty = NameStats()

    def row(name: str) -> NameStats:
        return rows.get(name, empty)

    def layer(prefix: str) -> NameStats:
        out = NameStats()
        for name, r in rows.items():
            if name.startswith(prefix):
                out.calls += r.calls
                out.total_s += r.total_s
                out.self_s += r.self_s
        return out

    def pct(name: str, p: float, unit: float) -> float:
        durations = row(name).durations
        return percentile(durations, p) * unit if durations else 0.0

    m: Dict[str, float] = {}
    models = layer("models.")
    m["models.export_s"] = models.total_s
    m["models.export_calls"] = models.calls

    # Pass seconds come from the public PipelineReport.timings() of every
    # build that ran a Timing instrument; the rest of those builds'
    # duration is instrument and infrastructure overhead.
    pass_s = {name: 0.0 for name in PASS_NAMES}
    timed_build_s = 0.0
    for idx, report in tracer.build_reports:
        timings = report.timings() if report is not None else {}
        if timings:
            _, start, end, _, _ = tracer.spans[idx]
            timed_build_s += end - start
            for name, seconds in timings.items():
                pass_s[name] += seconds
    m["transform.build_s"] = row("transform.build").total_s
    m["transform.overhead_s"] = timed_build_s - sum(pass_s.values())
    for name in ("PropagateSharding", "LowerSharding"):
        # Run by build_llama(tp>1) outside any build; timed as spans.
        pass_s[name] += row(f"transform.pass.{name}").total_s
    for name, seconds in pass_s.items():
        m[f"transform.pass_s.{name}"] = seconds

    vm = row("runtime.vm.run")
    m["runtime.vm.run_s"] = vm.total_s
    m["runtime.vm.calls"] = vm.calls
    m["runtime.vm.us_per_call_p50"] = pct("runtime.vm.run", 50.0, 1e6)
    m["runtime.vm.us_per_call_p98"] = pct("runtime.vm.run", 98.0, 1e6)

    mesh = row("dist.mesh.run")
    m["dist.mesh.run_s"] = mesh.total_s
    m["dist.mesh.self_s"] = mesh.self_s
    m["dist.mesh.calls"] = mesh.calls
    m["dist.mesh.shard_calls"] = tracer.child_count(
        "runtime.vm.run", "dist.mesh.run")

    step = row("serve.engine.step")
    m["serve.engine.construct_s"] = row("serve.engine.init").total_s
    m["serve.engine.submit_s"] = row("serve.engine.submit").total_s
    m["serve.engine.step_s"] = step.total_s
    m["serve.engine.step_self_s"] = step.self_s
    m["serve.engine.steps"] = step.calls
    m["serve.engine.step_ms_p50"] = pct("serve.engine.step", 50.0, 1e3)
    m["serve.engine.step_ms_p98"] = pct("serve.engine.step", 98.0, 1e3)
    m["serve.engine.report_s"] = row("serve.engine.report").total_s

    schedule = row("serve.scheduler.schedule")
    m["serve.scheduler.schedule_s"] = schedule.total_s
    m["serve.scheduler.schedule_self_s"] = schedule.self_s
    m["serve.scheduler.calls"] = schedule.calls
    # Plans asked for that scheduled nothing (the step only moved the clock).
    m["serve.scheduler.empty_iters"] = max(schedule.calls - iterations, 0)

    kv = layer("serve.kv_cache.")
    m["serve.kv_cache.self_s"] = kv.self_s
    m["serve.kv_cache.calls"] = kv.calls
    m["serve.kv_cache.appends"] = row("serve.kv_cache.append").calls
    prefix = layer("serve.prefix_cache.")
    m["serve.prefix_cache.self_s"] = prefix.self_s
    m["serve.prefix_cache.calls"] = prefix.calls
    m["serve.metrics.summarize_s"] = row("serve.metrics.summarize").total_s
    m["serve.workload.generate_s"] = row("serve.workload.generate").total_s

    cluster = row("serve.cluster.run")
    route = row("serve.cluster.route")
    m["serve.cluster.run_s"] = cluster.total_s
    m["serve.cluster.self_s"] = cluster.self_s
    m["serve.cluster.route_s"] = route.total_s
    m["serve.cluster.report_build_s"] = row(
        "serve.cluster.report_build").total_s

    m["fuzz.generate_s"] = row("fuzz.generate").total_s
    m["fuzz.run_plan_s"] = row("fuzz.run_plan").total_s
    return m
