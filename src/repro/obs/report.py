"""Per-op reports, memory timelines, and Chrome trace / Perfetto export.

The consumers of :mod:`repro.obs.trace` events:

* :class:`OpTable` — the VirtualMachineProfiler-style aggregate: time,
  calls, flops/bytes and % of total per kernel (or per source-op chain);
* :class:`MemoryTimeline` — live-byte curve over the simulated clock,
  attributing ``peak_bytes`` to the storages alive at the peak and the
  graph-level ops that allocated them;
* :func:`chrome_trace` / :func:`export_chrome_trace` — the Chrome
  trace-event JSON form (loads in ``chrome://tracing`` and Perfetto),
  with a memory counter track alongside the kernel slices;
* :class:`VirtualMachineProfiler` — a VM subclass with the recorder
  attached and one-call access to all of the above.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .provenance import render
from .stats import extended_dist
from .trace import TraceEvent, TraceRecorder

#: Event kinds that represent device compute (the rows of an OpTable).
COMPUTE_KINDS = ("kernel", "library", "builtin")


def duration_summary(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Nearest-rank duration distribution of the compute events in a
    trace (count/sum/mean/min/max/p50/p90/p99) — the same shared
    implementation (:mod:`repro.obs.stats`) the serving metrics and the
    telemetry registry use, so kernel-level and request-level percentiles
    are directly comparable."""
    return extended_dist(
        [e.dur_s for e in events if e.kind in COMPUTE_KINDS]
    )


# -- per-op aggregate table ------------------------------------------------------


class OpTable:
    """Aggregate per-op statistics over a trace.

    ``by="name"`` groups by kernel/library symbol; ``by="op"`` groups by
    the rendered provenance chain, so a fused kernel shows up as the ops
    it descends from (``"add@lv+relu@lv1"``).  Non-compute time (graph
    capture/replay, allocator overhead) is aggregated per kind under
    bracketed names so percentages always total 100.
    """

    def __init__(self, rows: List[Dict[str, Any]], total_time_s: float):
        self.rows = rows
        self.total_time_s = total_time_s

    @classmethod
    def from_events(cls, events: Sequence[TraceEvent], by: str = "name") -> "OpTable":
        if by not in ("name", "op"):
            raise ValueError(f"unknown grouping {by!r}; use 'name' or 'op'")
        total = sum(e.dur_s for e in events)
        groups: Dict[str, Dict[str, Any]] = {}
        for event in events:
            if event.kind in COMPUTE_KINDS:
                key = render(event.prov) or event.name if by == "op" else event.name
                prov = render(event.prov)
            else:
                key = f"[{event.kind}]"
                prov = ""  # aggregated overhead: no single originating op
            row = groups.get(key)
            if row is None:
                row = groups[key] = {
                    "name": key,
                    "kind": event.kind,
                    "calls": 0,
                    "time_s": 0.0,
                    "flops": 0,
                    "bytes": 0,
                    "provenance": prov,
                }
            row["calls"] += 1
            row["time_s"] += event.dur_s
            row["flops"] += int(event.args.get("flops", 0))
            row["bytes"] += int(event.args.get("bytes", 0))
        rows = sorted(groups.values(), key=lambda r: -r["time_s"])
        for row in rows:
            row["pct"] = 100.0 * row["time_s"] / total if total else 0.0
        return cls(rows, total)

    def to_dict(self) -> Dict[str, Any]:
        return {"total_time_s": self.total_time_s, "rows": self.rows}

    def render(self, max_rows: Optional[int] = None) -> str:
        """Aligned text table, hottest first."""
        header = ("op", "calls", "time_ms", "%", "GFLOP", "MiB", "from")
        body = []
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        for row in rows:
            body.append((
                row["name"],
                str(row["calls"]),
                f"{row['time_s'] * 1e3:.4f}",
                f"{row['pct']:.1f}",
                f"{row['flops'] / 1e9:.3f}",
                f"{row['bytes'] / (1 << 20):.2f}",
                row["provenance"],
            ))
        widths = [
            max(len(header[c]), *(len(r[c]) for r in body)) if body else len(header[c])
            for c in range(len(header))
        ]
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... {len(self.rows) - max_rows} more rows")
        lines.append(f"total: {self.total_time_s * 1e3:.4f} ms")
        return "\n".join(lines)


# -- memory timeline -------------------------------------------------------------


class MemoryTimeline:
    """Live device bytes over the simulated clock, from alloc/free events.

    Pool recycling follows the VM's accounting: a reused block counts as
    live again (its release subtracted it), so the curve matches
    ``ExecutionStats.current_bytes`` / ``peak_bytes`` evolution during
    the traced run.
    """

    def __init__(self, points, peak_bytes, peak_ts_s, live_at_peak):
        #: (ts_s, live_bytes) after every alloc/free event.
        self.points: List = points
        self.peak_bytes: int = peak_bytes
        self.peak_ts_s: float = peak_ts_s
        #: Allocations live at the peak: (size, provenance chain).
        self.live_at_peak: List = live_at_peak

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "MemoryTimeline":
        live: List = []  # (size, prov), insertion order
        current = 0
        points: List = []
        peak = 0
        peak_ts = 0.0
        live_at_peak: List = []
        for event in events:
            if event.kind == "alloc":
                size = int(event.args.get("size", 0))
                current += size
                live.append((size, event.prov))
                if current > peak:
                    peak = current
                    peak_ts = event.ts_s
                    live_at_peak = list(live)
            elif event.kind == "free":
                size = int(event.args.get("size", 0))
                current -= size
                # Retire the latest matching live entry (prefer same origin).
                idx = None
                for i in range(len(live) - 1, -1, -1):
                    if live[i][0] == size and live[i][1] == event.prov:
                        idx = i
                        break
                if idx is None:
                    for i in range(len(live) - 1, -1, -1):
                        if live[i][0] == size:
                            idx = i
                            break
                if idx is not None:
                    live.pop(idx)
            else:
                continue
            points.append((event.ts_s, current))
        return cls(points, peak, peak_ts, live_at_peak)

    def peak_by_op(self) -> Dict[str, int]:
        """peak_bytes attributed to originating op chains (desc by bytes)."""
        by_op: Dict[str, int] = {}
        for size, prov in self.live_at_peak:
            key = render(prov) or "<untracked>"
            by_op[key] = by_op.get(key, 0) + size
        return dict(sorted(by_op.items(), key=lambda kv: -kv[1]))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "peak_bytes": self.peak_bytes,
            "peak_ts_s": self.peak_ts_s,
            "points": [[ts, b] for ts, b in self.points],
            "live_at_peak": [
                {"size": size, "prov": list(prov)} for size, prov in self.live_at_peak
            ],
        }

    def render(self, max_rows: int = 10) -> str:
        lines = [
            f"peak {self.peak_bytes / (1 << 20):.2f} MiB "
            f"at t={self.peak_ts_s * 1e3:.4f} ms "
            f"({len(self.live_at_peak)} live allocations)"
        ]
        for key, nbytes in list(self.peak_by_op().items())[:max_rows]:
            lines.append(f"  {nbytes / (1 << 20):8.2f} MiB  {key}")
        return "\n".join(lines)


# -- Chrome trace-event / Perfetto export ----------------------------------------


def chrome_trace(events: Sequence[TraceEvent],
                 process_name: str = "repro-vm") -> Dict[str, Any]:
    """Chrome trace-event JSON object format (Perfetto-compatible).

    Timed events become complete (``"ph": "X"``) slices on one thread
    track; frees become instants; a ``device memory`` counter track
    carries the live-byte curve.  Timestamps are microseconds, per the
    format spec.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    current = 0
    for event in events:
        ts_us = event.ts_s * 1e6
        args = dict(event.args)
        if event.prov:
            args["provenance"] = render(event.prov)
        if event.kind == "free":
            trace_events.append({
                "name": event.name,
                "cat": event.kind,
                "ph": "i",
                "s": "t",
                "ts": ts_us,
                "pid": 0,
                "tid": 0,
                "args": args,
            })
        else:
            trace_events.append({
                "name": event.name,
                "cat": event.kind,
                "ph": "X",
                "ts": ts_us,
                "dur": event.dur_s * 1e6,
                "pid": 0,
                "tid": 0,
                "args": args,
            })
        if event.kind in ("alloc", "free"):
            size = int(event.args.get("size", 0))
            current += size if event.kind == "alloc" else -size
            trace_events.append({
                "name": "device memory",
                "cat": "memory",
                "ph": "C",
                "ts": ts_us,
                "pid": 0,
                "tid": 0,
                "args": {"bytes": current},
            })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Check ``trace`` against the Chrome trace-event object format.

    Raises ``ValueError`` on the first violation; returns the trace so it
    can be chained into ``json.dump``.
    """
    if not isinstance(trace, dict) or not isinstance(trace.get("traceEvents"), list):
        raise ValueError("trace must be an object with a 'traceEvents' array")
    for i, event in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        ph = event.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "C", "M", "b", "e", "n", "s", "t", "f"):
            raise ValueError(f"{where}: unknown phase {ph!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where}: missing string 'name'")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"{where}: missing numeric 'ts'")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                raise ValueError(f"{where}: '{key}' must be an integer")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: complete event needs 'dur' >= 0")
        if ph in ("i", "I") and event.get("s") not in (None, "g", "p", "t"):
            raise ValueError(f"{where}: instant scope must be g/p/t")
        if ph == "C" and not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: counter event needs an 'args' object")
        if "args" in event:
            try:
                json.dumps(event["args"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{where}: args not JSON-serializable: {exc}")
    return trace


def write_chrome_trace(trace: Dict[str, Any], path: str) -> Dict[str, Any]:
    """Validate ``trace`` and write it to ``path``; returns the trace.
    Every Chrome-trace file this package writes goes through here."""
    validate_chrome_trace(trace)
    with open(path, "w") as f:
        json.dump(trace, f)
    return trace


def export_chrome_trace(events: Sequence[TraceEvent], path: str,
                        process_name: str = "repro-vm") -> Dict[str, Any]:
    """Validate and write the Chrome trace JSON for ``events`` to ``path``."""
    return write_chrome_trace(chrome_trace(events, process_name), path)


# -- the profiler VM --------------------------------------------------------------


from ..runtime.vm import Executable, VirtualMachine  # noqa: E402  (after helpers)


class VirtualMachineProfiler(VirtualMachine):
    """A VirtualMachine with the trace recorder attached.

    Mirrors TVM's profiler VM: run functions normally, then pull per-op
    tables, the memory timeline, or the exported Chrome trace.  The
    simulated results are identical to the plain VM — tracing only reads
    the clock.
    """

    def __init__(self, executable: Executable, device, *,
                 capture_outputs: bool = False, **kwargs):
        super().__init__(executable, device, **kwargs)
        self.tracer = TraceRecorder(capture_outputs=capture_outputs)

    @property
    def events(self) -> List[TraceEvent]:
        return self.tracer.events

    def op_table(self, by: str = "name") -> OpTable:
        return OpTable.from_events(self.events, by=by)

    def memory_timeline(self) -> MemoryTimeline:
        return MemoryTimeline.from_events(self.events)

    def chrome_trace(self) -> Dict[str, Any]:
        return chrome_trace(self.events)

    def export_chrome_trace(self, path: str) -> Dict[str, Any]:
        return export_chrome_trace(self.events, path)

    def report(self, by: str = "name") -> Dict[str, Any]:
        """Everything at once, JSON-ready (what the CLI serializes)."""
        return {
            "stats": self.stats.summary(),
            "op_table": self.op_table(by=by).to_dict(),
            "kernel_dur_s": duration_summary(self.events),
            "memory": self.memory_timeline().to_dict(),
            "events": [e.to_dict() for e in self.events],
        }

    def reset(self) -> None:
        """Clear both the stats and the recorded events."""
        self.reset_stats()
        self.tracer.clear()
