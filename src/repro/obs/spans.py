"""Request-lifecycle spans for the serving engine.

:mod:`repro.obs.trace` answers "what did the *device* do" — one event
per kernel on the VM clock.  This module answers "what happened to each
*request*": a :class:`SpanRecorder` builds nested spans over the
engine's discrete-event clock —

* ``queued`` — arrival → admission (scheduler backlog);
* ``request`` — admission → finish (the root span; survives
  preemption, so wall-clock-under-management is one slice);
* phase segments — ``prefill`` / ``decode`` / ``spec_decode`` /
  ``encode`` / ``cross_project`` / ``denoise`` activity windows nested
  inside the root span (contiguous same-phase iterations merge into
  one segment);
* ``preempted[swap]`` / ``preempted[recompute]`` — eviction →
  resume/readmission, nested inside the root span.

Because every timestamp is the engine's analytical clock, the spans
line up exactly with the per-iteration slices the engine already emits
and — when kernel capture is on — with the VM's per-op
:class:`~repro.obs.trace.TraceEvent` stream re-based onto the same
clock.  One Perfetto file then shows scheduler decisions stacked above
the kernels they caused.

Export is Chrome trace-event JSON: complete (``"X"``) slices whose
nesting Perfetto infers from containment, which
:func:`repro.obs.report.validate_chrome_trace` checks structurally and
``tests/obs`` checks semantically (children lie inside parents).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple


@dataclass
class Span:
    """One closed interval of a request's life on the engine clock."""

    name: str
    req_id: int
    start_s: float
    end_s: float
    #: Nesting depth: 0 = root (``request``), 1 = phase/preemption
    #: segments.  ``queued`` sits at depth 0 before the root span.
    depth: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class SpanRecorder:
    """Builds request-lifecycle spans from engine scheduling decisions.

    The telemetry fold drives it with one call per logged scheduler
    event; the recorder owns all segment bookkeeping (open phase
    windows, open preemption windows, the root span).
    Determinism: spans are appended in engine-iteration order, which is
    itself deterministic, so two same-seed runs produce byte-identical
    span lists.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: req_id -> (admit_ts, root args) for requests whose root span
        #: is still open.
        self._open_root: Dict[int, Tuple[float, Dict[str, Any]]] = {}
        #: req_id -> [phase label, start, latest activity end] of the
        #: open activity segment.
        self._open_phase: Dict[int, List[Any]] = {}
        #: req_id -> (mode, start) open preemption window.
        self._open_preempt: Dict[int, Tuple[str, float]] = {}

    # -- lifecycle events --------------------------------------------------------

    def admitted(self, req_id: int, arrival_s: float, t: float,
                 **args: Any) -> None:
        """Request entered the running set at ``t``.

        First admission opens the ``queued`` and root spans; a
        *re*-admission after recompute preemption just closes the
        preemption window (the root span never closed).
        """
        if req_id in self._open_root:
            self._close_preempt(req_id, t)
            return
        if t > arrival_s:
            self.spans.append(Span("queued", req_id, arrival_s, t))
        self._open_root[req_id] = (t, dict(args))

    def resumed(self, req_id: int, t: float, **args: Any) -> None:
        """Swapped-out request restored to the device at ``t``."""
        self._close_preempt(req_id, t, **args)

    def activity(self, req_id: int, phase: str, t0: float,
                 t1: float) -> None:
        """The request did ``phase`` work over ``[t0, t1]`` — contiguous
        or gapped same-phase windows merge into one segment."""
        open_seg = self._open_phase.get(req_id)
        if open_seg is not None and open_seg[0] == phase:
            open_seg[2] = t1
            return
        self._close_phase(req_id, t0)
        self._open_phase[req_id] = [phase, t0, t1]

    def preempted(self, req_id: int, t: float, mode: str) -> None:
        self._close_phase(req_id, t)
        self._open_preempt[req_id] = (mode, t)

    def finished(self, req_id: int, t: float, **args: Any) -> None:
        self._close_phase(req_id, t)
        self._close_preempt(req_id, t)
        root = self._open_root.pop(req_id, None)
        if root is not None:
            admit_ts, root_args = root
            root_args.update(args)
            self.spans.append(
                Span("request", req_id, admit_ts, t, depth=0,
                     args=root_args))

    def finalize(self, t: float) -> None:
        """Close every dangling span at the end-of-run clock."""
        for req_id in sorted(self._open_phase):
            self._close_phase(req_id, t)
        for req_id in sorted(self._open_preempt):
            self._close_preempt(req_id, t)
        for req_id in sorted(self._open_root):
            self.finished(req_id, t, unfinished=True)

    # -- internals ---------------------------------------------------------------

    def _close_phase(self, req_id: int, t: float) -> None:
        seg = self._open_phase.pop(req_id, None)
        if seg is None:
            return
        phase, start, end = seg
        end = min(max(end, start), max(t, start))
        self.spans.append(Span(phase, req_id, start, end, depth=1))

    def _close_preempt(self, req_id: int, t: float, **args: Any) -> None:
        win = self._open_preempt.pop(req_id, None)
        if win is None:
            return
        mode, start = win
        self.spans.append(
            Span(f"preempted[{mode}]", req_id, start, t, depth=1,
                 args=dict(args)))

    # -- export ------------------------------------------------------------------

    def chrome_events(self, pid: int = 1) -> List[Dict[str, Any]]:
        """Complete-slice trace events, one track per request.

        Emitted root-first per request so Perfetto's containment-based
        nesting resolves deterministically; zero-duration segments get an
        epsilon-free 0 ``dur`` (valid per the spec).
        """
        us = 1e6
        ordered = sorted(
            self.spans,
            key=lambda s: (s.req_id, s.depth, s.start_s, s.name),
        )
        out: List[Dict[str, Any]] = []
        for span in ordered:
            out.append({
                "name": span.name,
                "cat": "lifecycle",
                "ph": "X",
                "pid": pid,
                "tid": span.req_id,
                "ts": span.start_s * us,
                "dur": span.dur_s * us,
                "args": span.args,
            })
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.spans]
