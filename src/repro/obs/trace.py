"""Structured runtime traces on the simulated device-model clock.

The VM owns at most one :class:`TraceRecorder` (``vm.tracer``); when it is
``None`` — the default — tracing costs a single attribute check per
instruction and the simulated results are bit-identical to an untraced
run.  When attached, every time-advancing site in the interpreter emits
one :class:`TraceEvent`:

=================  ==========================================================
kind               emitted for
=================  ==========================================================
``kernel``         a TensorIR kernel launch (``CallTir``)
``library``        a library offload (``CallLib``)
``builtin``        a time-charging VM builtin (``unique``, ``nonzero``)
``alloc``          a storage allocation (``AllocStorage`` or a pooled
                   ``AllocTensor`` miss)
``free``           a storage death (``KillTensor`` releasing pool bytes);
                   carries no duration
``graph_capture``  recording a CUDA-graph region (charged capture overhead)
``graph_replay``   replaying a captured region (graph launch overhead; the
                   per-kernel costs inside are separate events)
=================  ==========================================================

Durations are attributed exactly: the sum of ``dur_as`` over all events of
a trace equals the ``ExecutionStats.time_as`` accumulated while recording
(each ``stats.time_as`` increment in the VM maps to exactly one event), as
integer attoseconds, so the equality is exact.  Timestamps are the
simulated clock *before* the event's cost is charged.

Kernel/library events carry the provenance chain stamped on the
instruction, the concrete argument shapes, the symbolic shape bindings in
effect (``{"n": 7}``), and the roofline vs. launch-overhead split from the
device model — everything the report layer (per-op tables, memory
timeline, Chrome trace export) and the fuzz localizer consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class TraceEvent:
    """One attributed slice of simulated time (or an instant, for frees)."""

    kind: str
    name: str
    #: Simulated clock when the event began (attoseconds).
    ts_as: int
    #: Simulated duration charged by this event (attoseconds; 0 for
    #: instants).
    dur_as: int
    #: Source-op provenance chain of the originating instruction.
    prov: Tuple[str, ...] = ()
    #: Kind-specific payload: shapes, symbolic bindings, flops/bytes,
    #: roofline/launch split, storage sizes and lifetimes, ...
    args: Dict[str, Any] = field(default_factory=dict)
    #: NumPy copies of kernel outputs (only when ``capture_outputs``);
    #: kept out of ``args`` so exports stay JSON-serializable.
    outputs: Optional[list] = None

    # The runtime is imported lazily: core loads this module through
    # ``repro.obs`` before the runtime (see the package docstring).

    @property
    def ts_s(self) -> float:
        from ..runtime.profiler import to_s
        return to_s(self.ts_as)

    @property
    def dur_s(self) -> float:
        from ..runtime.profiler import to_s
        return to_s(self.dur_as)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (outputs intentionally omitted)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "ts_s": self.ts_s,
            "dur_s": self.dur_s,
            "prov": list(self.prov),
            "args": self.args,
        }


class TraceRecorder:
    """Collects :class:`TraceEvent` objects from a tracing VM run.

    Attach with ``vm.tracer = TraceRecorder()`` (or
    ``VirtualMachineProfiler``, which wires it up for you), run, then hand
    ``recorder.events`` to the report layer.

    ``capture_outputs=True`` additionally stores NumPy copies of every
    kernel/library output on the event — the fuzz oracle uses this to
    localize divergences to the first differing op.  It is memory-hungry;
    leave it off for profiling.
    """

    def __init__(self, capture_outputs: bool = False):
        self.capture_outputs = capture_outputs
        self.events: List[TraceEvent] = []

    def emit(
        self,
        kind: str,
        name: str,
        ts_as: int,
        dur_as: int,
        prov: Tuple[str, ...] = (),
        outputs: Optional[list] = None,
        **args: Any,
    ) -> TraceEvent:
        event = TraceEvent(kind, name, ts_as, dur_as, prov, args, outputs)
        self.events.append(event)
        return event

    # -- convenience views ------------------------------------------------------

    def total_time_as(self) -> int:
        """Sum of all event durations (equals the traced ``time_as``
        delta exactly)."""
        return sum(event.dur_as for event in self.events)

    def kernel_events(self) -> List[TraceEvent]:
        """Just the compute events (kernel + library + builtin)."""
        return [e for e in self.events if e.kind in ("kernel", "library", "builtin")]

    def clear(self) -> None:
        self.events.clear()
