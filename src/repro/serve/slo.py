"""SLO monitoring over the serving engine's analytical clock.

Production engines track *attainment* — the fraction of recent requests
meeting their latency objectives — and alarm on pathologies the summary
statistics average away: stalls (iterations that commit nothing while
work is pending), preemption storms (the pool thrashing sequences in
and out without forward progress), and per-request SLO violations.

Everything here is deterministic: the monitor consumes only engine
quantities (the discrete-event clock, iteration commit counts, request
metrics), so two same-seed runs produce byte-identical anomaly records
and attainment curves.  Sliding windows are *exact* — bounded deques
over the most recent N finished requests, percentiles via the shared
nearest-rank implementation (:mod:`repro.obs.stats`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from ..obs.stats import dist
from ..runtime.profiler import to_s
from .log import IterationEvent, of_type


#: Finished requests per sliding attainment window.
WINDOW_REQUESTS = 32
#: Consecutive scheduled iterations committing zero output units before
#: a ``stall`` anomaly is recorded (livelock detector: the engine can
#: spin planning/preempting without ever emitting).
STALL_ITERATIONS = 20
#: Preemptions within one attainment window that trigger a
#: ``preemption_storm`` anomaly when commits stay below preemptions
#: (thrash: the pool churns sequences faster than they progress).
STORM_PREEMPTIONS = 8


class SLOMonitor:
    """Sliding-window TTFT/TPOT attainment + anomaly detection.

    The telemetry fold drives it with :meth:`on_iteration` once per
    iteration event and :meth:`on_finish` once per finished request; read
    :attr:`anomalies` (structured records, engine-clock-stamped) and
    :meth:`snapshot` (JSON-ready state) at any point.
    """

    def __init__(self, *, slo_ttft_s: float, slo_tpot_s: float):
        self.slo_ttft_s = slo_ttft_s
        self.slo_tpot_s = slo_tpot_s
        w = WINDOW_REQUESTS
        #: (latency, within SLO) of the last ``w`` finished requests.
        self._ttft: Deque[Tuple[float, bool]] = deque(maxlen=w)
        self._tpot: Deque[Tuple[float, bool]] = deque(maxlen=w)
        #: Preemption counts and commits of the recent iterations.
        self._preempts: Deque[int] = deque(maxlen=w)
        self._commits: Deque[int] = deque(maxlen=w)
        self._zero_commit_streak = 0
        self._storm_open = False
        self.finished = 0
        self.violations = 0
        #: Structured anomaly records: ``{"kind", "t_s", "iteration",
        #: ...detail fields}``, in detection order.
        self.anomalies: List[Dict[str, Any]] = []

    # -- feed --------------------------------------------------------------------

    def on_iteration(self, index: int, t_s: float, *, committed: int,
                     preemptions: int, queue_depth: int) -> None:
        """One scheduled (non-empty) engine iteration."""
        self._commits.append(committed)
        if preemptions:
            self._preempts.append(preemptions)
        if committed == 0:
            self._zero_commit_streak += 1
            if self._zero_commit_streak == STALL_ITERATIONS:
                self.anomalies.append({
                    "kind": "stall",
                    "t_s": t_s,
                    "iteration": index,
                    "zero_commit_iterations": self._zero_commit_streak,
                    "queue_depth": queue_depth,
                })
        else:
            self._zero_commit_streak = 0
        window_preempts = sum(self._preempts)
        window_commits = sum(self._commits)
        storming = (window_preempts >= STORM_PREEMPTIONS
                    and window_preempts > window_commits)
        if storming and not self._storm_open:
            self._storm_open = True
            self.anomalies.append({
                "kind": "preemption_storm",
                "t_s": t_s,
                "iteration": index,
                "window_preemptions": window_preempts,
                "window_commits": window_commits,
            })
        elif not storming:
            self._storm_open = False

    def on_finish(self, req_id: int, ttft: Optional[float],
                  tpot: Optional[float], t_s: float, iteration: int) -> None:
        """One request completed at ``t_s``."""
        self.finished += 1
        ttft_ok = ttft is not None and ttft <= self.slo_ttft_s
        # A one-token request has no decode phase; it vacuously meets TPOT.
        tpot_ok = tpot is None or tpot <= self.slo_tpot_s
        if ttft is not None:
            self._ttft.append((ttft, ttft_ok))
        if tpot is not None:
            self._tpot.append((tpot, tpot_ok))
        if not (ttft_ok and tpot_ok):
            self.violations += 1
            self.anomalies.append({
                "kind": "slo_violation",
                "t_s": t_s,
                "iteration": iteration,
                "req_id": req_id,
                "ttft_s": ttft,
                "tpot_s": tpot,
                "ttft_ok": ttft_ok,
                "tpot_ok": tpot_ok,
            })

    # -- read --------------------------------------------------------------------

    @property
    def window_ttft_attainment(self) -> Optional[float]:
        return _attainment(self._ttft)

    @property
    def window_tpot_attainment(self) -> Optional[float]:
        return _attainment(self._tpot)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready monitor state (exact window contents summarised
        through the shared nearest-rank distribution helper)."""
        counts: Dict[str, int] = {}
        for record in self.anomalies:
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        return {
            "slo": {"ttft_s": self.slo_ttft_s, "tpot_s": self.slo_tpot_s},
            "window_requests": WINDOW_REQUESTS,
            "finished": self.finished,
            "violations": self.violations,
            "window_ttft_attainment": self.window_ttft_attainment,
            "window_tpot_attainment": self.window_tpot_attainment,
            "window_ttft_s": dist([v for v, _ in self._ttft]),
            "window_tpot_s": dist([v for v, _ in self._tpot]),
            "anomaly_counts": counts,
            "anomalies": list(self.anomalies),
        }


def _attainment(window: Deque[Tuple[float, bool]]) -> Optional[float]:
    """Fraction of the window within its SLO (``None`` when empty)."""
    if not window:
        return None
    return sum(1 for _, ok in window if ok) / len(window)


def fleet_slo(log: Iterable[Any], *, slo_ttft_s: float,
              slo_tpot_s: float) -> Dict[str, Any]:
    """Snapshot of a monitor fed every finish of a (fleet) log in
    ``(t, req_id)`` order — deterministic across routing policies."""
    monitor = SLOMonitor(slo_ttft_s=slo_ttft_s, slo_tpot_s=slo_tpot_s)
    finishes = sorted(
        ((to_s(e.t_end), f) for _, e in of_type(log, IterationEvent)
         for f in e.finished),
        key=lambda item: (item[0], item[1].seq_id))
    for i, (t, f) in enumerate(finishes):
        monitor.on_finish(f.seq_id, f.ttft, f.tpot, t, i)
    return monitor.snapshot()
