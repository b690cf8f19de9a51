"""Execution statistics and memory accounting.

The VM reports through these classes exactly the quantities the paper's
evaluation measures: simulated wall time (Figs. 14–20), kernel/graph
launch counts (Fig. 17's CUDA Graph ablation), and allocated activation
memory (Table 2).

Two allocation modes mirror §5.2's memory study:

* **planned** — storages come from `AllocStorage` instructions emitted by
  static memory planning; each is allocated once, up front;
* **pooled** — without planning, tensors allocate through a
  :class:`RuntimePool` that recycles *exact-size* free blocks, so every
  new dynamic shape triggers a fresh allocation (the unpredictable growth
  the paper describes).

Simulated time is an integer count of attoseconds (:data:`AS_PER_S` per
second).  Every charge is rounded once, by :func:`to_as`, where it is
priced; from there on clocks only add, subtract and take maxima of
integers, so a sum never depends on the order of its terms.  Reports
convert back with :func:`to_s`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

#: Attoseconds per second: the unit of every simulated clock.
AS_PER_S = 10**18


def to_as(seconds: float) -> int:
    """``seconds`` as integer attoseconds, rounded to the nearest: the one
    conversion into the simulated clock."""
    return round(seconds * AS_PER_S)


def to_s(attoseconds: int) -> float:
    """Integer attoseconds as float seconds (for reports)."""
    return attoseconds / AS_PER_S


@dataclass
class ExecutionStats:
    """Accumulated over one or more VM invocations.  Times are integer
    attoseconds (``*_as``); the ``*_s`` properties read them in seconds."""

    time_as: int = 0
    kernel_launches: int = 0
    lib_calls: int = 0
    builtin_calls: int = 0
    graph_captures: int = 0
    graph_replays: int = 0
    replayed_kernels: int = 0
    allocations: int = 0
    allocated_bytes_total: int = 0
    escaping_bytes_total: int = 0
    current_bytes: int = 0
    peak_bytes: int = 0
    kernel_time_as: int = 0
    launch_overhead_as: int = 0
    #: Interconnect time charged by collective builtins (``ccl.*``); part
    #: of ``time_as``, broken out so benches can split compute vs comm.
    comm_time_as: int = 0

    @property
    def time_s(self) -> float:
        return to_s(self.time_as)

    @property
    def kernel_time_s(self) -> float:
        return to_s(self.kernel_time_as)

    @property
    def launch_overhead_s(self) -> float:
        return to_s(self.launch_overhead_as)

    @property
    def comm_time_s(self) -> float:
        return to_s(self.comm_time_as)

    def record_alloc(self, size: int, escaping: bool = False) -> None:
        self.allocations += 1
        self.allocated_bytes_total += size
        if escaping:
            self.escaping_bytes_total += size
        self.current_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    @property
    def transient_bytes_total(self) -> int:
        """Allocated bytes excluding escaping results (KV caches, logits)
        — the paper's Table 2 'activation memory' quantity."""
        return self.allocated_bytes_total - self.escaping_bytes_total

    def record_free(self, size: int) -> None:
        self.current_bytes -= size

    def copy(self) -> "ExecutionStats":
        """Immutable snapshot of the current counters.

        The supported way to meter a *window* of execution on a shared VM:
        take ``before = vm.stats.copy()`` at the window start and
        ``vm.stats.delta(before)`` at the end.  Unlike
        ``VirtualMachine.reset_stats()`` this never touches the runtime
        pool, so allocator recycling behaves exactly as in an unmetered
        run and per-window deltas sum to the end-to-end totals.
        """
        return replace(self)

    def delta(self, since: "ExecutionStats") -> "ExecutionStats":
        """Counters accrued after ``since`` (a prior :meth:`copy`).

        Additive fields subtract; ``peak_bytes`` is a high-water mark, not
        a rate, so the delta carries the absolute peak observed so far
        (merging deltas therefore reproduces the end-to-end peak).
        """
        out = ExecutionStats(**{
            name: getattr(self, name) - getattr(since, name)
            for name in _FIELDS})
        out.peak_bytes = self.peak_bytes
        return out

    @classmethod
    def merge_serial(cls, parts: "list[ExecutionStats]") -> "ExecutionStats":
        """Combine stats of work that ran *back-to-back on one clock*
        (e.g. the serving engine's per-model-family VMs within one
        iteration): every time field and counter sums, while
        ``peak_bytes`` — a high-water mark across distinct pools, not a
        rate — takes the max.  A single part is returned as-is (callers
        treat the result as read-only)."""
        if len(parts) == 1:
            return parts[0]
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    @classmethod
    def merge_parallel(cls, parts: "list[ExecutionStats]") -> "ExecutionStats":
        """Combine stats of work that ran *concurrently in lockstep*
        (e.g. SPMD mesh shards, data-parallel replicas on a shared
        clock): wall-time fields take the max over parts — nobody leaves
        the barrier before the slowest — event counters and byte totals
        sum, and ``peak_bytes`` stays the per-device high-water mark
        (each part has its own VRAM), the same conventions a multi-GPU
        profiler uses.  Returns a fresh snapshot."""
        if not parts:
            raise ValueError("merge_parallel needs at least one part")
        out = cls(**{name: sum(getattr(s, name) for s in parts)
                     for name in _FIELDS})
        for name in _WALL_FIELDS:
            setattr(out, name, max(getattr(s, name) for s in parts))
        return out

    def merge(self, other: "ExecutionStats") -> None:
        peak = max(self.peak_bytes, other.peak_bytes)
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.peak_bytes = peak

    def summary(self) -> Dict[str, float]:
        return {
            "time_s": self.time_s,
            "kernel_launches": self.kernel_launches,
            "lib_calls": self.lib_calls,
            "builtin_calls": self.builtin_calls,
            "kernel_time_s": self.kernel_time_s,
            "launch_overhead_s": self.launch_overhead_s,
            "graph_captures": self.graph_captures,
            "graph_replays": self.graph_replays,
            "allocations": self.allocations,
            "allocated_MiB": self.allocated_bytes_total / (1 << 20),
            "peak_MiB": self.peak_bytes / (1 << 20),
            "comm_time_s": self.comm_time_s,
        }


_FIELDS = tuple(f.name for f in fields(ExecutionStats))
#: Fields :meth:`ExecutionStats.merge_parallel` takes the max of.
_WALL_FIELDS = ("time_as", "kernel_time_as", "launch_overhead_as",
                "comm_time_as", "peak_bytes")


class RuntimePool:
    """Exact-size-recycling allocator (the no-planning baseline of §5.2)."""

    def __init__(self, stats: ExecutionStats):
        self.stats = stats
        self._free: Dict[int, int] = {}  # size -> free block count

    def allocate(self, size: int, escaping: bool = False) -> bool:
        """Returns True when a recycled block was used (no new allocation)."""
        if self._free.get(size, 0) > 0:
            self._free[size] -= 1
            self.stats.current_bytes += size
            self.stats.peak_bytes = max(self.stats.peak_bytes, self.stats.current_bytes)
            return True
        self.stats.record_alloc(size, escaping)
        return False

    def release(self, size: int) -> None:
        self._free[size] = self._free.get(size, 0) + 1
        self.stats.record_free(size)
