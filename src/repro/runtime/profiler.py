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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass
class ExecutionStats:
    """Accumulated over one or more VM invocations."""

    time_s: float = 0.0
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
    kernel_time_s: float = 0.0
    launch_overhead_s: float = 0.0
    #: Interconnect time charged by collective builtins (``ccl.*``); part
    #: of ``time_s``, broken out so benches can split compute vs comm.
    comm_time_s: float = 0.0

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
        return ExecutionStats(
            time_s=self.time_s - since.time_s,
            kernel_launches=self.kernel_launches - since.kernel_launches,
            lib_calls=self.lib_calls - since.lib_calls,
            builtin_calls=self.builtin_calls - since.builtin_calls,
            graph_captures=self.graph_captures - since.graph_captures,
            graph_replays=self.graph_replays - since.graph_replays,
            replayed_kernels=self.replayed_kernels - since.replayed_kernels,
            allocations=self.allocations - since.allocations,
            allocated_bytes_total=(
                self.allocated_bytes_total - since.allocated_bytes_total
            ),
            escaping_bytes_total=(
                self.escaping_bytes_total - since.escaping_bytes_total
            ),
            current_bytes=self.current_bytes - since.current_bytes,
            peak_bytes=self.peak_bytes,
            kernel_time_s=self.kernel_time_s - since.kernel_time_s,
            launch_overhead_s=self.launch_overhead_s - since.launch_overhead_s,
            comm_time_s=self.comm_time_s - since.comm_time_s,
        )

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
        return cls(
            time_s=max(s.time_s for s in parts),
            kernel_launches=sum(s.kernel_launches for s in parts),
            lib_calls=sum(s.lib_calls for s in parts),
            builtin_calls=sum(s.builtin_calls for s in parts),
            graph_captures=sum(s.graph_captures for s in parts),
            graph_replays=sum(s.graph_replays for s in parts),
            replayed_kernels=sum(s.replayed_kernels for s in parts),
            allocations=sum(s.allocations for s in parts),
            allocated_bytes_total=sum(
                s.allocated_bytes_total for s in parts
            ),
            escaping_bytes_total=sum(s.escaping_bytes_total for s in parts),
            current_bytes=sum(s.current_bytes for s in parts),
            peak_bytes=max(s.peak_bytes for s in parts),
            kernel_time_s=max(s.kernel_time_s for s in parts),
            launch_overhead_s=max(s.launch_overhead_s for s in parts),
            comm_time_s=max(s.comm_time_s for s in parts),
        )

    def merge(self, other: "ExecutionStats") -> None:
        self.time_s += other.time_s
        self.kernel_launches += other.kernel_launches
        self.lib_calls += other.lib_calls
        self.builtin_calls += other.builtin_calls
        self.graph_captures += other.graph_captures
        self.graph_replays += other.graph_replays
        self.replayed_kernels += other.replayed_kernels
        self.allocations += other.allocations
        self.allocated_bytes_total += other.allocated_bytes_total
        self.escaping_bytes_total += other.escaping_bytes_total
        self.current_bytes += other.current_bytes
        self.peak_bytes = max(self.peak_bytes, other.peak_bytes)
        self.kernel_time_s += other.kernel_time_s
        self.launch_overhead_s += other.launch_overhead_s
        self.comm_time_s += other.comm_time_s

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
