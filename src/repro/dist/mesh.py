"""Multi-device analytical runtime: N per-shard VMs in lockstep.

A :class:`MeshExecutor` owns one :class:`~repro.runtime.vm.VirtualMachine`
per shard, all interpreting the *same* SPMD executable (the sharding
passes emit one program; only weights and KV pools differ per rank).
Each VM carries a :class:`MeshContext` naming its rank, and the shared
:class:`~repro.dist.interconnect.Interconnect` that the ``ccl.*``
builtins charge.

**Clock discipline.**  Every :meth:`MeshExecutor.run` is a lockstep
iteration: all shards execute the function, then the executor applies
the synchronization barrier — every shard's clock advances to the max
over shards.  Collective costs are charged *inside* the run by the
builtins (every shard charges the same modeled ring time, which is how
a barrier behaves: nobody leaves the collective before the slowest
hop).  Under SPMD the per-shard costs are identical, so the barrier is
observably a no-op — but it is what makes the model honest when shards
diverge (e.g. rank-dependent workloads later).

**Modes.**  Abstract mode (serving, benchmarks) runs shards
sequentially — values never exist, so no rendezvous is needed and the
simulation stays single-threaded and cheap.  Concrete mode (correctness
tests) runs shards on real threads synchronized by a barrier-based
:class:`CollectiveChannel`; the combine order is fixed (rank 0..N−1) so
results are deterministic to the last bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..runtime.profiler import ExecutionStats
from ..runtime.vm import PlanCacheInfo, VirtualMachine, VMError
from .interconnect import Interconnect


@dataclass
class MeshContext:
    """Per-VM placement: which rank of which mesh this VM is."""

    rank: int
    world: int
    channel: Optional["CollectiveChannel"] = None


class CollectiveChannel:
    """Barrier-synchronized rendezvous for concrete collectives.

    ``exchange`` deposits this rank's contribution, waits for every
    peer, and returns the rank-ordered contribution list; each thread
    then computes the combined result independently (same inputs, same
    order — bitwise identical).  A second barrier keeps slot reuse safe
    for the next collective.  A failing shard aborts the barrier so
    peers fail fast instead of deadlocking.
    """

    def __init__(self, world: int, timeout_s: float = 60.0):
        if world < 2:
            raise ValueError("a collective channel needs world >= 2")
        self.world = world
        self._timeout = timeout_s
        self._barrier = threading.Barrier(world)
        self._contrib: List[Any] = [None] * world

    def exchange(self, rank: int, value) -> List[Any]:
        self._contrib[rank] = value
        try:
            self._barrier.wait(self._timeout)
            chunks = list(self._contrib)
            self._barrier.wait(self._timeout)
        except threading.BrokenBarrierError:
            raise VMError("collective aborted: a peer shard failed")
        return chunks

    def abort(self) -> None:
        self._barrier.abort()


class _MeshTracer:
    """Tracer facade over a mesh: single-VM consumers (engine telemetry)
    read the representative shard-0 stream; ``clear`` resets every
    shard so nothing accumulates unobserved."""

    capture_outputs = False

    def __init__(self, mesh: "MeshExecutor"):
        self._mesh = mesh

    @property
    def events(self):
        return self._mesh.vms[0].tracer.events

    def clear(self) -> None:
        for vm in self._mesh.vms:
            if vm.tracer is not None:
                vm.tracer.clear()


class MeshExecutor:
    """N per-shard VMs over one SPMD executable on a shared clock."""

    def __init__(
        self,
        executable,
        device,
        world: int,
        *,
        interconnect: Optional[Interconnect] = None,
        concrete: bool = False,
        enable_cuda_graph: bool = True,
    ):
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        self.world = world
        self.device = device
        self.concrete = concrete
        self.interconnect = interconnect
        self.channel = (
            CollectiveChannel(world) if (concrete and world > 1) else None
        )
        self.vms: List[VirtualMachine] = []
        for rank in range(world):
            vm = VirtualMachine(
                executable, device, concrete=concrete,
                enable_cuda_graph=enable_cuda_graph,
            )
            vm.mesh = MeshContext(rank, world, self.channel)
            vm.interconnect = interconnect if world > 1 else None
            self.vms.append(vm)
        # SPMD shards account identically — same executable, device,
        # interconnect and world, and an abstract collective does not read
        # the rank — so one replay-plan table serves them all: what rank 0
        # interprets, ranks 1..N-1 replay.
        for vm in self.vms[1:]:
            vm.replay_plans = self.vms[0].replay_plans

    # -- execution ---------------------------------------------------------------

    def run(self, func_name: str, shard_args: Sequence[Sequence]) -> List:
        """One lockstep iteration: run ``func_name`` on every shard with
        its own argument list; returns per-rank results (rank order)."""
        if len(shard_args) != self.world:
            raise ValueError(
                f"expected {self.world} per-shard argument lists, "
                f"got {len(shard_args)}"
            )
        if self.channel is None:
            # Sequential: abstract shards never rendezvous on values, and
            # a world-1 mesh is just a single VM.
            outs = [
                vm.run(func_name, *args)
                for vm, args in zip(self.vms, shard_args)
            ]
        else:
            outs = self._run_threaded(func_name, shard_args)
        self._sync_clock()
        return outs

    def _run_threaded(self, func_name: str, shard_args) -> List:
        results: List = [None] * self.world
        errors: List[Optional[BaseException]] = [None] * self.world

        def worker(rank: int) -> None:
            try:
                results[rank] = self.vms[rank].run(
                    func_name, *shard_args[rank]
                )
            except BaseException as exc:  # propagate to the caller thread
                errors[rank] = exc
                self.channel.abort()

        threads = [
            threading.Thread(target=worker, args=(rank,), daemon=True)
            for rank in range(self.world)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raised = [e for e in errors if e is not None]
        if raised:
            # Prefer the root cause over abort-induced collateral.
            primary = next(
                (e for e in raised if "collective aborted" not in str(e)),
                raised[0],
            )
            raise primary
        return results

    def _sync_clock(self) -> None:
        """Lockstep barrier: every shard's clock advances to the max."""
        t = max(vm.stats.time_s for vm in self.vms)
        for vm in self.vms:
            vm.stats.time_s = t

    # -- statistics --------------------------------------------------------------

    @property
    def shard_stats(self) -> List[ExecutionStats]:
        """The live per-shard stats objects (rank order)."""
        return [vm.stats for vm in self.vms]

    @property
    def stats(self) -> ExecutionStats:
        """Cluster view on the lockstep clock: wall-time fields take the
        max over shards, event counters and byte totals sum, and
        ``peak_bytes`` is the per-device high-water mark (each shard has
        its own VRAM) — the same conventions a multi-GPU profiler uses.
        Returns a fresh snapshot; window metering works exactly as with
        a single VM (``stats.copy()`` / ``stats.delta()``).  The combine
        semantics (wall-time max, counter sum) live in
        :meth:`ExecutionStats.merge_parallel`, shared with the serving
        cluster's fleet aggregation."""
        return ExecutionStats.merge_parallel(self.shard_stats)

    # -- tracing -----------------------------------------------------------------

    @property
    def tracer(self):
        return None if self.vms[0].tracer is None else _MeshTracer(self)

    @tracer.setter
    def tracer(self, value) -> None:
        if value is None:
            for vm in self.vms:
                vm.tracer = None
        elif isinstance(value, _MeshTracer):
            pass  # restoring the facade: per-shard recorders already live
        else:
            # One recorder per shard: rank 0 keeps the caller's object so
            # single-VM consumers see the representative stream.
            self.vms[0].tracer = value
            for vm in self.vms[1:]:
                vm.tracer = type(value)()

    def merged_events(self) -> List[Tuple[int, Any]]:
        """Provenance-preserving merged trace: ``(rank, event)`` pairs
        from every shard's recorder, ordered by timestamp then rank."""
        merged: List[Tuple[int, Any]] = []
        for rank, vm in enumerate(self.vms):
            if vm.tracer is not None:
                merged.extend((rank, e) for e in vm.tracer.events)
        merged.sort(key=lambda re: (re[1].ts_s, re[0]))
        return merged


class MeshVM:
    """:class:`~repro.runtime.vm.VirtualMachine`-shaped facade over a
    mesh, for SPMD serving.

    The serving engine meters everything through one ``vm`` object
    (``run`` / ``stats`` windows / ``tracer`` attach-detach).  Under
    tensor parallelism that object is a whole mesh: ``run`` issues the
    same (per-shard-shaped) abstract arguments to every rank and returns
    the rank-0 result, and ``stats`` reads as the merged lockstep
    snapshot, so scheduler, prefix cache, and spec decode run unchanged
    on top.
    """

    def __init__(self, mesh: MeshExecutor):
        self.mesh = mesh
        self.world = mesh.world
        self.device = mesh.device

    def run(self, func_name: str, *args):
        outs = self.mesh.run(func_name, [list(args)] * self.world)
        return outs[0]

    @property
    def stats(self) -> ExecutionStats:
        return self.mesh.stats

    @property
    def shard_stats(self) -> List[ExecutionStats]:
        return self.mesh.shard_stats

    def reset_stats(self, *, reset_pool: bool = True) -> ExecutionStats:
        before = self.mesh.stats
        for vm in self.mesh.vms:
            vm.reset_stats(reset_pool=reset_pool)
        return before

    def plan_cache_info(self) -> PlanCacheInfo:
        """Replay-plan counters summed over the shards; a table the
        shards share counts its plans once."""
        vms = self.mesh.vms
        hits, misses, _, interpreted = map(sum, zip(
            *(vm.plan_cache_info() for vm in vms)))
        tables = {id(vm.replay_plans): vm.replay_plans for vm in vms}
        return PlanCacheInfo(hits, misses, sum(map(len, tables.values())),
                             interpreted)

    @property
    def tracer(self):
        return self.mesh.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.mesh.tracer = value

    def check_no_leaks(self) -> None:
        """Per-shard pool audit: SPMD ranks must balance allocations
        identically — any asymmetry means a shard leaked (or double
        freed) relative to its peers."""
        residents = [vm.stats.current_bytes for vm in self.mesh.vms]
        if len(set(residents)) > 1:
            raise VMError(
                f"per-shard pools diverged: resident bytes {residents}"
            )
