"""Multi-device analytical runtime: an SPMD mesh on one lockstep clock.

A :class:`MeshExecutor` runs one SPMD executable (the sharding passes
emit one program; only weights and KV pools differ per rank) on a mesh
of ``world`` identical devices.  Every VM it owns carries a
:class:`MeshContext` and the shared :class:`Interconnect` the ``ccl.*``
builtins charge: every rank charges the same modeled ring time, which is
how a barrier behaves — nobody leaves before the slowest hop.

**Abstract mode** (serving, benchmarks; also a concrete world of 1) is
*one* VM.  Values never exist, an abstract collective does not read the
rank, and every rank is handed the same shapes, so every rank's stats
are the same numbers; :meth:`ExecutionStats.merge_parallel` takes the
max of each float field and the sum (``peak_bytes``: the max) of each
integer field, so merging that one VM's stats once per rank is exactly
what ``world`` separately interpreted shards merge to.

**Concrete mode** (correctness tests, the only mode that computes
values) runs one VM per rank on real threads synchronized by a
barrier-based :class:`CollectiveChannel`; the combine order is fixed
(rank 0..N−1) so results are deterministic to the last bit, and after
every run each rank's clock advances to the max over ranks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..runtime.profiler import ExecutionStats
from ..runtime.vm import PlanCacheInfo, VirtualMachine, VMError, _describe
from .interconnect import Interconnect

#: How long a rank waits at a collective for its peers before giving up.
_TIMEOUT_S = 60.0


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
    peers fail fast instead of deadlocking; ``reset`` re-arms it.
    """

    def __init__(self, world: int):
        if world < 2:
            raise ValueError("a collective channel needs world >= 2")
        self.world = world
        self._barrier = threading.Barrier(world)
        self._contrib: List[Any] = [None] * world

    def exchange(self, rank: int, value) -> List[Any]:
        self._contrib[rank] = value
        try:
            self._barrier.wait(_TIMEOUT_S)
            chunks = list(self._contrib)
            self._barrier.wait(_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise VMError("collective aborted: a peer shard failed")
        return chunks

    def abort(self) -> None:
        self._barrier.abort()

    def reset(self) -> None:
        self._barrier.reset()


class MeshExecutor:
    """One SPMD executable on a mesh of ``world`` devices, one clock."""

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
        #: One VM per rank when a channel exists; otherwise a single VM
        #: that stands for every rank (``len(vms) == 1``, not ``world``).
        self.vms: List[VirtualMachine] = []
        for rank in range(world if self.channel is not None else 1):
            vm = VirtualMachine(
                executable, device, concrete=concrete,
                enable_cuda_graph=enable_cuda_graph,
            )
            vm.mesh = MeshContext(rank, world, self.channel)
            vm.interconnect = interconnect if world > 1 else None
            self.vms.append(vm)

    @property
    def _rank_vms(self) -> List[VirtualMachine]:
        """The VM that accounts for each rank (rank order)."""
        return self.vms * (self.world // len(self.vms))

    # -- execution ---------------------------------------------------------------

    def run(self, func_name: str, shard_args: Sequence[Sequence]) -> List:
        """One lockstep iteration: run ``func_name`` on every rank with
        its own argument list; returns per-rank results (rank order)."""
        if len(shard_args) != self.world:
            raise ValueError(
                f"expected {self.world} per-shard argument lists, "
                f"got {len(shard_args)}"
            )
        if self.channel is not None:
            outs = self._run_threaded(func_name, shard_args)
            self._sync_clock()
            return outs
        # One VM stands for every rank, which holds only if every rank
        # was handed the same shapes.
        first = shard_args[0]
        if any(args is not first for args in shard_args):
            shapes = [_describe(args) for args in shard_args]
            if None in shapes or shapes.count(shapes[0]) != self.world:
                raise ValueError(
                    f"{func_name}: an abstract mesh needs the same shapes "
                    f"on every rank")
        return [self.vms[0].run(func_name, *first)] * self.world

    def _run_threaded(self, func_name: str, shard_args) -> List:
        results: List = [None] * self.world
        errors: List[Optional[BaseException]] = [None] * self.world
        # A run that failed left the barrier aborted.
        self.channel.reset()

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
        """Lockstep barrier: every rank's clock advances to the max."""
        t = max(vm.stats.time_s for vm in self.vms)
        for vm in self.vms:
            vm.stats.time_s = t

    # -- statistics --------------------------------------------------------------

    @property
    def shard_stats(self) -> List[ExecutionStats]:
        """The live per-rank stats objects (rank order); on an abstract
        mesh the one VM's stats object, once per rank."""
        return [vm.stats for vm in self._rank_vms]

    @property
    def stats(self) -> ExecutionStats:
        """Cluster view on the lockstep clock, combined by
        :meth:`ExecutionStats.merge_parallel` (wall-time max, counter
        sum, per-device ``peak_bytes``; shared with the serving cluster's
        fleet aggregation).  Returns a fresh snapshot; window metering
        works exactly as with a single VM (``stats.copy()`` /
        ``stats.delta()``)."""
        return ExecutionStats.merge_parallel(self.shard_stats)

    # -- tracing -----------------------------------------------------------------

    @property
    def tracer(self):
        """Rank 0's recorder: the representative stream."""
        return self.vms[0].tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.vms[0].tracer = value
        for vm in self.vms[1:]:
            vm.tracer = None if value is None else type(value)()

    def merged_events(self) -> List[Tuple[int, Any]]:
        """Provenance-preserving merged trace: ``(rank, event)`` pairs
        from every rank's recorder, ordered by timestamp then rank."""
        merged: List[Tuple[int, Any]] = []
        for rank, vm in enumerate(self._rank_vms):
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
        """Replay-plan counters summed over the mesh's VMs."""
        return PlanCacheInfo(*map(sum, zip(
            *(vm.plan_cache_info() for vm in self.mesh.vms))))

    @property
    def tracer(self):
        return self.mesh.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.mesh.tracer = value
