"""The serving engine: continuous batching on the compiled VM.

A seeded discrete-event simulation whose per-iteration costs come from
the *real* compiled artifact: every decode batch issues one
``decode_paged`` call and every prefill chunk one ``prefill`` call on a
``VirtualMachine`` in abstract mode, so the clock advances by whatever
the analytical device model meters for the actual instruction stream —
kernel launches, CUDA-graph capture/replay, allocator behaviour and all.
Host⇄device KV swaps (preemption recovery) are charged analytically
against the device's host-link bandwidth.

Iteration timing uses ``ExecutionStats.copy()``/``delta()`` snapshots —
never ``reset_stats()`` — so the shared VM's pool keeps recycling across
iterations exactly as an uninterrupted run would, and the sum of
per-iteration deltas equals the end-to-end totals.  The engine clock
is integer attoseconds like the VMs' (arrivals are converted once, at
submit), so an iteration lasts exactly its VM time plus its swap time.

Prefill chunks run through the ``prefill_paged`` entry: new K/V slices
are written straight into the shared page pool (no contiguous-cache
staging), and attention over the ``past`` tokens gathers through the
block table — the same data path the real paged kernels use, verified
bit-exact against the dense ``prefill`` entry in the model tests.

With prefix caching enabled (:class:`EngineConfig.enable_prefix_caching`,
the default) a :class:`~repro.serve.prefix_cache.PrefixCache` indexes
finished prompts' full pages; later prompts sharing a prefix attach
those blocks instead of recomputing them.  See
:mod:`repro.serve.kv_cache` for the shared-ownership model.

The engine observes a run in one way only: it appends events to the
run's log (:mod:`repro.serve.log`).  Iteration records, Perfetto events,
the summary's samples, swap time and speculation totals, and telemetry
are folds over it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..models.llama import LlamaConfig
from ..obs.trace import TraceRecorder
from ..runtime import NDArray, PlanCacheInfo, VirtualMachine
from ..runtime.device import Device
from ..runtime.profiler import ExecutionStats, to_as, to_s
from .kv_cache import CacheError, PagedKVCache
from .log import (
    Arrival,
    Counters,
    Finish,
    Gauges,
    IterationEvent,
    Participation,
    RunStart,
    Teardown,
    iteration_records,
    of_type,
    trace_events,
)
from .metrics import RequestMetrics, summarize
from .prefix_cache import PrefixCache, PrefixCacheStats
from .program import PROGRAMS, program_for
from .spec import SpecConfig, TokenOracle
from .telemetry import EngineTelemetry, TelemetryConfig
from .scheduler import (
    ContinuousBatchingScheduler,
    Iteration,
    Phase,
    RequestState,
    SchedulerConfig,
)
from .workload import Request, WorkloadConfig, generate


@dataclass(eq=False)
class _RunState:
    """Mutable state of one in-flight serving run.

    Everything :meth:`ServingEngine.run` used to keep in local variables
    lives here so the run can be driven incrementally — ``submit()`` /
    ``step()`` / ``drain()`` / ``report()`` — by an outer coordinator
    (the data-parallel :class:`~repro.serve.cluster.ClusterEngine`
    interleaves N of these the way ``MeshExecutor`` interleaves
    per-shard VMs).  Dropped wholesale by ``report()``; the engine's
    compiled VMs persist across runs.
    """

    kv: PagedKVCache
    cache: Optional[PrefixCache]
    sched: ContinuousBatchingScheduler
    oracle: TokenOracle
    #: The run's event log (:mod:`repro.serve.log`).
    log: List[Any]
    #: The VMs' own tracers while kernel capture has replaced them.
    saved_tracers: Optional[List[Any]]
    token_bytes: int
    stats_start: List[ExecutionStats]
    #: Acceptance-aware speculative-width controller state (windowed
    #: proposal/accept counters); inert unless ``spec.adaptive``.
    ctl_cap: int
    ctl_proposed: int = 0
    ctl_accepted: int = 0
    #: Cumulative allocator / COW / prefix-cache counters at the last
    #: iteration event (the next event logs the difference).
    counters: Counters = Counters()
    #: Submitted requests in submission order (report order).
    requests: List[Request] = field(default_factory=list)
    states: Dict[int, RequestState] = field(default_factory=dict)
    #: Submitted but not yet admitted: ``(arrival, req_id)``, sorted.
    pending: List[Tuple[int, int]] = field(default_factory=list)
    #: Simulated attoseconds.
    clock: int = 0


#: Cap on a KV pool sized from the device's VRAM.
_MAX_KV_BLOCKS = 4096
#: Fraction of post-weights VRAM granted to the KV pool.
_KV_MEMORY_FRACTION = 0.9
#: Host-link bandwidth for swap preemption (bytes/s).  PCIe 4.0 x16
#: ballpark; the analytical device model does not model the host link.
_HOST_LINK_BANDWIDTH = 16e9
#: Acceptance-rate band of the adaptive speculation controller
#: (``SpecConfig.adaptive``): below it the width shrinks, above it grows.
_ADAPT_LOW, _ADAPT_HIGH = 0.5, 0.8
#: Counter source of a run without prefix caching (all zeros).
_NO_CACHE = PrefixCacheStats()


@dataclass
class EngineConfig:
    page_size: int = 16
    #: KV blocks in the device pool; ``None`` sizes the pool from the
    #: device's VRAM minus weights, capped at 4096 blocks.
    num_blocks: Optional[int] = None
    #: Share prompt-prefix KV blocks across requests (radix prefix cache).
    enable_prefix_caching: bool = True
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    slo_ttft_s: float = 1.0
    slo_tpot_s: float = 0.1
    #: Speculative decoding (draft/verify); ``None`` — the default —
    #: decodes one token per step and reports ``spec_decode: null``.
    spec: Optional[SpecConfig] = None
    #: Serve-layer telemetry (:mod:`repro.serve.telemetry`): a config
    #: object folds the run's log into the metrics registry, lifecycle
    #: spans and the SLO monitor at report time; ``None`` — the default —
    #: reports ``telemetry: null``.
    telemetry: Optional[TelemetryConfig] = None
    #: Tensor-parallel width.  ``tp > 1`` builds the sharded module
    #: (Megatron column/row-parallel blocks, head-sharded KV pools) and
    #: serves it on a :class:`~repro.dist.MeshExecutor` of ``tp`` device
    #: models; ``tp=1`` — the default — serves the unsharded module.
    tp: int = 1
    #: Link model for the mesh collectives (``repro.dist.NVLINK`` /
    #: ``PCIE`` / any :class:`~repro.dist.Interconnect`).  ``None``
    #: defaults to the NVLink-class preset when ``tp > 1``.
    interconnect: Optional[Any] = None


class ServingEngine:
    def __init__(
        self,
        cfg: LlamaConfig,
        device: Device,
        engine_config: Optional[EngineConfig] = None,
        *,
        whisper_config: Optional[Any] = None,
        denoise_config: Optional[Any] = None,
        enable_library_dispatch: bool = True,
        enable_cuda_graph: bool = True,
    ):
        from ..bench.relax_runner import (
            RelaxDenoise,
            RelaxLLM,
            RelaxSpecPair,
            RelaxWhisper,
        )

        self.cfg = cfg
        self.device = device
        self.econfig = engine_config or EngineConfig()
        page = self.econfig.page_size
        self.spec = self.econfig.spec
        self.tp = self.econfig.tp
        llm_kwargs = dict(
            sym_var_upper_bounds={
                "b": 64,
                "s": cfg.context_length,
                "m": cfg.context_length,
                "w": -(-cfg.context_length // page),
            },
            enable_library_dispatch=enable_library_dispatch,
            enable_cuda_graph=enable_cuda_graph,
            page_size=page,
            tp=self.tp,
            interconnect=self.econfig.interconnect,
        )
        self.draft = None
        if self.spec is not None:
            pair = RelaxSpecPair(cfg, self.spec.draft, device, **llm_kwargs)
            self.llm, self.draft = pair.target, pair.draft
        else:
            self.llm = RelaxLLM(cfg, device, **llm_kwargs)
        self.vm: VirtualMachine = self.llm.vm
        self.num_blocks = self._pool_blocks()
        #: The model table: name -> (compiled runner, its device-side KV
        #: pools).  A name is a request kind (``program.PROGRAMS``) or
        #: ``"draft"``; every per-model list the engine needs (VMs, VM
        #: names, which kinds it can serve) is read off this table.
        #: Under tensor parallelism every shard owns its own pool slice
        #: (``h_kv / tp`` heads per page); the draft stays unsharded.
        self.models: Dict[str, Tuple[Any, List[NDArray]]] = {
            "llm": (self.llm, self._kv_pools(
                cfg.num_layers, cfg.num_kv_heads // self.tp, cfg.head_dim,
                cfg.dtype)),
        }
        if self.draft is not None:
            d = self.draft.cfg
            self.models["draft"] = (self.draft, self._kv_pools(
                d.num_layers, d.num_kv_heads, d.head_dim, d.dtype))
        # Optional heterogeneous model families, one compiled VM each.
        if whisper_config is not None:
            w = whisper_config
            wbounds = {
                "b": 64,
                "f": w.max_frames,
                "m": w.max_target,
                "t": w.enc_positions,
                "w": -(-w.max_target // page),
                "u": -(-w.enc_positions // page),
            }
            whisper = RelaxWhisper(
                w, device,
                sym_var_upper_bounds=wbounds,
                page_size=page,
                enable_library_dispatch=enable_library_dispatch,
            )
            self.models["whisper"] = (whisper, self._kv_pools(
                w.decoder_layers, w.num_heads, w.head_dim, w.dtype))
        if denoise_config is not None:
            self.models["denoise"] = (RelaxDenoise(denoise_config, device), [])
        self._vms = [runner.vm for runner, _ in self.models.values()]
        #: ``(index, vm)`` of every tensor-parallel VM (per-rank stats).
        self._meshes = [(i, vm) for i, vm in enumerate(self._vms)
                        if len(getattr(vm, "shard_stats", ())) > 1]
        #: The in-flight run, if any (see the steppable core below).
        self._run: Optional[_RunState] = None

    def _kv_pools(self, layers: int, heads: int, head_dim: int,
                  dtype: str) -> List[NDArray]:
        """One model's device-side pool, a K and a V array of shape
        ``(p, page, heads, d)`` per layer.  Abstract mode: shape-only
        arrays, allocated once per engine.  All models share one block-id
        space (the PagedKVCache allocator; the draft reads the target's
        block tables), so every pool is sized to the same ``num_blocks``
        and any allocated block id indexes any model's pool."""
        shape = (self.num_blocks, self.econfig.page_size, heads, head_dim)
        return [NDArray.abstract(shape, dtype) for _ in range(2 * layers)]

    def _block_bytes(self) -> int:
        from .. import dtypes

        cfg = self.cfg
        per_layer = (
            self.econfig.page_size * cfg.num_kv_heads * cfg.head_dim
            * dtypes.itemsize(cfg.dtype)
        )
        return 2 * cfg.num_layers * per_layer  # K and V

    def _pool_blocks(self) -> int:
        if self.econfig.num_blocks is not None:
            return self.econfig.num_blocks
        weights = self.llm.exported.param_bytes()
        if self.draft is not None:
            # The draft model's weights live in the same VRAM budget.
            weights += self.draft.exported.param_bytes()
        budget = (self.device.vram_bytes - weights)
        budget = int(budget * _KV_MEMORY_FRACTION)
        # Per-device budget against per-device block bytes: sharded pools
        # hold h_kv/tp heads per page (and `weights` is already the
        # per-rank slice), so TP frees VRAM for more KV blocks.
        blocks = budget // (self._block_bytes() // self.tp)
        blocks = min(blocks, _MAX_KV_BLOCKS)
        if blocks < 2:
            raise CacheError(
                f"device {self.device.name} has no VRAM left for a KV pool "
                f"({blocks} blocks)"
            )
        return blocks

    # -- steppable core ---------------------------------------------------------
    #
    # One run is the submit() -> step()* -> report() protocol; ``run()``
    # is the thin loop over it.  The engine never owns an outer clock
    # loop any more: each ``step()`` plans and executes exactly one
    # scheduler iteration and advances this engine's analytical clock,
    # which is what lets a cluster coordinator interleave N engines on
    # independent clocks (always stepping the lagging one first).

    def submit(self, requests: Sequence[Request]) -> None:
        """Feed requests into the active run, starting one if needed.

        May be called repeatedly (the cluster router feeds arrivals as
        the shared clock reaches them); a request only becomes eligible
        for admission once the engine clock reaches its ``arrival_s``.
        """
        run = self._run
        known = run.states if run is not None else {}
        spec_k = self.spec.num_spec_tokens if self.spec is not None else 0
        # A denoise step computes over every latent token — charge the
        # shared token budget accordingly.
        denoise_budget = (
            self.models["denoise"][0].cfg.latent_tokens
            if "denoise" in self.models else 1
        )
        # Build every state before touching the run: a batch that raises
        # (a kind without a model, a repeated id, a malformed request)
        # leaves the run exactly as it was.
        states: Dict[int, RequestState] = {}
        for r in requests:
            if r.kind in PROGRAMS and r.kind not in self.models:
                raise ValueError(
                    f"workload contains {r.kind} requests but the engine "
                    f"was built without {r.kind}_config"
                )
            if r.req_id in known or r.req_id in states:
                raise ValueError(
                    f"request {r.req_id} was already submitted to this run"
                )
            states[r.req_id] = RequestState(
                request=r,
                metrics=RequestMetrics(
                    req_id=r.req_id,
                    arrival_s=r.arrival_s,
                    prompt_len=r.prompt_len,
                    output_len=r.output_len,
                    kind=r.kind,
                ),
                program=program_for(
                    r, denoise_budget_per_step=denoise_budget,
                    llm_spec_tokens=spec_k,
                ),
            )
        if run is None:
            run = self._run = self._begin_run()
        arrivals = [to_as(r.arrival_s) for r in requests]
        run.log.extend(Arrival(t, r.req_id, r.kind, r.prompt_len,
                               r.output_len)
                       for t, r in zip(arrivals, requests))
        run.states.update(states)
        run.requests.extend(requests)
        run.pending.extend(zip(arrivals, (r.req_id for r in requests)))
        run.pending.sort()

    def _begin_run(self) -> _RunState:
        econf = self.econfig
        kv = PagedKVCache(self.num_blocks, econf.page_size)
        cache = PrefixCache(kv) if econf.enable_prefix_caching else None
        sched = ContinuousBatchingScheduler(econf.scheduler, kv)
        # Token identity comes from the oracle (abstract mode: the VM
        # meters cost but produces no logits).  The vanilla engine uses
        # seed 0, so a speculative run pinning ``SpecConfig.seed=0``
        # emits the exact same token stream.
        spec = self.spec
        oracle = TokenOracle(
            seed=spec.seed if spec is not None else 0,
            vocab_size=self.cfg.vocab_size,
            draft_quality=spec.draft_quality if spec is not None else 0.0,
        )
        sched.spec_k_cap = None
        capture = (econf.telemetry is not None
                   and econf.telemetry.capture_kernels)
        saved = None
        if capture:
            # Kernel events are VM facts: a live tracer per VM, drained
            # into each iteration event.
            saved = [vm.tracer for vm in self._vms]
            for vm in self._vms:
                vm.tracer = TraceRecorder()
        log: List[Any] = [RunStart(
            self.num_blocks, econf.page_size, econf.scheduler.max_num_seqs,
            econf.scheduler.max_num_batched_tokens, econf.slo_ttft_s,
            econf.slo_tpot_s, tuple(self.models), cache is not None,
            capture)]
        return _RunState(
            kv=kv, cache=cache, sched=sched, oracle=oracle, log=log,
            saved_tracers=saved,
            token_bytes=self._block_bytes() // econf.page_size,
            ctl_cap=spec.num_spec_tokens if spec is not None else 0,
            stats_start=[vm.stats.copy() for vm in self._vms],
        )

    @property
    def has_work(self) -> bool:
        """True while the active run still has pending or unfinished
        requests (i.e. :meth:`step` can make progress)."""
        run = self._run
        return run is not None and (
            bool(run.pending) or run.sched.has_unfinished()
        )

    @property
    def clock(self) -> int:
        """The engine's analytical clock in attoseconds (0 outside a
        run)."""
        return self._run.clock if self._run is not None else 0

    def plan_cache_info(self) -> PlanCacheInfo:
        """Replay-plan counters summed over the engine's VMs.  Host-side
        diagnostics only: they appear in no summary, report or trace."""
        return PlanCacheInfo(*map(sum, zip(
            *(vm.plan_cache_info() for vm in self._vms))))

    @property
    def active_run(self) -> Optional[_RunState]:
        """The in-flight run state, for coordinators (read-mostly:
        routers inspect ``sched``/``kv``/``cache`` for load and prefix
        feedback).  ``None`` between runs."""
        return self._run

    def step(self) -> Optional[IterationEvent]:
        """Advance the run by one scheduler iteration.

        Returns the logged iteration event when work was executed, or
        ``None`` when the engine only advanced its clock to the next pending
        arrival (call again) or has fully drained (``has_work`` is then
        False).  Raises :class:`CacheError` when the scheduler is
        stalled with no way to make progress.
        """
        if self._run is None:
            raise RuntimeError("no active run: call submit() first")
        try:
            return self._step(self._run)
        except BaseException:
            # Engine VMs persist across runs: never leave a kernel-capture
            # tracer attached, even when the step raises.
            self._detach_tracers()
            raise

    def drain(self) -> None:
        """Step until every submitted request has finished."""
        while self.has_work:
            self.step()

    def _step(self, run: _RunState) -> Optional[IterationEvent]:
        econf = self.econfig
        sched = run.sched
        # Admit arrivals up to the current simulated time.
        while run.pending and run.pending[0][0] <= run.clock:
            sched.add_request(run.states[run.pending.pop(0)[1]])

        it = sched.schedule()
        if it.empty:
            if run.pending:
                run.clock = max(run.clock, run.pending[0][0])
                return None
            if sched.has_unfinished():
                raise CacheError(
                    "scheduler stalled: KV pool too small for the "
                    "remaining requests"
                )
            return None  # drained

        t_begin = run.clock
        before = [vm.stats.copy() for vm in self._vms]

        # Swap traffic (blocks to/from host) on the analytic host link.
        swap = 0
        for _, tokens, mode in it.preempted:
            if mode == "swap" and tokens:
                swap += to_as(tokens * run.token_bytes / _HOST_LINK_BANDWIDTH)
        for _, tokens in it.swapped_in:
            if tokens:
                swap += to_as(tokens * run.token_bytes / _HOST_LINK_BANDWIDTH)

        self._execute(it)

        deltas = [vm.stats.delta(b) for vm, b in zip(self._vms, before)]
        run.clock = (t_begin + ExecutionStats.merge_serial(deltas).time_as
                     + swap)

        parts, finished = self._advance(it, run)
        spec = self.spec
        if spec is not None and spec.adaptive:
            run.ctl_proposed += sum(s.spec_k or 0 for s in it.steps)
            run.ctl_accepted += sum(p.accepted for p in parts)
            if run.ctl_proposed >= spec.adapt_window:
                rate = run.ctl_accepted / run.ctl_proposed
                if rate < _ADAPT_LOW:
                    run.ctl_cap = max(1, run.ctl_cap - 1)
                elif rate > _ADAPT_HIGH:
                    run.ctl_cap = min(spec.num_spec_tokens, run.ctl_cap + 1)
                sched.spec_k_cap = run.ctl_cap
                run.ctl_proposed = run.ctl_accepted = 0
        run.log.append(self._observe(
            it, run, t_begin, swap, deltas, before, parts, finished))
        return run.log[-1]

    def _observe(self, it: Iteration, run: _RunState, t_begin: int,
                 swap: int, deltas: List[ExecutionStats],
                 before: List[ExecutionStats], parts: List[Participation],
                 finished: List[Finish]) -> IterationEvent:
        """The iteration's event: its work and bookkeeping, the scheduler
        and pool state it left, and counter deltas read at their source."""
        kv, sched, cache = run.kv, run.sched, run.cache
        alloc = kv.allocator
        stats = cache.stats if cache is not None else _NO_CACHE
        counters = Counters(
            alloc.allocated_total, alloc.freed_total, alloc.ref_drops_total,
            alloc.shares_total, kv.cow_copies, stats.lookups, stats.hits,
            stats.requested_tokens, stats.matched_tokens, stats.inserts,
            stats.evictions)
        last, run.counters = run.counters, counters
        kernels = ()
        if run.saved_tracers is not None:
            kernels = tuple((b.time_as, tuple(vm.tracer.events))
                            for vm, b in zip(self._vms, before))
            for vm in self._vms:
                vm.tracer.clear()
        return IterationEvent(
            t_begin, run.clock, swap, tuple(deltas), tuple(parts),
            tuple(s.seq_id for s in it.admitted),
            tuple((s.seq_id, n) for s, n in it.swapped_in),
            tuple((s.seq_id, n, mode) for s, n, mode in it.preempted),
            tuple((s.seq_id, n) for s, n in it.cache_hits),
            tuple(finished), it.num_batched_tokens,
            Gauges(len(sched.waiting), len(sched.swapped),
                   len(sched.running), alloc.num_used, alloc.num_free,
                   kv.num_reclaimable_blocks, kv.fragmentation(),
                   sched.unevictable_blocks),
            Counters(*map(operator.sub, counters, last)),
            tuple((i, tuple((s.comm_time_as, s.time_as, s.current_bytes)
                            for s in vm.shard_stats))
                  for i, vm in self._meshes),
            kernels,
        )

    def _detach_tracers(self) -> None:
        run = self._run
        if run is not None and run.saved_tracers is not None:
            for vm, saved in zip(self._vms, run.saved_tracers):
                vm.tracer = saved
            run.saved_tracers = None

    def reset(self) -> None:
        """Drop the active run, if any, leaving the engine as built: the
        compiled VMs persist across runs, so kernel-capture tracers come
        off them before the run state is forgotten.  Every ``run()`` —
        this engine's and the cluster's — starts and, on error, ends here."""
        self._detach_tracers()
        self._run = None

    def report(self) -> "ServeReport":
        """Finalize the run: audits, aggregation, and the ServeReport.

        Ends the run — the engine is ready for a fresh ``submit()`` (or
        ``run()``) afterwards; the compiled VMs persist.
        """
        if self._run is None:
            raise RuntimeError("no active run to report")
        if self.has_work:
            raise RuntimeError(
                "report() before the run drained: "
                "call drain() (or step() until has_work is False) first"
            )
        run = self._run
        econf = self.econfig
        spec = self.spec
        self._detach_tracers()
        kv = run.kv
        cache = run.cache
        states = run.states

        kv.check_no_leaks()
        refcount_audit = kv.refcount_audit()
        run.log.append(Teardown(run.clock, refcount_audit))
        tel = None
        if econf.telemetry is not None:
            tel = EngineTelemetry(run.log, econf.telemetry.window_s)
        total = ExecutionStats.merge_serial([
            vm.stats.delta(s) for vm, s in zip(self._vms, run.stats_start)
        ])
        events = [e for _, e in of_type(run.log, IterationEvent)]
        # Required utilization: cache-only (reclaimable) blocks are
        # spare VRAM, not load; identical to raw when caching is off.
        gauges = [e.gauges for e in events]
        summary = summarize(
            [s.metrics for s in states.values()],
            slo_ttft_s=econf.slo_ttft_s,
            slo_tpot_s=econf.slo_tpot_s,
            queue_depth_samples=[g.waiting + g.swapped for g in gauges],
            kv_utilization_samples=[
                (g.used - g.reclaimable) / self.num_blocks for g in gauges],
        )
        summary["vm"] = total.summary()
        summary["comm_fraction"] = (
            total.comm_time_as / total.time_as if total.time_as else 0.0
        )
        summary["swap_time_s"] = to_s(sum(e.swap_as for e in events))
        summary["kv_pool"] = {
            "num_blocks": self.num_blocks,
            "page_size": econf.page_size,
            "peak_used_blocks": kv.peak_used_blocks,
            "peak_required_blocks": kv.peak_required_blocks,
            "peak_utilization": kv.peak_required_blocks / self.num_blocks,
            "peak_raw_utilization": kv.peak_used_blocks / self.num_blocks,
            "cow_copies": kv.cow_copies,
            "leaked_blocks": 0,  # check_no_leaks() raised otherwise
            "refcount_audit": refcount_audit,
        }
        summary["prefix_cache"] = (
            cache.stats.to_dict() if cache is not None else None)
        summary["spec_decode"] = None
        if spec is not None:
            drafts = [p for e in events for p in e.participations
                      if p.path == "spec"]
            proposed = sum(p.spec_k for p in drafts)
            accepted = sum(p.accepted for p in drafts)
            # Greedy matching examines positions up to the first miss.
            checked = sum(p.accepted + (p.accepted < p.spec_k)
                          for p in drafts)
            summary["spec_decode"] = {
                "num_spec_tokens": spec.num_spec_tokens,
                "draft_quality": spec.draft_quality,
                "draft_model": self.draft.cfg.name,
                "adaptive": spec.adaptive,
                "proposed": proposed,
                "accepted": accepted,
                "checked": checked,
                # Drafting efficiency: fraction of proposed drafts that
                # committed (greedy matching truncates at the first miss,
                # so this sits below the per-position quality).
                "acceptance_rate": (
                    accepted / proposed if proposed else None
                ),
                # Per-position acceptance: each *checked* position is an
                # independent Bernoulli(draft_quality) draw, so this
                # converges to the configured draft quality.
                "per_position_acceptance": (
                    accepted / checked if checked else None
                ),
            }
        summary["telemetry"] = tel.summary_brief() if tel is not None else None
        report = ServeReport(
            device=self.device.name,
            model=self.cfg.name,
            summary=summary,
            requests=[states[r.req_id].metrics for r in run.requests],
            log=run.log,
            stats=total,
            telemetry=tel,
        )
        self._run = None
        return report

    # -- one run ----------------------------------------------------------------

    def run(self, requests: Sequence[Request]) -> "ServeReport":
        """Serve ``requests`` to completion: the submit/drain/report
        protocol as one call.  Always starts a fresh run."""
        self.reset()
        try:
            self.submit(requests)
            self.drain()
        except BaseException:
            self.reset()
            raise
        return self.report()

    # -- internals --------------------------------------------------------------

    def _execute(self, it: Iteration) -> None:
        """Issue this iteration's VM calls (abstract mode: cost only).

        Work is grouped by program class in ``PROGRAMS`` order and each
        class says which calls its items become, so every VM sees its own
        calls in one fixed order — which is what the simulated clock, the
        pools and the captured graphs depend on."""
        page = self.econfig.page_size
        work: Dict[str, Tuple[list, list]] = {}
        for s in it.steps:
            work.setdefault(s.state.program.kind, ([], []))[0].append(s)
        for c in it.chunks:
            work.setdefault(c.state.program.kind, ([], []))[1].append(c)
        for kind, program in PROGRAMS.items():
            if kind not in work:
                continue
            steps, chunks = work[kind]
            cfg = self.models[kind][0].cfg
            for model, entry, leading, paged in program.calls(
                    steps, chunks, page, cfg):
                runner, pools = self.models[model]
                runner.vm.run(
                    entry,
                    *(NDArray.abstract(shape, dtype)
                      for shape, dtype in leading),
                    *(pools if paged else ()),
                    *runner.params,
                )

    def _advance(self, it: Iteration, run: _RunState
                 ) -> Tuple[List[Participation], List[Finish]]:
        """Commit token production and completions at the run's clock;
        returns what each planned item did and who finished.

        Token *identity* always comes from the oracle, indexed by output
        position — so any execution strategy (vanilla, speculative,
        recompute-after-preemption) reconstructs the identical stream;
        only the timestamps differ.
        """
        clock, oracle = to_s(run.clock), run.oracle
        parts: List[Participation] = []
        finished: List[Finish] = []

        def commit(state: RequestState, units: int) -> None:
            metrics = state.metrics
            for _ in range(units):
                if state.program.batched_decode:
                    metrics.output_tokens.append(
                        oracle.target_token(state.seq_id, state.generated))
                state.generated += 1
                metrics.token_times.append(clock)
            if state.done:
                metrics.finish_s = clock
                run.sched.finish(state)
                finished.append(Finish(
                    state.seq_id, metrics.ttft, metrics.tpot,
                    metrics.e2e_latency, len(metrics.token_times),
                    metrics.preemptions))

        for step in it.steps:
            state, ctx, k = step
            n = 0
            if k is not None:
                # Greedy-match acceptance: the emitted stream is the
                # longest prefix of draft proposals the target agrees
                # with, plus the target's own "bonus" token — so between
                # 1 and k + 1 tokens commit, all byte-identical to what
                # vanilla decode would have emitted at these positions.
                while n < k and oracle.draft_matches(
                        state.seq_id, state.generated + n):
                    n += 1
                state.metrics.spec_proposed += k
                state.metrics.spec_accepted += n
                # Exact rollback: the scheduler appended k + 1 KV tokens
                # optimistically; the k - n rejected tail tokens come
                # back out, returning fully-vacated tail pages to the
                # pool in LIFO order.
                if k - n:
                    run.kv.rollback(state.seq_id, k - n)
            commit(state, n + 1)
            parts.append(Participation(
                state.seq_id, step.path, state.program.stepped.name, ctx,
                n + 1, k, n))
        for state, phase, past, units in it.chunks:
            batched = state.program.batched_decode
            # The final prefill chunk yields the first output token.
            first = (batched and state.phase is Phase.DECODE
                     and state.prefilled == state.prefill_target
                     and state.generated == 0)
            if first:
                commit(state, 1)
            parts.append(Participation(
                state.seq_id, "prefill" if batched else "chunk", phase, past,
                units, None, 0, first))
        return parts, finished


@dataclass
class ServeReport:
    """Everything one serving run produced, JSON- and Perfetto-ready."""

    device: str
    model: str
    summary: Dict[str, Any]
    requests: List[RequestMetrics]
    #: The run's event log; the records below are folds over it.
    log: List[Any]
    stats: ExecutionStats
    #: :class:`~repro.serve.telemetry.EngineTelemetry` when the run was
    #: telemetered, else ``None`` (serialized as ``"telemetry": null``).
    telemetry: Optional[EngineTelemetry] = None

    @cached_property
    def iterations(self) -> List[Dict[str, Any]]:
        return iteration_records(self.log)

    @cached_property
    def trace_events(self) -> List[Dict[str, Any]]:
        return trace_events(self.log)

    def chrome_trace(self) -> Dict[str, Any]:
        """Perfetto-compatible trace: engine track + one track/request.

        A telemetered run extends the same file with lifecycle spans on
        the request tracks, scheduler/pool counter tracks, and — with
        kernel capture — the VMs' per-op events on the shared clock.
        """
        meta: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": f"repro-serve engine ({self.device})"}},
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "requests"}},
        ]
        for r in self.requests:
            meta.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": r.req_id,
                "args": {"name": f"request {r.req_id}"},
            })
        events = meta + self.trace_events
        if self.telemetry is not None:
            events = events + self.telemetry.trace_extension()
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
        }

    def export_chrome_trace(self, path: str) -> Dict[str, Any]:
        from ..obs.report import write_chrome_trace

        return write_chrome_trace(self.chrome_trace(), path)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "model": self.model,
            "summary": self.summary,
            "requests": [{
                "req_id": r.req_id,
                "arrival_s": r.arrival_s,
                "prompt_len": r.prompt_len,
                "output_len": r.output_len,
                "ttft_s": r.ttft,
                "tpot_s": r.tpot,
                "finish_s": r.finish_s,
                "preemptions": r.preemptions,
                "cached_prompt_tokens": r.cached_prompt_tokens,
                "kind": r.kind,
                "spec_proposed": r.spec_proposed,
                "spec_accepted": r.spec_accepted,
            } for r in self.requests],
            "iterations": self.iterations,
            "telemetry": (self.telemetry.to_dict()
                          if self.telemetry is not None else None),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def serve_workload(
    cfg: LlamaConfig,
    device: Device,
    workload: "WorkloadConfig | Sequence[Request]",
    engine_config: Optional[EngineConfig] = None,
    *,
    whisper_config: Optional[Any] = None,
    denoise_config: Optional[Any] = None,
) -> ServeReport:
    """Run a workload through a fresh engine.

    ``workload`` is either a :class:`WorkloadConfig` (the seeded trace is
    generated here) or an already-generated request sequence (e.g. one
    replayed from :func:`~repro.serve.workload.workload_from_json`).
    Heterogeneous workloads need the matching model configs.
    """
    engine = ServingEngine(
        cfg, device, engine_config,
        whisper_config=whisper_config,
        denoise_config=denoise_config,
    )
    if isinstance(workload, WorkloadConfig):
        requests = generate(workload)
    else:
        requests = list(workload)
    return engine.run(requests)
