"""The five workloads of the benchmark suite.

Each workload is one function of a :class:`Context`: it sets up (imports,
exports, compiles, generates its inputs from ``ctx.seed``), runs its timed
region inside ``with ctx.timed():``, then — outside the timed region —
checks the outputs and fills ``ctx.metrics``.  Shapes are fixed; only
counts scale with ``ctx.scale``.  ``README.md`` says why each workload
was chosen and which layer dominates it.

A workload states ``ctx.attempted`` before its timed region and
``ctx.completed`` after its checks; an exception anywhere leaves the
operations not yet completed counted as failed (``worker.py``).
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from names import PASS_NAMES

MIB = float(1 << 20)

#: ``--seconds`` the base counts below are calibrated for: at scale 1 every
#: timed region takes 12-14 s on the 2-core box the suite was written on.
CALIBRATED_SECONDS = 13


class SetupOnly(Exception):
    """Raised by :meth:`Context.timed` in a set-up-only run."""


class Context:
    """What a workload function sees: its inputs and its result sheet."""

    def __init__(self, *, seed: int, scale: float, t0: float,
                 tracer=None, profile=None, setup_only: bool = False):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.profile = profile
        self.setup_only = setup_only
        self._t0 = t0
        self.setup_s: Optional[float] = None
        self.wall_s: Optional[float] = None
        self.attempted = 0
        self.completed = 0
        self.metrics: Dict[str, float] = {}
        #: Iteration records the serve engines kept (for ``empty_iters``).
        self.iterations = 0
        self._setup_root = tracer.open("suite.setup") if tracer else None
        self._check_root: Optional[int] = None
        #: Simulated kernel launches behind ``runtime.vm.run_s``, if known.
        self.launches: Optional[int] = None

    def count(self, base: int) -> int:
        """``base`` scaled by ``--scale`` / ``--seconds`` (at least 1)."""
        return max(1, round(base * self.scale))

    def span(self, name: str):
        """Time one of the suite's own call sites (no-op when untraced)."""
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def timed(self) -> Iterator[None]:
        """The timed region: ends set-up, measures ``wall_s``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.close(self._setup_root)
        self.setup_s = perf_counter() - self._t0
        if self.setup_only:
            raise SetupOnly
        root = None
        if tracer is not None:
            tracer.phase = "timed"
            root = tracer.open("suite.timed")
        if self.profile is not None:
            self.profile.enable()
        start = perf_counter()
        try:
            yield
        finally:
            self.wall_s = perf_counter() - start
            if self.profile is not None:
                self.profile.disable()
            if root is not None:
                tracer.close(root)
                # Checks and metering after the timed region get a root of
                # their own, so every span has one.
                tracer.phase = "check"
                self._check_root = tracer.open("suite.check")

    def finish(self) -> None:
        """Close the check-phase root span (traced runs)."""
        if self._check_root is not None:
            self.tracer.close(self._check_root)

    # -- shared metric helpers --------------------------------------------------

    def put_vm_stats(self, stats, *, all_calls: bool = True) -> None:
        """``runtime.vm.*`` counts and simulated splits from ExecutionStats.

        ``all_calls=False`` says ``stats`` misses some of the workload's
        VM calls, so host time per simulated launch cannot be formed."""
        m = self.metrics
        if all_calls:
            self.launches = stats.kernel_launches + stats.lib_calls
        m["runtime.vm.kernel_launches"] = stats.kernel_launches
        m["runtime.vm.lib_calls"] = stats.lib_calls
        m["runtime.vm.builtin_calls"] = stats.builtin_calls
        m["runtime.vm.allocations"] = stats.allocations
        m["runtime.vm.graph_captures"] = stats.graph_captures
        m["runtime.vm.graph_replays"] = stats.graph_replays
        m["runtime.vm.replayed_kernels"] = stats.replayed_kernels
        m["runtime.vm.sim_kernel_time_s"] = stats.kernel_time_s
        m["runtime.vm.sim_launch_overhead_s"] = stats.launch_overhead_s
        m["runtime.vm.sim_comm_time_s"] = stats.comm_time_s
        m["dist.sim_comm_frac"] = (
            stats.comm_time_s / stats.time_s if stats.time_s else 0.0
        )

    def add_artifact(self, mod, exe) -> None:
        """Count one compile: IR nodes that went in, VM instructions out."""
        from repro.transform import ir_stats

        m = self.metrics
        m["transform.ir_nodes_in"] = (
            m.get("transform.ir_nodes_in", 0) + ir_stats(mod)["nodes"])
        m["transform.exe_instrs"] = (
            m.get("transform.exe_instrs", 0)
            + sum(len(fn.body) for fn in exe.functions.values()))

    def put_compile_cache(self) -> None:
        """``bench.compile_cache_hits`` / ``misses`` of the runner classes."""
        from repro.bench import compile_cache_stats

        cache = compile_cache_stats()
        self.metrics["bench.compile_cache_hits"] = cache["hits"]
        self.metrics["bench.compile_cache_misses"] = cache["misses"]


# -- serving ------------------------------------------------------------------------


def _check_served(requests, metrics) -> int:
    """Requests that finished having emitted exactly ``output_len`` tokens."""
    by_id = {m.req_id: m for m in metrics}
    ok = 0
    for r in requests:
        m = by_id.get(r.req_id)
        if (m is not None and m.finish_s is not None
                and len(m.output_tokens) == r.output_len
                and len(m.token_times) == r.output_len):
            ok += 1
    return ok


def _put_latency(ctx: Context, metrics) -> None:
    from repro.serve import percentile

    ttfts = [m.ttft for m in metrics if m.ttft is not None]
    tpots = [m.tpot for m in metrics if m.tpot is not None]
    ctx.metrics["sim_ttft_p95_s"] = percentile(ttfts, 95.0)
    ctx.metrics["sim_ttft_samples"] = len(ttfts)
    ctx.metrics["sim_tpot_p50_s"] = percentile(tpots, 50.0)


def _put_serve_layers(ctx: Context, reports) -> None:
    """Counts the serve layers keep themselves, summed over ``reports``
    (phases or replicas)."""
    m = ctx.metrics
    iterations = [it for rep in reports for it in rep.iterations]
    ctx.iterations = len(iterations)
    m["serve.engine.batch_size_mean"] = (
        sum(it["num_batched_tokens"] for it in iterations) / len(iterations))
    m["serve.scheduler.preemptions"] = sum(
        rep.summary["preemptions"] for rep in reports)
    m["serve.scheduler.queue_depth_mean"] = (
        sum(it["queue_depth"] for it in iterations) / len(iterations))
    pools = [rep.summary["kv_pool"] for rep in reports]
    m["serve.kv_cache.peak_required_blocks"] = max(
        p["peak_required_blocks"] for p in pools)
    m["serve.kv_cache.peak_util"] = max(p["peak_utilization"] for p in pools)
    m["serve.kv_cache.cow_copies"] = sum(p["cow_copies"] for p in pools)
    caches = [rep.summary["prefix_cache"] for rep in reports]
    lookups = sum(c["lookups"] for c in caches)
    requested = sum(c["requested_tokens"] for c in caches)
    m["serve.prefix_cache.lookups"] = lookups
    m["serve.prefix_cache.hit_rate"] = (
        sum(c["hits"] for c in caches) / lookups if lookups else 0.0)
    m["serve.prefix_cache.cached_token_frac"] = (
        sum(c["matched_tokens"] for c in caches) / requested
        if requested else 0.0)
    m["serve.prefix_cache.evictions"] = sum(c["evictions"] for c in caches)


def _poisson_phase(n: int, rate: float, seed: int):
    """``n`` Poisson arrivals at ``rate``, conditioned on the last one
    landing at ``n / rate`` simulated seconds.

    Given their number, the arrival times of a Poisson process in a window
    are sorted uniform draws, so stretching the generated trace to end at
    ``n / rate`` keeps its burstiness and removes the one thing that made
    runs of different seeds differ by 10 %+ in length: when the last
    request happens to arrive.
    """
    from dataclasses import replace

    from repro.serve import WorkloadConfig, generate

    requests = generate(
        WorkloadConfig(num_requests=n, seed=seed, arrival_rate=rate))
    stretch = (n / rate) / requests[-1].arrival_s
    return [replace(r, arrival_s=r.arrival_s * stretch) for r in requests]


def serve_llama8b(ctx: Context) -> None:
    """One Llama3-8B engine, two open-loop Poisson phases (see README)."""
    from repro.models import LLAMA3_8B
    from repro.runtime import RTX_4090
    from repro.runtime.profiler import ExecutionStats
    from repro.serve import EngineConfig, ServingEngine

    engine = ServingEngine(LLAMA3_8B, RTX_4090, EngineConfig())
    ctx.add_artifact(engine.llm.exported.mod, engine.llm.exe)
    with ctx.span("serve.workload.generate"):
        phases = [
            _poisson_phase(ctx.count(n), rate, ctx.seed)
            # ~71 % of the ~28 req/s simulated capacity, then overload
            for n, rate in ((300, 20.0), (150, 80.0))
        ]
    ctx.attempted = sum(len(requests) for requests in phases)

    reports = []
    with ctx.timed():
        for requests in phases:
            engine.submit(requests)
            engine.drain()
            reports.append(engine.report())  # raises on a leaked block

    ctx.completed = sum(
        _check_served(reqs, rep.requests)
        for reqs, rep in zip(phases, reports))
    m = ctx.metrics
    m["sim_time_s"] = sum(rep.summary["makespan_s"] for rep in reports)
    m["sim_peak_mem_mb"] = max(rep.stats.peak_bytes for rep in reports) / MIB
    _put_latency(ctx, reports[0].requests)
    m["sim_tok_per_s"] = reports[1].summary["throughput_tokens_per_s"]
    ctx.put_vm_stats(ExecutionStats.merge_serial([r.stats for r in reports]))
    _put_serve_layers(ctx, reports)
    ctx.put_compile_cache()


#: ``serve-fleet-prefix`` parameters.  ``num_blocks`` is 320 on purpose:
#: at <= 160 blocks and 1500 requests (seed 1) this shape raises
#: ``OutOfBlocks`` out of ``ContinuousBatchingScheduler.schedule()``
#: (README, "Known failure").
FLEET_BLOCKS = 320
FLEET_FAMILIES = 6
FLEET_PREFIX_LEN = 24


def serve_fleet_prefix(ctx: Context) -> None:
    """dp=2 x tp=2 tiny-model fleet behind the prefix-affinity router."""
    from repro.models import TINY_LLAMA_TP
    from repro.runtime import RTX_4090
    from repro.runtime.profiler import ExecutionStats
    from repro.serve import (ClusterConfig, ClusterEngine, EngineConfig,
                             SchedulerConfig, WorkloadConfig, generate)

    cluster = ClusterEngine(TINY_LLAMA_TP, RTX_4090, ClusterConfig(
        dp=2, policy="prefix_affinity",
        engine=EngineConfig(
            tp=2, page_size=4, num_blocks=FLEET_BLOCKS,
            scheduler=SchedulerConfig(
                max_num_seqs=16, max_num_batched_tokens=128,
                prefill_chunk=32)),
    ))
    llm = cluster.engines[0].llm
    ctx.add_artifact(llm.exported.mod, llm.exe)
    n = ctx.count(1250)
    with ctx.span("serve.workload.generate"):
        requests = generate(WorkloadConfig(
            num_requests=n, seed=ctx.seed, arrival_rate=20000.0,
            prompt_min=32, prompt_max=96, output_min=8, output_max=48,
            prefix_families=FLEET_FAMILIES, prefix_len=FLEET_PREFIX_LEN,
            vocab_size=TINY_LLAMA_TP.vocab_size))
    ctx.attempted = n

    with ctx.timed():
        report = cluster.run(requests)  # raises on a leaked block

    replicas = report.replica_reports
    ctx.completed = _check_served(
        requests, [m for rep in replicas for m in rep.requests])
    m = ctx.metrics
    m["sim_time_s"] = report.summary["makespan_s"]
    m["sim_peak_mem_mb"] = sum(r.stats.peak_bytes for r in replicas) / MIB
    _put_latency(ctx, [m_ for rep in replicas for m_ in rep.requests])
    m["sim_tok_per_s"] = report.summary["throughput_tokens_per_s"]
    # Fleet counters sum over replicas (merge_serial); the fleet *clock*
    # above is the cluster's own makespan.
    ctx.put_vm_stats(ExecutionStats.merge_serial([r.stats for r in replicas]))
    _put_serve_layers(ctx, replicas)
    # Share of requests routed to a replica that an earlier request of the
    # same prefix family had already been routed to.
    family = {r.req_id: r.prompt_tokens[:FLEET_PREFIX_LEN] for r in requests}
    seen = set()
    hits = 0
    for req_id, replica in report.assignments:
        key = (family[req_id], replica)
        hits += key in seen
        seen.add(key)
    m["serve.cluster.route_calls"] = len(report.assignments)
    m["serve.cluster.affinity_hit_frac"] = hits / len(report.assignments)
    m["serve.cluster.load_balance_entropy"] = (
        report.summary["routing"]["load_balance_entropy"])
    ctx.put_compile_cache()


# -- compiler -----------------------------------------------------------------------


def compile_zoo(ctx: Context) -> None:
    """Cold compiles of the paper's models through the runner classes."""
    # Set-up is the imports and nothing else, so work moved from compile
    # time into import time shows in setup_s.
    from repro.bench import (RelaxLLM, RelaxLlava, RelaxWhisper,
                             clear_compile_cache)
    from repro.models import (GEMMA_7B, LLAMA3_8B, LLAVA_7B, QWEN2_7B,
                              WHISPER_LARGE_V3)
    from repro.runtime import RTX_4090
    from repro.runtime.profiler import ExecutionStats
    from repro.transform import DEFAULT_PIPELINE

    missing = set(DEFAULT_PIPELINE) - set(PASS_NAMES)
    if missing:
        raise RuntimeError(
            f"DEFAULT_PIPELINE passes without a transform.pass_s metric: "
            f"{sorted(missing)}; add them to PASS_NAMES and BENCHMARK.json")

    # (runner class, config, keyword arguments, expected entry points)
    dense = {"prefill", "decode"}
    paged = dense | {"decode_paged", "prefill_paged"}
    paged_kw, tp_kw = {"page_size": 16}, {"page_size": 16, "tp": 2}
    # Ordered so that any prefix mixes configs, variants and families: the
    # first seven (the count at scale 1) are one of each variant, the serving
    # path first, plus Whisper and LLaVA.
    zoo = [
        (RelaxLLM, LLAMA3_8B, paged_kw, paged),
        (RelaxLLM, GEMMA_7B, tp_kw, paged),
        (RelaxLLM, QWEN2_7B, {}, dense),
        (RelaxWhisper, WHISPER_LARGE_V3, {}, {"encode", "decode"}),
        (RelaxLlava, LLAVA_7B, {},
         {"encode_image", "prefill_embeds", "decode"}),
        (RelaxLLM, LLAMA3_8B, {}, dense),
        (RelaxLLM, GEMMA_7B, paged_kw, paged),
        (RelaxLLM, QWEN2_7B, tp_kw, paged),
        (RelaxLLM, LLAMA3_8B, tp_kw, paged),
        (RelaxLLM, GEMMA_7B, {}, dense),
        (RelaxLLM, QWEN2_7B, paged_kw, paged),
    ]
    jobs = [zoo[i % len(zoo)] for i in range(ctx.count(7))]
    # The smoke step's shape comes from the seed; the compiles do not.
    batch, context = 8, random.Random(ctx.seed).randrange(960, 1089)
    ctx.attempted = len(jobs)

    built: List[Any] = []
    step = ExecutionStats()
    peak_sum = 0
    with ctx.timed():
        for i, (cls, cfg, kw, _) in enumerate(jobs):
            if i % len(zoo) == 0:
                clear_compile_cache()  # every pass over the zoo is cold
            runner = cls(cfg, RTX_4090, **kw)
            built.append(runner)
            if cls is RelaxLLM:
                # Run time of the generated code: one abstract decode
                # step per artifact, metered at steady state (after the
                # capturing step); the delta carries the absolute peak.
                runner.run_decode(batch, context)
                before = runner.vm.stats.copy()
                runner.run_decode(batch, context)
                delta = runner.vm.stats.delta(before)
                step.merge(delta)
                peak_sum += delta.peak_bytes

    for runner, (_, _, _, entries) in zip(built, jobs):
        report = runner.exe.pipeline_report
        # Every pipeline pass either ran or was recorded as skipped.
        unskipped = set(DEFAULT_PIPELINE) - {r.name for r in report.skipped}
        if (entries <= set(runner.exe.functions)
                and unskipped <= set(report.executed_names())):
            ctx.completed += 1
        ctx.add_artifact(runner.exported.mod, runner.exe)

    m = ctx.metrics
    m["sim_time_s"] = step.time_s
    m["sim_peak_mem_mb"] = peak_sum / MIB
    ctx.put_vm_stats(step)
    m["transform.step_kernel_launches"] = step.kernel_launches
    m["transform.step_lib_calls"] = step.lib_calls
    m["transform.step_allocs"] = step.allocations
    ctx.put_compile_cache()


#: ``fuzz-diff`` meters the generated code of this many times the plans
#: it fuzzes (the window's plans first).  Program sizes are heavy-tailed:
#: over only the fuzzed plans the summed peak memory differs by 14 %
#: between the quartiles of ten seeds, over four times as many by 10 %.
FUZZ_METER_FACTOR = 8


def fuzz_diff(ctx: Context) -> None:
    """Differential fuzzing: tiny programs x the 12-config ablation matrix."""
    import numpy as np

    from repro import transform
    from repro.fuzz import (build_module, config_matrix, failure_of, generate,
                            make_inputs)
    from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
    from repro.runtime.profiler import ExecutionStats
    from repro.serve import percentile
    from repro.transform import PassContext, Timing

    n = ctx.count(240)
    first = 1000 + 1000 * ctx.seed
    ctx.attempted = n

    failures = 0
    per_plan: List[float] = []
    with ctx.timed():
        for seed in range(first, first + n):
            start = perf_counter()
            with ctx.span("fuzz.generate"):
                plan = generate(seed)
            with ctx.span("fuzz.run_plan"):
                failure = failure_of(plan)
            failures += failure is not None
            per_plan.append(perf_counter() - start)
            ctx.completed = len(per_plan) - failures

    # Run time of the generated code.  failure_of keeps its executables to
    # itself, so each plan is built once more (full pipeline, with the
    # Timing instrument) and run on the device model.
    total = ExecutionStats()
    peak_sum = 0
    for seed in range(first, first + FUZZ_METER_FACTOR * n):
        plan = generate(seed)
        mod = build_module(plan)
        exe = transform.build(mod, ctx=PassContext(
            device=TEST_DEVICE, sym_var_upper_bounds=dict(plan.dims),
            instruments=[Timing()]))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vm.run("main", *[NDArray.from_numpy(np.asarray(a))
                             for a in make_inputs(plan)])
        total.merge(vm.stats)
        peak_sum += vm.stats.peak_bytes
        ctx.add_artifact(mod, exe)

    m = ctx.metrics
    m["sim_time_s"] = total.time_s
    m["sim_peak_mem_mb"] = peak_sum / MIB
    # The oracle's own VM runs are not metered.
    ctx.put_vm_stats(total, all_calls=False)
    m["fuzz.plans"] = n
    m["fuzz.configs_per_plan"] = len(config_matrix())
    m["fuzz.failures"] = failures
    m["fuzz.ms_per_plan_p50"] = percentile(per_plan, 50.0) * 1e3
    m["fuzz.ms_per_plan_p95"] = percentile(per_plan, 95.0) * 1e3
    ctx.put_compile_cache()


# -- concrete execution -------------------------------------------------------------


def gen_concrete(ctx: Context) -> None:
    """Greedy generation with real values, checked against ReferenceLlama."""
    import numpy as np

    from repro import transform
    from repro.models import (LlamaConfig, ReferenceLlama, build_llama,
                              empty_caches)
    from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
    from repro.runtime.profiler import ExecutionStats
    from repro.serve import percentile

    cfg = LlamaConfig(  # the examples/llm_generation.py model, context 256
        name="demo-llama", hidden_size=32, intermediate_size=64,
        num_layers=3, num_heads=4, num_kv_heads=2, vocab_size=64,
        context_length=256, dtype="f32",
    )
    batch, new_tokens = 2, 100
    with ctx.span("models.build_llama"):
        exported = build_llama(cfg)
    exported.module.initialize(seed=42, scale=0.2)
    params = exported.concrete_params()
    vms = []
    for dispatch in (True, False):
        pctx = transform.PassContext(
            device=TEST_DEVICE,
            sym_var_upper_bounds={"b": 4, "s": 64, "m": cfg.context_length},
            instruments=[transform.Timing()],
            enable_library_dispatch=dispatch,
        )
        exe = transform.build(exported.mod, ctx=pctx)
        ctx.add_artifact(exported.mod, exe)
        vms.append(VirtualMachine(exe, TEST_DEVICE, concrete=True))
    rng = np.random.default_rng(ctx.seed)
    prompts = [
        rng.integers(0, cfg.vocab_size,
                     size=(batch, int(rng.integers(15, 18))), dtype=np.int64)
        for _ in range(ctx.count(10))
    ]
    ctx.attempted = len(prompts) * len(vms) * batch

    def greedy(forward: Callable, prompt, caches, timings=None):
        logits, caches = forward(prompt, caches)
        out = []
        for _ in range(new_tokens):
            tokens = logits[:, -1].argmax(-1)
            out.append(tokens)
            start = perf_counter()
            logits, caches = forward(tokens[:, None].astype(np.int64), caches)
            if timings is not None:
                timings.append(perf_counter() - start)
        return np.stack(out, axis=1)  # (batch, new_tokens)

    def on_vm(vm):
        def forward(tokens, caches):
            result = vm.run("prefill" if tokens.shape[1] > 1 else "decode",
                            NDArray.from_numpy(tokens), *caches, *params)
            return result[0].numpy(), list(result[1:])
        return forward

    generated = []
    step_s: List[float] = []
    with ctx.timed():
        for prompt in prompts:
            for vm in vms:
                generated.append(greedy(
                    on_vm(vm), prompt, empty_caches(cfg, batch, concrete=True),
                    step_s))

    reference = ReferenceLlama(
        cfg, {name: p.data for name, p in exported.param_order})
    zero = [np.zeros((batch, 0, cfg.num_kv_heads, cfg.head_dim), np.float32)
            ] * (2 * cfg.num_layers)
    it = iter(generated)
    for prompt in prompts:
        want = greedy(reference.forward, prompt, zero)
        for _ in vms:
            got = next(it)
            ctx.completed += int((got == want).all(axis=1).sum())

    total = ExecutionStats.merge_serial([vm.stats for vm in vms])
    m = ctx.metrics
    m["sim_time_s"] = total.time_s
    m["sim_peak_mem_mb"] = sum(vm.stats.peak_bytes for vm in vms) / MIB
    ctx.put_vm_stats(total)
    m["runtime.vm.concrete_step_ms_p50"] = percentile(step_s, 50.0) * 1e3
    ctx.put_compile_cache()


WORKLOADS: Dict[str, Callable[[Context], None]] = {
    "serve-llama8b": serve_llama8b,
    "serve-fleet-prefix": serve_fleet_prefix,
    "compile-zoo": compile_zoo,
    "fuzz-diff": fuzz_diff,
    "gen-concrete": gen_concrete,
}
