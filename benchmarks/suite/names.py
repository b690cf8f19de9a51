"""Every metric name the suite can emit.

``BENCHMARK.json`` at the repository root is the schema (unit, direction,
bound); this file is what the code actually produces.  ``run.py`` refuses
to start unless the two agree, and ``worker.py`` refuses to print a name
that is not listed here — so a renamed or new metric cannot slip out
half-declared.
"""

from __future__ import annotations

from typing import Tuple

#: Passes reported as ``transform.pass_s.<Pass>``: the ``DEFAULT_PIPELINE``
#: (``compile-zoo`` checks this list against the import), codegen, and the
#: two sharding passes ``build_llama(tp>1)`` runs.
PASS_NAMES: Tuple[str, ...] = (
    "FoldConstant", "LibraryDispatch", "LegalizeOps", "DeadCodeElimination",
    "AnnotatePatternKind", "FuseOps", "FuseTensorIR", "ScheduleRules",
    "TuneTir", "WorkspaceLifting", "LowerCallTIR", "MemoryPlan",
    "InsertKills", "CUDAGraphOffload", "VMCodegen", "PropagateSharding",
    "LowerSharding",
)

#: ``host.share.<bucket>``: the ``repro`` sub-packages, then the rest.
SHARE_PACKAGES: Tuple[str, ...] = (
    "core", "sym", "tir", "ops", "transform", "runtime", "dist", "serve",
    "fuzz", "models",
)
SHARE_BUCKETS: Tuple[str, ...] = SHARE_PACKAGES + ("numpy", "other")

#: Defined on every workload; what ``--trace 0`` prints.
END_TO_END: Tuple[str, ...] = (
    "wall_s", "setup_s", "peak_rss_mb", "sim_time_s", "sim_peak_mem_mb",
)

#: Serving KPIs on the simulated clock.  End-to-end by nature, but only
#: the two serve workloads define them, so ``BENCHMARK.json`` has to list
#: them with the per-layer metrics (README, "Metrics").
SERVE_KPIS: Tuple[str, ...] = (
    "sim_ttft_p95_s", "sim_ttft_samples", "sim_tpot_p50_s", "sim_tok_per_s",
)

PER_LAYER: Tuple[str, ...] = SERVE_KPIS + (
    "models.export_s", "models.export_calls",
    "transform.build_s",
    *(f"transform.pass_s.{name}" for name in PASS_NAMES),
    "transform.overhead_s", "transform.ir_nodes_in", "transform.exe_instrs",
    "transform.step_kernel_launches", "transform.step_lib_calls",
    "transform.step_allocs",
    "bench.compile_cache_hits", "bench.compile_cache_misses",
    "runtime.vm.run_s", "runtime.vm.calls", "runtime.vm.us_per_call_p50",
    "runtime.vm.us_per_call_p98", "runtime.vm.kernel_launches",
    "runtime.vm.lib_calls", "runtime.vm.builtin_calls",
    "runtime.vm.allocations", "runtime.vm.graph_captures",
    "runtime.vm.graph_replays", "runtime.vm.replayed_kernels",
    "runtime.vm.us_per_launch", "runtime.vm.sim_kernel_time_s",
    "runtime.vm.sim_launch_overhead_s", "runtime.vm.sim_comm_time_s",
    "runtime.vm.concrete_step_ms_p50",
    "dist.mesh.run_s", "dist.mesh.self_s", "dist.mesh.calls",
    "dist.mesh.shard_calls", "dist.sim_comm_frac",
    "serve.engine.construct_s", "serve.engine.submit_s",
    "serve.engine.step_s", "serve.engine.step_self_s", "serve.engine.steps",
    "serve.engine.step_ms_p50", "serve.engine.step_ms_p98",
    "serve.engine.report_s", "serve.engine.batch_size_mean",
    "serve.scheduler.schedule_s", "serve.scheduler.schedule_self_s",
    "serve.scheduler.calls", "serve.scheduler.empty_iters",
    "serve.scheduler.preemptions", "serve.scheduler.queue_depth_mean",
    "serve.kv_cache.self_s", "serve.kv_cache.calls", "serve.kv_cache.appends",
    "serve.kv_cache.peak_required_blocks", "serve.kv_cache.peak_util",
    "serve.kv_cache.cow_copies",
    "serve.prefix_cache.self_s", "serve.prefix_cache.calls",
    "serve.prefix_cache.lookups", "serve.prefix_cache.hit_rate",
    "serve.prefix_cache.cached_token_frac", "serve.prefix_cache.evictions",
    "serve.metrics.summarize_s", "serve.workload.generate_s",
    "serve.cluster.run_s", "serve.cluster.self_s", "serve.cluster.route_s",
    "serve.cluster.route_calls", "serve.cluster.report_build_s",
    "serve.cluster.affinity_hit_frac", "serve.cluster.load_balance_entropy",
    "fuzz.generate_s", "fuzz.run_plan_s", "fuzz.plans",
    "fuzz.configs_per_plan", "fuzz.ms_per_plan_p50", "fuzz.ms_per_plan_p95",
    "fuzz.failures",
    *(f"host.share.{bucket}" for bucket in SHARE_BUCKETS),
    "suite.trace_overhead_frac",
)

ALL = END_TO_END + PER_LAYER


def is_host(name: str, unit: str) -> bool:
    """True for a metric read off the host clock or the host's memory —
    the ones that carry noise.  Everything else (simulated seconds,
    counts, ratios of counts) must repeat exactly for a given seed."""
    if name == "peak_rss_mb" or name.startswith(("host.share.", "suite.")):
        return True
    return unit in ("s", "ms", "us") and "sim_" not in name
