"""repro.serve — continuous-batching LLM serving on the compiled VM.

A seeded discrete-event serving engine (paged KV cache, Orca-style
iteration-level scheduling, chunked prefill) whose per-iteration costs
come from running the real compiled Executable in abstract mode on the
analytical device model.  ``python -m repro.serve --help`` for the CLI.
"""

from .cluster import (
    ClusterConfig,
    ClusterEngine,
    ClusterReport,
    LeastLoadedPolicy,
    PrefixAffinityPolicy,
    ReplicaView,
    ROUTING_POLICIES,
    RoundRobinPolicy,
    RoutingPolicy,
    make_policy,
    serve_cluster,
)
from .engine import EngineConfig, ServeReport, ServingEngine, serve_workload
from .kv_cache import (
    BlockAllocator,
    CacheError,
    OutOfBlocks,
    PagedKVCache,
    ReleaseInfo,
)
from .metrics import RequestMetrics, percentile, summarize
from .prefix_cache import PrefixCache, PrefixCacheStats
from .program import (
    ChunkedPhase,
    DenoiseProgram,
    LLMProgram,
    PROGRAMS,
    RequestProgram,
    SteppedPhase,
    WhisperProgram,
    program_for,
    stream_seq_id,
)
from .scheduler import (
    Chunk,
    ContinuousBatchingScheduler,
    Iteration,
    Phase,
    RequestState,
    SchedulerConfig,
    Step,
)
from .slo import SLOMonitor
from .spec import SpecConfig, TokenOracle
from .telemetry import (
    Counter,
    EngineTelemetry,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryConfig,
)
from .workload import (
    Request,
    WorkloadConfig,
    generate,
    workload_from_json,
    workload_to_json,
)

__all__ = [
    "BlockAllocator",
    "CacheError",
    "Chunk",
    "ChunkedPhase",
    "ClusterConfig",
    "ClusterEngine",
    "ClusterReport",
    "LeastLoadedPolicy",
    "PrefixAffinityPolicy",
    "ROUTING_POLICIES",
    "ReplicaView",
    "RoundRobinPolicy",
    "RoutingPolicy",
    "make_policy",
    "serve_cluster",
    "ContinuousBatchingScheduler",
    "Counter",
    "DenoiseProgram",
    "EngineConfig",
    "EngineTelemetry",
    "Gauge",
    "Histogram",
    "Iteration",
    "MetricsRegistry",
    "LLMProgram",
    "OutOfBlocks",
    "PROGRAMS",
    "PagedKVCache",
    "Phase",
    "PrefixCache",
    "PrefixCacheStats",
    "ReleaseInfo",
    "Request",
    "RequestMetrics",
    "RequestProgram",
    "RequestState",
    "SLOMonitor",
    "SchedulerConfig",
    "ServeReport",
    "ServingEngine",
    "SpecConfig",
    "Step",
    "SteppedPhase",
    "TelemetryConfig",
    "TokenOracle",
    "WhisperProgram",
    "WorkloadConfig",
    "generate",
    "percentile",
    "program_for",
    "serve_workload",
    "stream_seq_id",
    "summarize",
    "workload_from_json",
    "workload_to_json",
]
