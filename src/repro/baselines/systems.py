"""Baseline system simulators (paper §5.1 comparison set).

Each baseline is an execution *policy* over the shared operator traces and
device models:

* **HF eager** (Transformers + PyTorch eager): one kernel per op, a Python
  host overhead per op, library GEMMs, FlashAttention when the backend has
  it, composed attention (3 kernels) otherwise;
* **HF compile** (torch.compile): elementwise ops fused into neighbors,
  library GEMMs everywhere (no matvec specialization), *static KV cache*
  required — modeled as attention cost over the full context budget, and
  per-shape-bucket recompilation; unsupported for some models (the paper
  omits Qwen2);
* **vLLM**: paged attention (highly tuned), CUDA/ROCm only, small
  scheduler overhead per step, strongest at larger batch sizes;
* **llama.cpp**: hand-written kernels — excellent on Apple Metal, weaker
  CUDA kernels (the paper: "performs less effectively on NVIDIA GPUs"),
  and **CPU-only on Android** (no OpenCL kernels, Fig. 18), native 4-bit;
* whisper family (WhisperX, Faster-Whisper, whisper.cpp) reuse the same
  policies with encoder-decoder traces (§5.4).

The numbers produced are synthetic but mechanistic: they respond to the
same FLOP/byte/launch quantities the Relax VM meters, so who-wins/where
comparisons are driven by real structural differences (fusion, library
use, kernel counts, cache policy), not hard-coded outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..models.llama import LlamaConfig
from ..runtime.device import Device, S24_CPU
from .trace import OpSpec, decoder_step_ops, encoder_ops


@dataclass
class Policy:
    """How a system turns an op trace into kernels and time."""

    name: str
    host_overhead_per_op: float  # framework Python/C++ dispatch cost
    step_overhead: float  # per-forward scheduling cost
    gemm_efficiency: str  # "lib" | "gen" | explicit float via custom
    attention_kernels: int  # 1 = fused/flash, 3 = composed
    fuse_ewise: bool  # elementwise/norm ops folded into neighbors
    backends: tuple
    custom_gemm_eff: Optional[float] = None
    custom_attn_eff: Optional[float] = None
    supports_quant: bool = True
    cpu_fallback_backends: tuple = ()  # backends where only CPU is used


class BaselineSystem:
    def __init__(self, policy: Policy):
        self.policy = policy

    @property
    def name(self) -> str:
        return self.policy.name

    def supports(self, device: Device, cfg: Optional[LlamaConfig] = None) -> bool:
        p = self.policy
        return device.backend in p.backends or device.backend in p.cpu_fallback_backends

    def _effective_device(self, device: Device) -> Device:
        if device.backend in self.policy.cpu_fallback_backends:
            return S24_CPU  # hand-written CPU path (Fig. 18's llama.cpp)
        return device

    def _gemm_eff(self, device: Device) -> float:
        p = self.policy
        if p.custom_gemm_eff is not None:
            return p.custom_gemm_eff
        return device.lib_efficiency if p.gemm_efficiency == "lib" else device.gen_efficiency

    def _attn_eff(self, device: Device) -> float:
        if self.policy.custom_attn_eff is not None:
            return self.policy.custom_attn_eff
        return self._gemm_eff(device)

    def run_trace(self, ops: List[OpSpec], device: Device) -> float:
        """Time one forward step of the given op trace."""
        p = self.policy
        device = self._effective_device(device)
        time = p.step_overhead
        for op in ops:
            if p.fuse_ewise and op.kind in ("ewise", "norm", "embed"):
                # Folded into a neighboring kernel: bandwidth still paid,
                # launch and host overhead amortized away.
                time += device.kernel_time(
                    op.flops, op.bytes, device.gen_efficiency, include_launch=False
                )
                continue
            kernels = p.attention_kernels if op.kind == "attention" else 1
            eff = self._attn_eff(device) if op.kind == "attention" else (
                self._gemm_eff(device) if op.kind == "gemm" else device.gen_efficiency
            )
            for _ in range(kernels):
                time += device.kernel_time(
                    op.flops / kernels, op.bytes / kernels, eff, include_launch=True
                )
                time += p.host_overhead_per_op
        return time

    # -- LLM workloads ----------------------------------------------------------

    def decode_step_time(self, cfg: LlamaConfig, device: Device, batch: int,
                         context: int) -> float:
        ops = decoder_step_ops(cfg, batch, s=1, past=context)
        return self.run_trace(ops, device)

    def prefill_time(self, cfg: LlamaConfig, device: Device, batch: int,
                     seq: int) -> float:
        ops = decoder_step_ops(cfg, batch, s=seq, past=0)
        return self.run_trace(ops, device)

    def encode_time(self, cfg: LlamaConfig, device: Device, batch: int,
                    seq: int) -> float:
        return self.run_trace(encoder_ops(cfg, batch, seq), device)


class HFCompileSystem(BaselineSystem):
    """torch.compile: static KV cache — attention runs over the full
    context budget regardless of the live length (the paper: "it still
    requires static KV cache")."""

    def decode_step_time(self, cfg, device, batch, context):
        # Static cache sized to the next power-of-two bucket: attention and
        # cache traffic cost the bucket length, and crossing a bucket
        # boundary would recompile (modeled as steady state here).
        bucket = 512
        while bucket < context + 1:
            bucket *= 2
        bucket = min(bucket, cfg.context_length)
        ops = decoder_step_ops(cfg, batch, s=1, past=bucket - 1)
        return self.run_trace(ops, device)


HF_EAGER = BaselineSystem(Policy(
    name="HF (eager)",
    host_overhead_per_op=0.0,  # device.framework_op_overhead applied below
    step_overhead=60e-6,
    gemm_efficiency="lib",
    attention_kernels=1,  # FlashAttention enabled when available (§5.1)
    fuse_ewise=False,
    backends=("cuda", "rocm", "metal"),
))

HF_COMPILE = HFCompileSystem(Policy(
    name="HF (compile)",
    host_overhead_per_op=1.5e-6,
    step_overhead=30e-6,
    gemm_efficiency="lib",
    attention_kernels=1,
    fuse_ewise=True,
    backends=("cuda", "rocm"),  # no Apple GPU support (paper §5.1)
))

VLLM = BaselineSystem(Policy(
    name="vLLM",
    host_overhead_per_op=2.0e-6,
    step_overhead=150e-6,  # scheduler / continuous batching bookkeeping
    gemm_efficiency="lib",
    attention_kernels=1,
    fuse_ewise=True,
    custom_attn_eff=0.90,  # paged attention kernels
    backends=("cuda", "rocm"),
))

LLAMA_CPP = BaselineSystem(Policy(
    name="llama.cpp",
    host_overhead_per_op=0.5e-6,
    step_overhead=15e-6,
    gemm_efficiency="gen",
    attention_kernels=2,
    fuse_ewise=True,
    # Hand-tuned Metal kernels; weaker CUDA kernels than cuBLAS.
    custom_gemm_eff=None,
    backends=("metal", "cuda", "vulkan", "cpu"),
    cpu_fallback_backends=("opencl",),  # Android: CPU only (Fig. 18)
))


class _LlamaCppSystem(BaselineSystem):
    """llama.cpp's kernel quality depends strongly on the backend."""

    _BACKEND_EFF = {"metal": 0.84, "cuda": 0.52, "vulkan": 0.60, "cpu": 0.70}

    def _gemm_eff(self, device: Device) -> float:
        return self._BACKEND_EFF.get(device.backend, 0.55)


LLAMA_CPP = _LlamaCppSystem(LLAMA_CPP.policy)


class _HFEagerSystem(BaselineSystem):
    """Eager mode pays the framework's per-op host overhead on every op."""

    def run_trace(self, ops, device):
        base = Policy(**{**self.policy.__dict__})
        base.host_overhead_per_op = self._effective_device(device).framework_op_overhead
        return BaselineSystem(base).run_trace(ops, device)


HF_EAGER = _HFEagerSystem(HF_EAGER.policy)

#: Whisper-family baselines (§5.4) reuse the LLM policies: WhisperX and
#: Faster-Whisper are CTranslate2-style optimized inference (compile-like),
#: whisper.cpp mirrors llama.cpp.
WHISPER_HF = HF_EAGER
WHISPER_X = BaselineSystem(Policy(
    name="WhisperX",
    host_overhead_per_op=2.0e-6,
    step_overhead=40e-6,
    gemm_efficiency="lib",
    attention_kernels=1,
    fuse_ewise=True,
    backends=("cuda", "rocm"),  # no Apple GPU support (paper Fig. 19)
))
FASTER_WHISPER = BaselineSystem(Policy(
    name="Faster Whisper",
    host_overhead_per_op=1.8e-6,
    step_overhead=45e-6,
    gemm_efficiency="lib",
    attention_kernels=1,
    fuse_ewise=True,
    backends=("cuda", "rocm"),
))
WHISPER_CPP = _LlamaCppSystem(Policy(
    name="whisper.cpp",
    host_overhead_per_op=0.5e-6,
    step_overhead=15e-6,
    gemm_efficiency="gen",
    attention_kernels=2,
    fuse_ewise=True,
    backends=("metal", "cuda", "vulkan", "cpu"),
))

ALL_LLM_BASELINES = [HF_EAGER, HF_COMPILE, VLLM, LLAMA_CPP]
