"""Relax-side runner for the benchmark harness.

Unlike the baselines (trace policies), the Relax numbers come from the real
compiled artifact: the model is exported through the nn frontend, compiled
by the full pipeline at paper configuration, and executed by the VM in
abstract mode — the actual instruction stream runs, kernels meter on the
device model, allocations and graph capture/replay happen for real.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from .. import transform
from ..models.llama import LlamaConfig, build_llama
from ..runtime import NDArray, VirtualMachine
from ..runtime.device import Device
from ..runtime.profiler import ExecutionStats, ProfileReport
from ..transform import IRStats, PassContext, Timing

#: Compiled-artifact cache: building the same (config, device, flags,
#: bounds) twice — e.g. two serving-engine instantiations, or a benchmark
#: sweeping request rates — reuses the Executable instead of re-running
#: the pipeline.  Keyed structurally, never by object identity.
_COMPILE_CACHE: Dict[Tuple, Tuple] = {}
_COMPILE_CACHE_STATS = {"hits": 0, "misses": 0}


def compile_cache_stats() -> Dict[str, int]:
    """Hit/miss counters of the compile cache (copy).  They count
    *executables*: a speculative pair is two lookups (target and draft),
    so building one cold reads 2 misses and re-instantiating it 2 hits.
    Host-side diagnostics only — in no summary, report or trace."""
    return dict(_COMPILE_CACHE_STATS)


def clear_compile_cache() -> None:
    """Drop cached executables and zero the hit/miss counters."""
    _COMPILE_CACHE.clear()
    _COMPILE_CACHE_STATS["hits"] = 0
    _COMPILE_CACHE_STATS["misses"] = 0


def _cache_key(cfg, device: Device, bounds: Dict[str, int],
               flags: Dict[str, bool], page_size: Optional[int],
               family: str = "llama", tp: int = 1) -> Tuple:
    return (
        family,
        dataclasses.astuple(cfg),
        device.name,
        tuple(sorted(bounds.items())),
        tuple(sorted(flags.items())),
        page_size,
        tp,
    )


def _compile(key: Tuple, mod, device: Device, bounds: Dict[str, int],
             flags: Dict[str, bool]) -> Tuple:
    """``(executable, compile report, cuda-graph flag)`` for ``key``: the
    cached entry, or a fresh build that is then cached.  The one place a
    runner class reaches the compiler."""
    built = _COMPILE_CACHE.get(key)
    if built is not None:
        _COMPILE_CACHE_STATS["hits"] += 1
        return built
    _COMPILE_CACHE_STATS["misses"] += 1
    # One instrumented context drives both the compiler and the VM, so
    # every benchmark artifact carries per-pass compile cost for free.
    ctx = PassContext(
        device=device,
        sym_var_upper_bounds=dict(bounds),
        instruments=[Timing(), IRStats()],
        **flags,
    )
    exe = transform.build(mod, ctx=ctx)
    built = _COMPILE_CACHE[key] = (exe, ctx.report, ctx.enable_cuda_graph)
    return built


def _steady_time(vm, fn: str, *args) -> float:
    """Steady-state simulated time of one ``fn`` call: warm once (graph
    capture, pool growth), reset the stats, run once more."""
    vm.run(fn, *args)
    vm.reset_stats()
    vm.run(fn, *args)
    return vm.stats.time_s


class RelaxLLM:
    """A compiled LLM plus helpers to meter decode/prefill steps."""

    def __init__(
        self,
        cfg: LlamaConfig,
        device: Device,
        *,
        sym_var_upper_bounds: Optional[Dict[str, int]] = None,
        enable_library_dispatch: bool = True,
        enable_fusion: bool = True,
        enable_memory_planning: bool = True,
        enable_cuda_graph: bool = True,
        page_size: Optional[int] = None,
        tp: int = 1,
        interconnect=None,
    ):
        self.cfg = cfg
        self.device = device
        self.page_size = page_size
        self.tp = tp
        self.interconnect = interconnect
        self.exported = build_llama(cfg, page_size=page_size, tp=tp)
        if sym_var_upper_bounds is None:
            bounds = {"b": 64, "s": cfg.context_length, "m": cfg.context_length}
            if page_size is not None:
                bounds["w"] = -(-cfg.context_length // page_size)
        else:
            bounds = sym_var_upper_bounds  # {} means: no declared bounds
        flags = {
            "enable_library_dispatch": enable_library_dispatch,
            "enable_fusion": enable_fusion,
            "enable_memory_planning": enable_memory_planning,
            "enable_cuda_graph": enable_cuda_graph,
        }
        self.exe, self.compile_report, self.enable_cuda_graph = _compile(
            _cache_key(cfg, device, bounds, flags, page_size, tp=tp),
            self.exported.mod, device, bounds, flags)
        if tp > 1:
            from ..dist import MeshExecutor, MeshVM, NVLINK

            self.mesh = MeshExecutor(
                self.exe, device, tp,
                interconnect=interconnect or NVLINK,
                concrete=False,
                enable_cuda_graph=self.enable_cuda_graph,
            )
            self.vm = MeshVM(self.mesh)
        else:
            self.mesh = None
            self.vm = VirtualMachine(
                self.exe, device, concrete=False,
                enable_cuda_graph=self.enable_cuda_graph,
            )
        self.params = self.exported.abstract_params()

    # -- workload helpers -------------------------------------------------------

    def _caches(self, batch: int, length: int) -> List[NDArray]:
        cfg = self.cfg
        shape = (batch, length, cfg.num_kv_heads // self.tp, cfg.head_dim)
        return [
            NDArray.abstract(shape, cfg.dtype)
            for _ in range(2 * cfg.num_layers)
        ]

    def _step_args(self, batch: int, seq: int, cached: int) -> List[NDArray]:
        tokens = NDArray.abstract((batch, seq), "i64")
        return [tokens, *self._caches(batch, cached), *self.params]

    def run_decode(self, batch: int, context: int) -> None:
        self.vm.run("decode", *self._step_args(batch, 1, context))

    def run_prefill(self, batch: int, seq: int, past: int = 0) -> None:
        self.vm.run("prefill", *self._step_args(batch, seq, past))

    def decode_step_time(self, batch: int, context: int) -> float:
        """Steady-state simulated time of one decode step."""
        return _steady_time(self.vm, "decode",
                            *self._step_args(batch, 1, context))

    def prefill_time(self, batch: int, seq: int) -> float:
        return _steady_time(self.vm, "prefill",
                            *self._step_args(batch, seq, 0))

    def decode_throughput(self, batch: int, context: int) -> float:
        """Tokens per second per sequence at steady state."""
        return batch / self.decode_step_time(batch, context)

    def stats_snapshot(self) -> ExecutionStats:
        return self.vm.stats

    def profile_report(self) -> ProfileReport:
        """Execution stats joined with the compile-time pipeline report."""
        return ProfileReport.from_vm(self.vm)

    def op_profile(self, batch: int, context: int, *, fn: str = "decode",
                   seq: int = 16):
        """Trace one steady-state step on a *fresh* profiler VM.

        Builds a :class:`repro.obs.VirtualMachineProfiler` from the same
        executable (``self.vm`` and its captured graphs are untouched, so
        cached runners stay bit-identical), warms it once, then records one
        ``fn`` step.  Returns the profiler VM; pull ``op_table()``,
        ``memory_timeline()`` or ``export_chrome_trace()`` off it.
        """
        from ..obs import VirtualMachineProfiler

        pvm = VirtualMachineProfiler(
            self.exe, self.device, concrete=False,
            enable_cuda_graph=self.enable_cuda_graph,
        )
        if fn not in ("decode", "prefill"):
            raise ValueError(f"unknown function {fn!r}")
        args = self._step_args(batch, 1 if fn == "decode" else seq, context)
        pvm.run(fn, *args)
        pvm.reset()
        pvm.run(fn, *args)
        return pvm


class RelaxSpecPair:
    """A compiled (target, draft) model pair for speculative serving.

    Two :class:`RelaxLLM` runners, each keyed in the compile cache on its
    own: a benchmark sweeping acceptance rates or request rates
    re-instantiates the serving engine per point and compiles neither
    model again, and a target a vanilla engine already compiled is
    reused as is.

    The draft defaults to :func:`repro.models.draft_config` applied to
    the target (same vocabulary and context length — token streams and
    block tables line up — but a fraction of the width and depth, which
    is what makes drafting cheap on the analytical clock).
    """

    def __init__(
        self,
        cfg: LlamaConfig,
        draft_cfg: Optional[LlamaConfig],
        device: Device,
        *,
        tp: int = 1,
        interconnect=None,
        **llm_kwargs,
    ):
        from ..models.llama import draft_config

        if draft_cfg is None:
            draft_cfg = draft_config(cfg)
        if draft_cfg.vocab_size != cfg.vocab_size:
            raise ValueError(
                "draft and target must share a vocabulary "
                f"({draft_cfg.vocab_size} != {cfg.vocab_size})"
            )
        self.target = RelaxLLM(cfg, device, tp=tp, interconnect=interconnect,
                               **llm_kwargs)
        # The draft stays unsharded: it is already a fraction of the
        # target's width, so splitting it buys nothing but collectives.
        self.draft = RelaxLLM(draft_cfg, device, **llm_kwargs)

    @property
    def cfg(self) -> LlamaConfig:
        return self.target.cfg

    @property
    def draft_cfg(self) -> LlamaConfig:
        return self.draft.cfg


class RelaxWhisper:
    """Compiled Whisper encoder-decoder on the analytical device model.

    With ``page_size`` set, the paged serving entry points
    (``encode_chunk`` / ``cross_project`` / ``decode_paged``) are compiled
    in as well — the serving engine drives Whisper requests through this
    runner.  Compilation goes through the same instrumented
    :class:`PassContext` and compile cache as :class:`RelaxLLM`, so
    Whisper benchmark artifacts carry per-pass timings too.
    """

    def __init__(self, cfg, device: Device,
                 sym_var_upper_bounds: Optional[Dict[str, int]] = None,
                 *,
                 page_size: Optional[int] = None,
                 enable_library_dispatch: bool = True,
                 enable_fusion: bool = True,
                 enable_memory_planning: bool = True):
        from ..models.whisper import build_whisper

        self.cfg = cfg
        self.device = device
        self.page_size = page_size
        self.exported = build_whisper(cfg, page_size=page_size)
        if sym_var_upper_bounds is None:
            bounds = {
                "b": 8, "f": cfg.max_frames, "m": cfg.max_target,
                "t": cfg.enc_positions,
            }
            if page_size is not None:
                bounds["w"] = -(-cfg.max_target // page_size)
                bounds["u"] = -(-cfg.enc_positions // page_size)
        else:
            bounds = sym_var_upper_bounds
        flags = {
            "enable_library_dispatch": enable_library_dispatch,
            "enable_fusion": enable_fusion,
            "enable_memory_planning": enable_memory_planning,
        }
        self.exe, self.compile_report, _ = _compile(
            _cache_key(cfg, device, bounds, flags, page_size,
                       family="whisper"),
            self.exported.mod, device, bounds, flags)
        self.vm = VirtualMachine(self.exe, device, concrete=False)
        self.params = self.exported.abstract_params()

    def encode_time(self, batch: int, frames: int) -> float:
        mel = NDArray.abstract((batch, frames, self.cfg.n_mel), self.cfg.dtype)
        return _steady_time(self.vm, "encode", mel, *self.params)

    def decode_step_time(self, batch: int, past: int, enc_len: int) -> float:
        cfg = self.cfg
        tokens = NDArray.abstract((batch, 1), "i64")
        self_caches = [
            NDArray.abstract((batch, past, cfg.num_heads, cfg.head_dim), cfg.dtype)
            for _ in range(2 * cfg.decoder_layers)
        ]
        cross = [
            NDArray.abstract((batch, enc_len, cfg.num_heads, cfg.head_dim), cfg.dtype)
            for _ in range(2 * cfg.decoder_layers)
        ]
        return _steady_time(self.vm, "decode", tokens, *self_caches, *cross,
                            *self.params)

    def transcribe_time(self, frames: int, n_tokens: int, batch: int = 1) -> float:
        """Encode once + ``n_tokens`` decode steps (trapezoid over cache
        growth: decode cost is affine in the cache length)."""
        enc_len = frames // 2
        total = self.encode_time(batch, frames)
        first = self.decode_step_time(batch, 1, enc_len)
        last = self.decode_step_time(batch, n_tokens, enc_len)
        total += n_tokens * (first + last) / 2.0
        return total


class RelaxDenoise:
    """Compiled iterative-denoise model on the analytical device model."""

    def __init__(self, cfg, device: Device,
                 sym_var_upper_bounds: Optional[Dict[str, int]] = None):
        from ..models.denoise import build_denoise

        self.cfg = cfg
        self.device = device
        self.exported = build_denoise(cfg)
        bounds = sym_var_upper_bounds or {"b": 64, "n": cfg.latent_tokens}
        self.exe, self.compile_report, _ = _compile(
            _cache_key(cfg, device, bounds, {}, None, family="denoise"),
            self.exported.mod, device, bounds, {})
        self.vm = VirtualMachine(self.exe, device, concrete=False)
        self.params = self.exported.abstract_params()

    def step_time(self, batch: int = 1) -> float:
        """Steady-state simulated time of one denoise iteration."""
        latent = NDArray.abstract(
            (batch, self.cfg.latent_tokens, self.cfg.latent_dim),
            self.cfg.dtype,
        )
        return _steady_time(self.vm, "denoise_step", latent, *self.params)


class RelaxLlava:
    """Compiled LLaVA (vision tower + Vicuna) on the device model."""

    def __init__(self, cfg, device: Device,
                 sym_var_upper_bounds: Optional[Dict[str, int]] = None):
        from ..models.llava import build_llava

        self.cfg = cfg
        self.device = device
        self.exported = build_llava(cfg)
        bounds = sym_var_upper_bounds or {
            "b": 8, "s": cfg.vision.num_patches + 64,
            "m": cfg.llm.context_length, "t": cfg.vision.num_patches,
        }
        self.exe = transform.build(
            self.exported.mod, device, sym_var_upper_bounds=bounds
        )
        self.vm = VirtualMachine(self.exe, device, concrete=False)
        self.params = self.exported.abstract_params()

    def _llm_caches(self, batch: int, length: int):
        llm = self.cfg.llm
        return [
            NDArray.abstract((batch, length, llm.num_kv_heads, llm.head_dim),
                             llm.dtype)
            for _ in range(2 * llm.num_layers)
        ]

    def generation_time(self, n_tokens: int = 32, batch: int = 1) -> float:
        """Image encode + image prefill + ``n_tokens`` decode steps."""
        vis = self.cfg.vision
        patches = NDArray.abstract((batch, vis.num_patches, vis.patch_dim),
                                   vis.dtype)
        total = _steady_time(self.vm, "encode_image", patches, *self.params)

        embeds = NDArray.abstract(
            (batch, vis.num_patches, self.cfg.llm.hidden_size), self.cfg.llm.dtype
        )
        total += _steady_time(
            self.vm, "prefill_embeds", embeds, *self._llm_caches(batch, 0),
            *self.params,
        )

        tokens = NDArray.abstract((batch, 1), "i64")
        first = _steady_time(
            self.vm, "decode", tokens,
            *self._llm_caches(batch, vis.num_patches), *self.params,
        )
        last = _steady_time(
            self.vm, "decode", tokens,
            *self._llm_caches(batch, vis.num_patches + n_tokens), *self.params,
        )
        total += n_tokens * (first + last) / 2.0
        return total
