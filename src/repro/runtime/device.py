"""Analytical device models.

The paper evaluates on physical GPUs (RTX 4090, Radeon 7900 XTX, M2 Ultra),
phones, SBCs and WebGPU.  None of that hardware is available here, so each
device is modeled with a roofline-style clock (documented in DESIGN.md §2):

    kernel_time = launch_overhead
                + max(flops / (peak_flops * eff), bytes / (bandwidth * eff))

Every optimization the paper measures changes what this model observes —
fusion reduces launches and global-memory bytes, library dispatch raises
the efficiency factor on heavy GEMMs, CUDA Graph amortizes launch overhead,
memory planning changes allocation totals — so comparisons keep the paper's
*shape* even though the absolute clock is synthetic.

Efficiency factors encode the paper's observations:

* ``lib_efficiency`` > ``gen_efficiency`` for large matmuls (why partial
  library lowering wins at big batch sizes, Fig. 17);
* ``gen_matvec_efficiency`` > ``lib_efficiency`` at batch 1 (why Relax's
  compiler-generated matrix-vector kernels win there, §5.1 / Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict


@dataclass(frozen=True)
class Device:
    """A modeled execution target."""

    name: str
    backend: str  # cuda | rocm | metal | opencl | vulkan | webgpu | cpu
    peak_flops: float  # FLOP/s (fp16 tensor-ish rate)
    mem_bandwidth: float  # bytes/s
    vram_bytes: int
    kernel_launch_overhead: float  # seconds per kernel launch
    graph_launch_overhead: float  # seconds per captured-graph replay
    framework_op_overhead: float  # per-op host overhead of eager frameworks
    gen_efficiency: float = 0.60  # compiler-generated kernels (general)
    gen_gemm_efficiency: float = 0.55  # analysis-scheduled GEMM (no autotuning)
    lib_efficiency: float = 0.90  # vendor library kernels (cuBLAS et al.)
    gen_matvec_efficiency: float = 0.92  # specialized batch-1 matvec codegen
    has_vendor_library: bool = True
    alloc_overhead: float = 2e-6  # runtime allocator cost per allocation
    #: Per-node device-side dispatch cost inside a captured graph; fusion
    #: keeps paying off under CUDA Graph because fewer nodes replay.
    graph_kernel_overhead: float = 0.15e-6

    def kernel_roofline(self, flops: float, bytes_moved: float,
                        efficiency: float) -> float:
        """Device-side kernel duration: the roofline max, without launch."""
        compute = flops / (self.peak_flops * efficiency)
        # Achieved bandwidth tracks kernel quality with a small bonus
        # (memory streaming is easier than peak math), capped below 1.
        memory = bytes_moved / (self.mem_bandwidth * min(0.97, efficiency + 0.08))
        return max(compute, memory)

    def kernel_time(self, flops: float, bytes_moved: float,
                    efficiency: float, include_launch: bool = True) -> float:
        time = self.kernel_roofline(flops, bytes_moved, efficiency)
        if include_launch:
            time += self.kernel_launch_overhead
        return time

    def with_overrides(self, **kwargs) -> "Device":
        return replace(self, **kwargs)


# -- the paper's evaluation devices (§5.1, §5.3, §5.4) --------------------------

RTX_4090 = Device(
    name="NVIDIA RTX 4090",
    backend="cuda",
    peak_flops=165e12,  # fp16 w/ fp32 accumulate, non-sparsity
    mem_bandwidth=1008e9,
    vram_bytes=24 << 30,
    kernel_launch_overhead=0.7e-6,
    graph_launch_overhead=3.0e-6,
    framework_op_overhead=9.0e-6,
)

RADEON_7900XTX = Device(
    name="AMD Radeon 7900 XTX",
    backend="rocm",
    peak_flops=122e12,
    mem_bandwidth=960e9,
    vram_bytes=24 << 30,
    kernel_launch_overhead=1.0e-6,
    graph_launch_overhead=4.0e-6,
    framework_op_overhead=11.0e-6,
    lib_efficiency=0.80,  # rocBLAS tuning gap vs cuBLAS
)

M2_ULTRA = Device(
    name="Apple M2 Ultra",
    backend="metal",
    peak_flops=54e12,
    mem_bandwidth=800e9,
    vram_bytes=96 << 30,  # unified memory budget for GPU use
    kernel_launch_overhead=1.5e-6,
    graph_launch_overhead=5.0e-6,
    framework_op_overhead=14.0e-6,
    lib_efficiency=0.84,  # MPS
    gen_matvec_efficiency=0.90,
)

IPHONE_14_PRO = Device(
    name="iPhone 14 Pro (A16, Metal)",
    backend="metal",
    peak_flops=2.0e12,
    mem_bandwidth=51e9,
    vram_bytes=4 << 30,
    kernel_launch_overhead=15e-6,
    graph_launch_overhead=18e-6,
    framework_op_overhead=25e-6,
    has_vendor_library=False,
    gen_efficiency=0.35,
    gen_gemm_efficiency=0.30,
    gen_matvec_efficiency=0.45,
)

SAMSUNG_S23 = Device(
    name="Samsung S23 (Adreno 740, OpenCL)",
    backend="opencl",
    peak_flops=3.4e12,
    mem_bandwidth=67e9,
    vram_bytes=6 << 30,
    kernel_launch_overhead=20e-6,
    graph_launch_overhead=24e-6,
    framework_op_overhead=30e-6,
    has_vendor_library=False,
    gen_efficiency=0.40,
    gen_gemm_efficiency=0.32,
    gen_matvec_efficiency=0.55,
)

SAMSUNG_S24 = Device(
    name="Samsung S24 (Adreno 750, OpenCL)",
    backend="opencl",
    peak_flops=4.6e12,
    mem_bandwidth=77e9,
    vram_bytes=6 << 30,
    kernel_launch_overhead=18e-6,
    graph_launch_overhead=22e-6,
    framework_op_overhead=28e-6,
    has_vendor_library=False,
    gen_efficiency=0.40,
    gen_gemm_efficiency=0.32,
    gen_matvec_efficiency=0.55,
)

#: CPU of the Samsung S24 — what llama.cpp falls back to without GPU kernels
#: for Android (Fig. 18's comparison).
S24_CPU = Device(
    name="Samsung S24 (CPU)",
    backend="cpu",
    peak_flops=0.55e12,
    mem_bandwidth=34e9,
    vram_bytes=6 << 30,
    kernel_launch_overhead=0.3e-6,
    graph_launch_overhead=0.3e-6,
    framework_op_overhead=1.0e-6,
    has_vendor_library=False,
)

ORANGE_PI_5 = Device(
    name="Orange Pi 5 (Mali-G610, OpenCL)",
    backend="opencl",
    peak_flops=1.0e12,
    mem_bandwidth=19e9,
    vram_bytes=8 << 30,
    kernel_launch_overhead=30e-6,
    graph_launch_overhead=35e-6,
    framework_op_overhead=45e-6,
    has_vendor_library=False,
    gen_efficiency=0.35,
    gen_gemm_efficiency=0.28,
    gen_matvec_efficiency=0.45,
)

STEAM_DECK = Device(
    name="Steam Deck (AMD APU, Vulkan)",
    backend="vulkan",
    peak_flops=3.2e12,
    mem_bandwidth=88e9,
    vram_bytes=12 << 30,
    kernel_launch_overhead=10e-6,
    graph_launch_overhead=12e-6,
    framework_op_overhead=18e-6,
    has_vendor_library=False,
    gen_efficiency=0.50,
    gen_gemm_efficiency=0.40,
    gen_matvec_efficiency=0.70,
)

JETSON_ORIN = Device(
    name="NVIDIA Jetson Orin (CUDA)",
    backend="cuda",
    peak_flops=10.6e12,
    mem_bandwidth=205e9,
    vram_bytes=32 << 30,
    kernel_launch_overhead=2.0e-6,
    graph_launch_overhead=6e-6,
    framework_op_overhead=15e-6,
    gen_efficiency=0.45,
    gen_gemm_efficiency=0.38,
    gen_matvec_efficiency=0.50,
)

WEBGPU_M3_MAX = Device(
    name="WebGPU on Apple M3 Max",
    backend="webgpu",
    peak_flops=28e12,
    mem_bandwidth=400e9,
    vram_bytes=32 << 30,
    kernel_launch_overhead=14e-6,
    graph_launch_overhead=16e-6,
    framework_op_overhead=22e-6,
    has_vendor_library=False,
    gen_efficiency=0.50,
    gen_gemm_efficiency=0.40,
    gen_matvec_efficiency=0.65,
)

#: A tiny idealized device used by unit tests (fast, deterministic numbers).
TEST_DEVICE = Device(
    name="test-device",
    backend="cuda",
    peak_flops=1e12,
    mem_bandwidth=1e11,
    vram_bytes=1 << 30,
    kernel_launch_overhead=1e-6,
    graph_launch_overhead=2e-6,
    framework_op_overhead=5e-6,
)

ALL_DEVICES: Dict[str, Device] = {
    dev.name: dev
    for dev in [
        RTX_4090,
        RADEON_7900XTX,
        M2_ULTRA,
        IPHONE_14_PRO,
        SAMSUNG_S23,
        SAMSUNG_S24,
        S24_CPU,
        ORANGE_PI_5,
        STEAM_DECK,
        JETSON_ORIN,
        WEBGPU_M3_MAX,
        TEST_DEVICE,
    ]
}
