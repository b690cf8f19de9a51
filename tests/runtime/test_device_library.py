"""Device model and library registry tests."""

import numpy as np
import pytest

from repro.runtime import (
    ALL_DEVICES,
    LibraryKernel,
    LibraryRegistry,
    REGISTRY,
    RTX_4090,
    TEST_DEVICE,
)
from repro.runtime.profiler import to_as


class TestDeviceModel:
    def test_kernel_time_monotone_in_flops(self):
        t1 = TEST_DEVICE.kernel_time(1e9, 0, 0.5)
        t2 = TEST_DEVICE.kernel_time(2e9, 0, 0.5)
        assert t2 > t1

    def test_kernel_time_monotone_in_bytes(self):
        t1 = TEST_DEVICE.kernel_time(0, 1e6, 0.5)
        t2 = TEST_DEVICE.kernel_time(0, 2e6, 0.5)
        assert t2 > t1

    def test_higher_efficiency_is_faster(self):
        slow = TEST_DEVICE.kernel_time(1e12, 1e9, 0.3)
        fast = TEST_DEVICE.kernel_time(1e12, 1e9, 0.9)
        assert fast < slow

    def test_roofline_max(self):
        # Memory-bound kernel: time set by bytes, not flops.
        mem = TEST_DEVICE.kernel_time(1, 1e9, 1.0, include_launch=False)
        both = TEST_DEVICE.kernel_time(1e3, 1e9, 1.0, include_launch=False)
        assert mem == both

    def test_launch_overhead_toggle(self):
        with_l = TEST_DEVICE.kernel_time(1e6, 1e6, 0.5, include_launch=True)
        without = TEST_DEVICE.kernel_time(1e6, 1e6, 0.5, include_launch=False)
        assert (to_as(with_l - without)
                == to_as(TEST_DEVICE.kernel_launch_overhead))

    def test_with_overrides(self):
        faster = TEST_DEVICE.with_overrides(mem_bandwidth=2e11)
        assert faster.mem_bandwidth == 2e11
        assert TEST_DEVICE.mem_bandwidth == 1e11  # original untouched

    def test_all_devices_well_formed(self):
        for device in ALL_DEVICES.values():
            assert device.peak_flops > 0
            assert device.mem_bandwidth > 0
            assert device.vram_bytes > 0
            assert 0 < device.gen_efficiency <= 1
            assert 0 < device.lib_efficiency <= 1
            assert device.kernel_launch_overhead >= 0

    def test_paper_device_set_complete(self):
        names = set(ALL_DEVICES)
        for fragment in ("4090", "7900", "M2 Ultra", "iPhone", "S23", "S24",
                         "Orange Pi", "Steam Deck", "Jetson", "WebGPU"):
            assert any(fragment in n for n in names), fragment


class TestRegistry:
    def test_default_entries(self):
        for name in ("cublas.matmul", "cublas.matmul_nt", "cutlass.rms_norm",
                     "cudnn.softmax", "flashinfer.attention"):
            assert name in REGISTRY

    def test_availability_by_backend(self):
        assert REGISTRY.available("cublas.matmul", "cuda")
        assert REGISTRY.available("cublas.matmul", "metal")
        assert not REGISTRY.available("cublas.matmul", "opencl")
        assert not REGISTRY.available("flashinfer.attention", "metal")

    def test_duplicate_registration_rejected(self):
        reg = LibraryRegistry()
        k = LibraryKernel("x", lambda i, o: None, lambda i, o: (0, 0), ("cuda",))
        reg.register(k)
        with pytest.raises(ValueError):
            reg.register(k)
        reg.register(k, override=True)  # explicit override allowed

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            REGISTRY.get("nope.kernel")

    def test_matmul_nt_compute(self):
        kernel = REGISTRY.get("cublas.matmul_nt")
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((5, 4)).astype(np.float32)  # stored (N, K)
        out = np.zeros((3, 5), dtype=np.float32)
        kernel.compute([a, b], [out])
        np.testing.assert_allclose(out, a @ b.T, rtol=1e-5)

    def test_matvec_runtime_specialization(self):
        kernel = REGISTRY.get("cublas.matmul")
        # rows == 1 -> compiler matvec; rows > 1 -> vendor library.
        assert kernel.efficiency_class(
            [((1, 64), "f16"), ((64, 32), "f16")], [((1, 32), "f16")]
        ) == "gen_matvec"
        assert kernel.efficiency_class(
            [((8, 64), "f16"), ((64, 32), "f16")], [((8, 32), "f16")]
        ) == "lib"

    def test_attention_cost_scales_with_context(self):
        kernel = REGISTRY.get("flashinfer.attention")
        small = kernel.cost(
            [((1, 1, 8, 64), "f16"), ((1, 128, 8, 64), "f16"),
             ((1, 128, 8, 64), "f16")],
            [((1, 1, 8, 64), "f16")],
        )
        large = kernel.cost(
            [((1, 1, 8, 64), "f16"), ((1, 1024, 8, 64), "f16"),
             ((1, 1024, 8, 64), "f16")],
            [((1, 1, 8, 64), "f16")],
        )
        assert large[0] > small[0] and large[1] > small[1]

    def test_custom_registration(self):
        from repro.runtime import register_custom

        name = "test.custom_gelu"
        if name not in REGISTRY:
            register_custom(
                name,
                compute=lambda i, o: None,
                cost=lambda i, o: (1, 1),
                backends=("cuda",),
            )
        assert REGISTRY.available(name, "cuda")
        assert not REGISTRY.available(name, "metal")
