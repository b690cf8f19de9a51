"""Cross-validations between independent implementations.

The repo has several deliberately redundant computation paths — generated
tensor programs vs library kernels, concrete vs abstract mode, first run vs
graph replay.  These tests pit them against each other: any divergence
means one of the paths drifted.
"""

import numpy as np
import pytest

from repro import ops, transform
from repro.core import BlockBuilder, TensorAnn
from repro.models import TINY_LLAMA, build_llama, empty_caches
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine

RNG = np.random.default_rng(31)


def _attention_module(h, kv, causal):
    bb = BlockBuilder()
    d = 8
    with bb.function(
        "f",
        {
            "q": TensorAnn(("b", "s", h, d), "f32"),
            "k": TensorAnn(("b", "m", kv, d), "f32"),
            "v": TensorAnn(("b", "m", kv, d), "f32"),
        },
    ) as frame:
        q, k, v = frame.params
        with bb.dataflow():
            out = bb.emit(ops.attention(q, k, v, causal=causal))
            gv = bb.emit_output(out)
        bb.emit_func_output(gv)
    return bb.get()


class TestGeneratedVsLibraryAttention:
    @pytest.mark.parametrize("h,kv", [(4, 4), (4, 2), (4, 1)],
                             ids=["mha", "gqa2", "mqa"])
    @pytest.mark.parametrize("s,m", [(1, 6), (4, 4)], ids=["decode", "prefill"])
    def test_paths_agree(self, h, kv, s, m):
        """The generated multi-stage attention kernel and the FlashAttention
        registry kernel must compute the same thing (incl. GQA grouping and
        causal masking)."""
        d = 8
        q = RNG.standard_normal((2, s, h, d)).astype(np.float32)
        k = RNG.standard_normal((2, m, kv, d)).astype(np.float32)
        v = RNG.standard_normal((2, m, kv, d)).astype(np.float32)
        args = [NDArray.from_numpy(a) for a in (q, k, v)]

        outs = {}
        for library in (False, True):
            mod = _attention_module(h, kv, causal=True)
            exe = transform.build(mod, TEST_DEVICE,
                                  enable_library_dispatch=library)
            vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
            outs[library] = vm.run("f", *args).numpy()
            if library:
                assert vm.stats.lib_calls == 1
        np.testing.assert_allclose(outs[True], outs[False], rtol=1e-4,
                                   atol=1e-5)

    def test_non_causal_stays_generated(self):
        """Non-causal attention (Whisper cross-attention) must not dispatch
        to the causal-only library kernel."""
        mod = _attention_module(2, 2, causal=False)
        exe = transform.build(mod, TEST_DEVICE, enable_library_dispatch=True)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        vm.run("f", NDArray.abstract((1, 3, 2, 8), "f32"),
               NDArray.abstract((1, 5, 2, 8), "f32"),
               NDArray.abstract((1, 5, 2, 8), "f32"))
        assert vm.stats.lib_calls == 0


class TestAbstractConcreteParity:
    def test_same_instruction_stream(self):
        """Both modes execute identical instruction counts and shapes."""
        exported = build_llama(TINY_LLAMA)
        exported.module.initialize(seed=0, scale=0.1)
        exe = transform.build(exported.mod, TEST_DEVICE,
                              enable_library_dispatch=False)

        tokens = np.array([[1, 2, 3]], dtype=np.int64)

        vm_c = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        out_c = vm_c.run("prefill", NDArray.from_numpy(tokens),
                         *empty_caches(TINY_LLAMA, 1, True),
                         *exported.concrete_params())

        vm_a = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        out_a = vm_a.run("prefill", NDArray.abstract((1, 3), "i64"),
                         *empty_caches(TINY_LLAMA, 1, False),
                         *exported.abstract_params())

        assert vm_c.stats.kernel_launches == vm_a.stats.kernel_launches
        assert vm_c.stats.allocations == vm_a.stats.allocations
        assert vm_c.stats.time_as == vm_a.stats.time_as
        for c, a in zip(out_c, out_a):
            assert c.shape == a.shape
        assert not out_a[0].is_concrete and out_c[0].is_concrete


class TestGraphReplayNumerics:
    def test_replayed_decode_matches_fresh_vm(self):
        """Graph replay (steady state) must compute the same logits as a
        fresh un-replayed execution."""
        exported = build_llama(TINY_LLAMA)
        exported.module.initialize(seed=7, scale=0.1)
        exe = transform.build(
            exported.mod, TEST_DEVICE,
            sym_var_upper_bounds={"b": 2, "s": 16, "m": 16},
        )
        params = exported.concrete_params()
        tokens = np.array([[5]], dtype=np.int64)
        caches = empty_caches(TINY_LLAMA, 1, True)

        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        first = vm.run("decode", NDArray.from_numpy(tokens), *caches, *params)
        replay = vm.run("decode", NDArray.from_numpy(tokens), *caches, *params)
        assert vm.stats.graph_replays >= 1
        np.testing.assert_allclose(first[0].numpy(), replay[0].numpy())

        fresh = VirtualMachine(exe, TEST_DEVICE, concrete=True,
                               enable_cuda_graph=False)
        plain = fresh.run("decode", NDArray.from_numpy(tokens), *caches, *params)
        np.testing.assert_allclose(replay[0].numpy(), plain[0].numpy())


class TestBigModulePrinting:
    def test_format_module_smoke(self):
        from repro.core import format_module

        exported = build_llama(TINY_LLAMA)
        text = format_module(exported.mod)
        assert "def prefill" in text and "def decode" in text
        # Lowered module prints too (memory ops, DPS calls).
        from repro.transform import PassContext, optimize

        lowered = optimize(exported.mod,
                           PassContext(enable_library_dispatch=False))
        text = format_module(lowered)
        assert "memory.alloc" in text
        assert "vm.call_tir_dps" in text
        assert "@tensorir_function" in text
