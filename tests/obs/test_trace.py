"""Tracing VM: exact accounting, provenance on every kernel, zero cost off."""

import numpy as np

from repro import ops, transform
from repro.core import BlockBuilder, TensorAnn, const
from repro.obs import TraceRecorder
from repro.runtime import TEST_DEVICE, VirtualMachine
from repro.runtime.ndarray import NDArray
from repro.runtime.profiler import to_as


def _build(n_bound=64, **flags):
    bb = BlockBuilder()
    with bb.function("main", {"x": TensorAnn(("n", 4), "f32")}) as frame:
        (x,) = frame.params
        w = const(np.ones((4, 4), np.float32))
        with bb.dataflow():
            h = bb.emit(ops.matmul(x, w))
            h = bb.emit(ops.relu(h))
            h = bb.emit(ops.silu(h))
            gv = bb.emit_output(h)
        bb.emit_func_output(gv)
    return transform.build(bb.get(), TEST_DEVICE,
                           sym_var_upper_bounds={"n": n_bound}, **flags)


def _run(vm, n=8):
    x = NDArray.from_numpy(np.ones((n, 4), np.float32))
    return vm.run("main", x)


class TestExactAccounting:
    def test_event_durations_sum_to_clock(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        _run(vm)  # second run: graph replay path
        assert vm.tracer.total_time_as() == vm.stats.time_as

    def test_disabled_tracing_is_bit_identical(self):
        plain = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        traced = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        traced.tracer = TraceRecorder()
        for _ in range(2):
            _run(plain)
            _run(traced)
        assert plain.stats.time_s == traced.stats.time_s
        assert plain.stats.peak_bytes == traced.stats.peak_bytes
        assert plain.stats.kernel_launches == traced.stats.kernel_launches

    def test_kernel_and_launch_split(self):
        vm = VirtualMachine(_build(enable_cuda_graph=False), TEST_DEVICE,
                            concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        kernels = vm.tracer.kernel_events()
        assert kernels
        for e in kernels:
            if e.kind == "builtin":
                continue
            assert e.args["roofline_s"] >= 0.0
            assert (to_as(e.args["roofline_s"]) + to_as(e.args["launch_s"])
                    == e.dur_as)
            # Outside graph replay, every launch pays the overhead.
            assert e.args["launch_s"] == TEST_DEVICE.kernel_launch_overhead


class TestProvenance:
    def test_every_kernel_event_has_provenance(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        kernels = [e for e in vm.tracer.kernel_events()
                   if e.kind in ("kernel", "library")]
        assert kernels
        for e in kernels:
            assert e.prov, f"kernel event {e.name!r} lost its provenance"

    def test_fused_kernel_carries_merged_chain(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        chains = [e.prov for e in vm.tracer.events if len(e.prov) > 1]
        assert chains, "fusion should produce at least one multi-site chain"


class TestStructuredEvents:
    def test_capture_then_replay_events(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        _run(vm)
        kinds = [e.kind for e in vm.tracer.events]
        assert "graph_capture" in kinds
        assert "graph_replay" in kinds
        replay = next(e for e in vm.tracer.events if e.kind == "graph_replay")
        assert replay.args["kernels"] > 0

    def test_alloc_events_carry_sizes(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        allocs = [e for e in vm.tracer.events if e.kind == "alloc"]
        assert allocs
        for e in allocs:
            assert e.args["size"] > 0

    def test_pool_free_events_without_planning(self):
        vm = VirtualMachine(_build(enable_memory_planning=False),
                            TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        kinds = {e.kind for e in vm.tracer.events}
        assert "free" in kinds, "kill instructions should emit free events"

    def test_symbolic_bindings_recorded(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm, n=8)
        syms = [e.args.get("sym") for e in vm.tracer.events
                if e.kind == "kernel" and e.args.get("sym")]
        assert any(s.get("n") == 8 for s in syms), (
            "kernel events should record the concrete binding of n"
        )

    def test_capture_outputs(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder(capture_outputs=True)
        out = _run(vm)
        captured = [e for e in vm.tracer.events if e.outputs is not None]
        assert captured
        final = captured[-1].outputs[0]
        np.testing.assert_allclose(final, out.numpy())

    def test_ts_monotonic_and_event_dicts_json_clean(self):
        import json

        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder(capture_outputs=True)
        _run(vm)
        last = -1.0
        for e in vm.tracer.events:
            assert e.ts_s >= last
            last = e.ts_s
        json.dumps([e.to_dict() for e in vm.tracer.events])  # must not raise

    def test_clear_resets_events(self):
        vm = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        vm.tracer = TraceRecorder()
        _run(vm)
        assert vm.tracer.events
        vm.tracer.clear()
        assert vm.tracer.events == []
