"""MeshExecutor: lockstep clock, merged stats, threaded collectives."""

import numpy as np
import pytest

from repro import ops, transform
from repro.core import BlockBuilder, TensorAnn
from repro.dist import MeshExecutor, MeshVM, NVLINK
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
from repro.runtime.profiler import to_as
from repro.runtime.vm import VMError


def _collective_exe(make_call, in_shape):
    bb = BlockBuilder()
    with bb.function("f", {"x": TensorAnn(in_shape, "f32")}) as frame:
        (x,) = frame.params
        with bb.dataflow():
            gv = bb.emit_output(bb.emit(make_call(x)))
        bb.emit_func_output(gv)
    return transform.build(bb.get(), TEST_DEVICE)


def _rank_arrays(world, shape, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32)
            for _ in range(world)]


class TestConcreteCollectives:
    @pytest.mark.parametrize("world", [2, 4])
    def test_all_reduce_across_real_shards(self, world):
        exe = _collective_exe(
            lambda x: ops.ccl.all_reduce(x, world=world), (2, 8))
        mesh = MeshExecutor(exe, TEST_DEVICE, world, concrete=True)
        xs = _rank_arrays(world, (2, 8))
        outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
        acc = xs[0].astype(np.float64)
        for x in xs[1:]:
            acc = acc + x.astype(np.float64)
        want = acc.astype(np.float32)
        for out in outs:  # result replicated, bitwise identical
            np.testing.assert_array_equal(out.numpy(), want)

    def test_all_gather_rank_order(self):
        world = 3
        exe = _collective_exe(
            lambda x: ops.ccl.all_gather(x, world=world, axis=0), (2, 4))
        mesh = MeshExecutor(exe, TEST_DEVICE, world, concrete=True)
        xs = [np.full((2, 4), r, np.float32) for r in range(world)]
        outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
        want = np.concatenate(xs, axis=0)
        for out in outs:
            np.testing.assert_array_equal(out.numpy(), want)

    def test_reduce_scatter_each_rank_gets_its_chunk(self):
        world = 2
        exe = _collective_exe(
            lambda x: ops.ccl.reduce_scatter(x, world=world, axis=0), (4, 3))
        mesh = MeshExecutor(exe, TEST_DEVICE, world, concrete=True)
        xs = _rank_arrays(world, (4, 3), seed=3)
        outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
        total = (xs[0].astype(np.float64) + xs[1].astype(np.float64))
        total = total.astype(np.float32)
        np.testing.assert_array_equal(outs[0].numpy(), total[:2])
        np.testing.assert_array_equal(outs[1].numpy(), total[2:])

    def test_broadcast_sends_root_value(self):
        world = 3
        exe = _collective_exe(
            lambda x: ops.ccl.broadcast(x, world=world, root=1), (4,))
        mesh = MeshExecutor(exe, TEST_DEVICE, world, concrete=True)
        xs = [np.full(4, 10.0 * r, np.float32) for r in range(world)]
        outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
        for out in outs:
            np.testing.assert_array_equal(out.numpy(), xs[1])

    def test_deterministic_across_runs(self):
        world = 4
        exe = _collective_exe(
            lambda x: ops.ccl.all_reduce(x, world=world), (8, 8))
        xs = _rank_arrays(world, (8, 8), seed=11)
        runs = []
        for _ in range(3):
            mesh = MeshExecutor(exe, TEST_DEVICE, world, concrete=True)
            outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
            runs.append([o.numpy().copy() for o in outs])
        for later in runs[1:]:
            for a, b in zip(runs[0], later):
                np.testing.assert_array_equal(a, b)

    def test_world_mismatch_fails_all_shards(self):
        # Program says world=4, mesh has 2 shards: every rank errors.
        exe = _collective_exe(lambda x: ops.ccl.all_reduce(x, world=4), (2,))
        mesh = MeshExecutor(exe, TEST_DEVICE, 2, concrete=True)
        xs = _rank_arrays(2, (2,))
        with pytest.raises(VMError, match="world"):
            mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])

    def test_wrong_shard_arg_count(self):
        exe = _collective_exe(lambda x: ops.ccl.all_reduce(x, world=2), (2,))
        mesh = MeshExecutor(exe, TEST_DEVICE, 2, concrete=True)
        with pytest.raises(ValueError, match="per-shard"):
            mesh.run("f", [[NDArray.from_numpy(np.zeros(2, np.float32))]])

    def test_mesh_runs_again_after_a_shard_failed(self):
        exe = _collective_exe(lambda x: ops.ccl.all_reduce(x, world=2), (2,))
        mesh = MeshExecutor(exe, TEST_DEVICE, 2, concrete=True)
        xs = _rank_arrays(2, (2,))
        bad = [NDArray.from_numpy(xs[0]),
               NDArray.from_numpy(np.zeros(3, np.float32))]
        with pytest.raises(VMError, match="expected 2, got 3"):
            mesh.run("f", [[x] for x in bad])
        outs = mesh.run("f", [[NDArray.from_numpy(x)] for x in xs])
        want = (xs[0].astype(np.float64) + xs[1]).astype(np.float32)
        for out in outs:
            np.testing.assert_array_equal(out.numpy(), want)


class TestClockAndStats:
    def _mesh(self, world, interconnect=NVLINK, concrete=False):
        exe = _collective_exe(
            lambda x: ops.ccl.all_reduce(x, world=world), (64, 64))
        return MeshExecutor(exe, TEST_DEVICE, world,
                            interconnect=interconnect, concrete=concrete)

    def test_lockstep_clock(self):
        mesh = self._mesh(2, concrete=True)
        mesh.run("f", [[NDArray.from_numpy(x)]
                       for x in _rank_arrays(2, (64, 64))])
        times = [vm.stats.time_s for vm in mesh.vms]
        assert times[0] == times[1] > 0.0

    @pytest.mark.parametrize("world", [2, 4])
    def test_abstract_mesh_step_enters_the_vm_once(self, world, monkeypatch):
        calls = []
        run = VirtualMachine.run
        monkeypatch.setattr(
            VirtualMachine, "run",
            lambda vm, *args: calls.append(vm) or run(vm, *args))
        mesh = self._mesh(world)
        for n in (1, 2):  # interpreted, then replayed from its plan
            MeshVM(mesh).run("f", NDArray.abstract((64, 64), "f32"))
            assert len(calls) == n
        assert len(mesh.shard_stats) == world

    def test_abstract_ranks_must_be_handed_the_same_shapes(self):
        mesh = self._mesh(2)
        ref = self._mesh(2)
        ref.run("f", [[NDArray.abstract((64, 64), "f32")]] * 2)
        # Distinct argument lists of equal shapes are one SPMD step.
        mesh.run("f", [[NDArray.abstract((64, 64), "f32")] for _ in range(2)])
        assert mesh.stats == ref.stats
        for other in (NDArray.abstract((64, 64), "f16"),
                      NDArray.abstract((64, 32), "f32"), None):
            with pytest.raises(ValueError, match="same shapes"):
                mesh.run("f", [[NDArray.abstract((64, 64), "f32")], [other]])
        assert mesh.stats == ref.stats  # a rejected step charges nothing

    def test_merged_stats_conventions(self):
        world = 2
        mesh = self._mesh(world)
        mesh.run("f", [[NDArray.abstract((64, 64), "f32")]] * world)
        merged = mesh.stats
        shards = mesh.shard_stats
        assert merged.time_s == max(s.time_s for s in shards)
        assert merged.builtin_calls == sum(s.builtin_calls for s in shards)
        assert merged.allocated_bytes_total == sum(
            s.allocated_bytes_total for s in shards)
        assert merged.peak_bytes == max(s.peak_bytes for s in shards)
        assert merged.comm_time_s > 0.0

    def test_comm_time_charged_per_shard(self):
        world = 4
        mesh = self._mesh(world)
        mesh.run("f", [[NDArray.abstract((64, 64), "f32")]] * world)
        want = NVLINK.all_reduce_s(world, 64 * 64 * 4)
        for s in mesh.shard_stats:
            assert s.comm_time_as == to_as(want)

    def test_world_one_has_no_comm(self):
        mesh = self._mesh(1)
        mesh.run("f", [[NDArray.abstract((64, 64), "f32")]])
        assert mesh.stats.comm_time_s == 0.0

    def test_stats_windows_compose(self):
        mesh = self._mesh(2)
        args = [[NDArray.abstract((64, 64), "f32")]] * 2
        before = mesh.stats.copy()
        mesh.run("f", args)
        delta = mesh.stats.delta(before)
        assert delta.time_s > 0.0
        assert delta.builtin_calls == 2  # one collective per shard


class TestTracer:
    def test_tracer_fans_out_and_merges(self):
        from repro.obs.trace import TraceRecorder
        world = 2
        exe = _collective_exe(
            lambda x: ops.ccl.all_reduce(x, world=world), (8, 8))
        mesh = MeshExecutor(exe, TEST_DEVICE, world, interconnect=NVLINK)
        mesh.tracer = TraceRecorder()
        mesh.run("f", [[NDArray.abstract((8, 8), "f32")]] * world)
        assert mesh.tracer is not None
        assert len(mesh.tracer.events) > 0  # shard-0 stream
        merged = mesh.merged_events()
        ranks = {r for r, _ in merged}
        assert ranks == {0, 1}
        ts = [e.ts_s for _, e in merged]
        assert ts == sorted(ts)
        mesh.tracer = None
        assert all(vm.tracer is None for vm in mesh.vms)
