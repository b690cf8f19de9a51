"""ccl.* ops: symbolic deduction + the extern lowering path end-to-end.

The end-to-end tests run on a single VM with no mesh attached, which
exercises the degenerate replica semantics (every peer holds this VM's
value) — the contract the differential fuzzer relies on.
"""

import numpy as np
import pytest

from repro import ops, sym, transform
from repro.core import BlockBuilder, TensorAnn
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
from repro.runtime.profiler import to_as
from repro.runtime.vm import ccl_combine


def var_of(arr, shape=None):
    bb = BlockBuilder()
    ann = TensorAnn(shape if shape is not None else arr.shape,
                    "f32" if arr.dtype == np.float32 else "i64")
    from repro.core.expr import Var
    return Var("x", ann)


def _deduced(call):
    return call.op.deduce(call)


def _static(shape):
    return tuple(sym.as_static_int(d) for d in shape)


class TestDeduce:
    def test_all_reduce_preserves_shape(self):
        x = var_of(np.zeros((2, 8), np.float32))
        ann = _deduced(ops.ccl.all_reduce(x, world=4))
        assert _static(ann.shape) == (2, 8) and ann.dtype == "f32"

    def test_all_gather_multiplies_static_dim(self):
        x = var_of(np.zeros((2, 8), np.float32))
        ann = _deduced(ops.ccl.all_gather(x, world=4, axis=1))
        assert _static(ann.shape) == (2, 32)

    def test_all_gather_symbolic_dim(self):
        n = sym.SymVar("n")
        x = var_of(np.zeros((3, 8), np.float32), shape=(n, 8))
        ann = _deduced(ops.ccl.all_gather(x, world=4, axis=0))
        want = sym.Mul(n, sym.IntImm(4))
        assert sym.prove_equal(ann.shape[0], want)

    def test_reduce_scatter_divides_static_dim(self):
        x = var_of(np.zeros((2, 8), np.float32))
        ann = _deduced(ops.ccl.reduce_scatter(x, world=4, axis=1))
        assert _static(ann.shape) == (2, 2)

    def test_reduce_scatter_rejects_indivisible(self):
        x = var_of(np.zeros((2, 6), np.float32))
        with pytest.raises(ValueError, match="divisible"):
            _deduced(ops.ccl.reduce_scatter(x, world=4, axis=1))

    def test_broadcast_validates_root(self):
        x = var_of(np.zeros((4,), np.float32))
        with pytest.raises(ValueError, match="root"):
            _deduced(ops.ccl.broadcast(x, world=2, root=5))

    def test_axis_out_of_range(self):
        x = var_of(np.zeros((2, 8), np.float32))
        with pytest.raises(ValueError, match="axis"):
            _deduced(ops.ccl.all_gather(x, world=2, axis=3))

    def test_extern_not_legalized(self):
        assert ops.ccl.all_reduce_op.legalize is None
        assert ops.ccl.all_reduce_op.extern_name == "vm.builtin.ccl.all_reduce"


def _build(make_call, in_shape):
    bb = BlockBuilder()
    with bb.function("f", {"x": TensorAnn(in_shape, "f32")}) as frame:
        (x,) = frame.params
        with bb.dataflow():
            gv = bb.emit_output(bb.emit(make_call(x)))
        bb.emit_func_output(gv)
    return transform.build(bb.get(), TEST_DEVICE)


class TestDegenerateExecution:
    """Single VM, no mesh: collectives act on `world` replicas of x."""

    def test_all_reduce_sums_replicas_in_rank_order(self):
        exe = _build(lambda x: ops.ccl.all_reduce(x, world=4), (2, 8))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = np.random.default_rng(0).standard_normal((2, 8)).astype(np.float32)
        out = vm.run("f", NDArray.from_numpy(x)).numpy()
        want = ccl_combine("all_reduce", [x] * 4, 0, 0)
        np.testing.assert_array_equal(out, want)
        assert out.dtype == np.float32

    def test_all_gather_tiles(self):
        exe = _build(lambda x: ops.ccl.all_gather(x, world=3, axis=1), (2, 4))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = np.arange(8, dtype=np.float32).reshape(2, 4)
        out = vm.run("f", NDArray.from_numpy(x)).numpy()
        np.testing.assert_array_equal(out, np.tile(x, (1, 3)))

    def test_reduce_scatter_chunks(self):
        exe = _build(lambda x: ops.ccl.reduce_scatter(x, world=2, axis=0),
                     (4, 3))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = vm.run("f", NDArray.from_numpy(x)).numpy()
        np.testing.assert_array_equal(out, x[:2] + x[:2])

    def test_broadcast_identity(self):
        exe = _build(lambda x: ops.ccl.broadcast(x, world=2, root=1), (5,))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = np.arange(5, dtype=np.float32)
        out = vm.run("f", NDArray.from_numpy(x)).numpy()
        np.testing.assert_array_equal(out, x)

    def test_abstract_shapes(self):
        exe = _build(lambda x: ops.ccl.all_gather(x, world=4, axis=1), (2, 4))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        out = vm.run("f", NDArray.abstract((2, 4), "f32"))
        assert out.shape == (2, 16)

    def test_abstract_reduce_scatter_shape(self):
        exe = _build(lambda x: ops.ccl.reduce_scatter(x, world=4, axis=1),
                     (2, 8))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        out = vm.run("f", NDArray.abstract((2, 8), "f32"))
        assert out.shape == (2, 2)

    def test_no_interconnect_no_comm_time(self):
        exe = _build(lambda x: ops.ccl.all_reduce(x, world=4), (2, 8))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        vm.run("f", NDArray.from_numpy(np.ones((2, 8), np.float32)))
        assert vm.stats.comm_time_s == 0.0
        assert vm.stats.summary()["comm_time_s"] == 0.0

    def test_interconnect_charges_comm_time(self):
        from repro.dist import NVLINK
        exe = _build(lambda x: ops.ccl.all_reduce(x, world=4), (2, 8))
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        vm.interconnect = NVLINK
        t0 = vm.stats.time_s
        vm.run("f", NDArray.from_numpy(np.ones((2, 8), np.float32)))
        want = NVLINK.all_reduce_s(4, 2 * 8 * 4)
        assert vm.stats.comm_time_as == to_as(want)
        assert vm.stats.time_s - t0 > want  # comm is part of wall time
        assert vm.stats.summary()["comm_time_s"] == vm.stats.comm_time_s


class TestCombine:
    def test_rank_order_accumulation(self):
        # Strict rank order: ((c0 + c1) + c2), never a tree.
        rng = np.random.default_rng(7)
        chunks = [rng.standard_normal(64).astype(np.float32).astype(np.float64)
                  for _ in range(3)]
        want = (chunks[0] + chunks[1]) + chunks[2]
        np.testing.assert_array_equal(
            ccl_combine("all_reduce", chunks, 0, 0), want)

    def test_reduce_scatter_keeps_rank_chunk(self):
        chunks = [np.arange(8, dtype=np.float64) for _ in range(2)]
        total = chunks[0] + chunks[1]
        np.testing.assert_array_equal(
            ccl_combine("reduce_scatter", chunks, 1, 0), total[4:])

    def test_broadcast_takes_root(self):
        chunks = [np.full(3, r, np.float32) for r in range(4)]
        np.testing.assert_array_equal(
            ccl_combine("broadcast", chunks, 0, 2), chunks[2])
