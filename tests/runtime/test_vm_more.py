"""VM coverage: builtins, nested functions, control flow, constants."""

import numpy as np
import pytest

from repro import sym, tir
from repro.runtime import (
    AllocTensor,
    CallBuiltin,
    CallFunc,
    CallTir,
    Executable,
    GetItemI,
    If,
    LoadConst,
    MakeTupleI,
    NDArray,
    Ret,
    TEST_DEVICE,
    VMError,
    VMFunction,
    VirtualMachine,
    const_dim,
)


def _identity_tir():
    n = sym.SymVar("n")
    f = tir.TirBuilder("copy")
    a = f.arg("A", (n,), "f32")
    b = f.out("B", (n,), "f32")
    i = f.spatial(n)
    f.store(b, [i], a[i])
    return f.build()


class TestBuiltins:
    def _exe(self, builtin):
        exe = Executable()
        body = [CallBuiltin(dst=1, name=builtin, args=[0]), Ret(reg=1)]
        exe.functions["main"] = VMFunction("main", ["x"], body, 2, 0)
        return exe

    def test_unique_concrete(self):
        vm = VirtualMachine(self._exe("vm.builtin.unique"), TEST_DEVICE)
        x = np.array([3.0, 1.0, 3.0, 2.0], dtype=np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_array_equal(out.numpy(), np.unique(x))
        assert vm.stats.builtin_calls == 1

    def test_unique_abstract_upper_bound(self):
        vm = VirtualMachine(self._exe("vm.builtin.unique"), TEST_DEVICE,
                            concrete=False)
        out = vm.run("main", NDArray.abstract((7,), "f32"))
        assert out.shape == (7,)  # worst case: all distinct

    def test_nonzero(self):
        vm = VirtualMachine(self._exe("vm.builtin.nonzero"), TEST_DEVICE)
        x = np.array([0.0, 2.0, 0.0, 5.0], dtype=np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_array_equal(out.numpy(), np.array([1, 3]))

    def test_unknown_builtin(self):
        vm = VirtualMachine(self._exe("vm.builtin.bogus"), TEST_DEVICE)
        with pytest.raises(VMError, match="unknown builtin"):
            vm.run("main", NDArray.from_numpy(np.zeros(1, np.float32)))


class TestNestedCalls:
    def test_call_func(self):
        exe = Executable()
        exe.tir_funcs["copy"] = _identity_tir()
        inner = [
            AllocTensor(dst=1, dims=[const_dim(3)], dtype="f32"),
            CallTir(func="copy", args=[0], outs=[1]),
            Ret(reg=1),
        ]
        exe.functions["inner"] = VMFunction("inner", ["x"], inner, 2, 0)
        outer = [CallFunc(dst=1, func="inner", args=[0]), Ret(reg=1)]
        exe.functions["main"] = VMFunction("main", ["x"], outer, 2, 0)
        vm = VirtualMachine(exe, TEST_DEVICE)
        x = np.arange(3, dtype=np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_array_equal(out.numpy(), x)

    def test_missing_function(self):
        exe = Executable()
        exe.functions["main"] = VMFunction(
            "main", [], [CallFunc(dst=0, func="ghost", args=[]), Ret(reg=0)], 1, 0
        )
        vm = VirtualMachine(exe, TEST_DEVICE)
        with pytest.raises(VMError, match="no VM function"):
            vm.run("main")


class TestControlFlowAndValues:
    def test_if_instruction(self):
        exe = Executable()
        idx_a = exe.add_constant(np.float32(1.0))
        idx_b = exe.add_constant(np.float32(2.0))
        body = [
            If(
                cond=0,
                then_body=[LoadConst(dst=1, const_idx=idx_a)],
                then_out=1,
                else_body=[LoadConst(dst=2, const_idx=idx_b)],
                else_out=2,
                dst=3,
            ),
            Ret(reg=3),
        ]
        exe.functions["main"] = VMFunction("main", ["c"], body, 4, 0)
        vm = VirtualMachine(exe, TEST_DEVICE)
        assert vm.run("main", 1).numpy() == np.float32(1.0)
        assert vm.run("main", 0).numpy() == np.float32(2.0)

    def test_if_abstract_cond_rejected(self):
        exe = Executable()
        body = [
            If(cond=0, then_body=[], then_out=0, else_body=[], else_out=0, dst=1),
            Ret(reg=1),
        ]
        exe.functions["main"] = VMFunction("main", ["c"], body, 2, 0)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        with pytest.raises(VMError, match="abstract mode"):
            vm.run("main", NDArray.abstract((), "bool"))

    def test_tuple_instructions(self):
        exe = Executable()
        idx = exe.add_constant(np.arange(4, dtype=np.float32))
        body = [
            LoadConst(dst=0, const_idx=idx),
            MakeTupleI(dst=1, srcs=[0, 0]),
            GetItemI(dst=2, src=1, index=1),
            Ret(reg=2),
        ]
        exe.functions["main"] = VMFunction("main", [], body, 3, 0)
        vm = VirtualMachine(exe, TEST_DEVICE)
        out = vm.run("main")
        np.testing.assert_array_equal(out.numpy(), np.arange(4, dtype=np.float32))

    def test_const_cache(self):
        exe = Executable()
        idx = exe.add_constant(np.ones(2, dtype=np.float32))
        body = [
            LoadConst(dst=0, const_idx=idx),
            LoadConst(dst=1, const_idx=idx),
            MakeTupleI(dst=2, srcs=[0, 1]),
            Ret(reg=2),
        ]
        exe.functions["main"] = VMFunction("main", [], body, 3, 0)
        vm = VirtualMachine(exe, TEST_DEVICE)
        a, b = vm.run("main")
        assert a is b  # loaded once, cached

    def test_reset_stats_returns_old(self):
        exe = Executable()
        exe.functions["main"] = VMFunction(
            "main", [], [AllocTensor(dst=0, dims=[const_dim(4)], dtype="f32"),
                         Ret(reg=0)], 1, 0,
        )
        vm = VirtualMachine(exe, TEST_DEVICE)
        vm.run("main")
        old = vm.reset_stats()
        assert old.allocations == 1
        assert vm.stats.allocations == 0

    def test_fall_through_without_ret(self):
        exe = Executable()
        exe.functions["main"] = VMFunction("main", [], [], 0, 0)
        vm = VirtualMachine(exe, TEST_DEVICE)
        with pytest.raises(VMError, match="fell through"):
            vm.run("main")


class TestKernelAccounting:
    def test_sym_args_passed_to_kernel(self):
        m = sym.SymVar("m")
        f = tir.TirBuilder("fill")
        out = f.out("O", (4,), "i64")
        f.sym_param(m)
        i = f.spatial(4)
        f.store(out, [i], tir.IndexValue(m))
        exe = Executable()
        exe.tir_funcs["fill"] = f.build()
        from repro.runtime import ComputeShape, MatchShape, slot_dim

        body = [
            MatchShape(reg=0, actions=[(0, "store", 0)], ndim=1, context="x"),
            AllocTensor(dst=1, dims=[const_dim(4)], dtype="i64"),
            CallTir(func="fill", args=[], outs=[1], sym_args=[slot_dim(0)]),
            Ret(reg=1),
        ]
        exe.functions["main"] = VMFunction("main", ["x"], body, 2, 1)
        vm = VirtualMachine(exe, TEST_DEVICE)
        out = vm.run("main", NDArray.from_numpy(np.zeros(9, np.float32)))
        np.testing.assert_array_equal(out.numpy(), np.full(4, 9, dtype=np.int64))

    def test_equal_launches_charge_equal_time(self):
        exe = Executable()
        exe.tir_funcs["copy"] = _identity_tir()
        launch = CallTir(func="copy", args=[0], outs=[1])
        for name, launches in (("once", 1), ("twice", 2)):
            exe.functions[name] = VMFunction(name, ["x"], [
                AllocTensor(dst=1, dims=[const_dim(8)], dtype="f32"),
                *[launch] * launches,
                Ret(reg=1),
            ], 2, 0)
        x = NDArray.abstract((8,), "f32")
        once = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        once.run("once", x)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
        vm.run("twice", x)
        assert vm.stats.kernel_launches == 2
        assert vm.stats.kernel_time_s == 2 * once.stats.kernel_time_s > 0
