"""The kernel-cost cache keys on what the counts read.

``tir.count_flops`` / ``count_bytes`` read the argument shapes and the
explicit symbolic arguments that set an iteration extent or an
intermediate buffer's shape; a cached cost must not outlive a change in
either.  An argument read only by index expressions (rope's position
offset) moves no count, so it must not split the cache.
"""

import pytest

from repro import sym, tir
from repro.runtime import (
    AllocTensor,
    CallTir,
    Executable,
    NDArray,
    Ret,
    TEST_DEVICE,
    VMFunction,
    VirtualMachine,
    const_dim,
)


def test_cost_cache_keys_on_symbolic_args_that_move_the_count():
    # Y[i] = sum_k A[i] for k < K: the explicit argument K sets the
    # reduction extent, so two calls on one shape cost differently.
    n, k = sym.SymVar("n"), sym.SymVar("K")
    f = tir.TirBuilder("repeat_sum")
    a = f.arg("A", (n,), "f32")
    y = f.out("Y", (n,), "f32")
    f.sym_param(k)
    i = f.spatial(n)
    f.reduce(k)
    f.store(y, [i], a[i], combiner="sum", init=0.0)
    exe = Executable()
    exe.tir_funcs["repeat_sum"] = f.build()
    for name, extent in (("few", 4), ("many", 4096)):
        exe.functions[name] = VMFunction(name, ["x"], [
            AllocTensor(dst=1, dims=[const_dim(8)], dtype="f32"),
            CallTir(func="repeat_sum", args=[0], outs=[1],
                    sym_args=[const_dim(extent)]),
            Ret(reg=1),
        ], 2, 0)
    x = NDArray.abstract((8,), "f32")

    def kernel_time(vm, name):
        before = vm.stats.kernel_time_s
        vm.run(name, x)
        return vm.stats.kernel_time_s - before

    fresh = {name: kernel_time(VirtualMachine(exe, TEST_DEVICE,
                                              concrete=False), name)
             for name in ("few", "many")}
    assert fresh["few"] < fresh["many"]
    shared = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    assert {name: kernel_time(shared, name)
            for name in ("few", "many")} == pytest.approx(fresh, rel=1e-9)


def test_cost_cache_ignores_index_only_symbolic_args():
    # ``m`` is only stored as a value: every value shares one entry.
    m = sym.SymVar("m")
    f = tir.TirBuilder("fill")
    out = f.out("O", (4,), "i64")
    f.sym_param(m)
    i = f.spatial(4)
    f.store(out, [i], tir.IndexValue(m))
    exe = Executable()
    exe.tir_funcs["fill"] = f.build()
    exe.functions["main"] = VMFunction("main", [], [
        AllocTensor(dst=0, dims=[const_dim(4)], dtype="i64"),
        CallTir(func="fill", args=[], outs=[0], sym_args=[const_dim(3)]),
        CallTir(func="fill", args=[], outs=[0], sym_args=[const_dim(9)]),
        Ret(reg=0),
    ], 1, 0)
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    vm.run("main")
    assert len(vm._cost_cache) == 1
