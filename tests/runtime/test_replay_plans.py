"""Replay plans: a memoized abstract call is indistinguishable from an
interpreted one.

There is no knob that turns the plans off, so the reference is a VM with
a :class:`TraceRecorder` attached — tracing always interprets and only
reads the clock.  The differential test drives a traced and a plain VM
with one generated sequence of calls and demands *exact* equality of
every :class:`ExecutionStats` field (floats included) after every step.
The rest pins the fallback list: what must never be served from a plan.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro import transform
from repro.dist import NVLINK, PCIE, MeshContext, MeshExecutor, MeshVM
from repro.models import TINY_LLAMA, TINY_LLAMA_TP, build_llama
from repro.obs.trace import TraceRecorder
from repro.runtime import (
    RTX_4090,
    TEST_DEVICE,
    AllocTensor,
    CallFunc,
    Executable,
    ExecutionStats,
    If,
    LibraryRegistry,
    MakeTupleI,
    NDArray,
    REGISTRY,
    Ret,
    ShapeTuple,
    VirtualMachine,
    VMError,
    VMFunction,
    const_dim,
)

PAGE = 4
BLOCKS = 24
BOUNDS = {"b": 8, "s": 32, "m": 32, "w": 8}


# -- fixtures ------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _llama(memory_planning: bool, bounded: bool, tp: int = 1):
    """(executable, abstract params, config) — compiled once per shape of
    the pipeline: planned + bounded dims gives CUDA-graph functions,
    unbounded dims pool allocations, planning off a pool-only program."""
    cfg = TINY_LLAMA_TP if tp > 1 else TINY_LLAMA
    exported = build_llama(cfg, page_size=PAGE, tp=tp)
    exe = transform.build(
        exported.mod, TEST_DEVICE,
        enable_memory_planning=memory_planning,
        sym_var_upper_bounds=BOUNDS if bounded else {},
    )
    return exe, exported.abstract_params(), cfg


def _dense_args(cfg, params, batch, seq, past, tp=1, caches=None):
    if caches is None:
        shape = (batch, past, cfg.num_kv_heads // tp, cfg.head_dim)
        caches = [NDArray.abstract(shape, cfg.dtype)
                  for _ in range(2 * cfg.num_layers)]
    return [NDArray.abstract((batch, seq), "i64"), *caches, *params]


def _paged_args(cfg, params, batch, width, tp=1):
    shape = (BLOCKS, PAGE, cfg.num_kv_heads // tp, cfg.head_dim)
    pools = [NDArray.abstract(shape, cfg.dtype)
             for _ in range(2 * cfg.num_layers)]
    return [NDArray.abstract((batch, 1), "i64"),
            NDArray.abstract((batch, width), "i64"),
            NDArray.abstract((batch,), "i64"), *pools, *params]


def _shapes(value):
    """Everything a caller can observe of an abstract result."""
    if isinstance(value, tuple):
        return tuple(_shapes(v) for v in value)
    if isinstance(value, NDArray):
        return (value.shape, value.dtype, value.storage is None)
    return value


def _pair(exe, **kwargs):
    """(reference, memoizing) VMs over one executable."""
    ref = VirtualMachine(exe, TEST_DEVICE, concrete=False, **kwargs)
    ref.tracer = TraceRecorder()
    return ref, VirtualMachine(exe, TEST_DEVICE, concrete=False, **kwargs)


# -- the differential property ---------------------------------------------------------

_CALL = st.tuples(
    st.sampled_from(["decode", "prefill", "decode_paged", "feed_back"]),
    st.integers(1, 3),            # batch
    st.sampled_from([1, 4, 6]),   # context / prefill length / table width
)
_STEP = st.one_of(
    _CALL, _CALL, _CALL,
    st.tuples(st.just("reset"), st.booleans(), st.just(0)),
    st.tuples(st.just("graph"), st.booleans(), st.just(0)),
)


class _Driver:
    """Applies one generated step to a VM-shaped object."""

    def __init__(self, vm, params, cfg, tp=1, graph_vms=None):
        self.vm, self.params, self.cfg, self.tp = vm, params, cfg, tp
        self.graph_vms = graph_vms or [vm]  # whose CUDA graphs "graph" toggles
        self.last_decode = None  # (batch, result) of the latest decode

    def step(self, kind, a, b):
        vm, cfg, params = self.vm, self.cfg, self.params
        if kind == "reset":
            vm.reset_stats(reset_pool=a)
            return None
        if kind == "graph":
            for shard in self.graph_vms:
                shard.enable_cuda_graph = a
            return None
        if kind == "feed_back" and self.last_decode is not None:
            # The previous step's returned caches (planned tensors, one
            # token longer) are this step's arguments.
            batch, result = self.last_decode
            args = _dense_args(cfg, params, batch, 1, 0, self.tp,
                               caches=list(result[1:]))
            kind = "decode"
        elif kind in ("decode", "feed_back"):
            batch, kind = a, "decode"
            args = _dense_args(cfg, params, a, 1, b, self.tp)
        elif kind == "prefill":
            args = _dense_args(cfg, params, a, b, 0, self.tp)
        else:
            args = _paged_args(cfg, params, a, b, self.tp)
        result = vm.run(kind, *args)
        if kind == "decode":
            self.last_decode = (batch, result)
        return result


@pytest.mark.parametrize("memory_planning,bounded", [
    (True, True), (True, False), (False, True),
])
@settings(max_examples=12, deadline=None)
@given(steps=st.lists(_STEP, min_size=4, max_size=14))
def test_memoized_vm_matches_interpreting_vm(memory_planning, bounded, steps):
    exe, params, cfg = _llama(memory_planning, bounded)
    ref, vm = _pair(exe)
    drivers = [_Driver(ref, params, cfg), _Driver(vm, params, cfg)]
    for step in steps:
        want, got = [d.step(*step) for d in drivers]
        assert vm.stats == ref.stats, step
        assert _shapes(got) == _shapes(want), step
    assert ref.plan_cache_info().plans == 0
    info = vm.plan_cache_info()
    assert info.misses == info.interpreted_calls


@settings(max_examples=8, deadline=None)
@given(steps=st.lists(_STEP, min_size=4, max_size=12))
def test_memoized_mesh_matches_interpreting_mesh(steps):
    exe, params, cfg = _llama(True, True, tp=2)

    def mesh_vm(traced):
        mesh = MeshExecutor(exe, TEST_DEVICE, 2, interconnect=NVLINK)
        if traced:
            mesh.tracer = TraceRecorder()
        return _Driver(MeshVM(mesh), params, cfg, tp=2, graph_vms=mesh.vms)

    ref, memo = mesh_vm(True), mesh_vm(False)
    for step in steps:
        want, got = ref.step(*step), memo.step(*step)
        assert memo.vm.shard_stats == ref.vm.shard_stats, step
        assert memo.vm.stats == ref.vm.stats, step
        assert _shapes(got) == _shapes(want), step


# -- an abstract mesh is one VM: N interpreting rank VMs are the oracle ----------------


class _RankVMs:
    """``world`` independent shard VMs, each placed at its own rank and
    traced (so each interprets; none holds a plan), driven as one VM."""

    def __init__(self, exe, world):
        self.vms = []
        for rank in range(world):
            vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
            vm.mesh = MeshContext(rank, world)
            vm.interconnect = NVLINK
            vm.tracer = TraceRecorder()
            self.vms.append(vm)

    def run(self, func_name, *args):
        return [vm.run(func_name, *args) for vm in self.vms][0]

    def reset_stats(self, *, reset_pool=True):
        for vm in self.vms:
            vm.reset_stats(reset_pool=reset_pool)


# An unsharded executable on a mesh has no collectives, so its functions
# are graph-captured: the (2, 1) case is the one that captures and replays.
@pytest.mark.parametrize("world,tp", [(2, 2), (4, 4), (2, 1)])
@settings(max_examples=8, deadline=None)
@given(steps=st.lists(_STEP, min_size=4, max_size=12))
def test_one_vm_mesh_matches_independent_rank_vms(world, tp, steps):
    exe, params, cfg = _llama(True, True, tp=tp)
    mesh = MeshExecutor(exe, TEST_DEVICE, world, interconnect=NVLINK)
    ranks = _RankVMs(exe, world)
    ref = _Driver(ranks, params, cfg, tp=tp, graph_vms=ranks.vms)
    one = _Driver(MeshVM(mesh), params, cfg, tp=tp, graph_vms=mesh.vms)
    for step in steps:
        want, got = ref.step(*step), one.step(*step)
        shards = [vm.stats for vm in ranks.vms]
        assert mesh.shard_stats == shards, step
        assert mesh.stats == ExecutionStats.merge_parallel(shards), step
        assert _shapes(got) == _shapes(want), step


def test_replayed_result_points_at_the_running_vms_storage():
    exe, params, cfg = _llama(True, True, tp=2)
    mesh = MeshExecutor(exe, TEST_DEVICE, 2, interconnect=NVLINK)
    args = _dense_args(cfg, params, 2, 1, 4, tp=2)
    for _ in range(3):
        outs = mesh.run("decode", [args] * 2)
    (vm,) = mesh.vms
    assert vm.plan_cache_info().hits == 2
    own = {id(s) for s in vm._storage_cache.values()}
    for out in outs:
        planned = [t for t in out if t.storage is not None]
        assert planned and all(id(t.storage) in own for t in planned)


# -- checks survive a recorded plan -----------------------------------------------------


def _error(vm, fn, args):
    with pytest.raises(VMError) as err:
        vm.run(fn, *args)
    return str(err.value)


def test_boundary_checks_still_raise_after_a_plan_was_recorded():
    exe, params, cfg = _llama(True, True)
    ref, vm = _pair(exe)
    good = _dense_args(cfg, params, 2, 1, 4)
    for _ in range(3):
        vm.run("decode", *good)
    assert vm.plan_cache_info().hits == 1
    plans = vm.plan_cache_info().plans

    wrong_dtype = [NDArray.abstract((2, 1), "i32"), *good[1:]]
    wrong_rank = [NDArray.abstract((2, 1, 1), "i64"), *good[1:]]
    # The caches bind batch to 2; tokens claiming 3 break the asserted dim.
    wrong_dim = [good[0], NDArray.abstract(
        (3,) + good[1].shape[1:], good[1].dtype), *good[2:]]
    for bad, needle in ((wrong_dtype, "dtype mismatch"),
                        (wrong_rank, "rank mismatch"),
                        (wrong_dim, "expected 2, got 3")):
        message = _error(vm, "decode", bad)
        assert needle in message
        assert message == _error(ref, "decode", bad)
    assert vm.plan_cache_info().plans == plans  # a raising call records nothing
    before = vm.stats.copy()
    vm.run("decode", *good)  # and the good shape still replays
    assert vm.plan_cache_info().hits == 2
    assert vm.stats.delta(before).graph_replays == 1


def test_concrete_and_traced_vms_never_populate_the_table():
    exe, _, cfg = _llama(True, True)
    concrete = VirtualMachine(exe, TEST_DEVICE, concrete=True)
    exported = build_llama(TINY_LLAMA, page_size=PAGE)
    exported.module.initialize(seed=0)
    weights = exported.concrete_params()
    caches = [NDArray.from_numpy(np.zeros(
        (1, 2, cfg.num_kv_heads, cfg.head_dim), np.float32))
        for _ in range(2 * cfg.num_layers)]
    tokens = NDArray.from_numpy(np.zeros((1, 1), np.int64))
    for _ in range(2):
        concrete.run("decode", tokens, *caches, *weights)
    assert concrete.plan_cache_info() == (0, 0, 0, 2)

    traced, _ = _pair(exe)
    args = _dense_args(cfg, exported.abstract_params(), 1, 1, 2)
    for _ in range(3):
        traced.run("decode", *args)
    assert traced.plan_cache_info() == (0, 0, 0, 3)
    # Detaching the tracer is what turns memoization on — no other switch.
    traced.tracer = None
    traced.run("decode", *args)
    traced.run("decode", *args)
    assert traced.plan_cache_info() == (1, 1, 1, 4)


# -- placement ---------------------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("device", RTX_4090),
    ("interconnect", PCIE),
    ("registry", LibraryRegistry()),
])
def test_a_plan_is_never_hit_after_the_placement_changed(field, value):
    exe, params, cfg = _llama(True, True)
    ref, vm = _pair(exe)
    args = _dense_args(cfg, params, 1, 1, 4)
    for _ in range(3):
        vm.run("decode", *args)
        ref.run("decode", *args)
    old = vm.replay_plans
    assert len(old) == 1
    if field == "registry":
        for name in REGISTRY.names():
            value.register(REGISTRY.get(name))
    setattr(vm, field, value)
    setattr(ref, field, value)
    assert vm.replay_plans is not old and len(vm.replay_plans) == 0
    hits = vm.plan_cache_info().hits
    vm.run("decode", *args)
    ref.run("decode", *args)
    assert vm.plan_cache_info().hits == hits
    assert vm.stats == ref.stats
    assert len(old) == 1  # a peer still placed the old way keeps its plans


def test_cuda_graph_toggle_selects_plans_by_mode():
    exe, params, cfg = _llama(True, True)
    ref, vm = _pair(exe)
    args = _dense_args(cfg, params, 1, 1, 4)
    for on in (True, True, True, False, False, False, True, False):
        vm.enable_cuda_graph = ref.enable_cuda_graph = on
        vm.run("decode", *args)
        ref.run("decode", *args)
        assert vm.stats == ref.stats
    assert vm.plan_cache_info().plans == 2  # one replay-mode, one plain
    assert vm.stats.graph_captures == 1


# -- the fallback list, on hand-built programs --------------------------------------------


def _exe(**functions):
    exe = Executable()
    for name, (params, body, regs) in functions.items():
        exe.functions[name] = VMFunction(name, params, body, regs, 0)
    return exe


def _alloc_and_return(dim):
    return (["x"], [AllocTensor(dst=1, dims=[const_dim(dim)], dtype="f32"),
                    Ret(reg=1)], 2)


def test_nested_calls_are_interpreted_every_time():
    exe = _exe(
        main=(["x"], [CallFunc(dst=1, func="sub", args=[0]), Ret(reg=1)], 2),
        sub=_alloc_and_return(4),
    )
    ref, vm = _pair(exe)
    x = NDArray.abstract((4,), "f32")
    for _ in range(3):
        assert _shapes(vm.run("main", x)) == _shapes(ref.run("main", x))
        assert vm.stats == ref.stats
    assert vm.plan_cache_info() == (0, 3, 0, 3)
    vm.run("sub", x)
    vm.run("sub", x)  # called at top level the same function memoizes
    assert vm.plan_cache_info().hits == 1


def test_a_result_that_aliases_an_argument_is_not_templated():
    exe = _exe(
        identity=(["x"], [Ret(reg=0)], 1),
        wrapped=(["x"], [AllocTensor(dst=1, dims=[const_dim(2)], dtype="f32"),
                         MakeTupleI(dst=2, srcs=[1, 0]), Ret(reg=2)], 3),
    )
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    x = NDArray.abstract((4,), "f32")
    for _ in range(3):
        assert vm.run("identity", x) is x
        assert vm.run("wrapped", x)[1] is x
    assert vm.plan_cache_info() == (0, 6, 0, 6)


def test_undescribable_arguments_fall_back_to_interpretation():
    exe = _exe(main=_alloc_and_return(4))
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    for odd in (np.int64(3), [1, 2], None, (1, None)):
        vm.run("main", odd)
        vm.run("main", odd)
    assert vm.plan_cache_info() == (0, 0, 0, 8)
    for fine in (3, ShapeTuple([1, 2]), (1, (NDArray.abstract((1,), "i64"),))):
        vm.run("main", fine)
        vm.run("main", fine)
    assert vm.plan_cache_info() == (3, 3, 3, 11)


def test_bool_and_int_arguments_do_not_share_a_plan():
    body = [
        If(cond=0,
           then_body=[AllocTensor(dst=1, dims=[const_dim(2)], dtype="f32")],
           then_out=1,
           else_body=[AllocTensor(dst=2, dims=[const_dim(8)], dtype="f32")],
           else_out=2, dst=3),
        Ret(reg=3),
    ]
    vm = VirtualMachine(_exe(main=(["c"], body, 4)), TEST_DEVICE,
                        concrete=False)
    for _ in range(2):
        assert vm.run("main", 1).shape == (2,)
        assert vm.run("main", True).shape == (2,)
        assert vm.run("main", 0).shape == (8,)
        assert vm.run("main", False).shape == (8,)
    assert vm.plan_cache_info() == (4, 4, 4, 4)


def test_a_replaced_function_is_not_served_from_the_old_plan():
    exe = _exe(main=_alloc_and_return(4))
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    x = NDArray.abstract((1,), "f32")
    assert vm.run("main", x).shape == (4,)
    assert vm.run("main", x).shape == (4,)
    params, body, regs = _alloc_and_return(6)
    exe.functions["main"] = VMFunction("main", params, body, regs, 0)
    assert vm.run("main", x).shape == (6,)
    assert vm.run("main", x).shape == (6,)
    assert vm.plan_cache_info() == (2, 2, 1, 2)


def test_unknown_function_and_arity_errors_are_unchanged():
    vm = VirtualMachine(_exe(main=_alloc_and_return(4)), TEST_DEVICE,
                        concrete=False)
    assert "no VM function named 'nope'" in _error(vm, "nope", [])
    assert "expected 1 arguments, got 2" in _error(vm, "main", [1, 2])
    assert vm.plan_cache_info().plans == 0
