"""The Relax virtual machine.

After the lowering pipeline (§4.7) a Relax program is "a sequence of
virtual machine instructions, each of which is a call into a generated or
builtin function".  This module defines that instruction set and its
interpreter.

Symbolic shapes at runtime follow the paper's design: each VM function owns
an integer *shape heap*; ``MatchShape`` populates variable slots from input
tensor shapes (and asserts the lightweight §4.1 boundary checks),
``ComputeShape`` evaluates derived symbolic expressions into slots, and
every downstream shape-consuming instruction (``AllocStorage``,
``AllocTensor``, ``MakeShape``, ``CallTir`` symbolic arguments) reads slots.

Execution accounting runs on the analytical device model (DESIGN.md §2):
each kernel contributes roofline time + launch overhead; captured graphs
replay with one graph-launch overhead (§4.5); storages and pool traffic
feed the Table 2 memory numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import dtypes, sym, tir
from .device import Device
from .library import REGISTRY, LibraryRegistry
from .ndarray import NDArray, ShapeTuple, Storage
from .profiler import ExecutionStats, RuntimePool, to_as, to_s

# A shape dimension spec: ("const", value) or ("slot", heap index).
DimSpec = Tuple[str, int]


def const_dim(value: int) -> DimSpec:
    return ("const", int(value))


def slot_dim(slot: int) -> DimSpec:
    return ("slot", slot)


# -- instructions ------------------------------------------------------------------


@dataclass
class Instr:
    pass


@dataclass
class MatchShape(Instr):
    """Read a tensor's shape; store into / assert against heap slots.

    ``actions`` is a list of (dim_index, kind, payload):
    ``("store", slot)`` binds a fresh symbolic variable;
    ``("assert_slot", slot)`` / ``("assert_const", value)`` are the runtime
    checks generated from annotations (§4.1, match_cast §3.2).
    """

    reg: int
    actions: List[Tuple[int, str, int]]
    ndim: Optional[int] = None
    dtype: Optional[str] = None
    context: str = ""


@dataclass
class ComputeShape(Instr):
    """Evaluate a symbolic expression over heap slots into a slot."""

    dst_slot: int
    expr: sym.PrimExpr
    var_slots: List[Tuple[sym.SymVar, int]]


@dataclass
class MakeShape(Instr):
    """Construct a first-class runtime ShapeTuple from slots/consts."""

    dst: int
    dims: List[DimSpec]


@dataclass
class LoadConst(Instr):
    dst: int
    const_idx: int


@dataclass
class AllocStorage(Instr):
    """Allocate (or reuse, across calls) a storage of ``size`` bytes."""

    dst: int
    size: DimSpec
    escapes: bool = False  # holds a returned value (KV cache, logits)
    prov: Tuple[str, ...] = ()  # source-op provenance chain


@dataclass
class AllocTensor(Instr):
    """Instantiate a tensor, either from a planned storage or the pool."""

    dst: int
    dims: List[DimSpec]
    dtype: str
    storage: Optional[int] = None  # register holding a Storage
    escapes: bool = False
    prov: Tuple[str, ...] = ()


@dataclass
class KillTensor(Instr):
    """Last use passed: release a pool-allocated tensor."""

    reg: int
    prov: Tuple[str, ...] = ()  # provenance of the alloc whose life this ends


@dataclass
class CallTir(Instr):
    """Launch a tensor program in destination-passing style."""

    func: str
    args: List[int]
    outs: List[int]
    sym_args: List[DimSpec] = field(default_factory=list)
    prov: Tuple[str, ...] = ()


@dataclass
class CallLib(Instr):
    """Launch an external library kernel in DPS."""

    name: str
    args: List[int]
    outs: List[int]
    prov: Tuple[str, ...] = ()


@dataclass
class CallBuiltin(Instr):
    """Call a VM builtin (allocating/data-dependent routines)."""

    dst: Optional[int]
    name: str
    args: List[int]
    prov: Tuple[str, ...] = ()


@dataclass
class CallFunc(Instr):
    """Call another VM-level function (subgraph function call)."""

    dst: int
    func: str
    args: List[int]


@dataclass
class MakeTupleI(Instr):
    dst: int
    srcs: List[int]


@dataclass
class GetItemI(Instr):
    dst: int
    src: int
    index: int


@dataclass
class If(Instr):
    cond: int
    then_body: List[Instr]
    then_out: int
    else_body: List[Instr]
    else_out: int
    dst: int


@dataclass
class Ret(Instr):
    reg: int


@dataclass
class VMFunction:
    name: str
    params: List[str]
    body: List[Instr]
    num_regs: int
    num_slots: int
    attrs: Dict = field(default_factory=dict)


class Executable:
    """A compiled module: VM functions + bound tensor programs + constants."""

    def __init__(self):
        self.functions: Dict[str, VMFunction] = {}
        self.tir_funcs: Dict[str, tir.PrimFunc] = {}
        self.constants: List[np.ndarray] = []

    def add_constant(self, array: np.ndarray) -> int:
        self.constants.append(array)
        return len(self.constants) - 1


class VMError(Exception):
    pass


class _Frame:
    __slots__ = ("regs", "heap")

    def __init__(self, num_regs: int, num_slots: int):
        self.regs: List = [None] * num_regs
        self.heap = np.zeros(num_slots, dtype=np.int64)


def ccl_combine(kind: str, chunks: List[np.ndarray], rank: int,
                extra: int) -> np.ndarray:
    """Combine rank-ordered collective contributions (shared by the VM's
    degenerate single-device path and the mesh's CollectiveChannel).

    Reductions accumulate strictly in rank order (``((c0 + c1) + c2)...``)
    and in f64 — the fixed order and precision that make sharded float
    results deterministic to the last bit (the caller casts back to the
    input dtype, a single rounding, matching the one rounding of the
    f64-internal compute kernels).  ``extra`` is the axis (all_gather /
    reduce_scatter) or the root rank (broadcast).
    """
    def widen(c):
        return c.astype(np.float64) if c.dtype.kind == "f" else c

    if kind == "all_reduce":
        acc = widen(chunks[0])
        for c in chunks[1:]:
            acc = acc + widen(c)
        return acc
    if kind == "all_gather":
        return np.concatenate(chunks, axis=extra)
    if kind == "reduce_scatter":
        acc = widen(chunks[0])
        for c in chunks[1:]:
            acc = acc + widen(c)
        world = len(chunks)
        if acc.shape[extra] % world:
            raise VMError(
                f"ccl.reduce_scatter: dim {extra} of size "
                f"{acc.shape[extra]} is not divisible by {world}"
            )
        return np.split(acc, world, axis=extra)[rank]
    if kind == "broadcast":
        return chunks[extra]
    raise VMError(f"unknown collective ccl.{kind!r}")


# -- replay plans -------------------------------------------------------------------
#
# An abstract call's accounting is decided by its shape class and the
# values its shape heap takes, so the VM records one plan per class and
# evaluates it for every later call of the class (``plans.py``, DESIGN.md
# §16).  Pool and storage effects depend on live state (a reused block or
# an unchanged storage costs nothing), so a plan keeps those in order as
# ``(op, operands)``: each op is one *applier* method on the VM that
# appends the effect to the active recorder and changes ``stats`` /
# ``pool`` / ``_storage_cache``, and a replay calls the same appliers in
# recorded order.

_OP_ALLOC, _OP_RELEASE, _OP_STORAGE = range(3)


class ReplayPlans:
    """Replay plans recorded under one ``context``: the executable, device,
    library registry, interconnect and mesh world — everything besides the
    call's own arguments that abstract accounting reads.  ``plans`` maps
    ``(function name, replays a graph?, argument class)`` to a
    :class:`~repro.runtime.plans.ClassPlan`."""

    def __init__(self, context: Tuple):
        self.context = context
        self.plans: Dict[Tuple, "_plans.ClassPlan"] = {}

    def __len__(self) -> int:
        return len(self.plans)


class PlanCacheInfo(NamedTuple):
    """What :meth:`VirtualMachine.plan_cache_info` returns, modelled on
    ``functools.lru_cache``'s ``cache_info()``."""

    #: Calls evaluated from the plan of their shape class.
    hits: int
    #: Plan-eligible calls that were interpreted: the first of a class,
    #: a capture, or a call whose class plan declined it (a failing check,
    #: a new capture key), which then raises or captures as interpreted.
    misses: int
    #: Shape classes with a plan.
    plans: int
    #: Calls that ran the interpreter: the misses, plus every call the
    #: plans do not cover (concrete, traced, undescribable argument).
    interpreted_calls: int


def _efficiency_rule(func: tir.PrimFunc) -> Tuple[bool, Optional[float], bool]:
    """What a tensor program's efficiency depends on besides the rows of
    its first output: (opaque schedule?, tuned efficiency, matmul?)."""
    attrs = func.attrs
    return (attrs.get("schedule_class") == "opaque",
            attrs.get("tuned_efficiency"), attrs.get("op_kind") == "matmul")


class VirtualMachine:
    """Interprets an Executable on a modeled device.

    ``concrete`` selects the execution mode: with it, kernels compute real
    values via the tensor-program interpreter and the library registry;
    without it, only shapes, allocations and the device clock advance.
    """

    def __init__(
        self,
        executable: Executable,
        device: Device,
        concrete: bool = True,
        enable_cuda_graph: bool = True,
        registry: LibraryRegistry = REGISTRY,
    ):
        self.exe = executable
        self.device = device
        self.concrete = concrete
        self.enable_cuda_graph = enable_cuda_graph
        self.registry = registry
        self.stats = ExecutionStats()
        #: Optional :class:`repro.obs.trace.TraceRecorder`.  ``None`` —
        #: the default — keeps execution bit-identical to an untraced run.
        self.tracer = None
        #: Optional mesh placement (:class:`repro.dist.mesh.MeshContext`):
        #: rank/world/channel for ``ccl.*`` builtins.  ``None`` — the
        #: default — selects degenerate single-device replica semantics.
        self.mesh = None
        #: Optional :class:`repro.dist.interconnect.Interconnect` charged
        #: by collective builtins; ``None`` prices collectives at zero.
        self.interconnect = None
        self.pool = RuntimePool(self.stats)
        self._storage_cache: Dict[Tuple[str, int], Storage] = {}
        self._graph_cache: Dict[Tuple, int] = {}
        self._costs: Dict[tir.PrimFunc, tir.CostTerms] = {}
        self._replay_depth = 0
        self._const_cache: Dict[int, NDArray] = {}
        self._plans: Optional[ReplayPlans] = None
        #: Bumped by every storage allocation or resize (see ``_storage``).
        self._storage_epoch = 0
        #: The effects of the call being recorded (None: not recording).
        self._recorder: Optional[List[Tuple[int, Tuple]]] = None
        #: Every ``alloc_overhead`` charged so far (kept out of plan totals).
        self._alloc_as = 0
        self._plan_hits = 0
        self._plan_misses = 0
        self._interpreted_calls = 0

    # -- public API ------------------------------------------------------------

    def run(self, func_name: str, *args):
        """Invoke a VM function with NDArray / ShapeTuple / int arguments.

        An abstract, untraced call whose shape class was seen before is
        evaluated from the class's replay plan instead of interpreted;
        every simulated number comes out the same either way (see
        :class:`ReplayPlans`).
        """
        func = self.exe.functions.get(func_name)
        described = None
        if not self.concrete and self.tracer is None and func is not None:
            described = _plans.describe(args)
        if described is None:
            self._interpreted_calls += 1
            return self._call(func_name, list(args))
        sig, dims = described
        replays = bool(func.attrs.get("cuda_graph") and self.enable_cuda_graph)
        key = (func_name, replays, *sig)
        table = self.replay_plans
        plan = table.plans.get(key)
        if plan is not None and plan.func is not func:
            plan = None
        bound = None if plan is None else plan.bind(self, args, dims)
        if bound is not None:
            self._plan_hits += 1
            result = self._apply_plan(bound)
            plan.epoch = self._storage_epoch
            return result

        self._plan_misses += 1
        self._interpreted_calls += 1
        if plan is not None:  # declined: interpret, as if there were none
            return self._call(func_name, list(args))
        return self._record_plan(table, key, func_name, func, replays, args,
                                 sig, dims)

    def reset_stats(self) -> ExecutionStats:
        """Start a fresh :class:`ExecutionStats` window; returns the old one.

        The :class:`RuntimePool` free list is dropped too, so the next run
        re-allocates blocks an uninterrupted run would have recycled —
        correct for "measure one steady-state step from scratch", but it
        *double-counts allocations* if used to split one continuous
        workload into windows: for per-window deltas on a shared VM leave
        the stats alone and use ``stats.copy()`` / ``stats.delta()``.
        """
        old = self.stats
        self.stats = ExecutionStats()
        self.pool = RuntimePool(self.stats)
        return old

    @property
    def replay_plans(self) -> ReplayPlans:
        """The plan table valid for this VM as it is placed now.

        A table recorded under another device, registry, interconnect,
        executable or mesh world is never consulted: it is replaced by an
        empty one here.
        """
        mesh = self.mesh
        context = (self.exe, self.device, self.registry, self.interconnect,
                   None if mesh is None else mesh.world)
        table = self._plans
        if table is None or table.context != context:
            table = self._plans = ReplayPlans(context)
        return table

    def plan_cache_info(self) -> PlanCacheInfo:
        """Replay-plan counters of this VM (diagnostic; in no report)."""
        return PlanCacheInfo(self._plan_hits, self._plan_misses,
                             len(self.replay_plans), self._interpreted_calls)

    # -- replay plans -------------------------------------------------------------

    def _record_plan(self, table: ReplayPlans, key: Tuple, func_name: str,
                     func: VMFunction, replays: bool, args, sig: Tuple,
                     dims: List[int]):
        """Interpret the call and keep the plan of its class under ``key``.

        Nothing is kept when the call raises, captures a graph or makes a
        nested call (the interpreter drops the recorder), or holds what
        :func:`~repro.runtime.plans.record` cannot describe.
        """
        before, alloc_before = self.stats.copy(), self._alloc_as
        self._recorder = []
        try:
            result = self._call(func_name, list(args))
            recorder = self._recorder
        finally:
            self._recorder = None
        if recorder is not None:
            charged = self.stats.delta(before)
            totals = replace(
                charged,
                time_as=charged.time_as - (self._alloc_as - alloc_before),
                allocations=0, allocated_bytes_total=0,
                escaping_bytes_total=0, current_bytes=0, peak_bytes=0)
            plan = _plans.record(self, func, replays, sig, dims, args,
                                 totals, recorder, result)
            if plan is not None:
                plan.epoch = self._storage_epoch
                table.plans[key] = plan
        return result

    def _apply_plan(self, plan):
        """Replay a plan bound to one call: add its totals, then call the
        appliers with its pool and storage effects in recorded order, so
        reuse and resizes are decided against live state as the
        interpreter would."""
        self.stats.merge(plan.totals)
        appliers = self._pool_allocate, self._pool_release, self._storage
        for op, operands in plan.effects:
            appliers[op](*operands)
        return _plans.instantiate(plan.result, plan.env, self._storage_cache)

    # -- function invocation ------------------------------------------------------

    def _call(self, func_name: str, args: List):
        if func_name not in self.exe.functions:
            raise VMError(f"no VM function named {func_name!r}")
        func = self.exe.functions[func_name]
        if len(args) != len(func.params):
            raise VMError(
                f"{func_name}: expected {len(func.params)} arguments, got {len(args)}"
            )

        use_graph = (
            func.attrs.get("cuda_graph")
            and self.enable_cuda_graph
            and self._replay_depth == 0
        )
        if use_graph:
            key = (func_name, self._graph_signature(func, args))
            if key in self._graph_cache:
                return self._run_replayed(func, args)
            # First run with this shape signature: capture.
            # A capture happens once per key, so it is never what a
            # replay plan holds: the recorder is dropped.
            self._recorder = None
            capture = to_as(10 * self.device.kernel_launch_overhead)
            if self.tracer is not None:
                self.tracer.emit("graph_capture", func_name,
                                 self.stats.time_as, capture)
            self.stats.graph_captures += 1
            self.stats.time_as += capture
            result = self._run_body(func, args)
            self._graph_cache[key] = 1
            return result
        return self._run_body(func, args)

    def _run_replayed(self, func: VMFunction, args: List):
        replayed = self.stats.replayed_kernels
        self._replay_depth += 1
        try:
            result = self._run_body(func, args)
        finally:
            self._replay_depth -= 1
        launch = to_as(self.device.graph_launch_overhead)
        if self.tracer is not None:
            self.tracer.emit("graph_replay", func.name, self.stats.time_as,
                             launch,
                             kernels=self.stats.replayed_kernels - replayed)
        self.stats.graph_replays += 1
        self.stats.time_as += launch
        return result

    @staticmethod
    def _graph_signature(func: VMFunction, args: List) -> Tuple:
        """Capture key: like _signature but skipping bounded dynamic dims.

        Dims planned with worst-case storage (declared upper bounds) do not
        invalidate the captured graph when they vary — the replay updates
        kernel parameters in place (cudaGraphExecUpdate semantics) — so
        they are excluded from the key.
        """
        dynamic = func.attrs.get("graph_dynamic_dims") or {}
        sig = []
        for i, arg in enumerate(args):
            if isinstance(arg, NDArray):
                skip = dynamic.get(i)
                if skip:
                    sig.append(("t",) + tuple(
                        -1 if d in skip else v for d, v in enumerate(arg.shape)
                    ))
                else:
                    sig.append(("t",) + arg.shape)
            else:
                sig.append(VirtualMachine._signature([arg])[0])
        return tuple(sig)

    @staticmethod
    def _signature(args: List) -> Tuple:
        sig = []
        for arg in args:
            if isinstance(arg, NDArray):
                sig.append(("t",) + arg.shape)
            elif isinstance(arg, ShapeTuple):
                sig.append(("s",) + arg.values)
            elif isinstance(arg, int):
                sig.append(("i", arg))
            elif isinstance(arg, tuple):
                sig.append(("tup", VirtualMachine._signature(list(arg))))
            else:
                sig.append(("o",))
        return tuple(sig)

    def _run_body(self, func: VMFunction, args: List):
        frame = _Frame(func.num_regs, func.num_slots)
        for i, arg in enumerate(args):
            frame.regs[i] = arg
        result = self._exec_block(func, func.body, frame)
        if result is _NO_RETURN:
            raise VMError(f"{func.name}: function body fell through without Ret")
        return result

    # -- instruction dispatch --------------------------------------------------------

    def _exec_block(self, func: VMFunction, body: List[Instr], frame: _Frame):
        dispatch = _DISPATCH
        for instr in body:
            kind = type(instr)
            if kind is Ret:
                return frame.regs[instr.reg]
            handler = dispatch.get(kind)
            if handler is None:
                raise VMError(f"unknown instruction {kind.__name__}")
            handler(self, func, instr, frame)
        return _NO_RETURN

    def _exec_compute_shape(self, func, instr: ComputeShape, frame: _Frame) -> None:
        env = {var: int(frame.heap[slot]) for var, slot in instr.var_slots}
        frame.heap[instr.dst_slot] = sym.evaluate(instr.expr, env)

    def _exec_make_shape(self, func, instr: MakeShape, frame: _Frame) -> None:
        frame.regs[instr.dst] = ShapeTuple(
            [self._dim_value(d, frame) for d in instr.dims]
        )

    def _exec_load_const(self, func, instr: LoadConst, frame: _Frame) -> None:
        frame.regs[instr.dst] = self._load_const(instr.const_idx)

    def _exec_kill_tensor(self, func, instr: KillTensor, frame: _Frame) -> None:
        arr = frame.regs[instr.reg]
        if isinstance(arr, NDArray) and arr.storage is None:
            size = arr.size_bytes()
            self._pool_release(size)
            if self.tracer is not None:
                self.tracer.emit("free", "pool_tensor", self.stats.time_as,
                                 0, instr.prov, size=size)
        frame.regs[instr.reg] = None

    def _exec_call_func(self, func, instr: CallFunc, frame: _Frame) -> None:
        # A callee may capture or replay a graph of its own: the effects
        # of this call are not one flat plan.
        self._recorder = None
        callee_args = [frame.regs[r] for r in instr.args]
        frame.regs[instr.dst] = self._call(instr.func, callee_args)

    def _exec_make_tuple(self, func, instr: MakeTupleI, frame: _Frame) -> None:
        frame.regs[instr.dst] = tuple(frame.regs[r] for r in instr.srcs)

    def _exec_get_item(self, func, instr: GetItemI, frame: _Frame) -> None:
        frame.regs[instr.dst] = frame.regs[instr.src][instr.index]

    def _exec_if(self, func: VMFunction, instr: If, frame: _Frame) -> None:
        taken = self._truth_value(frame.regs[instr.cond])
        body = instr.then_body if taken else instr.else_body
        out = instr.then_out if taken else instr.else_out
        result = self._exec_block(func, body, frame)
        if result is not _NO_RETURN:
            raise VMError("Ret inside If branches is not supported")
        frame.regs[instr.dst] = frame.regs[out]

    # -- shape machinery -------------------------------------------------------------

    def _dim_value(self, dim: DimSpec, frame: _Frame) -> int:
        kind, payload = dim
        if kind == "const":
            return payload
        return int(frame.heap[payload])

    def _exec_match_shape(self, func, instr: MatchShape, frame: _Frame) -> None:
        value = frame.regs[instr.reg]
        if isinstance(value, NDArray):
            shape = value.shape
            if instr.dtype is not None and value.dtype != instr.dtype:
                raise VMError(
                    f"{instr.context}: dtype mismatch, expected {instr.dtype}, "
                    f"got {value.dtype}"
                )
        elif isinstance(value, ShapeTuple):
            shape = value.values
        else:
            raise VMError(f"{instr.context}: cannot match shape of {type(value).__name__}")
        if instr.ndim is not None and len(shape) != instr.ndim:
            raise VMError(
                f"{instr.context}: rank mismatch, expected {instr.ndim}, got {len(shape)}"
            )
        for dim_idx, kind, payload in instr.actions:
            actual = shape[dim_idx]
            if kind == "store":
                frame.heap[payload] = actual
            elif kind == "assert_slot":
                if int(frame.heap[payload]) != actual:
                    raise VMError(
                        f"{instr.context}: symbolic dim {dim_idx} expected "
                        f"{int(frame.heap[payload])}, got {actual}"
                    )
            elif kind == "assert_const":
                if actual != payload:
                    raise VMError(
                        f"{instr.context}: dim {dim_idx} expected {payload}, got {actual}"
                    )
            else:  # pragma: no cover
                raise VMError(f"unknown MatchShape action {kind!r}")

    # -- memory ------------------------------------------------------------------------

    def _exec_alloc_storage(self, func: VMFunction, instr: AllocStorage,
                            frame: _Frame) -> None:
        frame.regs[instr.dst] = self._storage(
            (func.name, id(instr)), self._dim_value(instr.size, frame),
            instr.escapes, instr.prov)

    def _exec_alloc_tensor(self, func, instr: AllocTensor, frame: _Frame) -> None:
        shape = [self._dim_value(d, frame) for d in instr.dims]
        if instr.storage is not None:
            storage = frame.regs[instr.storage]
            if not isinstance(storage, Storage):
                raise VMError("AllocTensor storage register does not hold a Storage")
            needed = math.prod(shape) * dtypes.itemsize(instr.dtype)
            if needed > storage.size:
                raise VMError(
                    f"tensor of {needed} bytes does not fit storage of {storage.size}"
                )
            frame.regs[instr.dst] = NDArray.empty(
                shape, instr.dtype, self.concrete, storage=storage)
            return
        arr = NDArray.empty(shape, instr.dtype, self.concrete)
        size = arr.size_bytes()
        ts = self.stats.time_as
        reused = self._pool_allocate(size, instr.escapes, charged=True)
        if self.tracer is not None:
            self.tracer.emit(
                "alloc", "pool_tensor", ts, self.stats.time_as - ts, instr.prov,
                size=size, escapes=instr.escapes, reused=reused,
            )
        frame.regs[instr.dst] = arr

    # -- appliers: the only code that changes pool and storages -------------------
    #
    # Each records its effect when a recorder is attached; _apply_plan calls
    # them with the recorded operands (see "replay plans" above).

    def _alloc_charge(self) -> None:
        """A fresh block's ``alloc_overhead``: decided live, so it stays
        out of a plan's totals."""
        charge = to_as(self.device.alloc_overhead)
        self.stats.time_as += charge
        self._alloc_as += charge

    def _pool_allocate(self, size: int, escapes: bool = False,
                       charged: bool = False) -> bool:
        """Take ``size`` bytes from the pool; True when a block was reused.
        A ``charged`` allocation (a tensor's; a builtin's result is not)
        pays ``alloc_overhead`` for a fresh block."""
        if self._recorder is not None:
            self._recorder.append((_OP_ALLOC, (size, escapes, charged)))
        reused = self.pool.allocate(size, escapes)
        if charged and not reused:
            self._alloc_charge()
        return reused

    def _pool_release(self, size: int) -> None:
        if self._recorder is not None:
            self._recorder.append((_OP_RELEASE, (size,)))
        self.pool.release(size)

    def _storage(self, key: Tuple[str, int], size: int, escapes: bool,
                 prov: Tuple[str, ...] = ()) -> Storage:
        """The planned storage ``key``, allocated or resized on demand."""
        if self._recorder is not None:
            self._recorder.append((_OP_STORAGE, (key, size, escapes)))
        cached = self._storage_cache.get(key)
        if cached is not None and cached.size == size:
            return cached
        self._storage_epoch += 1
        if cached is not None:
            self.stats.record_free(cached.size)
            if self.tracer is not None:
                self.tracer.emit("free", "storage", self.stats.time_as, 0,
                                 prov, size=cached.size, resized=True)
        self.stats.record_alloc(size, escapes)
        ts = self.stats.time_as
        self._alloc_charge()
        if self.tracer is not None:
            self.tracer.emit("alloc", "storage", ts, self.stats.time_as - ts,
                             prov, size=size, escapes=escapes)
        storage = Storage(size, self.concrete)
        self._storage_cache[key] = storage
        return storage

    # -- kernels -----------------------------------------------------------------------

    def _exec_call_tir(self, caller, instr: CallTir, frame: _Frame) -> None:
        if instr.func not in self.exe.tir_funcs:
            raise VMError(f"no tensor program named {instr.func!r}")
        func = self.exe.tir_funcs[instr.func]
        inputs = [self._as_ndarray(frame.regs[r], instr.func) for r in instr.args]
        outputs = [self._as_ndarray(frame.regs[r], instr.func) for r in instr.outs]
        sym_values = [self._dim_value(d, frame) for d in instr.sym_args]

        bindings = self._bind_shapes(func, inputs + outputs, sym_values)
        costs = self._cost_terms(func)
        rows = math.prod(outputs[0].shape[:-1]) if outputs else None
        event = self._launch(
            False, instr.func, costs.flops(bindings), costs.bytes(bindings),
            self._efficiency(_efficiency_rule(func), rows), instr.prov,
            inputs + outputs, bindings)
        if self.concrete:
            arrays = [a.numpy() for a in inputs] + [a.numpy() for a in outputs]
            tir.run_prim_func(func, arrays, sym_bindings=bindings)
            if event is not None and self.tracer.capture_outputs:
                event.outputs = [o.numpy().copy() for o in outputs]

    def _exec_call_lib(self, func, instr: CallLib, frame: _Frame) -> None:
        kernel = self.registry.get(instr.name)
        if self.device.backend not in kernel.backends:
            raise VMError(
                f"library {instr.name!r} is unavailable on backend "
                f"{self.device.backend!r}"
            )
        inputs = [self._as_ndarray(frame.regs[r], instr.name) for r in instr.args]
        outputs = [self._as_ndarray(frame.regs[r], instr.name) for r in instr.outs]
        flops, nbytes, efficiency = self._lib_cost(
            kernel, [(a.shape, a.dtype) for a in inputs],
            [(a.shape, a.dtype) for a in outputs])
        event = self._launch(True, instr.name, flops, nbytes, efficiency,
                             instr.prov, inputs + outputs)
        if self.concrete:
            kernel.compute([a.numpy() for a in inputs], [a.numpy() for a in outputs])
            if event is not None and self.tracer.capture_outputs:
                event.outputs = [o.numpy().copy() for o in outputs]

    def _launch(self, lib: bool, name: str, flops, nbytes, efficiency: float,
                prov, arrays: List[NDArray], bindings=None):
        """Time, trace and charge one tensor-program (or, ``lib``, library)
        kernel: its roofline plus a launch overhead or, inside a replayed
        graph, the per-kernel graph overhead.  Returns the trace event, if
        any."""
        device, stats = self.device, self.stats
        launched = self._replay_depth == 0
        roofline = device.kernel_roofline(flops, nbytes, efficiency)
        overhead = to_as(device.kernel_launch_overhead if launched
                         else device.graph_kernel_overhead)
        time = to_as(roofline) + overhead
        event = None
        if self.tracer is not None:
            extra = {} if lib else {
                "sym": {var.name: int(v) for var, v in bindings.items()}}
            event = self.tracer.emit(
                "library" if lib else "kernel", name, stats.time_as,
                time, prov, flops=flops, bytes=nbytes, efficiency=efficiency,
                roofline_s=roofline, launch_s=to_s(overhead),
                replayed=not launched,
                shapes=[list(a.shape) for a in arrays], **extra,
            )
        stats.time_as += time
        stats.kernel_time_as += time
        if launched:
            stats.launch_overhead_as += overhead
        else:
            stats.replayed_kernels += 1
        if lib:
            stats.lib_calls += 1
        else:
            stats.kernel_launches += 1
        return event

    def _efficiency(self, rule, rows: Optional[int]) -> float:
        """The fraction of roofline a generated tensor program reaches,
        from its :func:`_efficiency_rule` and its first output's rows."""
        opaque, tuned, matmul = rule
        efficiency = self.device.gen_efficiency
        if opaque:
            # No analysis rule covers this program: the naive fallback
            # schedule applies unless Ansor-style tuning found better
            # (§4.6's "rare tensor programs" case).
            efficiency = self.device.gen_efficiency * 0.6
        if tuned is not None:
            efficiency = float(tuned)
        if matmul and rows is not None:
            if rows == 1:
                # Compiler-specialized matrix-vector kernels at batch 1
                # (the paper's Fig. 15 advantage).
                efficiency = self.device.gen_matvec_efficiency
            else:
                # Analysis-based schedules without autotuning trail the
                # vendor GEMM on compute-bound shapes (why partial library
                # lowering is the biggest Fig. 17 contributor).
                efficiency = self.device.gen_gemm_efficiency
        return efficiency

    def _lib_cost(self, kernel, in_sd, out_sd) -> Tuple[int, int, float]:
        """(flops, bytes, efficiency) of one library launch."""
        flops, nbytes = kernel.cost(in_sd, out_sd)
        return flops, nbytes, {
            "lib": self.device.lib_efficiency,
            "gen": self.device.gen_efficiency,
            "gen_matvec": self.device.gen_matvec_efficiency,
        }[kernel.efficiency_class(in_sd, out_sd)]

    def _bind_shapes(self, func: tir.PrimFunc, arrays: List[NDArray], sym_values):
        bindings: Dict[sym.SymVar, int] = {}
        for var, value in zip(func.sym_params, sym_values):
            bindings[var] = int(value)
        for buf, arr in zip(func.params, arrays):
            for dim, actual in zip(buf.shape, arr.shape):
                if isinstance(dim, sym.SymVar) and dim not in bindings:
                    bindings[dim] = int(actual)
        return bindings

    def _cost_terms(self, func: tir.PrimFunc) -> tir.CostTerms:
        """``func``'s cost terms, built on its first launch."""
        costs = self._costs.get(func)
        if costs is None:
            costs = self._costs[func] = tir.cost_terms(func)
        return costs

    # -- builtins -----------------------------------------------------------------------

    def _exec_builtin(self, func, instr: CallBuiltin, frame: _Frame) -> None:
        args = [frame.regs[r] for r in instr.args]
        self.stats.builtin_calls += 1
        ts = self.stats.time_as
        if instr.name == "vm.builtin.shape_of":
            arr = args[0]
            result = ShapeTuple(arr.shape)
        elif instr.name == "vm.builtin.unique":
            result = self._builtin_unique(args[0])
        elif instr.name == "vm.builtin.nonzero":
            result = self._builtin_nonzero(args[0])
        elif instr.name.startswith("vm.builtin.ccl."):
            result = self._builtin_ccl(
                instr.name[len("vm.builtin.ccl."):], args
            )
        else:
            raise VMError(f"unknown builtin {instr.name!r}")
        if self.tracer is not None:
            # Builtins charge the clock internally; the delta is the cost.
            self.tracer.emit("builtin", instr.name, ts,
                             self.stats.time_as - ts, instr.prov)
        if instr.dst is not None:
            frame.regs[instr.dst] = result

    def _builtin_unique(self, arr: NDArray) -> NDArray:
        self.stats.time_as += to_as(self.device.kernel_launch_overhead * 2)
        if self.concrete:
            out = np.unique(arr.numpy())
            self._pool_allocate(out.nbytes)
            return NDArray.from_numpy(out)
        # Abstract mode: data-dependent length is unknowable; use the upper
        # bound (every element distinct), matching §4.3's bound-based planning.
        result = NDArray.abstract((arr.num_elements(),), arr.dtype)
        self._pool_allocate(result.size_bytes())
        return result

    def _builtin_ccl(self, kind: str, args: List) -> NDArray:
        """Collective over the device mesh (``vm.builtin.ccl.*``).

        Integer operands (world, then axis or root) arrive as one-element
        shape tuples — the ``PrimValue`` calling convention.  With a mesh
        attached the value comes from the rank-ordered exchange over the
        :class:`~repro.dist.mesh.CollectiveChannel`; without one the VM
        acts as one rank of a mesh whose peers all hold this replica.
        The modeled interconnect (when attached) charges ring time into
        both ``time_as`` and ``comm_time_as``.
        """
        if kind not in ("all_reduce", "all_gather", "reduce_scatter",
                        "broadcast"):
            raise VMError(f"unknown collective ccl.{kind!r}")
        arr = self._as_ndarray(args[0], f"ccl.{kind}")
        world = int(args[1][0])
        extra = int(args[2][0]) if len(args) > 2 else 0
        if world < 1:
            raise VMError(f"ccl.{kind}: world must be >= 1, got {world}")
        mesh = self.mesh
        rank = 0
        if mesh is not None:
            if mesh.world != world:
                raise VMError(
                    f"ccl.{kind}: compiled for world {world} but running "
                    f"on a mesh of {mesh.world}"
                )
            rank = mesh.rank

        # One host-side enqueue, like every builtin; the wire time is the
        # interconnect's ring cost over the full logical payload.
        stats = self.stats
        stats.time_as += to_as(self.device.kernel_launch_overhead)
        if self.interconnect is not None and world > 1:
            full_bytes = arr.size_bytes()
            if kind == "all_gather":
                full_bytes *= world
            wire = self._wire_as(kind, world, full_bytes)
            stats.time_as += wire
            stats.comm_time_as += wire

        if not self.concrete:
            shape = list(arr.shape)
            if kind == "all_gather":
                shape[extra] *= world
            elif kind == "reduce_scatter":
                if shape[extra] % world:
                    raise VMError(
                        f"ccl.reduce_scatter: dim {extra} of size "
                        f"{shape[extra]} is not divisible by {world}"
                    )
                shape[extra] //= world
            result = NDArray.abstract(tuple(shape), arr.dtype)
            self._pool_allocate(result.size_bytes())
            return result

        x = arr.numpy()
        if mesh is not None and mesh.channel is not None:
            chunks = mesh.channel.exchange(rank, x)
        else:
            chunks = [x] * world
        out = ccl_combine(kind, chunks, rank, extra)
        if out.dtype != x.dtype:
            out = out.astype(x.dtype)  # round the f64 reduction once
        elif any(out is c or out.base is not None for c in chunks):
            # Never alias a peer's (or our own) buffer: reduce_scatter
            # slices and broadcast returns the root's array directly.
            out = out.copy()
        self._pool_allocate(out.nbytes)
        return NDArray.from_numpy(out)

    def _wire_as(self, kind: str, world: int, nbytes: int) -> int:
        """The interconnect's ring time of one collective."""
        return to_as(getattr(self.interconnect, f"{kind}_s")(world, nbytes))

    def _builtin_nonzero(self, arr: NDArray) -> NDArray:
        self.stats.time_as += to_as(self.device.kernel_launch_overhead * 2)
        if self.concrete:
            out = np.flatnonzero(arr.numpy()).astype(np.int64)
            self._pool_allocate(out.nbytes)
            return NDArray.from_numpy(out)
        result = NDArray.abstract((arr.num_elements(),), "i64")
        self._pool_allocate(result.size_bytes())
        return result

    # -- misc --------------------------------------------------------------------------

    def _load_const(self, idx: int) -> NDArray:
        cached = self._const_cache.get(idx)
        if cached is None:
            array = self.exe.constants[idx]
            if self.concrete:
                cached = NDArray.from_numpy(array)
            else:
                cached = NDArray.abstract(array.shape, dtypes.from_numpy(array.dtype))
            self._const_cache[idx] = cached
        return cached

    def _as_ndarray(self, value, context: str) -> NDArray:
        if not isinstance(value, NDArray):
            raise VMError(f"{context}: expected a tensor argument, got {type(value).__name__}")
        return value

    def _truth_value(self, cond) -> bool:
        if isinstance(cond, bool):
            return cond
        if isinstance(cond, int):
            return bool(cond)
        if isinstance(cond, NDArray):
            if not self.concrete:
                raise VMError("cannot evaluate a data-dependent branch in abstract mode")
            return bool(cond.numpy().reshape(()))
        raise VMError(f"invalid condition value {type(cond).__name__}")


class _NoReturn:
    pass


_NO_RETURN = _NoReturn()

#: Opcode dispatch (``Ret`` ends the block and is handled by the loop).
_DISPATCH = {
    MatchShape: VirtualMachine._exec_match_shape,
    ComputeShape: VirtualMachine._exec_compute_shape,
    MakeShape: VirtualMachine._exec_make_shape,
    LoadConst: VirtualMachine._exec_load_const,
    AllocStorage: VirtualMachine._exec_alloc_storage,
    AllocTensor: VirtualMachine._exec_alloc_tensor,
    KillTensor: VirtualMachine._exec_kill_tensor,
    CallTir: VirtualMachine._exec_call_tir,
    CallLib: VirtualMachine._exec_call_lib,
    CallBuiltin: VirtualMachine._exec_builtin,
    CallFunc: VirtualMachine._exec_call_func,
    MakeTupleI: VirtualMachine._exec_make_tuple,
    GetItemI: VirtualMachine._exec_get_item,
    If: VirtualMachine._exec_if,
}

# Class plans walk the instruction set above.
from . import plans as _plans  # noqa: E402
