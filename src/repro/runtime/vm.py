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
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import dtypes, sym, tir
from ..obs.trace import TraceRecorder
from .device import Device
from .library import REGISTRY, LibraryRegistry
from .ndarray import NDArray, ShapeTuple, Storage
from .profiler import ExecutionStats, RuntimePool

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
# An abstract call's accounting is decided by its signature alone, so the VM
# records, per signature, the flat sequence of effects interpretation produced
# and replays it on every later call (DESIGN.md §16).  Each kind of effect has
# one *applier* method on the VM that appends the effect to the active
# recorder and changes ``stats`` / ``pool`` / ``_storage_cache``; the
# interpreter charges only through the appliers, and a replay calls the same
# appliers in recorded order.  A plan's ``ops`` is an int stream — an op code
# followed by its operands — and ``times`` holds the float term of every op
# that carries one, in the order the interpreter added it.

_LIB = 1          # op codes 0-3 are one kernel each; this flag: a library call
_LAUNCHED = 2     # kernel flag: launched on its own (else replayed in a graph)
_OP_CLOCK = 4     # a bare clock term
_OP_WIRE = 5      # interconnect time
_OP_GRAPH = 6     # a graph launch
_OP_BUILTIN = 7   # a builtin call
_OP_ALLOC = 8     # size, flags: pool allocation
_OP_RELEASE = 9   # size: pool release
_OP_STORAGE = 10  # index into ``storages``: planned-storage check
_ESCAPES = 1      # _OP_ALLOC flag: the block holds a returned value
_CHARGED = 2      # _OP_ALLOC flag: a fresh block costs device.alloc_overhead


class _PlanRecorder:
    """The effects of one interpreted call, in order (written by the
    appliers)."""

    __slots__ = ("ops", "times", "storages")

    def __init__(self):
        self.ops = array("q")
        self.times = array("d")
        self.storages: List[Tuple] = []


class _TensorSpec(NamedTuple):
    """A tensor of a plan's result template."""

    shape: Tuple[int, ...]
    dtype: str
    storage_key: Optional[Tuple]  # into the live ``_storage_cache``


class _Unrecordable(Exception):
    """The call's result cannot be rebuilt from a template."""


class _Plan(NamedTuple):
    #: The function the plan was recorded from (an executable is mutable).
    func: "VMFunction"
    ops: array
    times: array
    storages: Tuple[Tuple, ...]
    result: object


class ReplayPlans:
    """Replay plans recorded under one ``context``: the executable, device,
    library registry, interconnect and mesh world — everything besides the
    call's own signature that abstract accounting reads."""

    def __init__(self, context: Tuple):
        self.context = context
        self.plans: Dict[Tuple, _Plan] = {}
        self._interned: Dict[Tuple, Tuple] = {}

    def intern(self, value: Tuple) -> Tuple:
        """One object per distinct argument description, storage op or
        result tensor: plans repeat the same few."""
        return self._interned.setdefault(value, value)

    def __len__(self) -> int:
        return len(self.plans)


class PlanCacheInfo(NamedTuple):
    """What :meth:`VirtualMachine.plan_cache_info` returns, modelled on
    ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    plans: int
    #: Calls that ran the interpreter: the misses, plus every call the
    #: plans do not cover (concrete, traced, undescribable argument).
    interpreted_calls: int


def _describe(args) -> Optional[List[Tuple]]:
    """One tuple per argument holding everything abstract interpretation
    can read from it; None when an argument is of a kind this cannot
    describe.

    ``MatchShape`` checks dtypes, ``KillTensor`` tells planned tensors from
    pool ones, and ``True == 1``: all three are spelled out.
    """
    sig = []
    for arg in args:
        kind = type(arg)
        if kind is NDArray:
            if arg.storage is None:
                sig.append((arg.dtype, *arg.shape))
            else:
                sig.append((Storage, arg.dtype, *arg.shape))
        elif kind is ShapeTuple:
            sig.append((kind, *arg.values))
        elif kind is int or kind is bool:
            sig.append((kind, arg))
        elif kind is tuple:
            inner = _describe(arg)
            if inner is None:
                return None
            sig.append((kind, *inner))
        else:
            return None
    return sig


def _cost_vars(func: tir.PrimFunc) -> Tuple[sym.SymVar, ...]:
    """The explicit symbolic parameters ``tir.count_flops`` / ``count_bytes``
    read beyond the argument shapes: those in an iteration extent or an
    intermediate buffer's shape.  One read only by index expressions
    (rope's position offset) moves no count, so it keys no cache entry."""
    exprs = [extent for stage in func.stages for _, extent in stage.iter_domain()]
    exprs += [dim for buf in func.intermediate_buffers() for dim in buf.shape]
    used = {var.key() for expr in exprs for var in sym.free_vars(expr)}
    return tuple(var for var in func.sym_params if var.key() in used)


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
        #: Optional trace hook (see :mod:`repro.obs.trace`).  ``None`` —
        #: the default — keeps execution bit-identical to an untraced run.
        self.tracer: Optional[TraceRecorder] = None
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
        self._cost_cache: Dict[Tuple, Tuple[int, int]] = {}
        self._cost_vars: Dict[str, Tuple[sym.SymVar, ...]] = {}
        self._replay_depth = 0
        self._const_cache: Dict[int, NDArray] = {}
        self._plans: Optional[ReplayPlans] = None
        self._recorder: Optional[_PlanRecorder] = None
        self._plan_hits = 0
        self._plan_misses = 0
        self._interpreted_calls = 0

    # -- public API ------------------------------------------------------------

    def run(self, func_name: str, *args):
        """Invoke a VM function with NDArray / ShapeTuple / int arguments.

        An abstract, untraced call whose signature was seen before applies
        its recorded replay plan instead of interpreting; every simulated
        number comes out the same either way (see :class:`ReplayPlans`).
        """
        func = self.exe.functions.get(func_name)
        sig = None
        if not self.concrete and self.tracer is None and func is not None:
            sig = _describe(args)
        if sig is None:
            self._interpreted_calls += 1
            return self._call(func_name, list(args))
        replays = bool(func.attrs.get("cuda_graph") and self.enable_cuda_graph)
        key = (func_name, replays, *sig)
        table = self.replay_plans
        plan = table.plans.get(key)
        if plan is not None and plan.func is func:
            self._plan_hits += 1
            return self._apply_plan(plan)

        self._plan_misses += 1
        self._interpreted_calls += 1
        key = (func_name, replays, *map(table.intern, sig))
        return self._record_plan(table, key, func_name, func, args)

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
                     func: VMFunction, args):
        """Interpret the call and keep its effects as the plan for ``key``.

        Nothing is kept when the call raises, captures a graph or makes a
        nested call (the interpreter drops the recorder), or returns a
        value :meth:`_result_template` cannot describe.
        """
        self._recorder = _PlanRecorder()
        try:
            result = self._call(func_name, list(args))
            recorder = self._recorder
        finally:
            self._recorder = None
        if recorder is not None:
            try:
                template = self._result_template(table, result, args)
            except _Unrecordable:
                return result
            table.plans[key] = _Plan(
                func, recorder.ops, recorder.times,
                tuple(map(table.intern, recorder.storages)), template)
        return result

    def _result_template(self, table: ReplayPlans, result, args):
        """``result`` with every tensor replaced by a :class:`_TensorSpec`.

        Raises :class:`_Unrecordable` for a tensor that aliases an argument
        (the caller's object, not ours to rebuild) or a value of a kind a
        template cannot hold.
        """
        arg_ids = set()
        pending = list(args)
        while pending:
            arg = pending.pop()
            if type(arg) is tuple:
                pending.extend(arg)
            else:
                arg_ids.add(id(arg))
        storage_keys = {id(s): k for k, s in self._storage_cache.items()}

        def build(value):
            kind = type(value)
            if kind is tuple:
                return tuple([build(v) for v in value])
            if kind is ShapeTuple or kind is int or kind is bool:
                return value  # immutable: every replay may return this one
            if kind is not NDArray or id(value) in arg_ids:
                raise _Unrecordable
            key = None
            if value.storage is not None:
                key = storage_keys.get(id(value.storage))
                if key is None:
                    raise _Unrecordable
            return table.intern(_TensorSpec(value.shape, value.dtype, key))

        return build(result)

    def _instantiate(self, template):
        kind = type(template)
        if kind is _TensorSpec:
            shape, dtype, key = template
            storage = None if key is None else self._storage_cache[key]
            return NDArray(shape, dtype, storage=storage)
        if kind is tuple:
            return tuple([self._instantiate(t) for t in template])
        return template

    def _apply_plan(self, plan: _Plan):
        """Replay ``plan``: call the appliers with the recorded effects in
        recorded order, so a replayed call *is* the interpreted one — down
        to the order of every float addition, and with pool reuse and
        storage resizes decided against live state."""
        kernel = self._kernel
        time = iter(plan.times).__next__
        words = iter(plan.ops)
        for op in words:
            if op < _OP_CLOCK:
                kernel(op, time())
            elif op == _OP_CLOCK:
                self._charge(time())
            elif op == _OP_WIRE:
                self._wire(time())
            elif op == _OP_GRAPH:
                self._graph_launch(time())
            elif op == _OP_BUILTIN:
                self._builtin()
            elif op == _OP_ALLOC:
                size, flags = next(words), next(words)
                self._pool_allocate(size, flags & _ESCAPES, flags & _CHARGED)
            elif op == _OP_RELEASE:
                self._pool_release(next(words))
            else:
                self._storage(*plan.storages[next(words)])
        return self._instantiate(plan.result)

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
            capture_s = 10 * self.device.kernel_launch_overhead
            if self.tracer is not None:
                self.tracer.emit("graph_capture", func_name,
                                 self.stats.time_s, capture_s)
            self._capture(capture_s)
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
        if self.tracer is not None:
            self.tracer.emit("graph_replay", func.name, self.stats.time_s,
                             self.device.graph_launch_overhead,
                             kernels=self.stats.replayed_kernels - replayed)
        self._graph_launch(self.device.graph_launch_overhead)
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
                self.tracer.emit("free", "pool_tensor", self.stats.time_s,
                                 0.0, instr.prov, size=size)
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
        ts = self.stats.time_s
        reused = self._pool_allocate(size, instr.escapes, charged=True)
        if self.tracer is not None:
            self.tracer.emit(
                "alloc", "pool_tensor", ts,
                0.0 if reused else self.device.alloc_overhead, instr.prov,
                size=size, escapes=instr.escapes, reused=reused,
            )
        frame.regs[instr.dst] = arr

    # -- appliers: the only code that changes stats, pool and storages ---------------
    #
    # Each records its effect when a recorder is attached; _apply_plan calls
    # them with the recorded operands (see "replay plans" above).

    def _kernel(self, flags: int, time: float) -> None:
        """One kernel of ``time`` seconds; ``flags``: ``_LIB`` for a
        library call, ``_LAUNCHED`` unless it replays inside a graph."""
        rec = self._recorder
        if rec is not None:
            rec.ops.append(flags)
            rec.times.append(time)
        stats = self.stats
        stats.time_s += time
        stats.kernel_time_s += time
        if flags & _LAUNCHED:
            stats.launch_overhead_s += self.device.kernel_launch_overhead
        else:
            stats.replayed_kernels += 1
        if flags & _LIB:
            stats.lib_calls += 1
        else:
            stats.kernel_launches += 1

    def _charge(self, seconds: float) -> None:
        """A bare clock term (no kernel, no wire)."""
        rec = self._recorder
        if rec is not None:
            rec.ops.append(_OP_CLOCK)
            rec.times.append(seconds)
        self.stats.time_s += seconds

    def _wire(self, seconds: float) -> None:
        """Interconnect time: on the clock and in ``comm_time_s``."""
        rec = self._recorder
        if rec is not None:
            rec.ops.append(_OP_WIRE)
            rec.times.append(seconds)
        self.stats.time_s += seconds
        self.stats.comm_time_s += seconds

    def _graph_launch(self, seconds: float) -> None:
        """One launch of a captured graph."""
        rec = self._recorder
        if rec is not None:
            rec.ops.append(_OP_GRAPH)
            rec.times.append(seconds)
        self.stats.graph_replays += 1
        self.stats.time_s += seconds

    def _builtin(self) -> None:
        """One builtin call (its clock terms are effects of their own)."""
        if self._recorder is not None:
            self._recorder.ops.append(_OP_BUILTIN)
        self.stats.builtin_calls += 1

    def _capture(self, seconds: float) -> None:
        """A graph capture.  It happens once per capture key, so it is never
        what a replay plan holds: the recorder is dropped."""
        self._recorder = None
        self.stats.graph_captures += 1
        self.stats.time_s += seconds

    def _pool_allocate(self, size: int, escapes: bool = False,
                       charged: bool = False) -> bool:
        """Take ``size`` bytes from the pool; True when a block was reused.
        A ``charged`` allocation (a tensor's; a builtin's result is not)
        pays ``alloc_overhead`` for a fresh block."""
        if self._recorder is not None:
            self._recorder.ops.extend((
                _OP_ALLOC, size,
                (_ESCAPES if escapes else 0) | (_CHARGED if charged else 0)))
        reused = self.pool.allocate(size, escapes)
        if charged and not reused:
            self.stats.time_s += self.device.alloc_overhead
        return reused

    def _pool_release(self, size: int) -> None:
        if self._recorder is not None:
            self._recorder.ops.extend((_OP_RELEASE, size))
        self.pool.release(size)

    def _storage(self, key: Tuple[str, int], size: int, escapes: bool,
                 prov: Tuple[str, ...] = ()) -> Storage:
        """The planned storage ``key``, allocated or resized on demand."""
        rec = self._recorder
        if rec is not None:
            rec.ops.extend((_OP_STORAGE, len(rec.storages)))
            rec.storages.append((key, size, escapes))
        cached = self._storage_cache.get(key)
        if cached is not None and cached.size == size:
            return cached
        if cached is not None:
            self.stats.record_free(cached.size)
            if self.tracer is not None:
                self.tracer.emit("free", "storage", self.stats.time_s, 0.0,
                                 prov, size=cached.size, resized=True)
        self.stats.record_alloc(size, escapes)
        if self.tracer is not None:
            self.tracer.emit("alloc", "storage", self.stats.time_s,
                             self.device.alloc_overhead, prov,
                             size=size, escapes=escapes)
        self.stats.time_s += self.device.alloc_overhead
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
        flops, nbytes = self._kernel_cost(instr.func, func, inputs + outputs, bindings)
        event = self._launch(False, instr.func, flops, nbytes,
                             self._efficiency(func, outputs), instr.prov,
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
        in_sd = [(a.shape, a.dtype) for a in inputs]
        out_sd = [(a.shape, a.dtype) for a in outputs]
        flops, nbytes = kernel.cost(in_sd, out_sd)
        efficiency = {
            "lib": self.device.lib_efficiency,
            "gen": self.device.gen_efficiency,
            "gen_matvec": self.device.gen_matvec_efficiency,
        }[kernel.efficiency_class(in_sd, out_sd)]
        event = self._launch(True, instr.name, flops, nbytes, efficiency,
                             instr.prov, inputs + outputs)
        if self.concrete:
            kernel.compute([a.numpy() for a in inputs], [a.numpy() for a in outputs])
            if event is not None and self.tracer.capture_outputs:
                event.outputs = [o.numpy().copy() for o in outputs]

    def _launch(self, lib: bool, name: str, flops, nbytes, efficiency: float,
                prov, arrays: List[NDArray], bindings=None):
        """Time, trace and charge one tensor-program (or, ``lib``, library)
        kernel; inside a replayed graph it pays the per-kernel graph
        overhead instead of a launch.  Returns the trace event, if any."""
        launched = self._replay_depth == 0
        time = self.device.kernel_time(flops, nbytes, efficiency, launched)
        if not launched:
            time += self.device.graph_kernel_overhead
        event = None
        if self.tracer is not None:
            roofline = self.device.kernel_roofline(flops, nbytes, efficiency)
            extra = {} if lib else {
                "sym": {var.name: int(v) for var, v in bindings.items()}}
            event = self.tracer.emit(
                "library" if lib else "kernel", name, self.stats.time_s,
                time, prov, flops=flops, bytes=nbytes, efficiency=efficiency,
                roofline_s=roofline, launch_s=time - roofline,
                replayed=not launched,
                shapes=[list(a.shape) for a in arrays], **extra,
            )
        self._kernel((_LIB if lib else 0) | (_LAUNCHED if launched else 0), time)
        return event

    def _efficiency(self, func: tir.PrimFunc, outputs: List[NDArray]) -> float:
        """The fraction of roofline a generated tensor program reaches."""
        efficiency = self.device.gen_efficiency
        if func.attrs.get("schedule_class") == "opaque":
            # No analysis rule covers this program: the naive fallback
            # schedule applies unless Ansor-style tuning found better
            # (§4.6's "rare tensor programs" case).
            efficiency = self.device.gen_efficiency * 0.6
        tuned = func.attrs.get("tuned_efficiency")
        if tuned is not None:
            efficiency = float(tuned)
        if func.attrs.get("op_kind") == "matmul" and outputs:
            if math.prod(outputs[0].shape[:-1]) == 1:
                # Compiler-specialized matrix-vector kernels at batch 1
                # (the paper's Fig. 15 advantage).
                efficiency = self.device.gen_matvec_efficiency
            else:
                # Analysis-based schedules without autotuning trail the
                # vendor GEMM on compute-bound shapes (why partial library
                # lowering is the biggest Fig. 17 contributor).
                efficiency = self.device.gen_gemm_efficiency
        return efficiency

    def _bind_shapes(self, func: tir.PrimFunc, arrays: List[NDArray], sym_values):
        bindings: Dict[sym.SymVar, int] = {}
        for var, value in zip(func.sym_params, sym_values):
            bindings[var] = int(value)
        for buf, arr in zip(func.params, arrays):
            for dim, actual in zip(buf.shape, arr.shape):
                if isinstance(dim, sym.SymVar) and dim not in bindings:
                    bindings[dim] = int(actual)
        return bindings

    def _kernel_cost(self, name, func, arrays, bindings):
        """(flops, bytes) of one launch, cached on the argument shapes and
        the explicit symbolic arguments the counts read (:func:`_cost_vars`)."""
        cost_vars = self._cost_vars.get(name)
        if cost_vars is None:
            cost_vars = self._cost_vars[name] = _cost_vars(func)
        key = (name, tuple(a.shape for a in arrays),
               *[bindings.get(var) for var in cost_vars])
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        flops = tir.count_flops(func, bindings)
        nbytes = tir.count_bytes(func, bindings)
        self._cost_cache[key] = (flops, nbytes)
        return flops, nbytes

    # -- builtins -----------------------------------------------------------------------

    def _exec_builtin(self, func, instr: CallBuiltin, frame: _Frame) -> None:
        args = [frame.regs[r] for r in instr.args]
        self._builtin()
        ts = self.stats.time_s
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
                             self.stats.time_s - ts, instr.prov)
        if instr.dst is not None:
            frame.regs[instr.dst] = result

    def _builtin_unique(self, arr: NDArray) -> NDArray:
        self._charge(self.device.kernel_launch_overhead * 2)
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
        both ``time_s`` and ``comm_time_s``.
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
        self._charge(self.device.kernel_launch_overhead)
        if self.interconnect is not None and world > 1:
            full_bytes = arr.size_bytes()
            if kind == "all_gather":
                full_bytes *= world
            self._wire(getattr(self.interconnect, f"{kind}_s")(world, full_bytes))

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

    def _builtin_nonzero(self, arr: NDArray) -> NDArray:
        self._charge(self.device.kernel_launch_overhead * 2)
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
