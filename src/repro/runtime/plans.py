"""Class-keyed replay plans (DESIGN.md §16).

Relax lowers symbolic shapes to a shape heap that the VM fills at run
time (§4.7), so everything an abstract call charges is a function of a
handful of heap values.  A plan is therefore recorded once per *shape
class* — function, dtypes, ranks, storage-backed flags, graph flag and
the values of ``int`` / ``bool`` arguments, with every dimension free —
and evaluated for each new signature of the class instead of
interpreting it.

A plan is built by walking the function body over *references*: every
dimension the body reads is an index into a per-call list ``env`` that
starts as the call's argument dims (in :func:`describe` order) and grows
by constants and by the values the body computes (``ComputeShape``, a
builtin's result shape).  From that walk a plan holds

* the shape checks (``assert_slot`` / ``assert_const``, storage fit, a
  collective's divisibility) as pairs of references;
* the pool and storage effects in recorded order, sized by references;
* kernel, library and collective charges, grouped: launches with the
  same cost terms, efficiency rule and bindings price the same, so a
  group is priced once and multiplied by its count (exact, because the
  clock is integer attoseconds);
* everything else the recording charged (launch overheads, counters,
  graph launches) as one fixed :class:`ExecutionStats`;
* a template of the result.

Any check that fails, a new CUDA-graph capture key, or an exception while
evaluating makes :meth:`ClassPlan.bind` decline, and the VM interprets
the call — which then raises, or captures, exactly as without a plan.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import dtypes, sym
from .ndarray import NDArray, ShapeTuple, Storage
from .profiler import ExecutionStats, to_as
from .vm import (
    _OP_ALLOC,
    _OP_RELEASE,
    _OP_STORAGE,
    AllocStorage,
    AllocTensor,
    CallBuiltin,
    CallLib,
    CallTir,
    ComputeShape,
    GetItemI,
    If,
    KillTensor,
    LoadConst,
    MakeShape,
    MakeTupleI,
    MatchShape,
    Ret,
    VMFunction,
    _efficiency_rule,
)


def describe(args) -> Optional[Tuple[Tuple, List[int]]]:
    """``(class, dims)`` of an argument list; None when an argument is of
    a kind a plan cannot describe.

    ``class`` has one tuple per argument: a tensor's dtype and rank
    (marked when storage-backed: ``KillTensor`` releases pool tensors
    only), a ``ShapeTuple``'s length, an ``int`` or ``bool`` with its type
    and value (``True == 1``; branches read them), nested tuples.
    ``dims`` lists every tensor dim and shape value in argument order.
    """
    dims: List[int] = []
    sig = _classify(args, dims)
    return None if sig is None else (sig, dims)


def _classify(args, dims: List[int]) -> Optional[Tuple]:
    sig = []
    for arg in args:
        kind = type(arg)
        if kind is NDArray:
            shape = arg.shape
            dims += shape
            if arg.storage is None:
                sig.append((arg.dtype, len(shape)))
            else:
                sig.append((Storage, arg.dtype, len(shape)))
        elif kind is ShapeTuple:
            dims += arg.values
            sig.append((kind, len(arg.values)))
        elif kind is int or kind is bool:
            sig.append((kind, arg))
        elif kind is tuple:
            inner = _classify(arg, dims)
            if inner is None:
                return None
            sig.append((kind, *inner))
        else:
            return None
    return tuple(sig)


def _getter(refs: Tuple[int, ...]):
    """``env -> tuple(env[i] for i in refs)``, at C speed."""
    if len(refs) == 1:
        (i,) = refs
        return lambda env: (env[i],)
    return itemgetter(*refs) if refs else lambda env: ()


# -- what the walk tracks per register ---------------------------------------------------


class _Tensor(NamedTuple):
    refs: Tuple[int, ...]
    dtype: str
    #: None (a pool tensor), a planned storage's key, or ``_ARG`` for an
    #: argument that is storage-backed.
    storage: object
    arg: bool  # the caller's own object: never part of a result template


class _Shape(NamedTuple):
    refs: Tuple[int, ...]


class _Storage(NamedTuple):
    key: Tuple
    size: int


_ARG = object()


class _Unrecordable(Exception):
    """The walk met something a class plan cannot describe."""


# -- result templates --------------------------------------------------------------------


class _Out(NamedTuple):
    """A tensor of a result template."""

    shape: object  # env -> shape
    dtype: str
    storage_key: Optional[Tuple]  # into the live ``_storage_cache``


class _ShapeOut(NamedTuple):
    values: object  # env -> values


def instantiate(template, env: List[int], storages: Dict):
    """The result a plan's ``template`` stands for under ``env``; planned
    tensors point at the running VM's live storages."""
    kind = type(template)
    if kind is _Out:
        key = template.storage_key
        return NDArray.trusted(template.shape(env), template.dtype,
                               None if key is None else storages[key])
    if kind is tuple:
        return tuple([instantiate(t, env, storages) for t in template])
    if kind is _ShapeOut:
        return ShapeTuple(template.values(env))
    return template  # an int or bool of the class


def _same(value, template, env, storages) -> bool:
    """Whether ``value`` is what ``instantiate`` builds from ``template``."""
    kind = type(template)
    if kind is tuple:
        return (type(value) is tuple and len(value) == len(template)
                and all(_same(v, t, env, storages)
                        for v, t in zip(value, template)))
    if kind is _Out:
        key = template.storage_key
        return (type(value) is NDArray
                and value.shape == template.shape(env)
                and value.dtype == template.dtype
                and value.storage is (None if key is None
                                      else storages.get(key)))
    if kind is _ShapeOut:
        return (type(value) is ShapeTuple
                and value.values == template.values(env))
    return type(value) is type(template) and value == template


# -- computed env entries ------------------------------------------------------------------

_CONST, _SYM, _PROD, _MUL, _DIV, _MOD = range(6)


def _heap(value) -> int:
    """A value as a heap slot (int64) holds it."""
    return int(np.int64(value))


# -- the plan ------------------------------------------------------------------------------


class _Bound(NamedTuple):
    """A class plan evaluated for one call: what ``_apply_plan`` applies."""

    totals: ExecutionStats
    effects: List[Tuple[int, Tuple]]
    result: object
    env: List[int]


class ClassPlan:
    """One shape class's replay plan (see the module docstring)."""

    def __init__(self, func: VMFunction):
        #: The function the plan was recorded from (an executable is mutable).
        self.func = func
        #: Everything the recording charged besides its pool and storage
        #: effects and its priced kernel and wire time.
        self.totals = ExecutionStats()
        #: Pool and storage effects in recorded order, ``(op, operands)``
        #: with sizes as ``(itemsize, refs)`` (storage: one ref).
        self.effects: List[Tuple[int, Tuple]] = []
        self.computes: List[Tuple] = []
        #: ``(refs, values)``: the dims a check pins to a constant, and
        #: ``(left, right)``: refs that must be equal to each other.
        self.pins = (_getter(()), ())
        self.checks = (_getter(()), _getter(()))
        self.fits: List[Tuple[int, Tuple[int, ...], int]] = []
        #: ``(count, costs, rule, bindings, rows)`` per tensor-program group.
        self.tir: List[Tuple] = []
        #: ``(count, kernel, inputs, outputs)`` per library group.
        self.lib: List[Tuple] = []
        #: ``(count, kind, world, nbytes)`` per collective group.
        self.wires: List[Tuple] = []
        #: Getter of the env values the groups read, and the (kernel,
        #: wire) price of each tuple of them seen: a pure function of it.
        self.price_key = _getter(())
        self.prices: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        self.result = None
        #: Getter of the dims in the graph-capture key (None: no graph).
        self.graph_dims = None
        #: Graph-key dims known to be captured on the owning VM.
        self.captured: set = set()
        #: The effects without storage checks when every storage size is
        #: a constant (else all of them), and the VM's storage epoch after
        #: this plan last applied (see ``_storage``).
        self.pool_effects: List[Tuple[int, Tuple]] = []
        self.epoch: Optional[int] = None

    def bind(self, vm, args, dims: List[int]) -> Optional[_Bound]:
        """This plan evaluated for a call with ``args`` (whose ``dims``
        list it extends into ``env``); None when interpretation must
        decide instead."""
        env = dims
        try:
            for kind, a, b in self.computes:
                if kind is _CONST:
                    env.append(a)
                elif kind is _SYM:
                    env.append(_heap(sym.evaluate(
                        a, {var: env[i] for var, i in b})))
                elif kind is _PROD:
                    env.append(math.prod([env[i] for i in a]))
                elif kind is _MUL:
                    env.append(env[a] * b)
                elif kind is _DIV:
                    env.append(env[a] // b)
                else:
                    env.append(env[a] % b)
            pinned, values = self.pins
            left, right = self.checks
            if pinned(env) != values or left(env) != right(env):
                return None
            for itemsize, refs, size in self.fits:
                if math.prod([env[i] for i in refs]) * itemsize > env[size]:
                    return None
            if self.graph_dims is not None:
                kept = self.graph_dims(env)
                if kept not in self.captured:
                    func = self.func
                    if (func.name, vm._graph_signature(func, args)) \
                            not in vm._graph_cache:
                        return None
                    self.captured.add(kept)
            key = self.price_key(env)
            price = self.prices.get(key)
            if price is None:
                price = self.prices[key] = self._price(vm, env)
        except Exception:
            # Whatever evaluation raises, interpretation raises too, after
            # the effects that precede it: declining lets it do so.
            return None
        kernel_as, comm_as = price
        totals = self.totals
        totals = replace(totals, time_as=totals.time_as + kernel_as + comm_as,
                         kernel_time_as=totals.kernel_time_as + kernel_as,
                         comm_time_as=totals.comm_time_as + comm_as)
        effects = []
        # With no storage allocated or resized since this plan last
        # applied, its constant-size storage checks are all no-ops.
        for op, operands in (
                self.pool_effects if self.epoch == vm._storage_epoch
                else self.effects):
            if op == _OP_STORAGE:
                key, size, escapes = operands
                effects.append((op, (key, env[size], escapes)))
            else:
                (itemsize, refs), *rest = operands
                size = math.prod([env[i] for i in refs]) * itemsize
                effects.append((op, (size, *rest)))
        return _Bound(totals, effects, self.result, env)

    def _price(self, vm, env: List[int]) -> Tuple[int, int]:
        """(kernel, wire) attoseconds of the shape-dependent charges."""
        roofline = vm.device.kernel_roofline
        kernel_as = 0
        for count, costs, rule, pairs, rows in self.tir:
            bindings = {var: env[i] for var, i in pairs}
            efficiency = vm._efficiency(
                rule, None if rows is None else math.prod(rows(env)))
            kernel_as += count * to_as(roofline(
                costs.flops(bindings), costs.bytes(bindings), efficiency))
        for count, kernel, ins, outs in self.lib:
            flops, nbytes, efficiency = vm._lib_cost(
                kernel, [(shape(env), dtype) for shape, dtype in ins],
                [(shape(env), dtype) for shape, dtype in outs])
            kernel_as += count * to_as(roofline(flops, nbytes, efficiency))
        comm_as = 0
        for count, kind, world, (itemsize, refs) in self.wires:
            nbytes = math.prod([env[i] for i in refs]) * itemsize
            comm_as += count * vm._wire_as(kind, world, nbytes)
        return kernel_as, comm_as


def record(vm, func: VMFunction, replays: bool, sig: Tuple, dims: List[int],
           args, totals: ExecutionStats, recorded: List, result
           ) -> Optional[ClassPlan]:
    """The class plan of a call interpretation just ran on ``vm``.

    None when the body holds something a plan cannot describe, or when
    the plan, evaluated at the call's own dims, does not reproduce the
    ``recorded`` effects and the ``result`` exactly.  The fixed totals are
    the recording's ``totals`` less the plan's own price of the call.
    """
    try:
        plan = _Walk(vm, func, sig, len(dims), replays).build()
    except _Unrecordable:
        return None
    env = list(dims)
    bound = plan.bind(vm, args, env)  # zero fixed totals: the price alone
    if bound is None or bound.effects != recorded or \
            not _same(result, plan.result, env, vm._storage_cache):
        return None
    if sum(group[0] for group in plan.tir + plan.lib) != \
            totals.kernel_launches + totals.lib_calls:
        return None  # a launch the walk missed would keep its price frozen
    priced = bound.totals
    plan.totals = replace(
        totals, time_as=totals.time_as - priced.time_as,
        kernel_time_as=totals.kernel_time_as - priced.kernel_time_as,
        comm_time_as=totals.comm_time_as - priced.comm_time_as)
    return plan


# -- the walk ------------------------------------------------------------------------------


class _Walk:
    """The interpreter's shape semantics over references: one pass over
    the body along the path the class takes, building a plan."""

    def __init__(self, vm, func: VMFunction, sig: Tuple, ndims: int,
                 replays: bool):
        self.vm, self.func, self.replays = vm, func, replays
        self.size = ndims
        self.consts: Dict[int, int] = {}  # value -> ref
        self.const_refs: Dict[int, int] = {}  # ref -> value
        self.heap: Dict[int, int] = {}  # slot -> ref
        self.checks: List[Tuple[int, int]] = []
        self.fits = set()
        self.kernels: Dict[Tuple, List] = {}
        self.priced = set()  # refs the groups read
        self.plan = ClassPlan(func)
        self.sig = sig

    # -- env entries --------------------------------------------------------------

    def _entry(self, kind, a, b=None) -> int:
        self.plan.computes.append((kind, a, b))
        self.size += 1
        return self.size - 1

    def const(self, value: int) -> int:
        ref = self.consts.get(value)
        if ref is None:
            ref = self.consts[value] = self._entry(_CONST, value)
            self.const_refs[ref] = value
        return ref

    def slot(self, slot: int) -> int:
        ref = self.heap.get(slot)
        return self.const(0) if ref is None else ref  # a fresh heap is 0

    def dim(self, spec) -> int:
        kind, payload = spec
        return self.const(payload) if kind == "const" else self.slot(payload)

    def operand(self, spec) -> int:
        """A builtin's integer operand: a one-element constant shape."""
        if type(spec) is not _Shape or spec.refs[0] not in self.const_refs:
            raise _Unrecordable
        return self.const_refs[spec.refs[0]]

    def check(self, a: int, b: int) -> None:
        if a != b:
            self.checks.append((a, b))

    def size_of(self, tensor: _Tensor) -> Tuple[int, Tuple[int, ...]]:
        return dtypes.itemsize(tensor.dtype), tensor.refs

    def group(self, key: Tuple, payload: Tuple, refs) -> None:
        """Count a launch (or collective) of group ``key``, priced from
        the env values ``refs``."""
        self.priced.update(refs)
        entry = self.kernels.get(key)
        if entry is None:
            self.kernels[key] = [1, payload]
        else:
            entry[0] += 1

    # -- the body -----------------------------------------------------------------

    def build(self) -> ClassPlan:
        func, plan = self.func, self.plan
        regs: List = [None] * func.num_regs
        params = _arg_specs(self.sig, [0])
        regs[:len(params)] = params
        result = self.block(func.body, regs)
        if result is _FELL:
            raise _Unrecordable
        plan.result = _template(result)
        pins = [(a, self.const_refs[b]) for a, b in self.checks
                if b in self.const_refs]
        pairs = [(a, b) for a, b in self.checks if b not in self.const_refs]
        pinned, values = zip(*pins) if pins else ((), ())
        left, right = zip(*pairs) if pairs else ((), ())
        plan.pins = (_getter(pinned), tuple(values))
        plan.checks = (_getter(left), _getter(right))
        plan.fits = sorted(self.fits)
        for (kind, *_), (count, payload) in self.kernels.items():
            (plan.tir if kind == "tir" else plan.lib if kind == "lib"
             else plan.wires).append((count, *payload))
        plan.price_key = _getter(tuple(sorted(self.priced)))
        storages = [operands[1] for op, operands in plan.effects
                    if op == _OP_STORAGE]
        plan.pool_effects = plan.effects
        if all(size in self.const_refs for size in storages):
            plan.pool_effects = [(op, operands) for op, operands
                                 in plan.effects if op != _OP_STORAGE]
        if self.replays:
            # Past the checks a pinned dim cannot tell capture keys apart.
            pinned = set(pinned)
            plan.graph_dims = _getter(tuple(
                d for d in _graph_dims(func, self.sig) if d not in pinned))
        return plan

    def block(self, body, regs: List):
        for instr in body:
            kind = type(instr)
            if kind is Ret:
                return regs[instr.reg]
            step = _STEPS.get(kind)
            if step is None:
                raise _Unrecordable  # CallFunc, or an instruction unknown here
            step(self, instr, regs)
        return _FELL

    def match_shape(self, instr: MatchShape, regs: List) -> None:
        # Dtype and rank are fixed by the class: the recording passed them.
        # Past its checks a dim *is* the slot or constant it was checked
        # against, so the register reads that: launches of every layer
        # then share references, and their charges one group.
        value = regs[instr.reg]
        refs = list(value.refs)
        for d, kind, payload in instr.actions:
            if kind == "store":
                self.heap[payload] = refs[d]
                continue
            ref = self.slot(payload) if kind == "assert_slot" \
                else self.const(payload)
            self.check(refs[d], ref)
            refs[d] = ref
        regs[instr.reg] = value._replace(refs=tuple(refs))

    def compute_shape(self, instr: ComputeShape, regs: List) -> None:
        self.heap[instr.dst_slot] = self._entry(_SYM, instr.expr, tuple(
            (var, self.slot(s)) for var, s in instr.var_slots))

    def make_shape(self, instr: MakeShape, regs: List) -> None:
        regs[instr.dst] = _Shape(tuple(self.dim(d) for d in instr.dims))

    def load_const(self, instr: LoadConst, regs: List) -> None:
        array = self.vm.exe.constants[instr.const_idx]
        regs[instr.dst] = _Tensor(
            tuple(self.const(int(n)) for n in array.shape),
            dtypes.from_numpy(array.dtype), None, False)

    def alloc_storage(self, instr: AllocStorage, regs: List) -> None:
        key, size = (self.func.name, id(instr)), self.dim(instr.size)
        self.plan.effects.append((_OP_STORAGE, (key, size, instr.escapes)))
        regs[instr.dst] = _Storage(key, size)

    def alloc_tensor(self, instr: AllocTensor, regs: List) -> None:
        refs = tuple(self.dim(d) for d in instr.dims)
        itemsize = dtypes.itemsize(instr.dtype)
        if instr.storage is not None:
            storage = regs[instr.storage]
            self.fits.add((itemsize, refs, storage.size))
            regs[instr.dst] = _Tensor(refs, instr.dtype, storage.key, False)
            return
        self.plan.effects.append(
            (_OP_ALLOC, ((itemsize, refs), instr.escapes, True)))
        regs[instr.dst] = _Tensor(refs, instr.dtype, None, False)

    def kill_tensor(self, instr: KillTensor, regs: List) -> None:
        value = regs[instr.reg]
        if type(value) is _Tensor and value.storage is None:
            self.plan.effects.append((_OP_RELEASE, (self.size_of(value),)))
        regs[instr.reg] = None

    def call_tir(self, instr: CallTir, regs: List) -> None:
        func = self.vm.exe.tir_funcs[instr.func]
        arrays = [regs[r] for r in instr.args + instr.outs]
        # VirtualMachine._bind_shapes over references.
        bindings: Dict[sym.SymVar, int] = {}
        for var, spec in zip(func.sym_params, instr.sym_args):
            bindings[var] = self.dim(spec)
        for buf, arr in zip(func.params, arrays):
            for dim, ref in zip(buf.shape, arr.refs):
                if isinstance(dim, sym.SymVar) and dim not in bindings:
                    bindings[dim] = ref
        rule = _efficiency_rule(func)
        rows = None
        if rule[-1] and instr.outs:  # matmul: matvec at one row
            rows = regs[instr.outs[0]].refs[:-1]
        costs = self.vm._cost_terms(func)
        pairs = tuple(bindings.items())
        self.group(("tir", costs, rule, pairs, rows), (
            costs, rule, pairs, None if rows is None else _getter(rows)),
            [ref for _, ref in pairs] + list(rows or ()))

    def call_lib(self, instr: CallLib, regs: List) -> None:
        ins = tuple((regs[r].refs, regs[r].dtype) for r in instr.args)
        outs = tuple((regs[r].refs, regs[r].dtype) for r in instr.outs)
        self.group(("lib", instr.name, ins, outs), (
            self.vm.registry.get(instr.name),
            tuple((_getter(refs), dtype) for refs, dtype in ins),
            tuple((_getter(refs), dtype) for refs, dtype in outs)),
            [ref for refs, _ in ins + outs for ref in refs])

    def builtin(self, instr: CallBuiltin, regs: List) -> None:
        name = instr.name
        args = [regs[r] for r in instr.args]
        if name == "vm.builtin.shape_of":
            result = _Shape(args[0].refs)
        elif name in ("vm.builtin.unique", "vm.builtin.nonzero"):
            arr = args[0]
            dtype = arr.dtype if name == "vm.builtin.unique" else "i64"
            result = self.pool_result(
                (self._entry(_PROD, arr.refs),), dtype)
        elif name.startswith("vm.builtin.ccl."):
            result = self.collective(name[len("vm.builtin.ccl."):], args)
        else:
            raise _Unrecordable
        if instr.dst is not None:
            regs[instr.dst] = result

    def collective(self, kind: str, args: List) -> _Tensor:
        """VirtualMachine._builtin_ccl (abstract) over references."""
        arr = args[0]
        world = self.operand(args[1])
        extra = self.operand(args[2]) if len(args) > 2 else 0
        itemsize, refs = self.size_of(arr)
        if self.vm.interconnect is not None and world > 1:
            if kind == "all_gather":
                itemsize *= world
            self.group(("wire", kind, world, itemsize, refs),
                       (kind, world, (itemsize, refs)), refs)
        refs = list(arr.refs)
        if kind == "all_gather":
            refs[extra] = self._entry(_MUL, refs[extra], world)
        elif kind == "reduce_scatter":
            self.check(self._entry(_MOD, refs[extra], world), self.const(0))
            refs[extra] = self._entry(_DIV, refs[extra], world)
        return self.pool_result(tuple(refs), arr.dtype)

    def pool_result(self, refs: Tuple[int, ...], dtype: str) -> _Tensor:
        """A builtin's result tensor, allocated from the pool uncharged."""
        tensor = _Tensor(refs, dtype, None, False)
        self.plan.effects.append((_OP_ALLOC, (self.size_of(tensor), False, False)))
        return tensor

    def make_tuple(self, instr: MakeTupleI, regs: List) -> None:
        regs[instr.dst] = tuple(regs[r] for r in instr.srcs)

    def get_item(self, instr: GetItemI, regs: List) -> None:
        value = regs[instr.src]
        if type(value) is not tuple:
            raise _Unrecordable  # an element of a shape: a dim as a value
        regs[instr.dst] = value[instr.index]

    def if_(self, instr: If, regs: List) -> None:
        cond = regs[instr.cond]
        if type(cond) is not int and type(cond) is not bool:
            raise _Unrecordable
        body, out = ((instr.then_body, instr.then_out) if cond
                     else (instr.else_body, instr.else_out))
        if self.block(body, regs) is not _FELL:
            raise _Unrecordable
        regs[instr.dst] = regs[out]


_FELL = object()

_STEPS = {
    MatchShape: _Walk.match_shape,
    ComputeShape: _Walk.compute_shape,
    MakeShape: _Walk.make_shape,
    LoadConst: _Walk.load_const,
    AllocStorage: _Walk.alloc_storage,
    AllocTensor: _Walk.alloc_tensor,
    KillTensor: _Walk.kill_tensor,
    CallTir: _Walk.call_tir,
    CallLib: _Walk.call_lib,
    CallBuiltin: _Walk.builtin,
    MakeTupleI: _Walk.make_tuple,
    GetItemI: _Walk.get_item,
    If: _Walk.if_,
}


def _arg_specs(sig: Tuple, offset: List[int]) -> List:
    """The walk's register values for arguments of class ``sig`` whose
    dims start at ``offset[0]`` of ``env``."""
    specs = []
    for item in sig:
        head = item[0]
        if head is tuple:
            specs.append(tuple(_arg_specs(item[1:], offset)))
        elif head is int or head is bool:
            specs.append(item[1])
        else:
            n = item[-1]
            refs = tuple(range(offset[0], offset[0] + n))
            offset[0] += n
            if head is ShapeTuple:
                specs.append(_Shape(refs))
            else:
                specs.append(_Tensor(refs, item[-2],
                                     _ARG if head is Storage else None, True))
    return specs


def _graph_dims(func: VMFunction, sig: Tuple) -> Tuple[int, ...]:
    """The dims of class ``sig`` that ``_graph_signature`` keeps: within a
    class they determine the capture key."""
    dynamic = func.attrs.get("graph_dynamic_dims") or {}
    kept, offset = [], 0
    for i, item in enumerate(sig):
        n = _ndims(item)
        skip = dynamic.get(i) if type(item[0]) is str or item[0] is Storage \
            else None
        kept += [offset + d for d in range(n) if not skip or d not in skip]
        offset += n
    return tuple(kept)


def _ndims(item: Tuple) -> int:
    head = item[0]
    if head is tuple:
        return sum(_ndims(inner) for inner in item[1:])
    if head is int or head is bool:
        return 0
    return item[-1]


def _template(spec):
    kind = type(spec)
    if kind is tuple:
        return tuple([_template(s) for s in spec])
    if kind is _Tensor:
        if spec.arg:
            raise _Unrecordable  # the caller's object, not ours to rebuild
        return _Out(_getter(spec.refs), spec.dtype, spec.storage)
    if kind is _Shape:
        return _ShapeOut(_getter(spec.refs))
    if kind is int or kind is bool:
        return spec
    raise _Unrecordable
