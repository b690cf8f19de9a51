"""Structured random Relax program generation.

The generator does not emit IR text: it produces a :class:`Plan` — a small,
JSON-serializable recipe (symbolic dims with concrete runtime values,
parameter specs, a list of op steps, output indices) — and
:func:`build_module` materializes a plan into a fresh, well-formed
:class:`~repro.core.ir_module.IRModule` through the ordinary
:class:`~repro.core.block_builder.BlockBuilder` API.  Everything downstream
(the differential oracle, the shrinker, corpus repro files) works on plans:

* every program reproduces from a single integer (``generate(seed)``);
* the shrinker edits the *plan* (drop steps, shrink dims, replace a step
  with a fresh parameter) and re-materializes, so minimized repros stay
  well-formed by construction;
* runtime inputs derive from the plan too (:func:`make_inputs`), so a
  shrunk plan always gets consistent inputs.

Generation is materialization-guided: each candidate step is applied to a
scratch BlockBuilder immediately, and steps whose construction-time
deduction rejects them are simply discarded.  This keeps the generator
honest — it cannot emit a program the front-end itself would refuse — while
the op vocabulary comes from the fuzz metadata registered by each op module
(:func:`repro.ops.registry.register_fuzz`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import sym
from ..core import (
    BlockBuilder,
    Call,
    DataflowBlock,
    DataflowVar,
    GlobalVar,
    If,
    SeqExpr,
    ShapeExpr,
    Var,
    VarBinding,
)
from ..core import Tuple as IRTuple
from ..core import TupleGetItem
from ..core.annotations import ShapeAnn, TensorAnn, TupleAnn
from ..core.deduction import deduce_call
from ..core.ir_module import IRModule
from ..ops.registry import FuzzOpSpec, fuzz_spec, fuzz_specs

Token = Union[int, str]

# Structural (non-op) step kinds get fixed weights alongside the registered
# op specs.
_STRUCTURAL_WEIGHTS = (
    ("match_cast", 0.6),
    ("if", 0.5),
    ("call", 0.5),
)


class PlanError(Exception):
    """A plan cannot be materialized (e.g. after an invalid shrink edit)."""


class ParamSpec:
    """One function parameter: name, token shape, dtype, and input role."""

    def __init__(self, name: str, shape: Sequence[Token], dtype: str,
                 role: str = "data", index_bound: Optional[Token] = None):
        self.name = name
        self.shape = list(shape)
        self.dtype = dtype
        self.role = role  # "data" | "flag" | "index"
        self.index_bound = index_bound

    def to_json(self) -> dict:
        out = {"name": self.name, "shape": list(self.shape),
               "dtype": self.dtype, "role": self.role}
        if self.index_bound is not None:
            out["index_bound"] = self.index_bound
        return out

    @staticmethod
    def from_json(data: dict) -> "ParamSpec":
        return ParamSpec(data["name"], data["shape"], data["dtype"],
                         data.get("role", "data"), data.get("index_bound"))


class Step:
    """One program step: an op application or a structural construct."""

    def __init__(self, kind: str, op: Optional[str] = None,
                 inputs: Sequence[int] = (), attrs: Optional[dict] = None):
        self.kind = kind
        self.op = op
        self.inputs = list(inputs)
        self.attrs = dict(attrs or {})

    def to_json(self) -> dict:
        out = {"kind": self.kind, "inputs": list(self.inputs)}
        if self.op is not None:
            out["op"] = self.op
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @staticmethod
    def from_json(data: dict) -> "Step":
        return Step(data["kind"], data.get("op"), data.get("inputs", ()),
                    data.get("attrs"))


class SubFunc:
    """A nested callee: simple unary/binary chains over its parameters."""

    def __init__(self, name: str, params: Sequence[ParamSpec],
                 steps: Sequence[Step], output: int):
        self.name = name
        self.params = list(params)
        self.steps = list(steps)
        self.output = output

    def to_json(self) -> dict:
        return {"name": self.name,
                "params": [p.to_json() for p in self.params],
                "steps": [s.to_json() for s in self.steps],
                "output": self.output}

    @staticmethod
    def from_json(data: dict) -> "SubFunc":
        return SubFunc(data["name"],
                       [ParamSpec.from_json(p) for p in data["params"]],
                       [Step.from_json(s) for s in data["steps"]],
                       data["output"])


class Plan:
    """A complete generated program plus the runtime values of its dims."""

    def __init__(self, seed: int, dims: Optional[Dict[str, int]] = None,
                 params: Optional[List[ParamSpec]] = None,
                 steps: Optional[List[Step]] = None,
                 outputs: Optional[List[int]] = None,
                 subfuncs: Optional[List[SubFunc]] = None):
        self.seed = seed
        self.dims = dict(dims or {})
        self.params = list(params or [])
        self.steps = list(steps or [])
        self.outputs = list(outputs or [])
        self.subfuncs = list(subfuncs or [])

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "dims": dict(self.dims),
            "params": [p.to_json() for p in self.params],
            "steps": [s.to_json() for s in self.steps],
            "outputs": list(self.outputs),
            "subfuncs": [sf.to_json() for sf in self.subfuncs],
        }

    @staticmethod
    def from_json(data: dict) -> "Plan":
        return Plan(
            data["seed"],
            data.get("dims", {}),
            [ParamSpec.from_json(p) for p in data.get("params", [])],
            [Step.from_json(s) for s in data.get("steps", [])],
            data.get("outputs", []),
            [SubFunc.from_json(sf) for sf in data.get("subfuncs", [])],
        )


# ---------------------------------------------------------------------------
# Tokens <-> symbolic dims
# ---------------------------------------------------------------------------


def token_of_dim(dim) -> Token:
    """Plan token for a resolved symbolic dimension."""
    if sym.is_static(dim):
        return sym.as_static_int(sym.simplify(dim))
    if isinstance(dim, sym.SymVar):
        return dim.name
    return str(sym.simplify(dim))


def _is_simple_token(token: Token) -> bool:
    """Int or bare identifier — usable in signatures and as sub-call dims."""
    return isinstance(token, int) or (isinstance(token, str)
                                      and token.isidentifier())


def eval_token(token: Token, dims: Dict[str, int]) -> int:
    """Concrete runtime value of a dim token under ``dims``."""
    if isinstance(token, int):
        return token
    if token in dims:
        return dims[token]
    ctx = sym.ShapeVarContext()
    expr = sym.parse_dim(token, ctx)
    mapping = {}
    for var in sym.free_vars(expr):
        if var.name not in dims:
            raise PlanError(f"token {token!r} references unknown dim {var.name!r}")
        mapping[var] = sym.IntImm(dims[var.name])
    return sym.as_static_int(sym.simplify(sym.substitute(expr, mapping)))


# ---------------------------------------------------------------------------
# Value bookkeeping
# ---------------------------------------------------------------------------


class ValueInfo:
    """What the generator knows about one program value."""

    def __init__(self, var: Var, kind: str, dtype: Optional[str],
                 tokens: Optional[Tuple[Token, ...]],
                 fields: Optional[List["ValueInfo"]] = None,
                 index_bound: Optional[Token] = None,
                 is_param: bool = False):
        self.var = var
        self.kind = kind  # "tensor" | "tuple" | "shape"
        self.dtype = dtype
        self.tokens = tokens  # None for coarse tensors and tuples
        self.fields = fields
        self.index_bound = index_bound
        self.is_param = is_param

    @property
    def ndim(self) -> Optional[int]:
        return None if self.tokens is None else len(self.tokens)


def _info_from_ann(var: Var, ann, *, index_bound=None, is_param=False) -> ValueInfo:
    if isinstance(ann, TensorAnn):
        tokens = None
        if ann.shape is not None:
            tokens = tuple(token_of_dim(d) for d in ann.shape)
        return ValueInfo(var, "tensor", ann.dtype, tokens,
                         index_bound=index_bound, is_param=is_param)
    if isinstance(ann, TupleAnn):
        fields = [_info_from_ann(var, f) for f in ann.fields]
        return ValueInfo(var, "tuple", None, None, fields=fields,
                         is_param=is_param)
    if isinstance(ann, ShapeAnn):
        tokens = None
        if ann.values is not None:
            tokens = tuple(token_of_dim(v) for v in ann.values)
        return ValueInfo(var, "shape", None, tokens, is_param=is_param)
    return ValueInfo(var, "object", None, None, is_param=is_param)


# ---------------------------------------------------------------------------
# Materializer
# ---------------------------------------------------------------------------


class Materializer:
    """Replays plan steps through a BlockBuilder, tracking value info.

    Used incrementally by the generator (which wraps each ``apply`` in
    try/except to discard invalid candidates) and linearly by
    :func:`build_module`.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.bb = BlockBuilder()
        self.values: List[ValueInfo] = []
        self._df = None
        self._frame = None
        self._fresh_sym = 0
        for sf in plan.subfuncs:
            self.add_subfunc(sf)
        self.open_main()

    # -- function scaffolding ----------------------------------------------

    def open_main(self) -> None:
        params = {p.name: self._param_ann(p) for p in self.plan.params}
        self._frame = self.bb.function("main", params).__enter__()
        for var, spec in zip(self._frame.params, self.plan.params):
            info = _info_from_ann(var, var.ann, index_bound=spec.index_bound,
                                  is_param=True)
            self.values.append(info)

    @staticmethod
    def _param_ann(p: ParamSpec) -> TensorAnn:
        return TensorAnn(tuple(p.shape), p.dtype)

    def add_subfunc(self, sf: SubFunc) -> None:
        bb2 = BlockBuilder(self.bb.mod)
        params = {p.name: self._param_ann(p) for p in sf.params}
        frame = bb2.function(sf.name, params).__enter__()
        try:
            vals = [_info_from_ann(v, v.ann, is_param=True)
                    for v in frame.params]
            df = bb2.dataflow()
            df.__enter__()
            for step in sf.steps:
                spec = fuzz_spec(step.op)
                args = [vals[i].var for i in step.inputs]
                var = bb2.emit(spec.make(*args))
                vals.append(_info_from_ann(var, var.ann))
            out = bb2.emit_output(vals[sf.output].var)
            df.__exit__(None, None, None)
            bb2.emit_func_output(out)
        except Exception:
            bb2._abort_function()
            raise
        frame.__exit__(None, None, None)

    def remove_subfunc(self, name: str) -> None:
        """Undo add_subfunc after a failed call step (generation only)."""
        self.bb.mod.remove(name)

    def finish(self) -> IRModule:
        outs = [self.values[i] for i in self.plan.outputs]
        if self._df is not None:
            for info in outs:
                if isinstance(info.var, DataflowVar):
                    info.var = self.bb.emit_output(info.var)
            self._df.__exit__(None, None, None)
            self._df = None
        if len(outs) == 1:
            result = outs[0].var
        else:
            result = IRTuple([info.var for info in outs])
        self.bb.emit_func_output(result)
        self._frame.__exit__(None, None, None)
        self._frame = None
        return self.bb.get()

    # -- dataflow segments -------------------------------------------------

    def _ensure_df(self) -> None:
        if self._df is None:
            self._df = self.bb.dataflow()
            self._df.__enter__()

    def close_df(self) -> None:
        """Close the open dataflow segment, promoting every live value.

        Promotion (re-emitting DataflowVars as block outputs) keeps all
        values visible to later segments; aliases that turn out unused are
        removed by dead-code elimination in the pipeline.
        """
        if self._df is None:
            return
        for info in self.values:
            if isinstance(info.var, DataflowVar):
                info.var = self.bb.emit_output(info.var)
        self._df.__exit__(None, None, None)
        self._df = None

    # -- dims ---------------------------------------------------------------

    def _dim(self, token: Token) -> sym.PrimExpr:
        return sym.parse_dim(token, self._frame.shape_ctx)

    def _shape_expr(self, tokens: Sequence[Token]) -> ShapeExpr:
        return ShapeExpr([self._dim(t) for t in tokens])

    def fresh_sym_name(self) -> str:
        name = f"fz{self._fresh_sym}"
        self._fresh_sym += 1
        return name

    # -- step application ---------------------------------------------------

    def emit(self, expr) -> ValueInfo:
        self._ensure_df()
        var = self.bb.emit(expr)
        info = _info_from_ann(var, var.ann)
        self.values.append(info)
        return info

    def apply(self, step: Step) -> ValueInfo:
        handler = _APPLIERS.get(step.kind)
        if handler is None:
            raise PlanError(f"unknown step kind {step.kind!r}")
        try:
            return handler(self, step)
        except PlanError:
            raise
        except RecursionError:
            raise
        except Exception as err:
            # Anything the front-end rejects (deduction errors, bad axes,
            # arity mismatches) makes the *plan* invalid, not the compiler.
            raise PlanError(f"step {step.kind}/{step.op}: {err}") from err


def _vals(mat: Materializer, step: Step) -> List[ValueInfo]:
    try:
        return [mat.values[i] for i in step.inputs]
    except IndexError:
        raise PlanError(f"step references missing value {step.inputs}")


def _apply_op(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    args = [v.var for v in _vals(mat, step)]
    return mat.emit(spec.make(*args))


def _apply_reduce(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    axis = step.attrs.get("axis")
    keepdims = bool(step.attrs.get("keepdims", False))
    return mat.emit(spec.make(x.var, axis=axis, keepdims=keepdims))


def _apply_matmul(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    a, b = _vals(mat, step)
    return mat.emit(spec.make(a.var, b.var,
                              transpose_b=bool(step.attrs.get("transpose_b"))))


def _apply_permute(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    return mat.emit(spec.make(x.var, tuple(step.attrs["axes"])))


def _apply_axis_op(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    return mat.emit(spec.make(x.var, step.attrs["axis"]))


def _apply_target_shape(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    vals = _vals(mat, step)
    if "target" in step.attrs:
        target = mat._shape_expr(step.attrs["target"])
    else:
        # reshape-like: the target is a first-class Shape value.
        target = vals[1].var
    return mat.emit(spec.make(vals[0].var, target))


def _apply_concat(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    vals = _vals(mat, step)
    return mat.emit(spec.make([v.var for v in vals], axis=step.attrs["axis"]))


def _apply_split(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    return mat.emit(spec.make(x.var, step.attrs["sections"],
                              axis=step.attrs["axis"]))


def _apply_take(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    x, idx = _vals(mat, step)
    return mat.emit(spec.make(x.var, idx.var, axis=step.attrs["axis"]))


def _apply_create(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    target = mat._shape_expr(step.attrs["target"])
    return mat.emit(spec.make(target, float(step.attrs["fill"]),
                              step.attrs.get("dtype", "f32")))


def _apply_arange(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    extent = mat._dim(step.attrs["extent"])
    dtype = step.attrs.get("dtype", "i64")
    info = mat.emit(spec.make(extent, 0, dtype))
    if dtype == "i64":
        info.index_bound = step.attrs["extent"]
    return info


def _apply_argmax(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    info = mat.emit(spec.make(x.var))
    if x.tokens:
        info.index_bound = x.tokens[-1]
    return info


def _apply_attention(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    q, k, v = _vals(mat, step)
    return mat.emit(spec.make(q.var, k.var, v.var,
                              causal=bool(step.attrs.get("causal", True))))


def _apply_paged(mat: Materializer, step: Step) -> ValueInfo:
    # All four paged ops take their inputs positionally, in plan order.
    spec = fuzz_spec(step.op)
    return mat.emit(spec.make(*[v.var for v in _vals(mat, step)]))


def _apply_ccl(mat: Materializer, step: Step) -> ValueInfo:
    spec = fuzz_spec(step.op)
    (x,) = _vals(mat, step)
    world = int(step.attrs["world"])
    if step.op == "ccl.all_reduce":
        return mat.emit(spec.make(x.var, world))
    if step.op == "ccl.broadcast":
        return mat.emit(spec.make(x.var, world,
                                  int(step.attrs.get("root", 0))))
    return mat.emit(spec.make(x.var, world, int(step.attrs["axis"])))


def _apply_tuple_get(mat: Materializer, step: Step) -> ValueInfo:
    (t,) = _vals(mat, step)
    return mat.emit(TupleGetItem(t.var, step.attrs["index"]))


def _apply_match_cast(mat: Materializer, step: Step) -> ValueInfo:
    (x,) = _vals(mat, step)
    ann = TensorAnn(tuple(step.attrs["shape"]), step.attrs["dtype"])
    mat._ensure_df()
    var = mat.bb.match_cast(x.var, ann)
    info = _info_from_ann(var, var.ann, index_bound=x.index_bound)
    mat.values.append(info)
    return info


def _apply_if(mat: Materializer, step: Step) -> ValueInfo:
    cond, x = _vals(mat, step)
    mat.close_df()
    idx = len(mat.values)

    def branch(op_name: str, tag: str) -> SeqExpr:
        spec = fuzz_spec(op_name)
        call = spec.make(x.var)
        call.ann = deduce_call(call)
        v = Var(f"{tag}{idx}", call.ann)
        seq = SeqExpr([DataflowBlock([VarBinding(v, call)])], v)
        seq.ann = v.ann
        return seq

    expr = If(cond.var,
              branch(step.attrs["then_op"], "tv"),
              branch(step.attrs["else_op"], "ev"))
    var = mat.bb.emit(expr)
    info = _info_from_ann(var, var.ann)
    mat.values.append(info)
    return info


def _apply_call(mat: Materializer, step: Step) -> ValueInfo:
    name = step.attrs["func"]
    if name not in mat.bb.mod:
        raise PlanError(f"call references unknown subfunc {name!r}")
    args = [v.var for v in _vals(mat, step)]
    return mat.emit(Call(GlobalVar(name), args))


_APPLIERS = {
    "unary": _apply_op,
    "binary": _apply_op,
    "matmul": _apply_matmul,
    "reduce": _apply_reduce,
    "permute": _apply_permute,
    "flatten": _apply_op,
    "expand_dims": _apply_axis_op,
    "squeeze": _apply_axis_op,
    "broadcast_to": _apply_target_shape,
    "reshape": _apply_target_shape,
    "concat": _apply_concat,
    "split": _apply_split,
    "take": _apply_take,
    "create": _apply_create,
    "arange": _apply_arange,
    "argmax": _apply_argmax,
    "attention": _apply_attention,
    "paged_attention": _apply_paged,
    "paged_prefill": _apply_paged,
    "paged_verify": _apply_paged,
    "paged_cross_attention": _apply_paged,
    "ccl": _apply_ccl,
    "datadep": _apply_op,
    "shape_of": _apply_op,
    "tuple_get": _apply_tuple_get,
    "match_cast": _apply_match_cast,
    "if": _apply_if,
    "call": _apply_call,
}


def build_module(plan: Plan) -> IRModule:
    """Materialize ``plan`` into a fresh IRModule (deterministic)."""
    if not plan.outputs:
        raise PlanError("plan has no outputs")
    mat = Materializer(plan)
    for step in plan.steps:
        mat.apply(step)
    for i in plan.outputs:
        if not 0 <= i < len(mat.values):
            raise PlanError(f"output index {i} out of range")
        if mat.values[i].kind == "tuple":
            raise PlanError("tuple values cannot be returned directly")
    return mat.finish()


def value_infos(plan: Plan) -> List[ValueInfo]:
    """Per-value metadata (tokens, dtype, kind) from a dry materialization."""
    mat = Materializer(plan)
    for step in plan.steps:
        mat.apply(step)
    return mat.values


# ---------------------------------------------------------------------------
# Runtime inputs
# ---------------------------------------------------------------------------


def make_inputs(plan: Plan):
    """Deterministic numpy inputs for ``plan`` (in parameter order)."""
    import numpy as np

    rng = np.random.default_rng(plan.seed + 0x5EED)
    arrays = []
    for p in plan.params:
        shape = tuple(eval_token(t, plan.dims) for t in p.shape)
        if p.role == "flag":
            arrays.append(np.bool_(rng.random() < 0.5))
        elif p.role == "index":
            bound = max(1, eval_token(p.index_bound, plan.dims))
            arrays.append(rng.integers(0, bound, size=shape, dtype=np.int64))
        elif p.dtype == "i64":
            arrays.append(rng.integers(0, 4, size=shape, dtype=np.int64))
        else:
            arrays.append(rng.standard_normal(shape).astype(np.float32))
    return arrays


# ---------------------------------------------------------------------------
# Generation strategies
# ---------------------------------------------------------------------------


def _f32_tensors(mat: Materializer, *, min_ndim: int = 1,
                 max_ndim: int = 6) -> List[int]:
    out = []
    for i, v in enumerate(mat.values):
        if (v.kind == "tensor" and v.dtype == "f32" and v.tokens is not None
                and min_ndim <= len(v.tokens) <= max_ndim):
            out.append(i)
    return out


def _tok_one(token: Token) -> bool:
    return token == 1


def _broadcastable(sa: Sequence[Token], sb: Sequence[Token]) -> bool:
    for a, b in zip(reversed(sa), reversed(sb)):
        if a != b and not _tok_one(a) and not _tok_one(b):
            return False
    return True


def _gen_unary(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    return Step("unary", spec.name, [rng.choice(cands)])


def _gen_binary(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    a = rng.choice(cands)
    sa = mat.values[a].tokens
    mates = [i for i in cands if _broadcastable(sa, mat.values[i].tokens)]
    if not mates:
        return None
    return Step("binary", spec.name, [a, rng.choice(mates)])


def _gen_matmul(rng, mat, plan, spec) -> Optional[Step]:
    lhs = _f32_tensors(mat, min_ndim=2, max_ndim=3)
    if not lhs:
        return None
    a = rng.choice(lhs)
    sa = mat.values[a].tokens
    pairs = []
    for i in _f32_tensors(mat, min_ndim=1, max_ndim=3):
        sb = mat.values[i].tokens
        if len(sb) == 1:
            if sb[0] == sa[-1]:
                pairs.append((i, False))
            continue
        if not _broadcastable(sa[:-2], sb[:-2]):
            continue
        if sb[-2] == sa[-1]:
            pairs.append((i, False))
        if sb[-1] == sa[-1]:
            pairs.append((i, True))
    if not pairs:
        return None
    b, transpose_b = pairs[rng.randrange(len(pairs))]
    attrs = {"transpose_b": True} if transpose_b else {}
    return Step("matmul", spec.name, [a, b], attrs)


def _gen_reduce(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    x = rng.choice(cands)
    ndim = len(mat.values[x].tokens)
    axis = rng.choice([None] + list(range(ndim)))
    # Rank-0 results stay out of the DPS path: keep at least one dim.
    keepdims = True if (axis is None or ndim == 1) else rng.random() < 0.3
    return Step("reduce", spec.name, [x],
                {"axis": axis, "keepdims": keepdims})


def _gen_permute(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat, min_ndim=2)
    if not cands:
        return None
    x = rng.choice(cands)
    axes = list(range(len(mat.values[x].tokens)))
    rng.shuffle(axes)
    return Step("permute", spec.name, [x], {"axes": axes})


def _gen_flatten(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat, min_ndim=2)
    if not cands:
        return None
    return Step("flatten", spec.name, [rng.choice(cands)])


def _gen_expand(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat, max_ndim=3)
    if not cands:
        return None
    x = rng.choice(cands)
    axis = rng.randrange(len(mat.values[x].tokens) + 1)
    return Step("expand_dims", spec.name, [x], {"axis": axis})


def _gen_squeeze(rng, mat, plan, spec) -> Optional[Step]:
    pairs = []
    for i in _f32_tensors(mat, min_ndim=2):
        for axis, t in enumerate(mat.values[i].tokens):
            if _tok_one(t):
                pairs.append((i, axis))
    if not pairs:
        return None
    x, axis = pairs[rng.randrange(len(pairs))]
    return Step("squeeze", spec.name, [x], {"axis": axis})


def _dim_pool(plan: Plan) -> List[Token]:
    # Only symbolic names actually bound by a parameter shape are in scope
    # for fresh shapes (create/arange/broadcast targets); plan.dims may
    # name variables that no parameter ended up using.
    bound = {t for p in plan.params for t in p.shape
             if isinstance(t, str) and t.isidentifier()}
    pool: List[Token] = sorted(bound)
    pool.extend([2, 3, 4])
    return pool


def _gen_broadcast(rng, mat, plan, spec) -> Optional[Step]:
    cands = [i for i in _f32_tensors(mat)
             if any(_tok_one(t) for t in mat.values[i].tokens)]
    if not cands:
        return None
    x = rng.choice(cands)
    pool = _dim_pool(plan)
    target = [rng.choice(pool) if (_tok_one(t) and rng.random() < 0.8) else t
              for t in mat.values[x].tokens]
    return Step("broadcast_to", spec.name, [x], {"target": target})


def _gen_reshape(rng, mat, plan, spec) -> Optional[Step]:
    merges, splits = [], []
    for i in _f32_tensors(mat, min_ndim=1, max_ndim=3):
        toks = mat.values[i].tokens
        for d in range(len(toks) - 1):
            if _is_simple_token(toks[d]) and _is_simple_token(toks[d + 1]):
                merges.append((i, d))
        for d, t in enumerate(toks):
            if isinstance(t, int):
                for f in (2, 3, 4):
                    if t % f == 0 and t > f:
                        splits.append((i, d, f))
    choices = [("merge", m) for m in merges] + [("split", s) for s in splits]
    if not choices:
        return None
    mode, payload = choices[rng.randrange(len(choices))]
    if mode == "merge":
        i, d = payload
        toks = list(mat.values[i].tokens)
        a, b = toks[d], toks[d + 1]
        if isinstance(a, int) and isinstance(b, int):
            merged: Token = a * b
        else:
            merged = f"{a} * {b}"
        target = toks[:d] + [merged] + toks[d + 2:]
    else:
        i, d, f = payload
        toks = list(mat.values[i].tokens)
        target = toks[:d] + [f, toks[d] // f] + toks[d + 1:]
    return Step("reshape", spec.name, [i], {"target": target})


def _gen_reshape_like(rng, mat, plan, spec) -> Optional[Step]:
    shapes = [i for i, v in enumerate(mat.values)
              if v.kind == "shape" and v.tokens is not None]
    if not shapes:
        return None
    s = rng.choice(shapes)
    stoks = mat.values[s].tokens
    mates = [i for i in _f32_tensors(mat) if mat.values[i].tokens == stoks]
    if not mates:
        return None
    return Step("reshape", spec.name, [rng.choice(mates), s])


def _gen_concat(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat, max_ndim=3)
    if not cands:
        return None
    a = rng.choice(cands)
    toks = mat.values[a].tokens
    mates = [i for i in cands if mat.values[i].tokens == toks]
    count = min(len(mates), rng.choice([2, 2, 3]))
    picked = [a] + [rng.choice(mates) for _ in range(count - 1)]
    axis = rng.randrange(len(toks))
    return Step("concat", spec.name, picked, {"axis": axis})


def _gen_split(rng, mat, plan, spec) -> Optional[Step]:
    options = []
    for i in _f32_tensors(mat, max_ndim=3):
        for axis, t in enumerate(mat.values[i].tokens):
            if isinstance(t, int):
                for sections in (2, 3):
                    if t % sections == 0 and t >= sections * 1 and t > 1:
                        options.append((i, axis, sections))
    if not options:
        return None
    i, axis, sections = options[rng.randrange(len(options))]
    return Step("split", spec.name, [i], {"sections": sections, "axis": axis})


def _gen_take(rng, mat, plan, spec) -> Optional[Step]:
    indices = [i for i, v in enumerate(mat.values)
               if v.kind == "tensor" and v.dtype == "i64"
               and v.tokens is not None and len(v.tokens) == 1
               and v.index_bound is not None]
    if not indices:
        return None
    options = []
    for x in _f32_tensors(mat, max_ndim=3):
        toks = mat.values[x].tokens
        for axis, t in enumerate(toks):
            for idx in indices:
                bound = mat.values[idx].index_bound
                if bound == t or (isinstance(bound, int) and isinstance(t, int)
                                  and bound <= t):
                    options.append((x, idx, axis))
    if not options:
        return None
    x, idx, axis = options[rng.randrange(len(options))]
    return Step("take", spec.name, [x, idx], {"axis": axis})


def _gen_create(rng, mat, plan, spec) -> Optional[Step]:
    pool = _dim_pool(plan)
    ndim = rng.choice([1, 2])
    target = [rng.choice(pool) for _ in range(ndim)]
    fill = rng.choice([0.0, 1.0, round(rng.uniform(-2.0, 2.0), 3)])
    return Step("create", spec.name, [],
                {"target": target, "fill": fill, "dtype": "f32"})


def _gen_arange(rng, mat, plan, spec) -> Optional[Step]:
    pool = [t for t in _dim_pool(plan) if t != 1]
    extent = rng.choice(pool)
    dtype = "i64" if rng.random() < 0.7 else "f32"
    return Step("arange", spec.name, [], {"extent": extent, "dtype": dtype})


def _gen_argmax(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    return Step("argmax", spec.name, [rng.choice(cands)])


def _gen_attention(rng, mat, plan, spec) -> Optional[Step]:
    attn = getattr(mat, "_attn_params", None)
    if not attn:
        return None
    q, k, v = attn
    return Step("attention", spec.name, [q, k, v],
                {"causal": rng.random() < 0.7})


def _gen_paged(rng, mat, plan, spec) -> Optional[Step]:
    params = getattr(mat, "_paged_params", {}).get(spec.kind)
    if not params:
        return None
    return Step(spec.kind, spec.name, list(params))


def _gen_ccl(rng, mat, plan, spec) -> Optional[Step]:
    # Collectives run in single-VM replica semantics here (no mesh), so
    # they are ordinary total functions the oracle can compare.
    cands = _f32_tensors(mat)
    if not cands:
        return None
    x = rng.choice(cands)
    world = rng.choice([2, 2, 3, 4])
    if spec.name == "ccl.all_reduce":
        return Step("ccl", spec.name, [x], {"world": world})
    if spec.name == "ccl.broadcast":
        return Step("ccl", spec.name, [x],
                    {"world": world, "root": rng.randrange(world)})
    toks = mat.values[x].tokens
    if spec.name == "ccl.all_gather":
        return Step("ccl", spec.name, [x],
                    {"world": world, "axis": rng.randrange(len(toks))})
    # reduce_scatter: the scattered dim must divide evenly at runtime —
    # checked against the plan's concrete dim bindings.  Dims the plan
    # cannot evaluate (fresh match_cast syms) are out of bounds.
    def divides(t):
        try:
            return eval_token(t, plan.dims) % world == 0
        except PlanError:
            return False

    axes = [d for d, t in enumerate(toks) if divides(t)]
    if not axes:
        return None
    return Step("ccl", spec.name, [x],
                {"world": world, "axis": rng.choice(axes)})


def _gen_datadep(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    return Step("datadep", spec.name, [rng.choice(cands)])


def _gen_shape_of(rng, mat, plan, spec) -> Optional[Step]:
    cands = _f32_tensors(mat)
    if not cands:
        return None
    return Step("shape_of", spec.name, [rng.choice(cands)])


def _gen_match_cast(rng, mat, plan, spec_unused) -> Optional[Step]:
    coarse = [i for i, v in enumerate(mat.values)
              if v.kind == "tensor" and v.tokens is None]
    if coarse and rng.random() < 0.8:
        x = rng.choice(coarse)
        info = mat.values[x]
        return Step("match_cast", None, [x],
                    {"shape": [mat.fresh_sym_name()], "dtype": info.dtype})
    known = _f32_tensors(mat)
    if not known:
        return None
    x = rng.choice(known)
    toks = list(mat.values[x].tokens)
    if rng.random() < 0.5:
        # Rebind one dimension to a fresh symbolic variable: downstream
        # allocations lose their upper bound and fall back to pool storage.
        d = rng.randrange(len(toks))
        toks[d] = mat.fresh_sym_name()
    return Step("match_cast", None, [x],
                {"shape": toks, "dtype": mat.values[x].dtype})


def _shape_preserving_unary_names() -> List[str]:
    names = [s.name for s in fuzz_specs("unary") if not s.meta.get("domain")]
    return names


def _gen_if(rng, mat, plan, spec_unused) -> Optional[Step]:
    flag = getattr(mat, "_flag_param", None)
    if flag is None:
        return None
    cands = _f32_tensors(mat)
    if not cands:
        return None
    names = _shape_preserving_unary_names()
    then_op = rng.choice(names)
    else_op = rng.choice([n for n in names if n != then_op] or names)
    return Step("if", None, [flag, rng.choice(cands)],
                {"then_op": then_op, "else_op": else_op})


def _gen_call(rng, mat, plan, spec_unused) -> Optional[Step]:
    if len(plan.subfuncs) >= 2:
        return None
    cands = [i for i in _f32_tensors(mat, max_ndim=3)
             if all(_is_simple_token(t) for t in mat.values[i].tokens)]
    if not cands:
        return None
    nargs = 1 if len(cands) == 1 or rng.random() < 0.5 else 2
    args = [rng.choice(cands)]
    if nargs == 2:
        toks = mat.values[args[0]].tokens
        mates = [i for i in cands if mat.values[i].tokens == toks]
        if mates:
            args.append(rng.choice(mates))
    name = f"sub{len(plan.subfuncs)}"
    params = [ParamSpec(f"a{j}", list(mat.values[i].tokens), "f32")
              for j, i in enumerate(args)]
    unary_names = _shape_preserving_unary_names()
    binary_names = [s.name for s in fuzz_specs("binary")
                    if s.name in ("add", "multiply", "maximum", "subtract")]
    steps: List[Step] = []
    nvals = len(params)
    for _ in range(rng.randint(2, 4)):
        if nvals >= 2 and rng.random() < 0.4:
            steps.append(Step("binary", rng.choice(binary_names),
                              [rng.randrange(nvals), rng.randrange(nvals)]))
        else:
            steps.append(Step("unary", rng.choice(unary_names),
                              [rng.randrange(nvals)]))
        nvals += 1
    sf = SubFunc(name, params, steps, nvals - 1)
    return Step("call", None, args, {"func": name, "_subfunc": sf.to_json()})


_GENERATORS = {
    "unary": _gen_unary,
    "binary": _gen_binary,
    "matmul": _gen_matmul,
    "reduce": _gen_reduce,
    "permute": _gen_permute,
    "flatten": _gen_flatten,
    "expand_dims": _gen_expand,
    "squeeze": _gen_squeeze,
    "broadcast_to": _gen_broadcast,
    "reshape": _gen_reshape,
    "concat": _gen_concat,
    "split": _gen_split,
    "take": _gen_take,
    "create": _gen_create,
    "arange": _gen_arange,
    "argmax": _gen_argmax,
    "attention": _gen_attention,
    "paged_attention": _gen_paged,
    "paged_prefill": _gen_paged,
    "paged_verify": _gen_paged,
    "paged_cross_attention": _gen_paged,
    "ccl": _gen_ccl,
    "datadep": _gen_datadep,
    "shape_of": _gen_shape_of,
    "match_cast": _gen_match_cast,
    "if": _gen_if,
    "call": _gen_call,
}


def _weighted_pool() -> List[Tuple[str, Optional[FuzzOpSpec], float]]:
    pool: List[Tuple[str, Optional[FuzzOpSpec], float]] = []
    for spec in fuzz_specs():
        if spec.kind in _GENERATORS:
            pool.append((spec.kind, spec, spec.weight))
    # The reshape spec doubles as the reshape-from-Shape-value strategy.
    for spec in fuzz_specs("reshape"):
        pool.append(("reshape_like", spec, 0.4))
    for kind, weight in _STRUCTURAL_WEIGHTS:
        pool.append((kind, None, weight))
    return pool


def _pick(rng: random.Random, pool) -> Tuple[str, Optional[FuzzOpSpec]]:
    total = sum(w for _, _, w in pool)
    r = rng.random() * total
    acc = 0.0
    for kind, spec, w in pool:
        acc += w
        if r < acc:
            return kind, spec
    return pool[-1][0], pool[-1][1]


# ---------------------------------------------------------------------------
# generate()
# ---------------------------------------------------------------------------


def generate(seed: int, *, max_steps: Optional[int] = None) -> Plan:
    """Generate a random, materializable plan from a single integer."""
    rng = random.Random(seed)
    plan = Plan(seed)

    n_sym = rng.randint(1, 2)
    for name in ["n", "m"][:n_sym]:
        plan.dims[name] = rng.randint(2, 6)
    sym_names = sorted(plan.dims)
    token_pool: List[Token] = list(sym_names) + [1, 2, 3, 4, 4, 6]

    for i in range(rng.randint(2, 3)):
        shape = [rng.choice(token_pool) for _ in range(rng.randint(1, 3))]
        plan.params.append(ParamSpec(f"p{i}", shape, "f32"))

    flag_idx = None
    if rng.random() < 0.4:
        flag_idx = len(plan.params)
        plan.params.append(ParamSpec("flag", [], "bool", role="flag"))

    if rng.random() < 0.5:
        bound = rng.choice([t for t in token_pool if t != 1])
        plan.params.append(ParamSpec("idx", [rng.randint(1, 3)], "i64",
                                     role="index", index_bound=bound))

    attn_idx = None
    if rng.random() < 0.3:
        b = rng.choice([1, 2])
        s = rng.choice([2, 3] + sym_names)
        m = rng.choice([3, 4] + sym_names)
        h_kv = rng.choice([1, 2])
        h = h_kv * rng.choice([1, 2])
        d = rng.choice([2, 4])
        base = len(plan.params)
        plan.params.append(ParamSpec("q", [b, s, h, d], "f32"))
        plan.params.append(ParamSpec("k", [b, m, h_kv, d], "f32"))
        plan.params.append(ParamSpec("v", [b, m, h_kv, d], "f32"))
        attn_idx = (base, base + 1, base + 2)

    paged_idx = {}  # paged op kind -> its parameter indices, in call order
    if rng.random() < 0.25:
        b = rng.choice([1, 2])
        s = rng.choice([1, 2])
        h_kv = rng.choice([1, 2])
        h = h_kv * rng.choice([1, 2])
        d = rng.choice([2, 4])
        page = 2
        w = rng.choice([1, 2])
        p = rng.choice([2, 3])
        # Past length for paged_prefill; its gather touches every column
        # of the (mpast + s)-wide context, so the block table must cover
        # ceil((mpast + s) / page) pages.
        mpast = rng.choice([1, 2])
        w = max(w, -(-(mpast + s) // page))
        base = len(plan.params)
        plan.params.append(ParamSpec("pq", [b, s, h, d], "f32"))
        plan.params.append(ParamSpec("kp", [p, page, h_kv, d], "f32"))
        plan.params.append(ParamSpec("vp", [p, page, h_kv, d], "f32"))
        plan.params.append(ParamSpec("bt", [b, w], "i64",
                                     role="index", index_bound=p))
        plan.params.append(ParamSpec("ln", [b], "i64",
                                     role="index", index_bound=w * page + 1))
        plan.params.append(ParamSpec("kc", [b, s, h_kv, d], "f32"))
        plan.params.append(ParamSpec("vc", [b, s, h_kv, d], "f32"))
        # Anchor for paged_prefill's past length (only its shape matters).
        plan.params.append(ParamSpec("mp", [mpast], "i64",
                                     role="index", index_bound=p))
        # Ragged speculative widths for paged_verify: values in [0, s],
        # so plans exercise fully-padded (sl == 0) sequences too.
        plan.params.append(ParamSpec("sl", [b], "i64",
                                     role="index", index_bound=s + 1))
        paged_idx = {
            "paged_attention": tuple(range(base, base + 7)),
            "paged_prefill": (base, base + 1, base + 2, base + 3, base + 7,
                              base + 5, base + 6),
            # Verify reuses the decode pool params plus the ragged widths.
            "paged_verify": (base, base + 1, base + 2, base + 3, base + 4,
                             base + 8, base + 5, base + 6),
            # Cross-attention reuses the pool params; mp's shape anchors
            # the encoder-context dim t = mpast <= w * page (table covers
            # it).
            "paged_cross_attention": (base, base + 1, base + 2, base + 3,
                                      base + 7),
        }

    mat = Materializer(plan)
    mat._flag_param = flag_idx
    mat._attn_params = attn_idx
    mat._paged_params = paged_idx

    pool = _weighted_pool()
    target = max_steps if max_steps is not None else rng.randint(4, 12)
    queued: List[Step] = []
    attempts = 0
    while len(plan.steps) < target and attempts < target * 12:
        if queued:
            step = queued.pop(0)
        else:
            kind, spec = _pick(rng, pool)
            gen = _GENERATORS.get(kind) or _gen_reshape_like
            step = gen(rng, mat, plan, spec)
            if step is None:
                attempts += 1
                continue
        subfunc_json = step.attrs.pop("_subfunc", None)
        sf = SubFunc.from_json(subfunc_json) if subfunc_json else None
        if sf is not None:
            try:
                mat.add_subfunc(sf)
            except Exception:
                attempts += 1
                continue
        try:
            info = mat.apply(step)
        except PlanError:
            if sf is not None:
                mat.remove_subfunc(sf.name)
            attempts += 1
            continue
        if sf is not None:
            plan.subfuncs.append(sf)
        plan.steps.append(step)
        value_idx = len(mat.values) - 1
        if info.kind == "tuple" and info.fields:
            picks = [j for j in range(len(info.fields))
                     if rng.random() < 0.6] or [0]
            for j in picks:
                queued.append(Step("tuple_get", None, [value_idx],
                                   {"index": j}))
        elif info.kind == "tensor" and info.tokens is None:
            if rng.random() < 0.85:
                queued.append(Step("match_cast", None, [value_idx],
                                   {"shape": [mat.fresh_sym_name()],
                                    "dtype": info.dtype}))

    if not plan.steps:
        # Degenerate fallback: a single unary op on the first parameter.
        step = Step("unary", "relu", [0])
        mat.apply(step)
        plan.steps.append(step)

    n_params = len(plan.params)
    candidates = [i for i in range(n_params, len(mat.values))
                  if mat.values[i].kind in ("tensor", "shape")]
    outputs = [candidates[-1]] if candidates else [0]
    extras = [i for i in candidates[:-1] if rng.random() < 0.25]
    for i in extras[:2]:
        if i not in outputs:
            outputs.append(i)
    plan.outputs = sorted(outputs)
    return plan
