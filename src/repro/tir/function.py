"""Loop-level tensor programs: buffers, stages, and PrimFuncs.

We use a TensorIR-like abstraction (paper §3.1 uses TensorIR [16]) in
*stage form*: a PrimFunc is a destination-passing-style function over
:class:`Buffer` parameters whose body is an ordered list of
:class:`Stage` s.  Each stage is a perfectly nested loop over spatial (and
optionally reduction) iteration variables, storing one scalar expression
per output index::

    for i, j in grid(n, 256):        # spatial loop_vars
        for k in grid(128):          # reduce_vars
            with init(): Y[i, j] = 0
            Y[i, j] += X[i, k] * W[k, j]

Stage form is regular enough for everything the paper needs from the
tensor-program level — Algorithm 1's read/write-index pattern analysis,
NumPy interpretation, fusion by stage concatenation + producer inlining,
workspace (global intermediate buffer) detection for §4.4 lifting, and
roofline cost analysis — while staying honest loop-level IR with explicit
iteration spaces and indexed buffer accesses.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .. import dtypes, sym
from .expr import BufferRead, Value, collect_reads

#: Valid combiners for reduction stages.
REDUCE_COMBINERS = ("sum", "max", "min", "prod")


class Buffer:
    """A typed multi-dimensional memory region.

    ``scope`` distinguishes where the buffer lives:

    * ``"param"`` — function parameter (caller-provided, DPS);
    * ``"local"`` — intermediate kept on-chip after fusion (free in the
      memory-traffic cost model);
    * ``"global"`` — intermediate in device global memory.  A ``global``
      allocation inside a tensor program is a *workspace* — exactly what
      the cross-level workspace-lifting pass (§4.4) detects and lifts to
      the graph level.
    """

    _counter = 0

    def __init__(self, name: str, shape: Sequence[sym.ExprLike], dtype: str,
                 scope: str = "param"):
        if scope not in ("param", "local", "global"):
            raise ValueError(f"unknown buffer scope {scope!r}")
        self.name = name
        self.shape: Tuple[sym.PrimExpr, ...] = tuple(
            sym.PrimExpr.convert(d) for d in shape
        )
        self.dtype = dtypes.check_dtype(dtype)
        self.scope = scope
        Buffer._counter += 1
        self._id = Buffer._counter

    def __getitem__(self, indices) -> BufferRead:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return BufferRead(self, indices)

    def num_elements(self) -> sym.PrimExpr:
        return sym.shape_product(self.shape)

    def size_bytes(self) -> sym.PrimExpr:
        return self.num_elements() * dtypes.itemsize(self.dtype)

    def __str__(self) -> str:
        dims = ", ".join(str(d) for d in self.shape)
        return f"Buffer({self.name}, ({dims}), {self.dtype!r})"

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class Stage:
    """One perfectly nested compute loop writing a single buffer."""

    def __init__(
        self,
        loop_vars: Sequence[Tuple[sym.SymVar, sym.ExprLike]],
        output: Buffer,
        output_indices: Sequence[sym.ExprLike],
        value: Value,
        reduce_vars: Sequence[Tuple[sym.SymVar, sym.ExprLike]] = (),
        combiner: Optional[str] = None,
        init: Optional[float] = None,
    ):
        self.loop_vars: List[Tuple[sym.SymVar, sym.PrimExpr]] = [
            (var, sym.PrimExpr.convert(extent)) for var, extent in loop_vars
        ]
        self.reduce_vars: List[Tuple[sym.SymVar, sym.PrimExpr]] = [
            (var, sym.PrimExpr.convert(extent)) for var, extent in reduce_vars
        ]
        self.output = output
        self.output_indices: Tuple[sym.PrimExpr, ...] = tuple(
            sym.PrimExpr.convert(i) for i in output_indices
        )
        if len(self.output_indices) != len(output.shape):
            raise ValueError(
                f"stage writes {len(self.output_indices)} indices into "
                f"{len(output.shape)}-d buffer {output.name}"
            )
        self.value = value
        if self.reduce_vars:
            if combiner not in REDUCE_COMBINERS:
                raise ValueError(
                    f"reduction stage requires a combiner from {REDUCE_COMBINERS}"
                )
            self.combiner = combiner
            self.init = init
        else:
            if combiner is not None:
                raise ValueError("combiner given but no reduction loops")
            self.combiner = None
            self.init = None

    def reads(self) -> List[BufferRead]:
        return collect_reads(self.value)

    def iter_domain(self) -> List[Tuple[sym.SymVar, sym.PrimExpr]]:
        return list(self.loop_vars) + list(self.reduce_vars)

    def is_reduction(self) -> bool:
        return bool(self.reduce_vars)


class PrimFunc:
    """A destination-passing-style loop-level tensor program.

    ``params`` are the buffer parameters in DPS order: inputs first, then
    outputs (``num_outputs`` of them at the end).  ``sym_params`` lists
    symbolic variables that must be supplied explicitly by the caller (the
    extra symbolic arguments of Fig. 8) *in addition to* those inferable
    from the parameter buffer shapes.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Buffer],
        stages: Sequence[Stage],
        num_outputs: int = 1,
        sym_params: Sequence[sym.SymVar] = (),
        attrs: Optional[Dict] = None,
    ):
        self.name = name
        self.params: List[Buffer] = list(params)
        self.stages: List[Stage] = list(stages)
        self.num_outputs = num_outputs
        self.sym_params: List[sym.SymVar] = list(sym_params)
        self.attrs: Dict = dict(attrs) if attrs else {}
        for buf in self.params:
            if buf.scope != "param":
                raise ValueError(f"parameter buffer {buf.name} must have scope 'param'")
        if not 0 < num_outputs <= len(self.params):
            raise ValueError("num_outputs out of range")

    # -- structure -----------------------------------------------------------

    def input_buffers(self) -> List[Buffer]:
        return self.params[: len(self.params) - self.num_outputs]

    def output_buffers(self) -> List[Buffer]:
        return self.params[len(self.params) - self.num_outputs:]

    def intermediate_buffers(self) -> List[Buffer]:
        """Buffers written by stages that are not parameters."""
        param_ids = {b._id for b in self.params}
        out, seen = [], set()
        for stage in self.stages:
            buf = stage.output
            if buf._id not in param_ids and buf._id not in seen:
                seen.add(buf._id)
                out.append(buf)
        return out

    def workspace_buffers(self) -> List[Buffer]:
        """Global-scope intermediates — targets of workspace lifting (§4.4)."""
        return [b for b in self.intermediate_buffers() if b.scope == "global"]

    def free_sym_vars(self) -> List[sym.SymVar]:
        """Symbolic variables appearing anywhere in the function."""
        seen, out = set(), []

        # Exclude loop variables: they are bound by their stage.
        bound = set()
        for stage in self.stages:
            for var, _ in stage.iter_domain():
                bound.add(var.key())

        def add_filtered(expr: sym.PrimExpr) -> None:
            for var in sym.free_vars(expr):
                if var.key() not in bound and var.key() not in seen:
                    seen.add(var.key())
                    out.append(var)

        for var in self.sym_params:
            if var.key() not in seen:
                seen.add(var.key())
                out.append(var)
        for buf in list(self.params) + self.intermediate_buffers():
            for dim in buf.shape:
                add_filtered(dim)

        def scan_value(value) -> None:
            from .expr import BufferRead, IndexValue

            if isinstance(value, IndexValue):
                add_filtered(value.expr)
            elif isinstance(value, BufferRead):
                for idx in value.indices:
                    add_filtered(idx)
            for child in value.children():
                scan_value(child)

        for stage in self.stages:
            for _, extent in stage.iter_domain():
                add_filtered(extent)
            for idx in stage.output_indices:
                add_filtered(idx)
            scan_value(stage.value)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        from .printer import format_prim_func

        return format_prim_func(self)
