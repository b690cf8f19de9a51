"""Analyses over tensor programs.

The centerpiece is :func:`pattern_kind` — the *analysis feedback* pass of
the paper (Algorithm 1): classify a tensor program by inspecting its read
and write indices, so the graph level learns fusion-relevant operator
properties without manual per-operator annotation.  Pattern kinds, from
most to least fusable:

``ELEMENT_WISE < BROADCAST < INJECTIVE < REDUCTION / OUT_EWISE_FUSIBLE < OPAQUE``

Also here: workspace detection (feeding §4.4 lifting) and FLOP / byte
estimation used by schedule decisions and the device cost model.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

from .. import dtypes, sym
from .expr import (
    BinValue,
    BufferRead,
    Cast,
    GatherRead,
    Value,
    contains_gather,
    count_arith_ops,
)
from .function import Buffer, PrimFunc, Stage


class PatternKind(enum.IntEnum):
    """Compute pattern of a tensor program (Algorithm 1's ``kind``)."""

    ELEMENT_WISE = 0
    BROADCAST = 1
    INJECTIVE = 2
    REDUCTION = 3
    OUT_EWISE_FUSIBLE = 4
    OPAQUE = 5


def _is_element_wise(read_idx, write_idx) -> bool:
    """Read indices identical to write indices (``A[i,j]`` -> ``C[i,j]``)."""
    if len(read_idx) != len(write_idx):
        return False
    return all(sym.prove_equal(r, w) for r, w in zip(read_idx, write_idx))


def _is_broadcast(read_idx, write_idx) -> bool:
    """Read indices are an order-preserving subsequence of the write indices
    (``B[j]`` -> ``C[i,j]``)."""
    if len(read_idx) >= len(write_idx):
        return False
    pos = 0
    for r in read_idx:
        while pos < len(write_idx) and not sym.prove_equal(r, write_idx[pos]):
            pos += 1
        if pos == len(write_idx):
            return False
        pos += 1
    return True


def _is_injective(read_idx, write_vars) -> bool:
    """Each output element reads from a (single) input position determined
    injectively by the write loop variables — permutations (``A[j,i]``) and
    index remappings built from floordiv/mod (reshape) both qualify.

    We accept reads whose indices use only the write loop variables; this
    is the practical approximation TVM-style fusion uses.
    """
    write_keys = {v.key() for v in write_vars}
    for r in read_idx:
        for var in sym.free_vars(r):
            if var.key() not in write_keys:
                return False
    return True


def _is_fused_multiply_add(stage: Stage) -> bool:
    """Detect the matmul/conv pattern: sum-reduction of a product.

    Each factor must contain at least one buffer read; the factors may be
    compound expressions (e.g. an inlined quantization decode, Fig. 9),
    not just bare reads.
    """
    if stage.combiner != "sum":
        return False

    def strip_cast(v: Value) -> Value:
        while isinstance(v, Cast):
            v = v.a
        return v

    def has_read(v: Value) -> bool:
        if isinstance(v, BufferRead):
            return True
        return any(has_read(c) for c in v.children())

    value = strip_cast(stage.value)
    if not (isinstance(value, BinValue) and value.op == "mul"):
        return False
    return has_read(value.a) and has_read(value.b)


def stage_pattern_kind(stage: Stage) -> PatternKind:
    """Algorithm 1 applied to one stage."""
    if contains_gather(stage.value):
        # Data-dependent reads: not a pure function of loop vars (Alg. 1's
        # fallback).
        return PatternKind.OPAQUE

    write_idx = list(stage.output_indices)
    write_vars = [v for v, _ in stage.loop_vars]
    reads = stage.reads()

    if stage.is_reduction():
        if _is_fused_multiply_add(stage):
            return PatternKind.OUT_EWISE_FUSIBLE
        return PatternKind.REDUCTION

    # Write indices must be plain loop variables in order for the
    # elementwise/broadcast classification to be meaningful.
    writes_canonical = len(write_idx) == len(write_vars) and all(
        isinstance(w, sym.SymVar) and w.key() == v.key()
        for w, v in zip(write_idx, write_vars)
    )

    if not reads:
        # Pure generator (fill/iota): injective by construction.
        return PatternKind.INJECTIVE if writes_canonical else PatternKind.OPAQUE
    kind = PatternKind.ELEMENT_WISE  # neutral floor; raised by each read
    has_elem_wise = False
    for read in reads:
        r_idx = list(read.indices)
        if writes_canonical and _is_element_wise(r_idx, write_idx):
            has_elem_wise = True
            read_kind = PatternKind.ELEMENT_WISE
        elif writes_canonical and _is_broadcast(r_idx, write_idx):
            read_kind = PatternKind.BROADCAST
        elif _is_injective(r_idx, write_vars):
            read_kind = PatternKind.INJECTIVE
        else:
            return PatternKind.OPAQUE
        kind = max(kind, read_kind)
    if kind == PatternKind.BROADCAST and has_elem_wise:
        # C[i,j] = A[i,j] + B[j] behaves elementwise for fusion purposes.
        kind = PatternKind.ELEMENT_WISE
    return kind


def pattern_kind(func: PrimFunc) -> PatternKind:
    """Pattern kind of a whole tensor program (Algorithm 1).

    Multi-stage programs: a chain of elementwise/broadcast/injective stages
    is as fusable as its worst stage; anything containing a reduction ends
    at the reduction's classification; mixtures fall back to Opaque.
    """
    if not func.stages:
        return PatternKind.OPAQUE
    if len(func.stages) == 1:
        return stage_pattern_kind(func.stages[0])

    kinds = [stage_pattern_kind(s) for s in func.stages]
    if all(k <= PatternKind.INJECTIVE for k in kinds):
        return max(kinds)
    # One producer chain ending in a single FMA reduction stays fusable at
    # its output (e.g. decode + matmul after FuseTensorIR).
    if kinds[-1] == PatternKind.OUT_EWISE_FUSIBLE and all(
        k <= PatternKind.INJECTIVE for k in kinds[:-1]
    ):
        return PatternKind.OUT_EWISE_FUSIBLE
    return PatternKind.OPAQUE


def detect_workspaces(func: PrimFunc) -> List[Buffer]:
    """Global-memory intermediate allocations (workspace-lifting targets)."""
    return func.workspace_buffers()


#: One cost term, ``coefficient × ∏ factors``.  A factor is a ``SymVar``
#: (looked up in the bindings) or a compound ``PrimExpr`` (evaluated under
#: them); constant dimensions are folded into the coefficient.
Term = Tuple[int, Tuple[sym.PrimExpr, ...]]


class CostTerms(NamedTuple):
    """A tensor program's FLOP and byte counts as sums of products of its
    symbolic dimensions, built once per PrimFunc by :func:`cost_terms`.

    Evaluating them is the only definition of kernel cost: each count is
    an exact Python ``int``, so pricing a launch never walks TensorIR.
    """

    flop_terms: Tuple[Term, ...]
    byte_terms: Tuple[Term, ...]

    def flops(self, bindings: Dict[sym.SymVar, int]) -> int:
        """Estimated arithmetic operations for one execution."""
        return _evaluate(self.flop_terms, bindings)

    def bytes(self, bindings: Dict[sym.SymVar, int]) -> int:
        """Estimated global-memory traffic for one execution."""
        return _evaluate(self.byte_terms, bindings)


def _evaluate(terms: Tuple[Term, ...], bindings: Dict[sym.SymVar, int]) -> int:
    total = 0
    for value, factors in terms:
        for factor in factors:
            if isinstance(factor, sym.SymVar):
                try:
                    value *= int(bindings[factor])
                except KeyError:
                    raise KeyError(
                        f"unbound symbolic variable '{factor.name}'") from None
            else:
                value *= sym.evaluate(factor, bindings)
        total += value
    return total


def _term(coefficient: int, dims) -> Term:
    """``coefficient × ∏ dims`` with products flattened and constants folded."""
    factors: List[sym.PrimExpr] = []
    stack = list(reversed(dims))
    while stack:
        dim = stack.pop()
        if isinstance(dim, sym.IntImm):
            coefficient *= dim.value
        elif isinstance(dim, sym.Mul):
            stack += (dim.b, dim.a)
        else:
            factors.append(dim)
    return coefficient, tuple(factors)


def cost_terms(func: PrimFunc) -> CostTerms:
    """FLOP and byte terms of ``func`` from one walk of its stages.

    FLOPs: each stage's iteration count times its arithmetic operations
    (plus the combiner update of a reduction).  Bytes: parameters and
    ``global``-scope intermediates (workspaces) count; ``local``
    intermediates are assumed to stay on chip — this is exactly why fusing
    elementwise stages into their producer reduces memory traffic in the
    model, mirroring the paper's fusion motivation (§4.2).  A workspace is
    written then read back (twice its size); a parameter read only through
    gathers touches one element per iteration of each gathering stage, not
    its full extent (an embedding lookup reads b rows of the (vocab,
    hidden) table, not the whole gigabyte).
    """
    flop_terms: List[Term] = []
    gathers: Dict[int, List[List[sym.PrimExpr]]] = {}
    plain_read_ids = set()
    for stage in func.stages:
        extents = [extent for _, extent in stage.iter_domain()]
        ops = max(1, count_arith_ops(stage.value))
        if stage.is_reduction():
            ops += 1  # the combiner update
        flop_terms.append(_term(ops, extents))

        stack = [stage.value]
        while stack:
            value = stack.pop()
            if isinstance(value, GatherRead):
                gathers.setdefault(value.data._id, []).append(extents)
                plain_read_ids.add(value.index_buffer._id)
                continue
            if isinstance(value, BufferRead):
                plain_read_ids.add(value.buffer._id)
            stack += value.children()
        plain_read_ids.add(stage.output._id)

    byte_terms: List[Term] = []
    for buf in func.params:
        itemsize = dtypes.itemsize(buf.dtype)
        if buf._id in gathers and buf._id not in plain_read_ids:
            byte_terms += [_term(itemsize, extents) for extents in gathers[buf._id]]
        else:
            byte_terms.append(_term(itemsize, buf.shape))
    for buf in func.intermediate_buffers():
        if buf.scope == "global":
            byte_terms.append(_term(2 * dtypes.itemsize(buf.dtype), buf.shape))
    return CostTerms(tuple(flop_terms), tuple(byte_terms))


def count_flops(func: PrimFunc, bindings: Optional[Dict[sym.SymVar, int]] = None) -> int:
    """Arithmetic operations of one execution (see :func:`cost_terms`)."""
    return cost_terms(func).flops(bindings or {})


def count_bytes(
    func: PrimFunc, bindings: Optional[Dict[sym.SymVar, int]] = None
) -> int:
    """Global-memory traffic of one execution (see :func:`cost_terms`)."""
    return cost_terms(func).bytes(bindings or {})


def symbolic_flops(func: PrimFunc) -> sym.PrimExpr:
    """FLOPs as a symbolic expression of the function's free variables."""
    total: sym.PrimExpr = sym.IntImm(0)
    for coefficient, factors in cost_terms(func).flop_terms:
        term: sym.PrimExpr = sym.IntImm(coefficient)
        for factor in factors:
            term = term * factor
        total = total + term
    return sym.simplify(total)
