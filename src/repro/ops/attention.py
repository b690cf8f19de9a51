"""Fused scaled-dot-product attention operator.

The paper (§4.2) notes fusion passes can cover "all sub-operators in scaled
dot-product attention"; we expose the result directly as an ``attention``
operator whose legalization generates one multi-stage tensor program
(scores → online max → exp-sum → weighted value), with grouped-query head
sharing expressed as pure index arithmetic (``h // group``) and the causal
mask folded into the score reads.  Library dispatch (§4.6) can instead
lower causal attention to the FlashAttention-style registry kernel on
backends that ship one.

Layout: q is (b, s, h, d); k and v are (b, m, h_kv, d) with the full
(cached) sequence; output is (b, s, h, d).

The four stages are written once, in :func:`softmax_stages`, and
instantiated by every op whose softmax runs over *one* group of key
columns: ``attention`` here, ``paged_prefill`` and
``paged_cross_attention`` in :mod:`repro.ops.paged`.  An instance says how
many key columns there are, where column ``j`` lives and which columns a
query may see; the reductions are the same, so the interpreter's pairwise
summations group floats identically and the instances agree bit for bit.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .. import sym, tir
from ..core.annotations import TensorAnn
from ..core.expr import Call, Expr
from .registry import (
    Legalized,
    register_fuzz,
    register_op,
    require_known_shape,
    tensor_ann_of,
)


def deduce_like_q(name: str, int_args: Sequence[Tuple[int, str, Optional[str]]]):
    """Deduction rule of an attention-family op: the output mirrors ``q``.

    ``int_args`` lists, in checking order, ``(argument index, argument
    name, anchored dim)``: each must be an integer tensor, and one that
    anchors a symbolic dim (only its length matters) must be rank 1.
    """

    def deduce(call: Call):
        q = tensor_ann_of(call.args[0], name, 0)
        for idx, arg, anchored in int_args:
            ann = tensor_ann_of(call.args[idx], name, idx)
            if ann.dtype not in ("i64", "i32"):
                raise TypeError(f"{name}: {arg} must be an integer tensor")
            if anchored and ann.shape is not None and len(ann.shape) != 1:
                raise TypeError(f"{name}: {arg} must be rank 1 (its length "
                                f"anchors the {anchored} dim)")
        if q.shape is None:
            return TensorAnn(dtype=q.dtype, ndim=4)
        return TensorAnn(q.shape, q.dtype)

    return deduce


class Kernel(NamedTuple):
    """An attention-family tensor program with its arguments declared."""

    f: tir.TirBuilder
    call: Call
    bufs: List[tir.Buffer]  # one param buffer per call argument
    out: tir.Buffer  # "O", shaped and typed like q
    group: int  # query heads per KV head
    scale: float
    page: Optional[int]  # static page size (paged ops only)


def open_kernel(name: str, call: Call, buf_names: Sequence[str],
                known: Sequence[int], paged: bool = False) -> Kernel:
    """Check the head geometry and declare one buffer per argument.

    Argument 0 is ``q (b, s, h, d)``; argument 1 carries the KV head count
    at dim 2 — ``k (b, m, h_kv, d)`` or, for ``paged`` ops, ``k_pages
    (p, B, h_kv, d)`` whose dim 1 is the page size.  Arguments at
    ``known`` must have a known shape.
    """
    anns = [tensor_ann_of(a, name, i) for i, a in enumerate(call.args)]
    for i in known:
        require_known_shape(anns[i], name)
    _, _, h, d = anns[0].shape
    static = [h, anns[1].shape[2], d] + ([anns[1].shape[1]] if paged else [])
    if not all(sym.is_static(x) for x in static):
        what = ", head_dim and the page size" if paged else " and head_dim"
        raise ValueError(f"{name}: head counts{what} must be static")
    h, h_kv, d, *page = (sym.as_static_int(sym.simplify(x)) for x in static)

    f = tir.TirBuilder(name)
    f.attr("op_kind", "attention")
    bufs = [f.arg(n, a.shape, a.dtype) for n, a in zip(buf_names, anns)]
    out = f.out("O", anns[0].shape, anns[0].dtype)
    return Kernel(f, call, bufs, out, h // h_kv, 1.0 / (d ** 0.5),
                  page[0] if paged else None)


def close_kernel(kern: Kernel) -> Legalized:
    return Legalized(kern.f.build(), list(kern.call.args),
                     TensorAnn(kern.out.shape, kern.out.dtype))


#: ``read(bi, ji, kv_head, di)`` — element ``di`` of key/value column ``ji``.
Read = Callable[..., tir.Value]
#: ``mask(score, si, ji)`` — the score query ``si`` sees at column ``ji``.
Mask = Callable[..., tir.Value]


def softmax_stages(kern: Kernel, n_keys, read_k: Read, read_v: Read,
                   mask: Optional[Mask] = None) -> Legalized:
    """The four-stage softmax over ``n_keys`` key columns of one group."""
    f, qb, ob = kern.f, kern.bufs[0], kern.out
    group, scale = kern.group, kern.scale
    b, s, h, d = qb.shape
    if mask is None:
        def mask(expr, i, j):
            return expr

    acc = "f32"
    scores = f.alloc("S", (b, h, s, n_keys), acc)
    row_max = f.alloc("M", (b, h, s), acc)
    row_sum = f.alloc("E", (b, h, s), acc)

    # Stage 1: scaled scores (the mask is folded into their reads).
    bi, hi, si, ji = f.spatial(b, h, s, n_keys)
    di = f.reduce(d)
    prod = tir.cast(acc, qb[bi, si, hi, di]) * tir.cast(
        acc, read_k(bi, ji, hi // group, di)
    )
    f.store(scores, [bi, hi, si, ji], prod * scale, combiner="sum", init=0.0)

    # Stage 2: row max of masked scores.
    bi, hi, si = f.spatial(b, h, s)
    ji = f.reduce(n_keys)
    f.store(row_max, [bi, hi, si], mask(scores[bi, hi, si, ji], si, ji),
            combiner="max")

    # Stage 3: exp-sum.
    bi, hi, si = f.spatial(b, h, s)
    ji = f.reduce(n_keys)
    f.store(
        row_sum,
        [bi, hi, si],
        tir.exp(mask(scores[bi, hi, si, ji], si, ji) - row_max[bi, hi, si]),
        combiner="sum",
        init=0.0,
    )

    # Stage 4: probability-weighted values.
    bi, si, hi, di = f.spatial(b, s, h, d)
    ji = f.reduce(n_keys)
    prob = tir.exp(
        mask(scores[bi, hi, si, ji], si, ji) - row_max[bi, hi, si]
    ) / row_sum[bi, hi, si]
    weighted = prob * tir.cast(acc, read_v(bi, ji, hi // group, di))
    f.store(ob, [bi, si, hi, di], tir.cast(qb.dtype, weighted),
            combiner="sum", init=0.0)

    return close_kernel(kern)


def _legalize(call: Call) -> Legalized:
    kern = open_kernel("attention", call, ("Q", "K", "V"), known=(0, 1))
    _, kb, vb = kern.bufs
    s, m = kern.out.shape[1], kb.shape[1]

    def masked(expr, i, j):
        # Query i (aligned to the end of the keys) may attend key j iff
        # j <= i + (m - s).
        allowed = tir.Cmp("le", tir.IndexValue(j), tir.IndexValue(i + (m - s)))
        return tir.select(allowed, expr, -1e9)

    return softmax_stages(
        kern, m, lambda *at: kb[at], lambda *at: vb[at],
        masked if call.attrs.get("causal", True) else None,
    )


attention_op = register_op("attention", deduce_like_q("attention", ()),
                           _legalize)


def attention(q: Expr, k: Expr, v: Expr, causal: bool = True) -> Call:
    """Fused attention over cached keys/values (GQA via head grouping)."""
    return Call(attention_op, [q, k, v], attrs={"causal": causal})


register_fuzz("attention", "attention", attention, weight=2.0)
