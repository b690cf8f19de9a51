"""Paged attention: the attention family over a block-table-indexed KV pool.

The serving engine (``repro.serve``) keeps KV caches in fixed-size pages
shared by all sequences; a batch carries a per-sequence *block table*
mapping logical cache positions to pages.  The four operators here make
that layout a first-class IR citizen: legalization emits a multi-stage
tensor program whose pooled key/value reads are data-dependent
``GatherRead``s through the block table (the same Opaque-gather machinery
as ``take``), and library dispatch can instead lower the call to the
FlashAttention-style paged kernels in the registry on CUDA/ROCm.

Shared layout (``B`` = static page size, ``p``/``w``/``b`` symbolic):

* ``q``            — (b, s, h, d) queries;
* ``k_pages``      — (p, B, h_kv, d) pooled keys, all sequences mixed;
* ``v_pages``      — (p, B, h_kv, d) pooled values;
* ``block_table``  — (b, w) int64, logical block ``j`` of sequence ``i``
  lives in page ``block_table[i, j]``;
* ``k_cur``/``v_cur`` — (b, s, h_kv, d) keys/values of the current query
  positions (functional IR cannot write the pool in place, so the freshly
  projected K/V ride along and the host appends them after the call).

Because select evaluates both branches over the full grid (``np.where``
semantics), *padding entries of the block table must hold a valid page
index* — 0 works — even though the mask discards them.

There are two stage skeletons, and each op is one instance of one of them:

* **One group, four stages** (:func:`repro.ops.attention.softmax_stages`,
  shared with dense ``attention``).  ``paged_prefill`` reads column ``j``
  from the pool for ``j < m`` and from the current chunk otherwise, causal
  at offset ``m``; ``paged_cross_attention`` reads every column from the
  pool and masks nothing.  Same reductions over the same columns as the
  dense op, hence *bit-exact* against it.
* **Two groups, eleven stages** (:func:`_two_group_stages`): an online
  softmax over the ``w * B`` pooled positions (valid iff ``j <
  lengths[bi]``) and the ``s`` current positions, which differ per op only
  in the current-block mask.  ``paged_attention`` is causal;
  ``paged_verify`` is causal within each sequence's ragged width.  Summing
  the two halves separately regroups the floats, so these match dense
  attention to rounding, not bit for bit.
"""

from __future__ import annotations

from .. import sym, tir
from ..core.expr import Call, Expr
from .attention import (
    Kernel,
    close_kernel,
    deduce_like_q,
    open_kernel,
    softmax_stages,
)
from .registry import Legalized, register_fuzz, register_op


def _page_gather(kern: Kernel):
    """``gather(pool, bi, ji, kv_head, di)`` through the block table."""
    btb, page = kern.bufs[3], kern.page

    def gather(data, bi, ji, kv_head, di):
        # data[block_table[bi, ji // B], ji % B, kv_head, di]
        return tir.GatherRead(
            data, btb, (), (bi, ji // page),
            (ji % page, kv_head, di),
        )

    return gather


def _two_group_stages(kern: Kernel, masked_cur) -> Legalized:
    """The eleven-stage online softmax over pooled + current positions.

    ``kern.bufs`` is ``Q, KP, VP, BT, LN, ..., KC, VC``;
    ``masked_cur(score, bi, si, ti)`` is the score query ``si`` of
    sequence ``bi`` sees at current position ``ti``.
    """
    f, ob, group, scale = kern.f, kern.out, kern.group, kern.scale
    qb, kpb, vpb, btb, lnb = kern.bufs[:5]
    kcb, vcb = kern.bufs[-2:]
    b, s, h, d = qb.shape
    wb = sym.simplify(btb.shape[1] * kern.page)  # paged positions per sequence
    gather = _page_gather(kern)

    acc = "f32"
    s_page = f.alloc("SP", (b, h, s, wb), acc)   # paged scores
    s_cur = f.alloc("SC", (b, h, s, s), acc)     # current-block scores
    m_page = f.alloc("MP", (b, h, s), acc)
    m_cur = f.alloc("MC", (b, h, s), acc)
    m_all = f.alloc("M", (b, h, s), acc)
    e_page = f.alloc("EP", (b, h, s), acc)
    e_cur = f.alloc("EC", (b, h, s), acc)
    e_all = f.alloc("E", (b, h, s), acc)
    acc_page = f.alloc("AP", (b, s, h, d), acc)
    acc_cur = f.alloc("AC", (b, s, h, d), acc)

    def masked_page(expr, bi, ji):
        # Paged position ji is valid iff ji < lengths[bi]; both branches
        # evaluate, so padding pages are read then discarded.
        valid = tir.Cmp("lt", tir.IndexValue(ji), lnb[bi])
        return tir.select(valid, expr, -1e9)

    # Stage 1: scaled scores against the paged keys (gather via the table).
    bi, hi, si, ji = f.spatial(b, h, s, wb)
    di = f.reduce(d)
    prod = tir.cast(acc, qb[bi, si, hi, di]) * tir.cast(
        acc, gather(kpb, bi, ji, hi // group, di)
    )
    f.store(s_page, [bi, hi, si, ji], prod * scale, combiner="sum", init=0.0)

    # Stage 2: scaled scores against the current-block keys.
    bi, hi, si, ti = f.spatial(b, h, s, s)
    di = f.reduce(d)
    prod = tir.cast(acc, qb[bi, si, hi, di]) * tir.cast(
        acc, kcb[bi, ti, hi // group, di]
    )
    f.store(s_cur, [bi, hi, si, ti], prod * scale, combiner="sum", init=0.0)

    # Stages 3-5: running max over both score groups.
    bi, hi, si = f.spatial(b, h, s)
    ji = f.reduce(wb)
    f.store(m_page, [bi, hi, si],
            masked_page(s_page[bi, hi, si, ji], bi, ji), combiner="max")

    bi, hi, si = f.spatial(b, h, s)
    ti = f.reduce(s)
    f.store(m_cur, [bi, hi, si],
            masked_cur(s_cur[bi, hi, si, ti], bi, si, ti), combiner="max")

    bi, hi, si = f.spatial(b, h, s)
    f.store(m_all, [bi, hi, si],
            tir.vmax(m_page[bi, hi, si], m_cur[bi, hi, si]))

    # Stages 6-8: exp-sums (masked positions contribute exp(-1e9 - M) ~ 0).
    bi, hi, si = f.spatial(b, h, s)
    ji = f.reduce(wb)
    f.store(
        e_page, [bi, hi, si],
        tir.exp(masked_page(s_page[bi, hi, si, ji], bi, ji)
                - m_all[bi, hi, si]),
        combiner="sum", init=0.0,
    )

    bi, hi, si = f.spatial(b, h, s)
    ti = f.reduce(s)
    f.store(
        e_cur, [bi, hi, si],
        tir.exp(masked_cur(s_cur[bi, hi, si, ti], bi, si, ti)
                - m_all[bi, hi, si]),
        combiner="sum", init=0.0,
    )

    bi, hi, si = f.spatial(b, h, s)
    f.store(e_all, [bi, hi, si], e_page[bi, hi, si] + e_cur[bi, hi, si])

    # Stage 9: probability-weighted paged values (gather again).
    bi, si, hi, di = f.spatial(b, s, h, d)
    ji = f.reduce(wb)
    prob = tir.exp(
        masked_page(s_page[bi, hi, si, ji], bi, ji) - m_all[bi, hi, si]
    ) / e_all[bi, hi, si]
    f.store(acc_page, [bi, si, hi, di],
            prob * tir.cast(acc, gather(vpb, bi, ji, hi // group, di)),
            combiner="sum", init=0.0)

    # Stage 10: probability-weighted current-block values.
    bi, si, hi, di = f.spatial(b, s, h, d)
    ti = f.reduce(s)
    prob = tir.exp(
        masked_cur(s_cur[bi, hi, si, ti], bi, si, ti) - m_all[bi, hi, si]
    ) / e_all[bi, hi, si]
    f.store(acc_cur, [bi, si, hi, di],
            prob * tir.cast(acc, vcb[bi, ti, hi // group, di]),
            combiner="sum", init=0.0)

    # Stage 11: combine the two softmax halves and cast out.
    bi, si, hi, di = f.spatial(b, s, h, d)
    f.store(
        ob, [bi, si, hi, di],
        tir.cast(qb.dtype,
                 acc_page[bi, si, hi, di] + acc_cur[bi, si, hi, di]),
    )

    return close_kernel(kern)


def _legalize(call: Call) -> Legalized:
    kern = open_kernel(
        "paged_attention", call,
        ("Q", "KP", "VP", "BT", "LN", "KC", "VC"), known=(0, 1, 3, 5),
        paged=True,
    )

    def masked_cur(expr, bi, si, ti):
        # Causal inside the current query block.
        allowed = tir.Cmp("le", tir.IndexValue(ti), tir.IndexValue(si))
        return tir.select(allowed, expr, -1e9)

    return _two_group_stages(kern, masked_cur)


paged_attention_op = register_op(
    "paged_attention",
    deduce_like_q("paged_attention",
                  [(4, "lengths", None), (3, "block_table", None)]),
    _legalize,
)


def paged_attention(q: Expr, k_pages: Expr, v_pages: Expr, block_table: Expr,
                    lengths: Expr, k_cur: Expr, v_cur: Expr) -> Call:
    """Attention over a paged KV pool plus the current query block.

    ``lengths`` is (b,) int64, the valid *past* positions per sequence.
    Query ``i`` of sequence ``bi`` attends every paged position
    ``j < lengths[bi]`` plus current positions ``t <= i`` (causal inside
    the query block; decode has s == 1).
    """
    return Call(
        paged_attention_op,
        [q, k_pages, v_pages, block_table, lengths, k_cur, v_cur],
    )


register_fuzz("paged_attention", "paged_attention", paged_attention,
              weight=1.5)


# ---------------------------------------------------------------------------
# paged_prefill: chunked prefill over the page pool, bit-exact vs. dense.
# ---------------------------------------------------------------------------


def _prefill_legalize(call: Call) -> Legalized:
    kern = open_kernel(
        "paged_prefill", call,
        ("Q", "KP", "VP", "BT", "PAST", "KC", "VC"), known=(0, 1, 3, 4, 5),
        paged=True,
    )
    # PAST is an anchor: its extent binds the cached context length m.
    _, kpb, vpb, _, past, kcb, vcb = kern.bufs
    s, m = kern.out.shape[1], past.shape[0]
    gather = _page_gather(kern)

    def kv_read(pool, cur):
        # Key/value column ji: cached columns (ji < m) gather their page
        # through the block table; current columns read this chunk's
        # freshly projected K/V.  Both branches evaluate, so the current
        # read clamps ji - m at zero to stay in bounds.
        def read(bi, ji, kv_head, di):
            local = cur[bi, sym.Max(ji - m, sym.IntImm(0)), kv_head, di]
            is_past = tir.Cmp("lt", tir.IndexValue(ji), tir.IndexValue(m))
            return tir.select(is_past, gather(pool, bi, ji, kv_head, di),
                              local)

        return read

    def masked(expr, i, j):
        # Query i sits at absolute position m + i; causal over cached
        # plus current keys is j <= i + m — the same predicate the dense
        # kernel uses with key length m + s (j <= i + (mk - s)).
        allowed = tir.Cmp("le", tir.IndexValue(j), tir.IndexValue(i + m))
        return tir.select(allowed, expr, -1e9)

    # Total key positions: m cached + s current.  The block table must
    # cover all of them (w * page >= m + s): column j < m gathers page
    # j // page of the sequence, and the gather evaluates over the whole
    # grid (np.where semantics), so even current-column reads index it.
    return softmax_stages(kern, sym.simplify(m + s), kv_read(kpb, kcb),
                          kv_read(vpb, vcb), masked)


paged_prefill_op = register_op(
    "paged_prefill",
    deduce_like_q("paged_prefill", [(3, "block_table", None),
                                    (4, "past", "cached-context")]),
    _prefill_legalize,
)


def paged_prefill(q: Expr, k_pages: Expr, v_pages: Expr, block_table: Expr,
                  past: Expr, k_cur: Expr, v_cur: Expr) -> Call:
    """Chunked prefill attention over a paged KV pool.

    The query chunk (``s`` positions starting at offset ``m``) attends
    every cached position of its sequence — gathered from the page pool
    via the block table — plus itself, causally.  ``past`` is a rank-1
    integer *anchor*: only its length matters, binding the symbolic
    cached-context dim ``m`` at the function boundary.  The block table
    must cover ``m + s`` positions (the pages this chunk's K/V will be
    written into are already allocated).  Output is bit-exact against
    the dense ``attention`` op over the concatenated cache.
    """
    return Call(
        paged_prefill_op,
        [q, k_pages, v_pages, block_table, past, k_cur, v_cur],
    )


register_fuzz("paged_prefill", "paged_prefill", paged_prefill, weight=1.0)


# ---------------------------------------------------------------------------
# paged_verify: ragged multi-token decode for speculative verification.
# ---------------------------------------------------------------------------


def _verify_legalize(call: Call) -> Legalized:
    kern = open_kernel(
        "paged_verify", call,
        ("Q", "KP", "VP", "BT", "LN", "SL", "KC", "VC"), known=(0, 1, 3, 6),
        paged=True,
    )
    slb = kern.bufs[5]

    def masked_cur(expr, bi, si, ti):
        # Current key ti is attendable from query si iff ti <= si AND
        # (ti < spec_lens[bi] OR ti == si): causal over the valid ragged
        # width, with the self term kept unconditionally so padded rows
        # (si >= spec_lens[bi]) still have a non-empty softmax and never
        # read K columns beyond their own.  For valid rows the self term
        # is already inside the width, so the escape is a no-op there.
        causal = tir.Cmp("le", tir.IndexValue(ti), tir.IndexValue(si))
        in_spec = tir.Cmp("lt", tir.IndexValue(ti), slb[bi])
        is_self = tir.Cmp("eq", tir.IndexValue(ti), tir.IndexValue(si))
        inner = tir.select(in_spec, expr, tir.select(is_self, expr, -1e9))
        return tir.select(causal, inner, -1e9)

    return _two_group_stages(kern, masked_cur)


paged_verify_op = register_op(
    "paged_verify",
    deduce_like_q("paged_verify", [(3, "block_table", None),
                                   (4, "lengths", None),
                                   (5, "spec_lens", None)]),
    _verify_legalize,
)


def paged_verify(q: Expr, k_pages: Expr, v_pages: Expr, block_table: Expr,
                 lengths: Expr, spec_lens: Expr, k_cur: Expr,
                 v_cur: Expr) -> Call:
    """Ragged multi-token paged decode for speculative verification.

    Generalizes ``paged_attention`` from s == 1 to a block of ``s``
    speculative query positions per sequence, where sequence ``bi``
    only carries ``spec_lens[bi] <= s`` valid rows (the draft proposed
    k_i tokens, plus the last accepted token, ragged across the batch).
    Query ``i`` attends every paged position ``j < lengths[bi]`` plus
    current positions ``t`` with ``t <= i`` and ``t < spec_lens[bi]``
    (self always attendable, keeping padded rows' softmax non-empty).
    Rows at or past ``spec_lens[bi]`` are padding: computed over their
    own key only, discarded by the host.
    """
    return Call(
        paged_verify_op,
        [q, k_pages, v_pages, block_table, lengths, spec_lens, k_cur, v_cur],
    )


register_fuzz("paged_verify", "paged_verify", paged_verify, weight=1.0)


# ---------------------------------------------------------------------------
# paged_cross_attention: encoder-decoder cross-attention over pool-resident
# encoder K/V, bit-exact vs. the dense non-causal ``attention`` op.
# ---------------------------------------------------------------------------


def _cross_legalize(call: Call) -> Legalized:
    kern = open_kernel(
        "paged_cross_attention", call, ("Q", "KP", "VP", "BT", "ENC"),
        known=(0, 1, 3, 4), paged=True,
    )
    # ENC is an anchor: its extent binds the encoder positions t.
    _, kpb, vpb, _, enc = kern.bufs
    t = enc.shape[0]
    gather = _page_gather(kern)

    # No mask: every encoder position is attendable and the reduce extent
    # is exactly t, so no padding position enters the softmax.  Dense
    # non-causal attention never library-dispatches, so the two lowering
    # paths agree bit for bit as well.
    return softmax_stages(kern, t, lambda *at: gather(kpb, *at),
                          lambda *at: gather(vpb, *at))


paged_cross_attention_op = register_op(
    "paged_cross_attention",
    deduce_like_q("paged_cross_attention",
                  [(3, "block_table", None), (4, "enc", "encoder-context")]),
    _cross_legalize,
)


def paged_cross_attention(q: Expr, k_pages: Expr, v_pages: Expr,
                          block_table: Expr, enc: Expr) -> Call:
    """Cross-attention over pool-resident encoder K/V.

    Every query attends all ``t`` encoder positions of its sequence,
    gathered from the page pool through the block table (the encoder K/V
    was projected once and written to pages; it never grows).  ``enc`` is
    a rank-1 integer *anchor*: only its length matters, binding the
    symbolic encoder-context dim ``t``.  The block table must cover
    ``t`` positions.  No mask and no current block — unlike
    ``paged_attention``, whose current-block causal term would be wrong
    for cross-attention.  Output is bit-exact against the dense
    ``attention(q, k, v, causal=False)`` over contiguous encoder K/V.
    """
    return Call(
        paged_cross_attention_op,
        [q, k_pages, v_pages, block_table, enc],
    )


register_fuzz("paged_cross_attention", "paged_cross_attention",
              paged_cross_attention, weight=0.75)
