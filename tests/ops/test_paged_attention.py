"""paged_attention: legalization vs library kernel vs dense reference."""

import numpy as np
import pytest

from repro import ops, sym
from repro.core import TensorAnn, Var
from repro.core.expr import Call
from repro.runtime.library import REGISTRY

from .helpers import run_legalized, var_of

RNG = np.random.default_rng(11)


def _case(b=2, s=1, h=4, h_kv=2, d=8, page=4, w=3, num_pages=8,
          lengths=None):
    q = RNG.standard_normal((b, s, h, d), dtype=np.float32)
    kp = RNG.standard_normal((num_pages, page, h_kv, d), dtype=np.float32)
    vp = RNG.standard_normal((num_pages, page, h_kv, d), dtype=np.float32)
    kc = RNG.standard_normal((b, s, h_kv, d), dtype=np.float32)
    vc = RNG.standard_normal((b, s, h_kv, d), dtype=np.float32)
    table = RNG.integers(0, num_pages, size=(b, w)).astype(np.int64)
    if lengths is None:
        lengths = RNG.integers(0, w * page + 1, size=(b,)).astype(np.int64)
    else:
        lengths = np.asarray(lengths, np.int64)
    return q, kp, vp, table, lengths, kc, vc


def _dense_reference(q, kp, vp, table, lengths, kc, vc):
    """Per-sequence dense attention over the gathered context."""
    b, s, h, d = q.shape
    page, h_kv = kp.shape[1], kp.shape[2]
    group = h // h_kv
    out = np.zeros_like(q)
    for i in range(b):
        k_past = kp[table[i]].reshape(-1, h_kv, d)[: lengths[i]]
        v_past = vp[table[i]].reshape(-1, h_kv, d)[: lengths[i]]
        for head in range(h):
            g = head // group
            k_all = np.concatenate([k_past[:, g, :], kc[i, :, g, :]])
            v_all = np.concatenate([v_past[:, g, :], vc[i, :, g, :]])
            L = lengths[i]
            for t in range(s):
                ctx = L + t + 1  # paged prefix + causal current block
                scores = q[i, t, head, :] @ k_all[:ctx].T / np.sqrt(d)
                e = np.exp(scores - scores.max())
                out[i, t, head, :] = (e / e.sum()) @ v_all[:ctx]
    return out


def _run_op(q, kp, vp, table, lengths, kc, vc):
    args = [
        var_of(q, name="q"),
        var_of(kp, name="kp"),
        var_of(vp, name="vp"),
        var_of(table, name="bt"),
        var_of(lengths, name="ln"),
        var_of(kc, name="kc"),
        var_of(vc, name="vc"),
    ]
    call = ops.paged_attention(*args)
    return call, run_legalized(call, [q, kp, vp, table, lengths, kc, vc])


def test_legalized_matches_dense_reference():
    arrays = _case()
    _, got = _run_op(*arrays)
    np.testing.assert_allclose(got, _dense_reference(*arrays),
                               rtol=1e-4, atol=1e-5)


def test_legalized_matches_library_kernel():
    arrays = _case(b=1, s=2, h=2, h_kv=1, d=4, page=2, w=2, num_pages=4)
    _, got = _run_op(*arrays)
    kernel = REGISTRY.get("flashinfer.paged_attention")
    lib_out = np.zeros_like(arrays[0])
    kernel.compute(list(arrays), [lib_out])
    np.testing.assert_allclose(got, lib_out, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(lib_out, _dense_reference(*arrays),
                               rtol=1e-4, atol=1e-5)


def test_empty_paged_prefix_is_pure_causal_attention():
    """lengths == 0 must reduce to dense causal attention over k_cur."""
    arrays = _case(b=2, s=3, lengths=[0, 0])
    q, kp, vp, table, lengths, kc, vc = arrays
    _, got = _run_op(*arrays)
    dense = ops.attention
    from .helpers import run_legalized as rl, var_of as vo

    call = dense(vo(q, name="q"), vo(kc, name="k"), vo(vc, name="v"))
    expect = rl(call, [q, kc, vc])
    np.testing.assert_allclose(got, expect, rtol=1e-4, atol=1e-5)


def test_padding_slots_do_not_leak():
    """Whatever garbage sits in padded block-table slots must not affect
    the output — only entries below ``lengths`` participate."""
    q, kp, vp, table, lengths, kc, vc = _case(lengths=[5, 5])
    _, base = _run_op(q, kp, vp, table, lengths, kc, vc)
    # Repoint every block past the valid prefix at a different page.
    page = kp.shape[1]
    blocks_used = -(-5 // page)
    table2 = table.copy()
    table2[:, blocks_used:] = (table[:, blocks_used:] + 1) % kp.shape[0]
    _, redirected = _run_op(q, kp, vp, table2, lengths, kc, vc)
    np.testing.assert_allclose(base, redirected, rtol=0, atol=0)


def test_deduce_validates_integer_dtypes():
    q, kp, vp, table, lengths, kc, vc = _case()
    bad_table = table.astype(np.float32)
    with pytest.raises(Exception):
        call = ops.paged_attention(
            var_of(q), var_of(kp), var_of(vp), var_of(bad_table),
            var_of(lengths), var_of(kc), var_of(vc),
        )
        call.op.deduce(call)


def _family_call(op, bad_idx=None, bad=None):
    """A call of any paged op on ``_case`` arrays, optionally with one
    argument swapped out: (q, pools, table, <rank-1 ints...>, [k/v cur])."""
    q, kp, vp, table, lengths, kc, vc = _case()
    n_int = {ops.paged_verify: 2}.get(op, 1)
    arrays = [q, kp, vp, table] + [lengths] * n_int
    if op is not ops.paged_cross_attention:
        arrays += [kc, vc]
    if bad_idx is not None:
        arrays[bad_idx] = bad(arrays[bad_idx])
    return op(*[var_of(a) for a in arrays])


@pytest.mark.parametrize("op,idx,arg", [
    (ops.paged_attention, 3, "block_table"),
    (ops.paged_attention, 4, "lengths"),
    (ops.paged_prefill, 3, "block_table"),
    (ops.paged_prefill, 4, "past"),
    (ops.paged_verify, 3, "block_table"),
    (ops.paged_verify, 4, "lengths"),
    (ops.paged_verify, 5, "spec_lens"),
    (ops.paged_cross_attention, 3, "block_table"),
    (ops.paged_cross_attention, 4, "enc"),
])
def test_deduce_names_the_non_integer_argument(op, idx, arg):
    call = _family_call(op, idx, lambda a: a.astype(np.float32))
    name = call.op.name
    with pytest.raises(TypeError,
                       match=f"^{name}: {arg} must be an integer tensor$"):
        call.op.deduce(call)


@pytest.mark.parametrize("op,arg,dim", [
    (ops.paged_prefill, "past", "cached-context"),
    (ops.paged_cross_attention, "enc", "encoder-context"),
])
def test_deduce_requires_rank1_anchor(op, arg, dim):
    call = _family_call(op, 4, lambda a: a[:, None])
    with pytest.raises(TypeError) as err:
        call.op.deduce(call)
    assert str(err.value) == (
        f"{call.op.name}: {arg} must be rank 1 (its length anchors the "
        f"{dim} dim)"
    )


@pytest.mark.parametrize("op", [
    ops.paged_attention, ops.paged_prefill, ops.paged_verify,
    ops.paged_cross_attention,
])
def test_deduce_mirrors_q_and_legalize_needs_static_heads(op):
    call = _family_call(op)
    q_ann = call.args[0].ann
    out = call.op.deduce(call)
    assert (out.shape, out.dtype) == (q_ann.shape, q_ann.dtype)
    h = sym.SymVar("h")
    q_shape = (q_ann.shape[0], q_ann.shape[1], h, q_ann.shape[3])
    call.args[0] = Var("q", TensorAnn(q_shape, q_ann.dtype))
    with pytest.raises(ValueError) as err:
        call.op.legalize(call)
    assert str(err.value) == (
        f"{call.op.name}: head counts, head_dim and the page size must be "
        "static"
    )


def test_op_metadata():
    q, kp, vp, table, lengths, kc, vc = _case()
    call, _ = _run_op(q, kp, vp, table, lengths, kc, vc)
    assert isinstance(call, Call)
    legalized = call.op.legalize(call)
    assert legalized.prim_func.attrs.get("op_kind") == "attention"
    assert REGISTRY.available("flashinfer.paged_attention", "cuda")
    assert not REGISTRY.available("flashinfer.paged_attention", "metal")
