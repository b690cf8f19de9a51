"""Decoder-only transformer family (paper §5.1, §5.3).

One configurable implementation covers every decoder-only model the paper
evaluates: Llama3-8B / Llama2-7B (RMSNorm + SwiGLU + GQA), Gemma1.1-7B
(GeGLU, tied embeddings, embedding scaling), Qwen2-7B (attention bias),
Phi3-mini, and RedPajama-3B (GPT-NeoX: LayerNorm, parallel residual,
plain GELU MLP).

The exported module has two functions sharing one weight list:

* ``prefill(tokens (b, s), k/v caches (b, m, h_kv, d) x L)``
* ``decode(tokens (b, 1), k/v caches (b, m, h_kv, d) x L)``

both returning ``(logits (b, 1, vocab), new caches (b, m+s, ...))``.
Batch ``b``, sequence ``s`` and cache length ``m`` are *symbolic*: the
module compiles once for arbitrary batch sizes and sequence lengths
(§5.1: "Relax compiles models only once for arbitrary batch sizes and
sequence lengths"), with the KV concatenation producing the ``m + s``
shape relation that memory planning and CUDA-graph keying reason about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, List, NamedTuple, Optional, Tuple

from .. import ops, sym
from ..core import BlockBuilder, TensorAnn
from ..core.expr import Expr, ShapeExpr, const
from ..core.expr import Tuple as TupleExpr
from ..frontend.nn import (
    Embedding,
    ExportedModule,
    LayerNorm,
    Linear,
    Module,
    RMSNorm,
    ShardedExportedModule,
    export_module,
)
from ..frontend.quantize import QuantizedLinear

import numpy as np


@dataclass
class LlamaConfig:
    name: str
    hidden_size: int
    intermediate_size: int
    num_layers: int
    num_heads: int
    num_kv_heads: int
    vocab_size: int
    norm: str = "rms"  # rms | layer
    act: str = "silu"  # silu | gelu
    gated_mlp: bool = True
    rope_theta: float = 10000.0
    attention_bias: bool = False
    tie_embeddings: bool = False
    scale_embeddings: bool = False  # Gemma multiplies by sqrt(hidden)
    parallel_residual: bool = False  # GPT-NeoX style
    context_length: int = 4096
    dtype: str = "f32"
    quantize_bits: Optional[int] = None  # None = full precision
    quantize_group: int = 32

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


# -- the paper's evaluated configurations ------------------------------------------

LLAMA3_8B = LlamaConfig(
    name="Llama3-8B", hidden_size=4096, intermediate_size=14336,
    num_layers=32, num_heads=32, num_kv_heads=8, vocab_size=128256,
    rope_theta=500000.0, context_length=8192, dtype="f16",
)

LLAMA2_7B = LlamaConfig(
    name="Llama2-7B", hidden_size=4096, intermediate_size=11008,
    num_layers=32, num_heads=32, num_kv_heads=32, vocab_size=32000,
    context_length=4096, dtype="f16",
)

GEMMA_7B = LlamaConfig(
    name="Gemma1.1-7B", hidden_size=3072, intermediate_size=24576,
    num_layers=28, num_heads=16, num_kv_heads=16, vocab_size=256000,
    act="gelu", tie_embeddings=True, scale_embeddings=True,
    context_length=8192, dtype="f16",
)

QWEN2_7B = LlamaConfig(
    name="Qwen2-7B", hidden_size=3584, intermediate_size=18944,
    num_layers=28, num_heads=28, num_kv_heads=4, vocab_size=152064,
    attention_bias=True, rope_theta=1000000.0, context_length=8192,
    dtype="f16",
)

PHI3_MINI = LlamaConfig(
    name="Phi3-mini-4k", hidden_size=3072, intermediate_size=8192,
    num_layers=32, num_heads=32, num_kv_heads=32, vocab_size=32064,
    context_length=4096, dtype="f16",
)

REDPAJAMA_3B = LlamaConfig(
    name="RedPajama-3B", hidden_size=2560, intermediate_size=10240,
    num_layers=32, num_heads=32, num_kv_heads=32, vocab_size=50432,
    norm="layer", act="gelu", gated_mlp=False, parallel_residual=True,
    context_length=2048, dtype="f16",
)

TINY_LLAMA = LlamaConfig(
    name="tiny-llama", hidden_size=16, intermediate_size=32,
    num_layers=2, num_heads=2, num_kv_heads=1, vocab_size=32,
    context_length=64, dtype="f32",
)

TINY_NEOX = LlamaConfig(
    name="tiny-neox", hidden_size=16, intermediate_size=32,
    num_layers=2, num_heads=2, num_kv_heads=2, vocab_size=32,
    norm="layer", act="gelu", gated_mlp=False, parallel_residual=True,
    context_length=64, dtype="f32",
)

TINY_GEMMA = LlamaConfig(
    name="tiny-gemma", hidden_size=16, intermediate_size=48,
    num_layers=2, num_heads=2, num_kv_heads=2, vocab_size=32,
    act="gelu", tie_embeddings=True, scale_embeddings=True,
    context_length=64, dtype="f32",
)

TINY_QWEN = LlamaConfig(
    name="tiny-qwen", hidden_size=16, intermediate_size=32,
    num_layers=2, num_heads=4, num_kv_heads=2, vocab_size=32,
    attention_bias=True, context_length=64, dtype="f32",
)

#: Head geometry divisible by a mesh of up to 4 (8 heads, 4 KV heads):
#: the tensor-parallel test/bench config.  TINY_LLAMA's single KV head
#: cannot be head-sharded.
TINY_LLAMA_TP = LlamaConfig(
    name="tiny-llama-tp", hidden_size=32, intermediate_size=64,
    num_layers=2, num_heads=8, num_kv_heads=4, vocab_size=32,
    context_length=64, dtype="f32",
)


def _make_linear(cfg: LlamaConfig, in_f: int, out_f: int, bias: bool = False):
    if cfg.quantize_bits is not None:
        return QuantizedLinear(
            in_f, out_f, bits=cfg.quantize_bits, group_size=cfg.quantize_group,
            dtype=cfg.dtype,
        )
    return Linear(in_f, out_f, bias=bias, dtype=cfg.dtype)


def _make_norm(cfg: LlamaConfig, dim: int):
    if cfg.norm == "rms":
        return RMSNorm(dim, dtype=cfg.dtype)
    return LayerNorm(dim, dtype=cfg.dtype)


def attend_dense(bb: BlockBuilder, q: Expr, k: Expr, v: Expr, k_cache: Expr,
                 v_cache: Expr) -> Tuple[Expr, Expr, Expr]:
    """Grow the contiguous caches by this step's K/V and attend them
    causally; returns ``(attention, grown k cache, grown v cache)``."""
    k_full = bb.emit(ops.concat([k_cache, k], axis=1))
    v_full = bb.emit(ops.concat([v_cache, v], axis=1))
    return bb.emit(ops.attention(q, k_full, v_full, causal=True)), k_full, v_full


def attend_paged(op: Callable[..., Expr], *table_args: Expr):
    """Attend a layer's page pool with one ``ops.paged_*`` call.

    ``table_args`` are the op's arguments between the pools and the
    current K/V (block table, lengths / anchor, ...).  Returns
    ``(attention, k, v)``: the functional IR cannot write the pool in
    place, so this step's new K/V slices go back to the serving engine,
    which writes them into the sequence's pages after the call.
    """

    def attend(bb, q, k, v, k_pages, v_pages):
        return bb.emit(op(q, k_pages, v_pages, *table_args, k, v)), k, v

    return attend


class KVSite(NamedTuple):
    """Where an entry point's keys and values live — the one thing in
    which ``prefill`` / ``decode`` / ``decode_paged`` / ``prefill_paged`` /
    ``verify_paged`` differ; everything else in the stack is shared."""

    #: Rotary phase, as keyword arguments of ``ops.rope``: ``offset=m``
    #: when every sequence shares the cached length ``m``, or
    #: ``offsets=lengths`` when each sequence's rows start at its own
    #: position (ragged decode / verify batches).
    rope: dict
    #: ``attend(bb, q, k, v, k_store, v_store) -> (attention, k_out,
    #: v_out)`` over one layer's cache pair or page-pool pair
    #: (:func:`attend_dense` / :func:`attend_paged`).
    attend: Callable[..., Tuple[Expr, Expr, Expr]]
    #: Feed every position to the LM head instead of only the last.
    all_logits: bool = False


def dense_site(m) -> KVSite:
    """Contiguous caches of shared length ``m`` (``prefill`` / ``decode``)."""
    return KVSite({"offset": m}, attend_dense)


class LlamaAttention(Module):
    def __init__(self, cfg: LlamaConfig):
        h, d, kv = cfg.num_heads, cfg.head_dim, cfg.num_kv_heads
        self.cfg = cfg
        self.q_proj = _make_linear(cfg, cfg.hidden_size, h * d, cfg.attention_bias)
        self.k_proj = _make_linear(cfg, cfg.hidden_size, kv * d, cfg.attention_bias)
        self.v_proj = _make_linear(cfg, cfg.hidden_size, kv * d, cfg.attention_bias)
        self.o_proj = _make_linear(cfg, h * d, cfg.hidden_size)

    def forward(self, bb: BlockBuilder, x: Expr, k_store: Expr, v_store: Expr,
                b, s, site: KVSite) -> Tuple[Expr, Expr, Expr]:
        cfg = self.cfg
        h, d, kv = cfg.num_heads, cfg.head_dim, cfg.num_kv_heads
        q = bb.emit(ops.reshape(self.q_proj.forward(bb, x), ShapeExpr([b, s, h, d])))
        k = bb.emit(ops.reshape(self.k_proj.forward(bb, x), ShapeExpr([b, s, kv, d])))
        v = bb.emit(ops.reshape(self.v_proj.forward(bb, x), ShapeExpr([b, s, kv, d])))
        q = bb.emit(ops.rope(q, theta=cfg.rope_theta, **site.rope))
        k = bb.emit(ops.rope(k, theta=cfg.rope_theta, **site.rope))
        attn, k_out, v_out = site.attend(bb, q, k, v, k_store, v_store)
        attn = bb.emit(ops.reshape(attn, ShapeExpr([b, s, h * d])))
        return self.o_proj.forward(bb, attn), k_out, v_out


class LlamaMLP(Module):
    def __init__(self, cfg: LlamaConfig):
        self.cfg = cfg
        if cfg.gated_mlp:
            self.gate_proj = _make_linear(cfg, cfg.hidden_size, cfg.intermediate_size)
        self.up_proj = _make_linear(cfg, cfg.hidden_size, cfg.intermediate_size)
        self.down_proj = _make_linear(cfg, cfg.intermediate_size, cfg.hidden_size)

    def forward(self, bb: BlockBuilder, x: Expr) -> Expr:
        cfg = self.cfg
        act = ops.silu if cfg.act == "silu" else ops.gelu
        if cfg.gated_mlp:
            gate = bb.emit(act(self.gate_proj.forward(bb, x)))
            up = self.up_proj.forward(bb, x)
            hidden = bb.emit(ops.multiply(gate, up))
        else:
            hidden = bb.emit(act(self.up_proj.forward(bb, x)))
        return self.down_proj.forward(bb, hidden)


class LlamaDecoderLayer(Module):
    def __init__(self, cfg: LlamaConfig):
        self.cfg = cfg
        self.input_norm = _make_norm(cfg, cfg.hidden_size)
        self.attn = LlamaAttention(cfg)
        self.post_norm = _make_norm(cfg, cfg.hidden_size)
        self.mlp = LlamaMLP(cfg)

    def forward(self, bb, x, k_store, v_store, b, s, site: KVSite):
        attn_out, k_out, v_out = self.attn.forward(
            bb, self.input_norm.forward(bb, x), k_store, v_store, b, s, site
        )
        return self._residual(bb, x, attn_out), k_out, v_out

    def _residual(self, bb, x, attn_out):
        if self.cfg.parallel_residual:
            mlp_out = self.mlp.forward(bb, self.post_norm.forward(bb, x))
            x = bb.emit(ops.add(bb.emit(ops.add(x, attn_out)), mlp_out))
        else:
            x = bb.emit(ops.add(x, attn_out))
            mlp_out = self.mlp.forward(bb, self.post_norm.forward(bb, x))
            x = bb.emit(ops.add(x, mlp_out))
        return x


class LlamaForCausalLM(Module):
    def __init__(self, cfg: LlamaConfig):
        self.cfg = cfg
        self.embed = Embedding(cfg.vocab_size, cfg.hidden_size, dtype=cfg.dtype)
        self.layers = [LlamaDecoderLayer(cfg) for _ in range(cfg.num_layers)]
        self.final_norm = _make_norm(cfg, cfg.hidden_size)
        if not cfg.tie_embeddings:
            self.lm_head = _make_linear(cfg, cfg.hidden_size, cfg.vocab_size)

    def forward(self, bb: BlockBuilder, tokens: Expr, caches: List[Expr],
                b, s, site: KVSite) -> Expr:
        cfg = self.cfg
        x = self.embed.forward(bb, tokens)  # (b, s, hidden)
        if cfg.scale_embeddings:
            scale = const(np.asarray(math.sqrt(cfg.hidden_size)), cfg.dtype)
            x = bb.emit(ops.multiply(x, scale))
        return self.forward_hidden(bb, x, caches, b, s, site)

    def forward_hidden(self, bb: BlockBuilder, x: Expr, caches: List[Expr],
                       b, s, site: KVSite) -> Expr:
        """Run the decoder stack from hidden states (LLaVA feeds image
        embeddings here directly).

        ``caches`` holds one (k, v) pair per layer — contiguous caches or
        page pools, whichever ``site`` attends.  The result tuple is
        ``(logits, k_out_0, v_out_0, ...)``: the grown caches for a dense
        site, this call's new K/V slices for a paged one.
        """
        outs: List[Expr] = []
        for layer, (k_store, v_store) in zip(
            self.layers, zip(caches[0::2], caches[1::2])
        ):
            x, k_out, v_out = layer.forward(bb, x, k_store, v_store, b, s, site)
            outs.extend([k_out, v_out])

        x = self.final_norm.forward(bb, x)
        if not site.all_logits:
            # Only the last position feeds the LM head (per-token decode cost).
            last_idx = bb.emit(ops.arange(1, start=s - 1, dtype="i64"))
            x = bb.emit(ops.take(x, last_idx, axis=1))  # (b, 1, hidden)
        return bb.emit(TupleExpr([self._logits(bb, x)] + outs))

    def _logits(self, bb: BlockBuilder, last: Expr) -> Expr:
        cfg = self.cfg
        if cfg.tie_embeddings:
            logits = bb.emit(
                ops.matmul(last, self.embed.weight.var, transpose_b=True)
            )
        else:
            logits = self.lm_head.forward(bb, last)
        if cfg.dtype != "f32":
            logits = bb.emit(ops.astype(logits, "f32"))
        return logits


def _cache_annotations(cfg: LlamaConfig, b, m) -> dict:
    anns = {}
    for layer in range(cfg.num_layers):
        shape = (b, m, cfg.num_kv_heads, cfg.head_dim)
        anns[f"k_cache_{layer}"] = TensorAnn(shape, cfg.dtype)
        anns[f"v_cache_{layer}"] = TensorAnn(shape, cfg.dtype)
    return anns


def _page_annotations(cfg: LlamaConfig, page_size: int) -> dict:
    # The page pool is shared by every sequence; the pool size ``p`` is a
    # symbolic dim so one compile serves any VRAM budget.
    anns = {}
    for layer in range(cfg.num_layers):
        shape = ("p", page_size, cfg.num_kv_heads, cfg.head_dim)
        anns[f"k_pages_{layer}"] = TensorAnn(shape, cfg.dtype)
        anns[f"v_pages_{layer}"] = TensorAnn(shape, cfg.dtype)
    return anns


def build_llama(cfg: LlamaConfig,
                page_size: Optional[int] = None,
                tp: int = 1) -> ExportedModule:
    """Export prefill + decode functions for a decoder-only config.

    With ``page_size`` set, a third function ``decode_paged`` is exported:
    single-token decode over a paged KV pool with per-sequence block tables
    and cache lengths (the serving engine's ragged-batch entry point).

    With ``tp > 1`` the export is run through the sharding pass pair
    under a Megatron-style plan (column-parallel q/k/v and gate/up,
    row-parallel o/down, head-sharded KV) and comes back as a
    :class:`~repro.frontend.nn.ShardedExportedModule`: one SPMD module
    whose per-rank weights/pools are ``1/tp`` slices.  ``tp=1`` returns
    the exact unsharded export, untouched.
    """
    model = LlamaForCausalLM(cfg)

    def prefill(bb: BlockBuilder, tokens, *caches):
        b = bb.shape_var("b")
        s = bb.shape_var("s")
        m = bb.shape_var("m")
        return model.forward(bb, tokens, list(caches), b, s, dense_site(m))

    def decode(bb: BlockBuilder, tokens, *caches):
        b = bb.shape_var("b")
        m = bb.shape_var("m")
        return model.forward(
            bb, tokens, list(caches), b, sym.IntImm(1), dense_site(m)
        )

    spec = {
        "prefill": (
            {
                "tokens": TensorAnn(("b", "s"), "i64"),
                **_cache_annotations(cfg, "b", "m"),
            },
            prefill,
        ),
        "decode": (
            {
                "tokens": TensorAnn(("b", 1), "i64"),
                **_cache_annotations(cfg, "b", "m"),
            },
            decode,
        ),
    }
    if page_size is not None:
        def decode_paged(bb: BlockBuilder, tokens, block_table, lengths,
                         *caches):
            b = bb.shape_var("b")
            # Each sequence's current token sits at its own position: the
            # per-sequence cache length drives the rotary phase.  With
            # s == 1 every position is the last.
            site = KVSite(
                {"offsets": lengths},
                attend_paged(ops.paged_attention, block_table, lengths),
                all_logits=True,
            )
            return model.forward(
                bb, tokens, list(caches), b, sym.IntImm(1), site
            )

        spec["decode_paged"] = (
            {
                "tokens": TensorAnn(("b", 1), "i64"),
                "block_table": TensorAnn(("b", "w"), "i64"),
                "lengths": TensorAnn(("b",), "i64"),
                **_page_annotations(cfg, page_size),
            },
            decode_paged,
        )

        def prefill_paged(bb: BlockBuilder, tokens, block_table, past,
                          *caches):
            b = bb.shape_var("b")
            s = bb.shape_var("s")
            m = bb.shape_var("m")
            # All sequences in the chunk batch share cached length m (the
            # engine issues one call per sequence chunk), so the rotary
            # offsets match dense prefill and paged_prefill is bit-exact
            # against dense attention: outputs equal dense prefill's.
            site = KVSite(
                {"offset": m},
                attend_paged(ops.paged_prefill, block_table, past),
            )
            return model.forward(bb, tokens, list(caches), b, s, site)

        # ``past`` is a rank-1 anchor whose *length* is the shared cached
        # context m of every sequence in the batch — the VM binds m from
        # its shape exactly as dense prefill binds it from cache shapes.
        spec["prefill_paged"] = (
            {
                "tokens": TensorAnn(("b", "s"), "i64"),
                "block_table": TensorAnn(("b", "w"), "i64"),
                "past": TensorAnn(("m",), "i64"),
                **_page_annotations(cfg, page_size),
            },
            prefill_paged,
        )

        def verify_paged(bb: BlockBuilder, tokens, block_table, lengths,
                         spec_lens, *caches):
            b = bb.shape_var("b")
            s = bb.shape_var("s")
            # Row i of sequence bi sits at absolute position
            # lengths[bi] + i — what rotary's per-sequence offsets mode
            # computes.  Every position feeds the LM head: the engine
            # judges the draft's proposal at each speculative position,
            # then writes only the accepted prefix of the new K/V into
            # the pool and drops the rejected tail (rollback).
            site = KVSite(
                {"offsets": lengths},
                attend_paged(ops.paged_verify, block_table, lengths,
                             spec_lens),
                all_logits=True,
            )
            return model.forward(bb, tokens, list(caches), b, s, site)

        # Ragged multi-token decode: tokens is padded to the batch's max
        # speculative width s, spec_lens carries each sequence's valid
        # width (s_i <= s), and lengths the committed cache length the
        # rows start at.  Logits come back for every position.
        spec["verify_paged"] = (
            {
                "tokens": TensorAnn(("b", "s"), "i64"),
                "block_table": TensorAnn(("b", "w"), "i64"),
                "lengths": TensorAnn(("b",), "i64"),
                "spec_lens": TensorAnn(("b",), "i64"),
                **_page_annotations(cfg, page_size),
            },
            verify_paged,
        )
    exported = export_module(model, spec)
    if tp == 1:
        return exported

    from ..dist.shard import make_llama_tp_plan
    from ..transform import LowerSharding, PropagateSharding

    plan = make_llama_tp_plan(cfg, tp)
    mod = PropagateSharding(plan)(exported.mod)
    mod = LowerSharding(plan)(mod)
    return ShardedExportedModule(mod, model, exported.param_order, plan)


def draft_config(cfg: LlamaConfig) -> LlamaConfig:
    """Derive the paired draft model for speculative decoding.

    A thin single-layer sibling sharing the target's vocabulary, page
    layout-relevant head geometry and context — small enough that a
    draft step costs a fraction of a target decode on the analytical
    clock, which is where the speculative TPOT win comes from.  The
    name is derived from the target's, so the (target, draft) pair
    forms one compile-cache entry per device.
    """
    return replace(
        cfg,
        name=f"{cfg.name}-draft",
        hidden_size=max(8, cfg.hidden_size // 4),
        intermediate_size=max(16, cfg.intermediate_size // 4),
        num_layers=1,
        num_heads=1,
        num_kv_heads=1,
    )


TINY_LLAMA_DRAFT = draft_config(TINY_LLAMA)


def empty_caches(cfg: LlamaConfig, batch: int, concrete: bool):
    """Zero-length KV caches to start generation."""
    from ..runtime import NDArray

    caches = []
    for _ in range(cfg.num_layers):
        shape = (batch, 0, cfg.num_kv_heads, cfg.head_dim)
        for _kv in range(2):
            if concrete:
                from .. import dtypes

                caches.append(
                    NDArray.from_numpy(
                        np.zeros(shape, dtype=dtypes.to_numpy(cfg.dtype))
                    )
                )
            else:
                caches.append(NDArray.abstract(shape, cfg.dtype))
    return caches
