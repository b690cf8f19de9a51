"""Whisper-style encoder-decoder ASR model (paper §5.4, Fig. 19).

Architecture follows Whisper [32]: a transformer audio encoder over mel
spectrogram frames and a transformer text decoder with causal self-
attention (KV-cached) plus cross-attention over the encoder states.

Substitution (DESIGN.md §2): Whisper's two stride-2 Conv1d frontend layers
are replaced by frame stacking (reshape pairs of frames) followed by a
linear projection — the same 2x temporal downsampling and the same
downstream tensor shapes, without a convolution operator.  The decode loop,
cross-attention and KV-cache dynamics (what Fig. 19 measures) are
unaffected.

Exported functions:

* ``encode(mel (b, frames, n_mel))`` → per-layer cross-attention K/V
  (computed once per utterance, as real Whisper does);
* ``decode(tokens (b, 1), self K/V caches, cross K/V)`` → logits + updated
  self caches.

With ``build_whisper(cfg, page_size=...)`` the serving entry points are
exported as well: ``encode_chunk`` (mel frames → encoder hidden states),
``cross_project`` (encoder states → per-layer cross K/V slices the engine
writes into pool pages, once, never appended) and ``decode_paged`` (self-
attention KV gathered from the shared page pool via ``paged_prefill``,
cross-attention over pool-resident encoder K/V via
``paged_cross_attention``) — asserted bit-identical to the dense decode
path in ``tests/models/test_whisper_paged.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from .. import ops, sym
from ..core import BlockBuilder, TensorAnn
from ..core.expr import Expr, ShapeExpr
from ..core.expr import Tuple as TupleExpr
from ..frontend.nn import (
    Embedding,
    ExportedModule,
    LayerNorm,
    Linear,
    Module,
    export_module,
)
from .llama import attend_dense, attend_paged


@dataclass
class WhisperConfig:
    name: str
    d_model: int
    encoder_layers: int
    decoder_layers: int
    num_heads: int
    ffn_dim: int
    vocab_size: int
    n_mel: int
    max_frames: int  # mel frames for 30 s of audio
    max_target: int = 448
    dtype: str = "f32"

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    @property
    def enc_positions(self) -> int:
        return self.max_frames // 2  # 2x frontend downsampling


WHISPER_LARGE_V3 = WhisperConfig(
    name="Whisper-large-v3", d_model=1280, encoder_layers=32,
    decoder_layers=32, num_heads=20, ffn_dim=5120, vocab_size=51866,
    n_mel=128, max_frames=3000, dtype="f16",
)

TINY_WHISPER = WhisperConfig(
    name="tiny-whisper", d_model=16, encoder_layers=2, decoder_layers=2,
    num_heads=2, ffn_dim=32, vocab_size=48, n_mel=8, max_frames=12,
    max_target=16,
)


class WhisperKVSite(NamedTuple):
    """Where the decoder's two KV streams live — all that ``decode`` and
    ``decode_paged`` differ in (cf. :class:`repro.models.llama.KVSite`)."""

    #: Self stream: ``attend_dense`` grows the contiguous caches;
    #: ``attend_paged`` with ``paged_prefill`` (bit-exact against it)
    #: gathers from the page pool and returns the new K/V slices.
    attend: Callable[..., Tuple[Expr, Expr, Expr]]
    #: Cross stream: ``cross(q, cross_k, cross_v)`` is the attention call
    #: over the encoder K/V, contiguous or pool-resident.
    cross: Callable[[Expr, Expr, Expr], Expr]


DENSE_SITE = WhisperKVSite(
    attend_dense, lambda q, k, v: ops.attention(q, k, v, causal=False)
)


class WhisperMLP(Module):
    def __init__(self, cfg: WhisperConfig):
        self.fc1 = Linear(cfg.d_model, cfg.ffn_dim, bias=True, dtype=cfg.dtype)
        self.fc2 = Linear(cfg.ffn_dim, cfg.d_model, bias=True, dtype=cfg.dtype)

    def forward(self, bb, x):
        return self.fc2.forward(bb, bb.emit(ops.gelu(self.fc1.forward(bb, x))))


class WhisperSelfAttention(Module):
    def __init__(self, cfg: WhisperConfig):
        self.cfg = cfg
        d = cfg.d_model
        self.q_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.k_proj = Linear(d, d, bias=False, dtype=cfg.dtype)
        self.v_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.out_proj = Linear(d, d, bias=True, dtype=cfg.dtype)

    def project_qkv(self, bb, x, b, s):
        cfg = self.cfg
        h, d = cfg.num_heads, cfg.head_dim
        q = bb.emit(ops.reshape(self.q_proj.forward(bb, x), ShapeExpr([b, s, h, d])))
        k = bb.emit(ops.reshape(self.k_proj.forward(bb, x), ShapeExpr([b, s, h, d])))
        v = bb.emit(ops.reshape(self.v_proj.forward(bb, x), ShapeExpr([b, s, h, d])))
        return q, k, v

    def forward_encoder(self, bb, x, b, s):
        cfg = self.cfg
        q, k, v = self.project_qkv(bb, x, b, s)
        attn = bb.emit(ops.attention(q, k, v, causal=False))
        attn = bb.emit(ops.reshape(attn, ShapeExpr([b, s, cfg.d_model])))
        return self.out_proj.forward(bb, attn)

    def forward_decoder(self, bb, x, k_store, v_store, b, s, site):
        cfg = self.cfg
        q, k, v = self.project_qkv(bb, x, b, s)
        attn, k_out, v_out = site.attend(bb, q, k, v, k_store, v_store)
        attn = bb.emit(ops.reshape(attn, ShapeExpr([b, s, cfg.d_model])))
        return self.out_proj.forward(bb, attn), k_out, v_out


class WhisperCrossAttention(Module):
    def __init__(self, cfg: WhisperConfig):
        self.cfg = cfg
        d = cfg.d_model
        self.q_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.k_proj = Linear(d, d, bias=False, dtype=cfg.dtype)
        self.v_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.out_proj = Linear(d, d, bias=True, dtype=cfg.dtype)

    def project_kv(self, bb, enc_states, b, t):
        cfg = self.cfg
        h, d = cfg.num_heads, cfg.head_dim
        k = bb.emit(ops.reshape(self.k_proj.forward(bb, enc_states),
                                ShapeExpr([b, t, h, d])))
        v = bb.emit(ops.reshape(self.v_proj.forward(bb, enc_states),
                                ShapeExpr([b, t, h, d])))
        return k, v

    def forward(self, bb, x, cross_k, cross_v, b, s, site):
        cfg = self.cfg
        h, d = cfg.num_heads, cfg.head_dim
        q = bb.emit(ops.reshape(self.q_proj.forward(bb, x), ShapeExpr([b, s, h, d])))
        attn = bb.emit(site.cross(q, cross_k, cross_v))
        attn = bb.emit(ops.reshape(attn, ShapeExpr([b, s, cfg.d_model])))
        return self.out_proj.forward(bb, attn)


class WhisperEncoderLayer(Module):
    def __init__(self, cfg: WhisperConfig):
        self.norm1 = LayerNorm(cfg.d_model, dtype=cfg.dtype)
        self.attn = WhisperSelfAttention(cfg)
        self.norm2 = LayerNorm(cfg.d_model, dtype=cfg.dtype)
        self.mlp = WhisperMLP(cfg)

    def forward(self, bb, x, b, s):
        attn = self.attn.forward_encoder(bb, self.norm1.forward(bb, x), b, s)
        x = bb.emit(ops.add(x, attn))
        mlp = self.mlp.forward(bb, self.norm2.forward(bb, x))
        return bb.emit(ops.add(x, mlp))


class WhisperDecoderLayer(Module):
    def __init__(self, cfg: WhisperConfig):
        self.norm1 = LayerNorm(cfg.d_model, dtype=cfg.dtype)
        self.self_attn = WhisperSelfAttention(cfg)
        self.norm2 = LayerNorm(cfg.d_model, dtype=cfg.dtype)
        self.cross_attn = WhisperCrossAttention(cfg)
        self.norm3 = LayerNorm(cfg.d_model, dtype=cfg.dtype)
        self.mlp = WhisperMLP(cfg)

    def forward(self, bb, x, k_store, v_store, cross_k, cross_v, b, s, site):
        attn, k_out, v_out = self.self_attn.forward_decoder(
            bb, self.norm1.forward(bb, x), k_store, v_store, b, s, site
        )
        x = bb.emit(ops.add(x, attn))
        cross = self.cross_attn.forward(
            bb, self.norm2.forward(bb, x), cross_k, cross_v, b, s, site
        )
        x = bb.emit(ops.add(x, cross))
        mlp = self.mlp.forward(bb, self.norm3.forward(bb, x))
        return bb.emit(ops.add(x, mlp)), k_out, v_out


class WhisperModel(Module):
    def __init__(self, cfg: WhisperConfig):
        self.cfg = cfg
        # Frontend substitution: frame-stack + linear replaces Conv1d x2.
        self.frontend = Linear(2 * cfg.n_mel, cfg.d_model, bias=True, dtype=cfg.dtype)
        self.enc_pos = Embedding(cfg.enc_positions, cfg.d_model, dtype=cfg.dtype)
        self.encoder = [WhisperEncoderLayer(cfg) for _ in range(cfg.encoder_layers)]
        self.enc_norm = LayerNorm(cfg.d_model, dtype=cfg.dtype)

        self.token_embed = Embedding(cfg.vocab_size, cfg.d_model, dtype=cfg.dtype)
        self.dec_pos = Embedding(cfg.max_target, cfg.d_model, dtype=cfg.dtype)
        self.decoder = [WhisperDecoderLayer(cfg) for _ in range(cfg.decoder_layers)]
        self.dec_norm = LayerNorm(cfg.d_model, dtype=cfg.dtype)

    # -- encoder ------------------------------------------------------------------

    def encode_hidden(self, bb: BlockBuilder, mel: Expr, b, frames) -> Expr:
        """Frontend + encoder stack: mel frames → hidden states (b, t, d)."""
        cfg = self.cfg
        t = sym.simplify(frames // 2)
        stacked = bb.emit(ops.reshape(mel, ShapeExpr([b, t, 2 * cfg.n_mel])))
        x = self.frontend.forward(bb, stacked)
        pos_ids = bb.emit(ops.arange(t, dtype="i64"))
        pos = self.enc_pos.forward(bb, pos_ids)  # (t, d)
        x = bb.emit(ops.add(x, pos))
        for layer in self.encoder:
            x = layer.forward(bb, x, b, t)
        return self.enc_norm.forward(bb, x)

    def cross_project(self, bb: BlockBuilder, x: Expr, b, t) -> Expr:
        """Per-layer cross-attention K/V slices from encoder states."""
        outputs: List[Expr] = []
        for layer in self.decoder:
            ck, cv = layer.cross_attn.project_kv(bb, x, b, t)
            outputs.extend([ck, cv])
        return bb.emit(TupleExpr(outputs))

    def encode(self, bb: BlockBuilder, mel: Expr, b, frames) -> Expr:
        t = sym.simplify(frames // 2)
        x = self.encode_hidden(bb, mel, b, frames)
        # Precompute per-layer cross-attention K/V from the encoder states.
        return self.cross_project(bb, x, b, t)

    # -- decoder -------------------------------------------------------------------

    def decode(self, bb: BlockBuilder, tokens: Expr, self_kv: List[Expr],
               cross_kv: List[Expr], b, s, m, site: WhisperKVSite) -> Expr:
        """Decoder stack over one (k, v) pair per layer for each stream.

        Dense: ``self_kv`` are the growing caches, ``cross_kv`` the
        contiguous encoder K/V, and the result carries the grown caches.
        Paged: both are the *same* per-layer page pools, addressed by
        separate block tables inside ``site`` (the self stream grows; the
        cross stream was written once by ``cross_project`` and never
        appends), and the result carries the new self K/V slices.  Same
        ops either way, so paged is bit-exact.
        """
        cfg = self.cfg
        x = self.token_embed.forward(bb, tokens)
        pos_ids = bb.emit(ops.arange(s, start=m, dtype="i64"))
        pos = self.dec_pos.forward(bb, pos_ids)
        x = bb.emit(ops.add(x, pos))
        outs: List[Expr] = []
        for i, layer in enumerate(self.decoder):
            x, k_out, v_out = layer.forward(
                bb, x, self_kv[2 * i], self_kv[2 * i + 1],
                cross_kv[2 * i], cross_kv[2 * i + 1], b, s, site,
            )
            outs.extend([k_out, v_out])
        x = self.dec_norm.forward(bb, x)
        last_idx = bb.emit(ops.arange(1, start=s - 1, dtype="i64"))
        last = bb.emit(ops.take(x, last_idx, axis=1))
        logits = bb.emit(
            ops.matmul(last, self.token_embed.weight.var, transpose_b=True)
        )
        if cfg.dtype != "f32":
            logits = bb.emit(ops.astype(logits, "f32"))
        return bb.emit(TupleExpr([logits] + outs))


def build_whisper(cfg: WhisperConfig,
                  page_size: Optional[int] = None) -> ExportedModule:
    model = WhisperModel(cfg)
    h, d = cfg.num_heads, cfg.head_dim

    def encode(bb: BlockBuilder, mel):
        b = bb.shape_var("b")
        frames = bb.shape_var("f")
        return model.encode(bb, mel, b, frames)

    def decode(bb: BlockBuilder, tokens, *rest):
        b = bb.shape_var("b")
        m = bb.shape_var("m")
        n_dec = cfg.decoder_layers
        self_caches = list(rest[: 2 * n_dec])
        cross_kv = list(rest[2 * n_dec:])
        return model.decode(
            bb, tokens, self_caches, cross_kv, b, sym.IntImm(1), m, DENSE_SITE
        )

    decode_inputs = {"tokens": TensorAnn(("b", 1), "i64")}
    for i in range(cfg.decoder_layers):
        decode_inputs[f"k_cache_{i}"] = TensorAnn(("b", "m", h, d), cfg.dtype)
        decode_inputs[f"v_cache_{i}"] = TensorAnn(("b", "m", h, d), cfg.dtype)
    for i in range(cfg.decoder_layers):
        decode_inputs[f"cross_k_{i}"] = TensorAnn(("b", "t", h, d), cfg.dtype)
        decode_inputs[f"cross_v_{i}"] = TensorAnn(("b", "t", h, d), cfg.dtype)

    spec = {
        "encode": ({"mel": TensorAnn(("b", "f", cfg.n_mel), cfg.dtype)}, encode),
        "decode": (decode_inputs, decode),
    }

    if page_size is not None:
        def encode_chunk(bb: BlockBuilder, mel):
            b = bb.shape_var("b")
            frames = bb.shape_var("f")
            return model.encode_hidden(bb, mel, b, frames)

        def cross_project(bb: BlockBuilder, enc_states):
            b = bb.shape_var("b")
            t = bb.shape_var("t")
            return model.cross_project(bb, enc_states, b, t)

        def decode_paged(bb: BlockBuilder, tokens, block_table, past,
                         cross_table, enc, *pages):
            b = bb.shape_var("b")
            m = bb.shape_var("m")
            # block_table / cross_table address the self and cross
            # streams of the same per-layer pools.
            site = WhisperKVSite(
                attend_paged(ops.paged_prefill, block_table, past),
                lambda q, k_pages, v_pages: ops.paged_cross_attention(
                    q, k_pages, v_pages, cross_table, enc
                ),
            )
            return model.decode(
                bb, tokens, list(pages), list(pages), b, sym.IntImm(1), m,
                site,
            )

        paged_inputs = {
            "tokens": TensorAnn(("b", 1), "i64"),
            "block_table": TensorAnn(("b", "w"), "i64"),
            # Rank-1 anchors: lengths bind the cached self-context m and
            # the encoder context t at the function boundary.
            "past": TensorAnn(("m",), "i64"),
            "cross_table": TensorAnn(("b", "u"), "i64"),
            "enc": TensorAnn(("t",), "i64"),
        }
        for i in range(cfg.decoder_layers):
            shape = ("p", page_size, h, d)
            paged_inputs[f"k_pages_{i}"] = TensorAnn(shape, cfg.dtype)
            paged_inputs[f"v_pages_{i}"] = TensorAnn(shape, cfg.dtype)

        spec["encode_chunk"] = (
            {"mel": TensorAnn(("b", "f", cfg.n_mel), cfg.dtype)},
            encode_chunk,
        )
        spec["cross_project"] = (
            {"enc_states": TensorAnn(("b", "t", cfg.d_model), cfg.dtype)},
            cross_project,
        )
        spec["decode_paged"] = (paged_inputs, decode_paged)

    return export_module(model, spec)
