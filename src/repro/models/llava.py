"""LLaVA-style large multimodal model (paper §5.4, Fig. 20).

LLaVA [28] couples a pre-trained CLIP ViT visual encoder with a Vicuna
LLM through a two-layer MLP projector.  Here the vision tower is a ViT
encoder over pre-extracted image patches (the patchify convolution is a
linear projection of flattened patches — which is exactly what a stride-14
14x14 convolution is), the projector maps visual tokens into the LLM
embedding space, and the language model is the Vicuna-class Llama from
:mod:`repro.models.llama` with an extra ``prefill_embeds`` entry point that
accepts image embeddings in place of token embeddings.

Exported functions:

* ``encode_image(patches (b, np, patch_dim))`` → visual embeddings
  ``(b, np, llm_hidden)``;
* ``prefill_embeds(embeds, caches)`` → logits + caches (image prefill);
* ``prefill`` / ``decode`` — the standard LLM functions (text + generation).
"""

from __future__ import annotations

from dataclasses import dataclass
from .. import ops, sym
from ..core import BlockBuilder, TensorAnn
from ..core.expr import ShapeExpr
from ..frontend.nn import (
    Embedding,
    ExportedModule,
    LayerNorm,
    Linear,
    Module,
    export_module,
)
from .llama import (
    LLAMA2_7B,
    TINY_LLAMA,
    LlamaConfig,
    LlamaForCausalLM,
    _cache_annotations,
    dense_site,
)


@dataclass
class VisionConfig:
    hidden_size: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    num_patches: int
    patch_dim: int  # flattened patch pixels (14*14*3 for CLIP ViT-L/14)
    dtype: str = "f32"

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


@dataclass
class LlavaConfig:
    name: str
    vision: VisionConfig
    llm: LlamaConfig


CLIP_VIT_L14 = VisionConfig(
    hidden_size=1024, num_layers=24, num_heads=16, ffn_dim=4096,
    num_patches=576, patch_dim=14 * 14 * 3, dtype="f16",
)

LLAVA_7B = LlavaConfig(name="LLaVA-7B (CLIP ViT-L/14 + Vicuna-7B)",
                       vision=CLIP_VIT_L14, llm=LLAMA2_7B)

TINY_LLAVA = LlavaConfig(
    name="tiny-llava",
    vision=VisionConfig(hidden_size=16, num_layers=2, num_heads=2,
                        ffn_dim=32, num_patches=4, patch_dim=12),
    llm=TINY_LLAMA,
)


class ViTLayer(Module):
    def __init__(self, cfg: VisionConfig):
        self.cfg = cfg
        d = cfg.hidden_size
        self.norm1 = LayerNorm(d, dtype=cfg.dtype)
        self.q_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.k_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.v_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.out_proj = Linear(d, d, bias=True, dtype=cfg.dtype)
        self.norm2 = LayerNorm(d, dtype=cfg.dtype)
        self.fc1 = Linear(d, cfg.ffn_dim, bias=True, dtype=cfg.dtype)
        self.fc2 = Linear(cfg.ffn_dim, d, bias=True, dtype=cfg.dtype)

    def forward(self, bb, x, b, t):
        cfg = self.cfg
        h, d = cfg.num_heads, cfg.head_dim
        normed = self.norm1.forward(bb, x)
        q = bb.emit(ops.reshape(self.q_proj.forward(bb, normed), ShapeExpr([b, t, h, d])))
        k = bb.emit(ops.reshape(self.k_proj.forward(bb, normed), ShapeExpr([b, t, h, d])))
        v = bb.emit(ops.reshape(self.v_proj.forward(bb, normed), ShapeExpr([b, t, h, d])))
        attn = bb.emit(ops.attention(q, k, v, causal=False))
        attn = bb.emit(ops.reshape(attn, ShapeExpr([b, t, cfg.hidden_size])))
        x = bb.emit(ops.add(x, self.out_proj.forward(bb, attn)))
        mlp = self.fc2.forward(
            bb, bb.emit(ops.gelu(self.fc1.forward(bb, self.norm2.forward(bb, x))))
        )
        return bb.emit(ops.add(x, mlp))


class VisionTower(Module):
    def __init__(self, cfg: VisionConfig):
        self.cfg = cfg
        self.patch_embed = Linear(cfg.patch_dim, cfg.hidden_size, bias=True,
                                  dtype=cfg.dtype)
        self.pos_embed = Embedding(cfg.num_patches, cfg.hidden_size, dtype=cfg.dtype)
        self.layers = [ViTLayer(cfg) for _ in range(cfg.num_layers)]
        self.post_norm = LayerNorm(cfg.hidden_size, dtype=cfg.dtype)

    def forward(self, bb, patches, b, t):
        x = self.patch_embed.forward(bb, patches)
        pos_ids = bb.emit(ops.arange(t, dtype="i64"))
        x = bb.emit(ops.add(x, self.pos_embed.forward(bb, pos_ids)))
        for layer in self.layers:
            x = layer.forward(bb, x, b, t)
        return self.post_norm.forward(bb, x)


class LlavaProjector(Module):
    def __init__(self, vision_dim: int, llm_dim: int, dtype: str):
        self.fc1 = Linear(vision_dim, llm_dim, bias=True, dtype=dtype)
        self.fc2 = Linear(llm_dim, llm_dim, bias=True, dtype=dtype)

    def forward(self, bb, x):
        return self.fc2.forward(bb, bb.emit(ops.gelu(self.fc1.forward(bb, x))))


class LlavaModel(Module):
    def __init__(self, cfg: LlavaConfig):
        self.cfg = cfg
        self.vision = VisionTower(cfg.vision)
        self.projector = LlavaProjector(
            cfg.vision.hidden_size, cfg.llm.hidden_size, cfg.llm.dtype
        )
        self.llm = LlamaForCausalLM(cfg.llm)


def build_llava(cfg: LlavaConfig) -> ExportedModule:
    model = LlavaModel(cfg)
    llm_cfg = cfg.llm

    def encode_image(bb: BlockBuilder, patches):
        b = bb.shape_var("b")
        t = bb.shape_var("t")
        feats = model.vision.forward(bb, patches, b, t)
        if cfg.vision.dtype != llm_cfg.dtype:
            feats = bb.emit(ops.astype(feats, llm_cfg.dtype))
        return model.projector.forward(bb, feats)

    def prefill_embeds(bb: BlockBuilder, embeds, *caches):
        b = bb.shape_var("b")
        s = bb.shape_var("s")
        m = bb.shape_var("m")
        return model.llm.forward_hidden(
            bb, embeds, list(caches), b, s, dense_site(m)
        )

    def prefill(bb: BlockBuilder, tokens, *caches):
        b = bb.shape_var("b")
        s = bb.shape_var("s")
        m = bb.shape_var("m")
        return model.llm.forward(bb, tokens, list(caches), b, s, dense_site(m))

    def decode(bb: BlockBuilder, tokens, *caches):
        b = bb.shape_var("b")
        m = bb.shape_var("m")
        return model.llm.forward(
            bb, tokens, list(caches), b, sym.IntImm(1), dense_site(m)
        )

    spec = {
        "encode_image": (
            {"patches": TensorAnn(("b", "t", cfg.vision.patch_dim),
                                  cfg.vision.dtype)},
            encode_image,
        ),
        "prefill_embeds": (
            {
                "embeds": TensorAnn(("b", "s", llm_cfg.hidden_size), llm_cfg.dtype),
                **_cache_annotations(llm_cfg, "b", "m"),
            },
            prefill_embeds,
        ),
        "prefill": (
            {
                "tokens": TensorAnn(("b", "s"), "i64"),
                **_cache_annotations(llm_cfg, "b", "m"),
            },
            prefill,
        ),
        "decode": (
            {
                "tokens": TensorAnn(("b", 1), "i64"),
                **_cache_annotations(llm_cfg, "b", "m"),
            },
            decode,
        ),
    }
    return export_module(model, spec)
