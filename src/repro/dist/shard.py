"""Sharding specifications and the tensor-parallel plan for ``build_llama``.

A :class:`ShardSpec` describes how one logical tensor is placed on a
1-d device mesh of ``world`` shards: replicated (every shard holds the
full tensor) or split (each shard holds a contiguous ``1/world`` chunk
along one dim).  Specs ride on :class:`~repro.core.annotations.TensorAnn`
as the optional ``shard`` field, so after ``PropagateSharding`` the
placement of every intermediate is visible struct info — printable,
checkable, and consumed by ``LowerSharding`` exactly like shapes are
consumed by memory planning.

``Partial`` marks a value that exists on every shard as an *unreduced
partial sum* (the output of a row-parallel matmul): mathematically the
logical value is the elementwise sum over shards.  Propagation produces
it; lowering must eliminate it (insert an all-reduce) before any shard
consumes the value as if it were whole.

:func:`make_llama_tp_plan` is the classic Megatron-LM placement for the
decoder stack: column-parallel QKV / gate / up projections, head-sharded
attention (and paged KV pools), row-parallel output / down projections —
one all-reduce per attention block and one per MLP per layer, nothing
else on the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class ShardSpec:
    """Placement of one tensor on the 1-d mesh.

    ``dim is None`` means replicated; otherwise the tensor is split into
    contiguous equal chunks along ``dim``.  ``partial`` marks unreduced
    row-parallel partial sums (always full-shaped, never split).
    """

    dim: Optional[int] = None
    partial: bool = False

    def __post_init__(self):
        if self.partial and self.dim is not None:
            raise ValueError("a partial-sum value cannot also be split")

    @property
    def is_replicated(self) -> bool:
        return self.dim is None and not self.partial

    @property
    def is_split(self) -> bool:
        return self.dim is not None

    def __repr__(self) -> str:
        if self.partial:
            return "Shard(partial)"
        if self.dim is None:
            return "Shard(R)"
        return f"Shard(S{self.dim})"


def Replicated() -> ShardSpec:
    return ShardSpec()


def Split(dim: int) -> ShardSpec:
    if dim < 0:
        raise ValueError("split dim must be non-negative")
    return ShardSpec(dim=dim)


Partial = ShardSpec(partial=True)


@dataclass(frozen=True)
class ShardingPlan:
    """Mesh size plus per-parameter placement for one exported module.

    ``params`` maps *function parameter names* (the nn-frontend's
    ``p_<path>`` names and user inputs like ``k_pages_0``) to specs;
    anything absent is replicated.  Plans are frozen and hashable so
    they can participate in compile-cache keys.
    """

    world: int
    params: Tuple[Tuple[str, ShardSpec], ...]

    def __post_init__(self):
        if self.world < 1:
            raise ValueError(f"world must be >= 1, got {self.world}")

    @staticmethod
    def of(world: int, params: Dict[str, ShardSpec]) -> "ShardingPlan":
        return ShardingPlan(world, tuple(sorted(params.items())))

    def spec_for(self, name: str) -> ShardSpec:
        for pname, spec in self.params:
            if pname == name:
                return spec
        return ShardSpec()


def make_llama_tp_plan(cfg, world: int) -> ShardingPlan:
    """Megatron-style tensor-parallel plan for a decoder-only config.

    Embedding, norms and the LM head stay replicated (their inputs and
    outputs are replicated, so logits come out whole on every shard);
    attention and MLP split over heads / intermediate width with exactly
    one all-reduce each per layer (inserted by ``LowerSharding`` at the
    row-parallel ``o_proj`` / ``down_proj`` outputs).
    """
    if world < 1:
        raise ValueError(f"world must be >= 1, got {world}")
    if cfg.num_heads % world:
        raise ValueError(
            f"tp={world} must divide num_heads={cfg.num_heads}"
        )
    if cfg.num_kv_heads % world:
        raise ValueError(
            f"tp={world} must divide num_kv_heads={cfg.num_kv_heads}"
        )
    if cfg.intermediate_size % world:
        raise ValueError(
            f"tp={world} must divide intermediate_size={cfg.intermediate_size}"
        )
    if cfg.quantize_bits is not None and world > 1:
        raise ValueError("tensor parallelism over quantized weights is "
                         "not supported")

    params: Dict[str, ShardSpec] = {}
    for i in range(cfg.num_layers):
        attn = f"p_layers_{i}_attn"
        # Column-parallel projections: weight (in, out) split on the
        # output dim; an optional bias (out,) splits with it.
        for proj in ("q_proj", "k_proj", "v_proj"):
            params[f"{attn}_{proj}_weight"] = Split(1)
            if cfg.attention_bias:
                params[f"{attn}_{proj}_bias"] = Split(0)
        # Row-parallel output projection: weight split on the input dim;
        # the matmul output becomes a partial sum (one all-reduce here).
        params[f"{attn}_o_proj_weight"] = Split(0)

        mlp = f"p_layers_{i}_mlp"
        if cfg.gated_mlp:
            params[f"{mlp}_gate_proj_weight"] = Split(1)
        params[f"{mlp}_up_proj_weight"] = Split(1)
        params[f"{mlp}_down_proj_weight"] = Split(0)

        # Paged KV pools (p, page, h_kv, d) and dense caches
        # (b, m, h_kv, d) are head-sharded: dim 2 in both layouts.
        params[f"k_pages_{i}"] = Split(2)
        params[f"v_pages_{i}"] = Split(2)
        params[f"k_cache_{i}"] = Split(2)
        params[f"v_cache_{i}"] = Split(2)

    return ShardingPlan.of(world, params)


def shard_slice(array, spec: ShardSpec, world: int, rank: int):
    """The ``rank``-th contiguous chunk of ``array`` under ``spec``
    (identity for replicated specs) — how concrete per-shard weights and
    KV pools are carved out of the logical tensor."""
    if not 0 <= rank < world:
        raise ValueError(f"rank {rank} out of range for world {world}")
    if spec.partial:
        raise ValueError("cannot slice a partial-sum spec")
    if spec.dim is None or world == 1:
        return array
    size = array.shape[spec.dim]
    if size % world:
        raise ValueError(
            f"dim {spec.dim} of size {size} is not divisible by {world}"
        )
    chunk = size // world
    index = [slice(None)] * array.ndim
    index[spec.dim] = slice(rank * chunk, (rank + 1) * chunk)
    return array[tuple(index)]
