"""Group quantization: packed low-bit weights with a custom decode tensor
program (the paper's Fig. 9 workload and the §5.3 deployment enabler).

A :class:`QuantizedLinear` stores its weight as packed ``u32`` words plus
per-group ``f32``/``f16`` scales.  Its forward emits ``call_tir`` to a
*custom* decode tensor program (no graph-level operator exists for it)
followed by a matmul — exactly the situation cross-level fusion handles:
analysis feedback classifies the decode Injective, FuseOps groups it with
the matmul, and FuseTensorIR inlines the decode into the FMA so the f32
weight matrix never materializes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import ops, tir
from ..core import BlockBuilder, TensorAnn
from ..core.expr import Expr
from .nn import Module, Parameter


def decode_prim_func(k: int, n: int, bits: int, group_size: int,
                     dtype: str = "f32") -> tir.PrimFunc:
    """Tensor program decoding packed ``bits``-wide weights to (k, n).

    Packing layout: along the n axis, ``per_word = 32 // bits`` values per
    u32 word; scales are per (row, group) with ``group_size`` values per
    group.  Decoded value = (nibble - zero_point) * scale, zero_point =
    2^(bits-1) - 1 (the paper's Fig. 9 uses bits=4, zero point 7).
    """
    per_word = 32 // bits
    mask = (1 << bits) - 1
    zero_point = (1 << (bits - 1)) - 1
    words = (n + per_word - 1) // per_word
    groups = (n + group_size - 1) // group_size

    f = tir.TirBuilder(f"decode_q{bits}")
    data = f.arg("Wdata", (k, words), "u32")
    scale = f.arg("Wscale", (k, groups), dtype)
    w = f.out("W", (k, n), dtype)
    ki, ji = f.spatial(k, n)
    nibble = tir.cast(
        "i32", (data[ki, ji // per_word] >> tir.IndexValue((ji % per_word) * bits)) & mask
    )
    f.store(
        w, [ki, ji],
        tir.cast(dtype, nibble - zero_point) * scale[ki, ji // group_size],
    )
    return f.build()


def quantize_weight(weight: np.ndarray, bits: int, group_size: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Pack an fp weight matrix (k, n) into (u32 words, scales)."""
    k, n = weight.shape
    per_word = 32 // bits
    zero_point = (1 << (bits - 1)) - 1
    max_q = (1 << bits) - 1
    groups = (n + group_size - 1) // group_size
    words = (n + per_word - 1) // per_word

    scales = np.zeros((k, groups), dtype=np.float32)
    packed = np.zeros((k, words), dtype=np.uint32)
    for g in range(groups):
        block = weight[:, g * group_size:(g + 1) * group_size]
        amax = np.abs(block).max(axis=1)
        scales[:, g] = np.where(amax > 0, amax / zero_point, 1.0)
    for j in range(n):
        g = j // group_size
        q = np.round(weight[:, j] / scales[:, g]) + zero_point
        q = np.clip(q, 0, max_q).astype(np.uint32)
        packed[:, j // per_word] |= q << np.uint32((j % per_word) * bits)
    return packed, scales


def dequantize_weight(packed: np.ndarray, scales: np.ndarray, bits: int,
                      group_size: int, n: int) -> np.ndarray:
    """NumPy reference for the decode tensor program."""
    per_word = 32 // bits
    mask = (1 << bits) - 1
    zero_point = (1 << (bits - 1)) - 1
    k = packed.shape[0]
    out = np.zeros((k, n), dtype=np.float32)
    for j in range(n):
        nib = (packed[:, j // per_word] >> np.uint32((j % per_word) * bits)) & mask
        out[:, j] = (nib.astype(np.int32) - zero_point) * scales[:, j // group_size]
    return out


class QuantizedLinear(Module):
    """Linear layer with packed low-bit weights and on-the-fly decode."""

    def __init__(self, in_features: int, out_features: int, bits: int = 4,
                 group_size: int = 32, dtype: str = "f32"):
        per_word = 32 // bits
        self.in_features = in_features
        self.out_features = out_features
        self.bits = bits
        self.group_size = group_size
        self.dtype = dtype
        self.packed = Parameter(
            (in_features, (out_features + per_word - 1) // per_word), "u32"
        )
        self.scales = Parameter(
            (in_features, (out_features + group_size - 1) // group_size), dtype
        )
        self._decode_cache_key: Optional[str] = None

    def load_float_weight(self, weight: np.ndarray) -> None:
        from .. import dtypes

        packed, scales = quantize_weight(weight, self.bits, self.group_size)
        self.packed.data = packed
        self.scales.data = scales.astype(dtypes.to_numpy(self.scales.dtype))

    def forward(self, bb: BlockBuilder, x: Expr) -> Expr:
        prim = decode_prim_func(
            self.in_features, self.out_features, self.bits, self.group_size,
            self.dtype,
        )
        gvar = bb.add_func(prim, prim.name)
        w = bb.call_tir(
            gvar,
            [self.packed.var, self.scales.var],
            TensorAnn((self.in_features, self.out_features), self.dtype),
        )
        mm = ops.matmul(x, w)
        # The decode must fuse INTO this matmul (Fig. 9); dispatching it to
        # the vendor GEMM would force the decoded f16 weight to materialize.
        mm.attrs["no_library"] = True
        return bb.emit(mm)
