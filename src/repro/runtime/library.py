"""External operator library registry (paper §3.3, §4.6).

``call_dps_library`` callees resolve here: each entry provides a NumPy
implementation (concrete mode), a cost estimator (both modes), and the set
of backends that actually ship the library — dispatch passes consult the
availability so that e.g. cuBLAS lowering only happens on CUDA devices
(the paper's platform-specific partial lowering).

The registry is extensible at runtime, mirroring "these functions are
supplied by a registry and linked to the final runnable module".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import dtypes


class LibraryKernel:
    """One external routine in destination-passing style."""

    def __init__(
        self,
        name: str,
        compute: Callable[..., None],
        cost: Callable[[Sequence, Sequence], tuple],
        backends: Sequence[str],
        efficiency: str = "lib",
        select_efficiency: Optional[Callable[[Sequence, Sequence], str]] = None,
    ):
        self.name = name
        self.compute = compute  # compute(inputs: [np.ndarray], outputs: [np.ndarray])
        self.cost = cost  # cost(in_shapes, out_shapes) -> (flops, bytes)
        self.backends = tuple(backends)
        self.efficiency = efficiency  # "lib" | "gen" | "gen_matvec"
        self._select = select_efficiency

    def efficiency_class(self, in_sd, out_sd) -> str:
        """Efficiency class for one call (may depend on runtime shapes)."""
        if self._select is not None:
            return self._select(in_sd, out_sd)
        return self.efficiency


class LibraryRegistry:
    """Name -> kernel table; one global default instance."""

    def __init__(self):
        self._kernels: Dict[str, LibraryKernel] = {}

    def register(self, kernel: LibraryKernel, override: bool = False) -> LibraryKernel:
        if kernel.name in self._kernels and not override:
            raise ValueError(f"library function {kernel.name!r} already registered")
        self._kernels[kernel.name] = kernel
        return kernel

    def get(self, name: str) -> LibraryKernel:
        if name not in self._kernels:
            raise KeyError(f"unknown library function {name!r}")
        return self._kernels[name]

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def available(self, name: str, backend: str) -> bool:
        return name in self._kernels and backend in self._kernels[name].backends

    def names(self) -> List[str]:
        return sorted(self._kernels)


REGISTRY = LibraryRegistry()

_GPU_LIB_BACKENDS = ("cuda", "rocm", "metal")


def _bytes_of(shapes_dtypes) -> int:
    total = 0
    for shape, dtype in shapes_dtypes:
        elems = 1
        for d in shape:
            elems *= d
        total += elems * dtypes.itemsize(dtype)
    return total


def _matmul_cost(in_sd, out_sd):
    (a_shape, _), (b_shape, _) = in_sd[0], in_sd[1]
    n = b_shape[-1]
    k = a_shape[-1]
    rows = 1
    for d in out_sd[0][0][:-1]:
        rows *= d
    flops = 2 * rows * n * k
    return flops, _bytes_of(in_sd) + _bytes_of(out_sd)


def _matmul_compute(inputs, outputs):
    a, b = inputs[0], inputs[1]
    out_dtype = outputs[0].dtype
    outputs[0][...] = (a.astype(np.float64) @ b.astype(np.float64)).astype(out_dtype)


def _matmul_select_efficiency(in_sd, out_sd) -> str:
    # The compiled module links both the vendor GEMM and the compiler's
    # matrix-vector specialization and dispatches on the runtime symbolic
    # shape (§5.1: generated matvec kernels at batch size 1, libraries for
    # other batch sizes).  rows == 1 selects the generated matvec.
    rows = 1
    for d in out_sd[0][0][:-1]:
        rows *= d
    return "gen_matvec" if rows == 1 else "lib"


#: Vendor GEMM (cuBLAS / hipBLASLt / MPS, depending on the device backend).
REGISTRY.register(
    LibraryKernel(
        "cublas.matmul", _matmul_compute, _matmul_cost, _GPU_LIB_BACKENDS,
        select_efficiency=_matmul_select_efficiency,
    )
)


def _matmul_nt_cost(in_sd, out_sd):
    (a_shape, _), (b_shape, _) = in_sd[0], in_sd[1]
    n = b_shape[-2]
    k = a_shape[-1]
    rows = 1
    for d in out_sd[0][0][:-1]:
        rows *= d
    return 2 * rows * n * k, _bytes_of(in_sd) + _bytes_of(out_sd)


def _matmul_nt_compute(inputs, outputs):
    a, b = inputs[0], inputs[1]
    out_dtype = outputs[0].dtype
    bt = np.swapaxes(b, -1, -2)
    outputs[0][...] = (a.astype(np.float64) @ bt.astype(np.float64)).astype(out_dtype)


REGISTRY.register(
    LibraryKernel(
        "cublas.matmul_nt", _matmul_nt_compute, _matmul_nt_cost,
        _GPU_LIB_BACKENDS, select_efficiency=_matmul_select_efficiency,
    )
)


def _ewise_cost_factory(ops_per_elem: int):
    def cost(in_sd, out_sd):
        elems = 1
        for d in out_sd[0][0]:
            elems *= d
        return ops_per_elem * elems, _bytes_of(in_sd) + _bytes_of(out_sd)

    return cost


def _rms_norm_compute(inputs, outputs):
    x, w = inputs[0], inputs[1]
    xf = x.astype(np.float64)
    denom = np.sqrt((xf**2).mean(axis=-1, keepdims=True) + 1e-5)
    outputs[0][...] = (xf / denom * w.astype(np.float64)).astype(x.dtype)


REGISTRY.register(
    LibraryKernel(
        "cutlass.rms_norm", _rms_norm_compute, _ewise_cost_factory(4), _GPU_LIB_BACKENDS
    )
)


def _softmax_compute(inputs, outputs):
    x = inputs[0].astype(np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    outputs[0][...] = (e / e.sum(axis=-1, keepdims=True)).astype(inputs[0].dtype)


REGISTRY.register(
    LibraryKernel(
        "cudnn.softmax", _softmax_compute, _ewise_cost_factory(5), _GPU_LIB_BACKENDS
    )
)


def _attention_cost(in_sd, out_sd):
    (q_shape, _) = in_sd[0]
    (k_shape, _) = in_sd[1]
    b, s, h, d = q_shape
    m = k_shape[1]
    flops = 2 * b * h * s * m * d * 2  # QK^T and PV
    return flops, _bytes_of(in_sd) + _bytes_of(out_sd)


def _attention_compute(inputs, outputs):
    # Fused scaled-dot-product attention over (b, s, h, d) layout with
    # (b, m, h_kv, d) keys/values and GQA head sharing.
    q, k, v = (x.astype(np.float64) for x in inputs[:3])
    b, s, h, d = q.shape
    m, h_kv = k.shape[1], k.shape[2]
    group = h // h_kv
    scale = 1.0 / np.sqrt(d)
    out = np.zeros_like(q)
    for head in range(h):
        kv_head = head // group
        scores = q[:, :, head, :] @ k[:, :, kv_head, :].transpose(0, 2, 1) * scale
        if s > 1:
            # Replace (not add) at masked positions, matching the generated
            # kernel: on a fully-masked row (s > m) additive masking would
            # cancel in the softmax and leak the unmasked distribution.
            allowed = (
                np.arange(m)[None, :] - np.arange(s)[:, None] <= m - s
            )
            scores = np.where(allowed[None, :, :], scores, -1e9)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        out[:, :, head, :] = probs @ v[:, :, kv_head, :]
    outputs[0][...] = out.astype(inputs[0].dtype)


#: FlashAttention-style fused attention (available on CUDA/ROCm only, as in
#: the paper's baselines).
REGISTRY.register(
    LibraryKernel(
        "flashinfer.attention", _attention_compute, _attention_cost, ("cuda", "rocm")
    )
)


def _paged_cost(cached_positions):
    """Cost model of a paged-attention kernel.

    ``cached_positions(in_sd, page)`` is how many pooled key positions each
    sequence attends; the ``s`` current positions come on top.  Traffic is
    every argument except the two pools, plus only the pages that hold
    those positions (for K and V) — not the whole pool the pages args span.
    """

    def cost(in_sd, out_sd):
        (b, s, h, d), _ = in_sd[0]
        (_, page, h_kv, _), kp_dtype = in_sd[1]
        cached = cached_positions(in_sd, page)
        flops = 2 * b * h * s * (cached + s) * d * 2  # QK^T and PV
        touched = 2 * b * (-(-cached // page)) * page * h_kv * d * (
            dtypes.itemsize(kp_dtype)
        )
        light = _bytes_of([in_sd[0], *in_sd[3:]]) + _bytes_of(out_sd)
        return flops, light + touched

    return cost


def _table_width_positions(in_sd, page):
    # Decode/verify attend whatever the block table references (b*w pages),
    # so verifying s speculative tokens re-reads the same cached K/V a
    # single-token decode would — that is the speculative win the
    # analytical clock captures.
    return in_sd[3][0][1] * page


def _anchor_positions(in_sd, page):
    # Prefill attends the m cached tokens (the anchor argument's length),
    # not the table's padded width.
    return in_sd[4][0][0]


def _two_group_compute(inputs, outputs):
    # Attention over a paged KV pool plus the current query block: gather
    # each sequence's pages through its block table, mask padding slots by
    # the true length, and attend the current block causally — over each
    # sequence's own speculative width spec_lens[i], self position always
    # attendable, when the ragged ``spec_lens`` argument is present
    # (paged_verify) and over the whole block otherwise (paged_attention);
    # see repro.ops.paged.
    q, kp, vp = (x.astype(np.float64) for x in inputs[:3])
    table = inputs[3].astype(np.int64)
    lengths = inputs[4].astype(np.int64)
    spec_lens = inputs[5].astype(np.int64) if len(inputs) == 8 else None
    kc, vc = (x.astype(np.float64) for x in inputs[-2:])
    b, s, h, d = q.shape
    page, h_kv = kp.shape[1], kp.shape[2]
    w = table.shape[1]
    group = h // h_kv
    scale = 1.0 / np.sqrt(d)
    causal = np.arange(s)[None, :] <= np.arange(s)[:, None]
    self_pos = np.eye(s, dtype=bool)
    out = np.zeros_like(q)
    for i in range(b):
        k_past = kp[table[i]].reshape(w * page, h_kv, d)
        v_past = vp[table[i]].reshape(w * page, h_kv, d)
        valid = np.arange(w * page) < lengths[i]
        cur_mask = causal
        if spec_lens is not None:
            in_spec = np.arange(s)[None, :] < spec_lens[i]
            cur_mask = causal & (in_spec | self_pos)
        for head in range(h):
            g = head // group
            scores_p = q[i, :, head, :] @ k_past[:, g, :].T * scale
            scores_p = np.where(valid[None, :], scores_p, -1e9)
            scores_c = q[i, :, head, :] @ kc[i, :, g, :].T * scale
            scores_c = np.where(cur_mask, scores_c, -1e9)
            scores = np.concatenate([scores_p, scores_c], axis=1)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)
            values = np.concatenate([v_past[:, g, :], vc[i, :, g, :]], axis=0)
            out[i, :, head, :] = probs @ values
    outputs[0][...] = out.astype(inputs[0].dtype)


#: Paged (block-table) attention for continuous-batching decode; like the
#: dense FlashAttention entry, only CUDA/ROCm ship it.
REGISTRY.register(
    LibraryKernel(
        "flashinfer.paged_attention", _two_group_compute,
        _paged_cost(_table_width_positions), ("cuda", "rocm"),
    )
)


def _paged_prefill_compute(inputs, outputs):
    # Chunked prefill over the paged pool: gather each sequence's m cached
    # positions into a contiguous (b, m + s, h_kv, d) key/value view, then
    # run the *dense* fused-attention kernel on it — literally the same
    # code path, so the result is bit-identical to dense prefill over the
    # concatenated cache (the acceptance contract of repro.ops.paged's
    # paged_prefill).
    q = inputs[0]
    kp, vp = inputs[1], inputs[2]
    table = inputs[3].astype(np.int64)
    m = inputs[4].shape[0]
    kc, vc = inputs[5], inputs[6]
    b, s = q.shape[:2]
    page, h_kv, d = kp.shape[1], kp.shape[2], kp.shape[3]
    nb = -(-m // page)
    k_full = np.empty((b, m + s, h_kv, d), dtype=kc.dtype)
    v_full = np.empty((b, m + s, h_kv, d), dtype=vc.dtype)
    for i in range(b):
        if nb:
            k_full[i, :m] = kp[table[i, :nb]].reshape(nb * page, h_kv, d)[:m]
            v_full[i, :m] = vp[table[i, :nb]].reshape(nb * page, h_kv, d)[:m]
        k_full[i, m:] = kc[i]
        v_full[i, m:] = vc[i]
    _attention_compute([q, k_full, v_full], outputs)


#: Paged prefill: the chunked-prefill companion to paged_attention.
REGISTRY.register(
    LibraryKernel(
        "flashinfer.paged_prefill", _paged_prefill_compute,
        _paged_cost(_anchor_positions), ("cuda", "rocm"),
    )
)


#: Speculative-verify attention: the ragged multi-token sibling of
#: paged_attention, same CUDA/ROCm-only availability.
REGISTRY.register(
    LibraryKernel(
        "flashinfer.paged_verify", _two_group_compute,
        _paged_cost(_table_width_positions), ("cuda", "rocm"),
    )
)


def _unique_compute(inputs, outputs):  # pragma: no cover - handled by VM builtin
    raise RuntimeError("vm.builtin.unique is served by the VM, not the registry")


def register_custom(
    name: str,
    compute: Callable,
    cost: Callable,
    backends: Sequence[str] = _GPU_LIB_BACKENDS,
    override: bool = False,
) -> LibraryKernel:
    """User-facing registration hook ('Relax also allows users to register
    patterns for customizability', §4.6)."""
    return REGISTRY.register(LibraryKernel(name, compute, cost, backends), override)
