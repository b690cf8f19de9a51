"""TensorIR text goldens for the attention family.

Every legalizer of the family — dense ``attention`` (causal and not) and
the four ``paged_*`` ops — is printed (after ``finalize_prim_func``, which
would list any explicit symbolic parameter) and compared against text
committed under ``goldens/``.  The text was
produced by the five hand-written legalizers that predate the shared
skeletons, so a mismatch names the stage line that drifted.

Regenerate (only when a change is *meant* to move the lowering) with
``PYTHONPATH=src python tests/ops/test_attention_goldens.py``.
"""

from pathlib import Path

import pytest

from repro import ops, sym
from repro.core import TensorAnn, Var
from repro.ops import finalize_prim_func
from repro.tir.printer import format_prim_func

GOLDENS = Path(__file__).parent / "goldens"

#: name -> (dtype, dims).  ``static`` has GQA (h != h_kv) and every extent
#: an integer; ``symbolic`` makes b/s/w/p/m/t variables; ``f16_s1`` is the
#: decode shape (s == 1, h == h_kv) in half precision.
GEOMETRIES = {
    "static": ("f32", dict(b=2, s=3, h=4, h_kv=2, d=8, page=4, w=3, p=8,
                           m=5, t=6)),
    "symbolic": ("f32", dict(b="b", s="s", h=4, h_kv=2, d=8, page=4, w="w",
                             p="p", m="m", t="t")),
    "f16_s1": ("f16", dict(b="b", s=1, h=2, h_kv=2, d=4, page=2, w="w",
                           p="p", m="m", t="t")),
}


def _var(ctx, name, shape, dtype):
    return Var(name, TensorAnn(tuple(shape), dtype).resolve(ctx))


def _dense(causal):
    def make(dtype, g):
        ctx = sym.ShapeVarContext()
        q = _var(ctx, "q", (g["b"], g["s"], g["h"], g["d"]), dtype)
        k = _var(ctx, "k", (g["b"], g["m"], g["h_kv"], g["d"]), dtype)
        v = _var(ctx, "v", (g["b"], g["m"], g["h_kv"], g["d"]), dtype)
        return ops.attention(q, k, v, causal=causal)
    return make


def _paged(op, extra):
    """``extra`` lists the rank-1 integer arguments between the block
    table and the current K/V as (name, dim key)."""
    def make(dtype, g):
        ctx = sym.ShapeVarContext()
        pool = (g["p"], g["page"], g["h_kv"], g["d"])
        cur = (g["b"], g["s"], g["h_kv"], g["d"])
        args = [
            _var(ctx, "q", (g["b"], g["s"], g["h"], g["d"]), dtype),
            _var(ctx, "k_pages", pool, dtype),
            _var(ctx, "v_pages", pool, dtype),
            _var(ctx, "block_table", (g["b"], g["w"]), "i64"),
        ]
        args += [_var(ctx, name, (g[dim],), "i64") for name, dim in extra]
        if op is not ops.paged_cross_attention:
            args += [_var(ctx, "k_cur", cur, dtype),
                     _var(ctx, "v_cur", cur, dtype)]
        return op(*args)
    return make


OPS = {
    "attention_causal": _dense(True),
    "attention_full": _dense(False),
    "paged_attention": _paged(ops.paged_attention, [("lengths", "b")]),
    "paged_verify": _paged(ops.paged_verify,
                           [("lengths", "b"), ("spec_lens", "b")]),
    "paged_prefill": _paged(ops.paged_prefill, [("past", "m")]),
    "paged_cross_attention": _paged(ops.paged_cross_attention,
                                    [("enc", "t")]),
}

CASES = [(op, geo) for op in OPS for geo in GEOMETRIES]


def _render(op_name, geo_name) -> str:
    dtype, dims = GEOMETRIES[geo_name]
    call = OPS[op_name](dtype, dims)
    func = finalize_prim_func(call.op.legalize(call).prim_func)
    return format_prim_func(func) + "\n"


@pytest.mark.parametrize("op_name,geo_name", CASES)
def test_legalized_text_matches_golden(op_name, geo_name):
    golden = (GOLDENS / f"{op_name}.{geo_name}.txt").read_text()
    assert _render(op_name, geo_name) == golden


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for op_name, geo_name in CASES:
        (GOLDENS / f"{op_name}.{geo_name}.txt").write_text(
            _render(op_name, geo_name)
        )
