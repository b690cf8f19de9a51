"""``tir.cost_terms`` against an independent reference walk.

The reference below is the per-launch TensorIR walk that
``count_flops`` / ``count_bytes`` made before cost terms became the one
definition of kernel cost, copied here so that a change to the terms
cannot also change what they are checked against.  Every PrimFunc of

* the paged Llama3-8B serving executable at tp=1 and tp=2 (two decoder
  layers: every kernel kind of the 32-layer executable at its real
  dimensions, for a fraction of the compile),
* a paged Whisper executable,
* the programs of 100 fuzz plans,
* two hand-built tensor programs: one with a ``global`` workspace
  (every workspace a compiled program has is lifted to the graph level),
  one whose gathers reach every branch of the gather rule,

must price exactly, as ``int`` s, under bindings drawn within the
declared symbolic-variable bounds.
"""

import dataclasses
import functools
import random
from typing import Dict

import pytest

from repro import dtypes, sym, tir, transform
from repro.fuzz import build_module, generate
from repro.models import LLAMA3_8B, TINY_WHISPER, build_llama, build_whisper
from repro.runtime import RTX_4090, TEST_DEVICE
from repro.tir.expr import BufferRead, GatherRead

#: Bound of a symbolic variable no pipeline declares one for.
DEFAULT_BOUND = 64
DRAWS = 3


# -- the reference walk ------------------------------------------------------------


def _reference_flops(func: tir.PrimFunc, bindings: Dict[sym.SymVar, int]) -> int:
    total = 0
    for stage in func.stages:
        iters = 1
        for _, extent in stage.iter_domain():
            iters *= sym.evaluate(extent, bindings)
        ops = max(1, tir.count_arith_ops(stage.value))
        if stage.is_reduction():
            ops += 1
        total += iters * ops
    return total


def _gather_reads(func: tir.PrimFunc):
    """``({data buffer id: [stage, ...]}, ids of plainly read buffers)``."""
    gathers, plain_read_ids = {}, set()

    def scan(value, stage):
        if isinstance(value, GatherRead):
            gathers.setdefault(value.data._id, []).append(stage)
            plain_read_ids.add(value.index_buffer._id)
            return
        if isinstance(value, BufferRead):
            plain_read_ids.add(value.buffer._id)
        for child in value.children():
            scan(child, stage)

    for stage in func.stages:
        scan(stage.value, stage)
        plain_read_ids.add(stage.output._id)
    return gathers, plain_read_ids


def _reference_bytes(func: tir.PrimFunc, bindings: Dict[sym.SymVar, int]) -> int:
    def elems(dims):
        n = 1
        for dim in dims:
            n *= sym.evaluate(dim, bindings)
        return n

    gathers, plain_read_ids = _gather_reads(func)
    total = 0
    for buf in func.params:
        itemsize = dtypes.itemsize(buf.dtype)
        if buf._id in gathers and buf._id not in plain_read_ids:
            total += itemsize * sum(
                elems([e for _, e in stage.iter_domain()])
                for stage in gathers[buf._id])
        else:
            total += itemsize * elems(buf.shape)
    for buf in func.intermediate_buffers():
        if buf.scope == "global":
            total += 2 * dtypes.itemsize(buf.dtype) * elems(buf.shape)
    return total


# -- the corpus --------------------------------------------------------------------


def _workspace_func() -> tir.PrimFunc:
    n = sym.SymVar("n")
    f = tir.TirBuilder("ws")
    a = f.arg("A", (n, 8), "f16")
    out = f.out("O", (n,), "f32")
    ws = f.alloc("w", (n * 2, 8), "f32", scope="global")
    i, j = f.spatial(n * 2), f.spatial(8)
    f.store(ws, [i, j], tir.cast("f32", a[i // 2, j]) * 2.0)
    i = f.spatial(n)
    k = f.reduce(8)
    f.store(out, [i], ws[i * 2, k], combiner="sum", init=0.0)
    return f.build()


def _gather_func() -> tir.PrimFunc:
    """A gather-only table read by two stages, a table also read plainly,
    and an index buffer that is gathered from as well."""
    n, v = sym.SymVar("n"), sym.SymVar("v")
    f = tir.TirBuilder("gathers")
    ids = f.arg("T", (n,), "i64")
    table = f.arg("E", (v, 8), "f16")
    both = f.arg("D", (n, 8), "f32")
    out = f.out("O", (n, 8), "f32")
    sums = f.out("P", (n,), "f32")
    i, j = f.spatial(n, 8)
    f.store(out, [i, j],
            tir.cast("f32", tir.GatherRead(table, ids, (), (i,), (j,)))
            + tir.GatherRead(both, ids, (), (i,), (j,)) + both[i, j])
    i = f.spatial(n)
    k = f.reduce(8)
    f.store(sums, [i],
            tir.cast("f32", tir.GatherRead(table, ids, (), (i,), (k,)))
            + tir.cast("f32", tir.GatherRead(ids, ids, (), (i,), ())),
            combiner="sum", init=0.0)
    return f.build()


def _llama(tp):
    cfg = dataclasses.replace(LLAMA3_8B, num_layers=2)
    bounds = {"b": 64, "s": cfg.context_length, "m": cfg.context_length,
              "w": cfg.context_length // 16}
    exe = transform.build(build_llama(cfg, page_size=16, tp=tp).mod, RTX_4090,
                          sym_var_upper_bounds=bounds)
    return [(f, bounds) for f in exe.tir_funcs.values()]


def _whisper():
    cfg = TINY_WHISPER
    bounds = {"b": 64, "f": cfg.max_frames, "m": cfg.max_target,
              "t": cfg.max_frames // 2, "w": cfg.max_target // 4,
              "u": cfg.max_frames // 8}
    exe = transform.build(build_whisper(cfg, page_size=4).mod, TEST_DEVICE,
                          sym_var_upper_bounds=bounds)
    return [(f, bounds) for f in exe.tir_funcs.values()]


def _fuzz():
    funcs = []
    for seed in range(100):
        plan = generate(seed)
        exe = transform.build(build_module(plan), TEST_DEVICE,
                              sym_var_upper_bounds=dict(plan.dims))
        funcs += [(f, dict(plan.dims)) for f in exe.tir_funcs.values()]
    return funcs


CORPORA = {
    "llama3-8b-tp1": functools.partial(_llama, 1),
    "llama3-8b-tp2": functools.partial(_llama, 2),
    "whisper": _whisper,
    "fuzz": _fuzz,
    "hand-built": lambda: [(_workspace_func(), {}), (_gather_func(), {})],
}


@functools.lru_cache(maxsize=None)
def _corpus(name):
    return CORPORA[name]()


def _draws(func, bounds, rng):
    for _ in range(DRAWS):
        yield {var: rng.randint(1, bounds.get(var.name, DEFAULT_BOUND))
               for var in func.free_sym_vars()}


# -- tests -------------------------------------------------------------------------


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_cost_terms_equal_the_reference_walk(corpus):
    rng = random.Random(corpus)
    funcs = _corpus(corpus)
    assert funcs
    for func, bounds in funcs:
        terms = tir.cost_terms(func)
        for bindings in _draws(func, bounds, rng):
            flops, nbytes = terms.flops(bindings), terms.bytes(bindings)
            assert type(flops) is int and type(nbytes) is int
            assert flops == _reference_flops(func, bindings), func.name
            assert nbytes == _reference_bytes(func, bindings), func.name
            assert tir.count_flops(func, bindings) == flops
            assert tir.count_bytes(func, bindings) == nbytes


def _kinds(func):
    """Which of the cost model's special cases ``func`` exercises."""
    gathers, plain_read_ids = _gather_reads(func)
    kinds = set()
    if any(b._id in gathers and b._id not in plain_read_ids
           for b in func.params):
        kinds.add("gather-only parameter")
    if func.workspace_buffers():
        kinds.add("global workspace")
    counted = {var.key() for stage in func.stages
               for _, extent in stage.iter_domain()
               for var in sym.free_vars(extent)}
    for var in func.sym_params:
        kinds.add("extent sym_param" if var.key() in counted
                  else "index-only sym_param")
    return kinds


def test_corpus_covers_every_special_case():
    found = {}
    for name in CORPORA:
        for func, _ in _corpus(name):
            for kind in _kinds(func):
                found.setdefault(kind, name)
    assert set(found) == {"gather-only parameter", "global workspace",
                          "extent sym_param", "index-only sym_param"}, found


def test_symbolic_flops_is_rendered_from_the_terms():
    rng = random.Random(0)
    for func, bounds in _corpus("whisper") + _corpus("hand-built"):
        expr = tir.symbolic_flops(func)
        for bindings in _draws(func, bounds, rng):
            assert sym.evaluate(expr, bindings) == _reference_flops(func, bindings)


def test_unbound_variable_is_named():
    func = _workspace_func()
    with pytest.raises(KeyError, match="unbound symbolic variable 'n'"):
        tir.cost_terms(func).bytes({})
