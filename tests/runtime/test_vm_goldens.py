"""VM goldens: the absolute numbers the VM charges, committed as text.

Replay plans and interpretation charge through the same appliers
(DESIGN.md §16), so a traced-vs-memoized differential can no longer
catch a wrong charge both paths share.  These goldens can: every
:class:`ExecutionStats` field, as ``repr``, after every call of

* 20 scripted tiny-Llama calls (``decode``, ``prefill``,
  ``decode_paged``; one ``reset_stats()`` and one CUDA-graph toggle part
  way through) under four pipelines — planned + bounded, planned +
  unbounded, unplanned, library dispatch off;
* the same calls on a tp=2 :class:`MeshVM`;
* fuzz seeds 1000–1199, each run twice on a concrete and on an abstract
  VM (the error text where abstract mode raises).

The goldens were produced by the commit before the change that added
them.  Run as a script::

    PYTHONPATH=src python tests/runtime/test_vm_goldens.py regen

``regen`` rewrites ``goldens/vm_stats.json`` (only for a change *meant*
to move a simulated number).
"""

import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro import dtypes, transform
from repro.dist import NVLINK, MeshExecutor, MeshVM
from repro.fuzz import build_module, generate, make_inputs
from repro.models import TINY_LLAMA, TINY_LLAMA_TP, build_llama
from repro.runtime import (TEST_DEVICE, ExecutionStats, NDArray,
                           VirtualMachine, VMError)

GOLDENS = Path(__file__).parent / "goldens" / "vm_stats.json"
FIELDS = [f.name for f in fields(ExecutionStats)]
PAGE = 4
BLOCKS = 24
BOUNDS = {"b": 8, "s": 32, "m": 32, "w": 8}
FUZZ_SEEDS = range(1000, 1200)

#: (entry, batch, context / prefill length / table width); ``reset`` and
#: ``graph`` steps record nothing.
SCRIPT = (
    ("decode", 1, 4), ("decode", 1, 4), ("prefill", 2, 6),
    ("decode_paged", 2, 4), ("decode", 1, 4), ("decode", 2, 6),
    ("prefill", 2, 6), ("decode_paged", 2, 4),
    ("reset", 0, 0),
    ("decode", 1, 4), ("decode_paged", 3, 6), ("prefill", 1, 4),
    ("decode", 2, 6), ("decode", 2, 6), ("decode_paged", 3, 6),
    ("graph", 0, 0),
    ("decode", 1, 4), ("decode", 1, 4), ("prefill", 2, 6),
    ("decode_paged", 2, 4), ("decode", 3, 1), ("decode_paged", 1, 1),
)

PIPELINES = {
    "planned-bounded": dict(sym_var_upper_bounds=BOUNDS),
    "planned-unbounded": dict(sym_var_upper_bounds={}),
    "unplanned": dict(sym_var_upper_bounds=BOUNDS,
                      enable_memory_planning=False),
    "no-library": dict(sym_var_upper_bounds=BOUNDS,
                       enable_library_dispatch=False),
}


def _row(stats: ExecutionStats) -> str:
    return " ".join(repr(getattr(stats, name)) for name in FIELDS)


def _args(cfg, params, kind, batch, width, tp):
    kv = cfg.num_kv_heads // tp
    if kind == "decode_paged":
        pools = [NDArray.abstract((BLOCKS, PAGE, kv, cfg.head_dim), cfg.dtype)
                 for _ in range(2 * cfg.num_layers)]
        return [NDArray.abstract((batch, 1), "i64"),
                NDArray.abstract((batch, width), "i64"),
                NDArray.abstract((batch,), "i64"), *pools, *params]
    seq, past = (1, width) if kind == "decode" else (width, 0)
    caches = [NDArray.abstract((batch, past, kv, cfg.head_dim), cfg.dtype)
              for _ in range(2 * cfg.num_layers)]
    return [NDArray.abstract((batch, seq), "i64"), *caches, *params]


def _scripted(vm, graph_vms, cfg, params, tp=1):
    rows = []
    for kind, batch, width in SCRIPT:
        if kind == "reset":
            vm.reset_stats()
        elif kind == "graph":
            for shard in graph_vms:
                shard.enable_cuda_graph = False
        else:
            vm.run(kind, *_args(cfg, params, kind, batch, width, tp))
            rows.append(_row(vm.stats))
    return rows


def _llama_rows(pipeline):
    exported = build_llama(TINY_LLAMA, page_size=PAGE)
    exe = transform.build(exported.mod, TEST_DEVICE, **PIPELINES[pipeline])
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    return _scripted(vm, [vm], TINY_LLAMA, exported.abstract_params())


def _mesh_rows():
    exported = build_llama(TINY_LLAMA_TP, page_size=PAGE, tp=2)
    exe = transform.build(exported.mod, TEST_DEVICE,
                          sym_var_upper_bounds=BOUNDS)
    mesh = MeshExecutor(exe, TEST_DEVICE, 2, interconnect=NVLINK)
    return _scripted(MeshVM(mesh), mesh.vms, TINY_LLAMA_TP,
                     exported.abstract_params(), tp=2)


def _fuzz_rows():
    rows = []
    for seed in FUZZ_SEEDS:
        plan = generate(seed)
        exe = transform.build(build_module(plan), TEST_DEVICE,
                              sym_var_upper_bounds=dict(plan.dims))
        inputs = [np.asarray(a) for a in make_inputs(plan)]
        for concrete in (True, False):
            vm = VirtualMachine(exe, TEST_DEVICE, concrete=concrete)
            for _ in range(2):
                if concrete:
                    args = [NDArray.from_numpy(a) for a in inputs]
                else:
                    args = [NDArray.abstract(a.shape, dtypes.from_numpy(a.dtype))
                            for a in inputs]
                try:
                    with np.errstate(over="ignore", invalid="ignore",
                                     divide="ignore"):
                        vm.run("main", *args)
                except VMError as err:
                    rows.append(f"{seed}: {type(err).__name__}: {err}")
                else:
                    rows.append(f"{seed}: {_row(vm.stats)}")
    return rows


SCENARIOS = {
    **{f"llama/{name}": functools.partial(_llama_rows, name)
       for name in PIPELINES},
    "mesh/tp2": _mesh_rows,
    "fuzz/1000-1199": _fuzz_rows,
}


@functools.lru_cache(maxsize=None)
def _goldens():
    return json.loads(GOLDENS.read_text())


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_vm_stats_match_goldens(scenario):
    want = _goldens()["scenarios"][scenario]
    got = SCENARIOS[scenario]()
    assert len(got) == len(want)
    for call, (g, w) in enumerate(zip(got, want)):
        if g != w:
            labels = ["seed"] + FIELDS if scenario.startswith("fuzz") else FIELDS
            moved = [f"{name} {b} -> {a}" for name, a, b
                     in zip(labels, g.split(" "), w.split(" ")) if a != b]
            pytest.fail(f"{scenario} call {call}: {'; '.join(moved)}\n"
                        f"want {w}\ngot  {g}")


def regen() -> None:
    data = {"fields": FIELDS,
            "scenarios": {name: rows() for name, rows in SCENARIOS.items()}}
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["regen"]:
        sys.exit(__doc__)
    regen()
