"""Distributed execution: sharded IR, collectives, analytical multi-device runtime.

``repro.dist`` extends the single-device analytical stack to a mesh of
N identical devices connected by a modeled interconnect:

* :mod:`repro.dist.shard` — :class:`ShardSpec` placement annotations
  (replicated, or split along one tensor dim over the mesh axis) and the
  Megatron-style tensor-parallel plan for ``build_llama``.
* :mod:`repro.dist.interconnect` — :class:`Interconnect` link cost model
  (ring all-reduce / all-gather / reduce-scatter / broadcast) with
  NVLink-class and PCIe-class presets.
* :mod:`repro.dist.mesh` — :class:`MeshExecutor`, one SPMD executable
  on an N-device mesh on the shared analytical clock: a single VM when
  abstract (every rank accounts the same numbers), one VM per rank on
  threads over the barrier-synchronized :class:`CollectiveChannel` when
  concrete (value-computing).

The IR-level pieces live where their layers live: ``ccl.*`` collective
ops in :mod:`repro.ops.ccl`, the ``PropagateSharding`` /
``LowerSharding`` pass pair in :mod:`repro.transform.sharding`, and the
``tp=N`` export in :func:`repro.models.llama.build_llama`.
"""

from .interconnect import Interconnect, LOOPBACK, NVLINK, PCIE
from .mesh import CollectiveChannel, MeshContext, MeshExecutor, MeshVM
from .shard import (
    Replicated,
    ShardSpec,
    ShardingPlan,
    Split,
    make_llama_tp_plan,
    shard_slice,
)

__all__ = [
    "CollectiveChannel",
    "Interconnect",
    "LOOPBACK",
    "MeshContext",
    "MeshExecutor",
    "MeshVM",
    "NVLINK",
    "PCIE",
    "Replicated",
    "ShardSpec",
    "ShardingPlan",
    "Split",
    "make_llama_tp_plan",
    "shard_slice",
]
