"""Analysis-based tensor program scheduling and Ansor-style tuning (§4.6).

The paper optimizes tensor programs two ways beyond library offloading:

* **analysis-based dynamic shape-aware schedule rules** "to optimize
  tensor programs by minimizing memory loading" — here, a rule pass that
  inspects each PrimFunc's pattern kind and loop structure and attaches a
  schedule class (``matvec`` / ``gemm`` / ``reduction`` / ``ewise``), which
  the device model translates into an achieved-efficiency class;
* **Ansor-style autotuning "for rare tensor programs that our
  analysis-based schedule rules fail to handle"** — here, a search pass
  that evaluates candidate schedules under the device cost model for a
  representative shape binding and keeps the best, recording the chosen
  candidate and its predicted time as function attributes.

Both run as ordinary module passes over the cross-level IR — partial
lowering in action: tuned functions keep their ``call_tir`` call sites
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import tir
from ..core.ir_module import IRModule
from .pass_infra import Pass, PassContext, register_pass

SCHEDULE_ATTR = "schedule_class"
TUNE_ATTR = "tuned"


@register_pass
class ScheduleRules(Pass):
    """Attach analysis-derived schedule classes to every tensor program."""

    # Required: the VM's cost model reads the schedule_class attribute.
    name = "ScheduleRules"
    opt_level = 0
    required = True

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        for name, func in mod.tir_functions():
            if SCHEDULE_ATTR in func.attrs:
                continue
            func.attrs[SCHEDULE_ATTR] = classify_schedule(func)
        return mod


def classify_schedule(func: tir.PrimFunc) -> str:
    """Pick the schedule family from loop structure (no manual per-op
    annotations — the same analysis-feedback philosophy as Algorithm 1)."""
    kind = tir.pattern_kind(func)
    if func.attrs.get("op_kind") == "matmul":
        return "gemm"
    if func.attrs.get("op_kind") == "attention":
        return "attention"  # covered by the dedicated flash-style rule
    if kind == tir.PatternKind.OUT_EWISE_FUSIBLE:
        return "gemm"
    if kind == tir.PatternKind.REDUCTION:
        return "reduction"
    if kind in (tir.PatternKind.ELEMENT_WISE, tir.PatternKind.BROADCAST):
        return "ewise"
    if kind == tir.PatternKind.INJECTIVE:
        return "injective"
    return "opaque"


@dataclass
class ScheduleCandidate:
    """One point in the (mock) schedule search space."""

    name: str
    efficiency: float  # achieved fraction of roofline under this schedule


#: Default search space per schedule class: tile sizes / vectorization
#: choices abstracted to the efficiency they achieve.  Opaque programs get
#: the widest space — they are the "rare tensor programs" autotuning is for.
DEFAULT_SPACE: Dict[str, List[ScheduleCandidate]] = {
    "gemm": [
        ScheduleCandidate("tile_16x16", 0.38),
        ScheduleCandidate("tile_32x32_vec4", 0.50),
        ScheduleCandidate("tile_64x64_stages2", 0.55),
    ],
    "reduction": [
        ScheduleCandidate("tree_reduce", 0.55),
        ScheduleCandidate("warp_shuffle", 0.62),
    ],
    "ewise": [
        ScheduleCandidate("vec2", 0.55),
        ScheduleCandidate("vec4", 0.62),
    ],
    "injective": [
        ScheduleCandidate("vec2", 0.52),
        ScheduleCandidate("vec4_coalesced", 0.60),
    ],
    "opaque": [
        ScheduleCandidate("naive", 0.30),
        ScheduleCandidate("blocked", 0.42),
        ScheduleCandidate("blocked_shared", 0.50),
        ScheduleCandidate("blocked_shared_vec", 0.56),
    ],
}


#: The representative value every free symbolic variable is bound to
#: while tuning.
_TUNING_SHAPE = 64


@register_pass
class TuneTir(Pass):
    """Evaluate schedule candidates under the device cost model.

    Only ``opaque`` programs are tuned, mirroring the paper: autotuning is
    reserved for programs the analysis rules do not cover well.  Tuning
    binds every free symbolic variable to a representative value — the
    tuned schedule still executes for *all* shapes, exactly like a
    dynamic shape-aware schedule.
    """

    name = "TuneTir"
    opt_level = 2
    opt_flag = "enable_autotuning"

    def __init__(
            self, space: Optional[Dict[str, List[ScheduleCandidate]]] = None):
        self.space = space or DEFAULT_SPACE

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        # Direct .run: idempotent prerequisite, not a separate pipeline step.
        ScheduleRules().run(mod, ctx)
        for name, func in mod.tir_functions():
            klass = func.attrs[SCHEDULE_ATTR]
            if klass != "opaque":
                continue
            candidates = self.space.get(klass)
            if not candidates:
                continue
            bindings = {var: _TUNING_SHAPE for var in func.free_sym_vars()}
            flops = tir.count_flops(func, bindings)
            nbytes = tir.count_bytes(func, bindings)
            best, best_time = None, float("inf")
            for cand in candidates:
                time = ctx.device.kernel_time(flops, nbytes, cand.efficiency,
                                              include_launch=False)
                if time < best_time:
                    best, best_time = cand, time
            func.attrs[TUNE_ATTR] = best.name
            func.attrs["tuned_efficiency"] = best.efficiency
        return mod
