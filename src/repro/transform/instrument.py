"""Built-in pass instruments (TVM-style ``PassInstrument`` hooks).

An instrument observes (and can veto) every pass run inside a
:class:`~repro.transform.pass_infra.PassContext`.  The lifecycle is:

* ``enter_pass_ctx`` / ``exit_pass_ctx`` — fired when the owning context
  is entered / left as a ``with`` block;
* ``should_run`` — consulted before every non-required pass; returning
  False skips it (recorded as ``instrument:<name>`` in the report);
* ``run_before_pass`` / ``run_after_pass`` — bracket each executed pass.

Built-ins:

* :class:`Timing` — per-pass wall time, filled into the context's
  :class:`~repro.transform.pass_infra.PipelineReport`;
* :class:`IRStats` — function/binding/expression-node counts
  before → after each pass;
* :class:`WellFormedVerifier` — runs the well-formedness checker after
  every pass, naming the failing pass in the raised error;
* :class:`PrintIRDiff` — prints the module whenever a pass changed it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple

from ..core.ir_module import IRModule
from ..core.printer import format_module
from ..core.visitor import ExprVisitor
from ..core.well_formed import WellFormedError, well_formed


class PassInstrument:
    """Observer with veto power over pipeline passes."""

    name = "instrument"

    def enter_pass_ctx(self, ctx) -> None:
        """Called when the owning PassContext scope is entered."""

    def exit_pass_ctx(self, ctx) -> None:
        """Called when the owning PassContext scope is left."""

    def should_run(self, mod: IRModule, pass_, ctx) -> bool:
        """Return False to skip ``pass_`` (required passes are exempt)."""
        return True

    def run_before_pass(self, mod: IRModule, pass_, ctx) -> None:
        """Called just before an executed pass transforms ``mod``."""

    def run_after_pass(self, mod: IRModule, pass_, ctx) -> None:
        """Called with the transformed module after the pass ran."""


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


class Timing(PassInstrument):
    """Record per-pass wall time into the context's PipelineReport.

    Also keeps its own ``records`` list of ``(pass_name, seconds)`` in
    execution order, so a single Timing instance can be shared across
    contexts (e.g. one per benchmark sweep).
    """

    name = "timing"

    def __init__(self):
        self._starts: List[float] = []
        self.records: List[Tuple[str, float]] = []

    def run_before_pass(self, mod, pass_, ctx) -> None:
        self._starts.append(time.perf_counter())

    def run_after_pass(self, mod, pass_, ctx) -> None:
        duration = time.perf_counter() - self._starts.pop()
        self.records.append((pass_.name, duration))
        record = ctx.current_record
        if record is not None:
            record.duration_s = (record.duration_s or 0.0) + duration

    def executed_names(self) -> List[str]:
        return [name for name, _ in self.records]

    def total_s(self) -> float:
        return sum(duration for _, duration in self.records)


# ---------------------------------------------------------------------------
# IRStats
# ---------------------------------------------------------------------------


class _NodeCounter(ExprVisitor):
    def __init__(self):
        self.nodes = 0
        self.bindings = 0

    def visit(self, expr) -> None:
        self.nodes += 1
        super().visit(expr)

    def visit_binding(self, binding) -> None:
        self.bindings += 1
        super().visit_binding(binding)


def ir_stats(mod: IRModule) -> Dict[str, int]:
    """Structural size of a module: functions, bindings, expression nodes."""
    counter = _NodeCounter()
    relax_count = 0
    for _, func in mod.relax_functions():
        relax_count += 1
        counter.visit(func)
    tir_count = sum(1 for _ in mod.tir_functions())
    return {
        "relax_functions": relax_count,
        "tir_functions": tir_count,
        "bindings": counter.bindings,
        "nodes": counter.nodes,
    }


class IRStats(PassInstrument):
    """Record module size before → after every pass."""

    name = "ir_stats"

    def __init__(self):
        self._before: List[Optional[Dict[str, int]]] = []
        #: The module ``run_after_pass`` counted last, with its count: the
        #: next pass is handed that very object, so it is not walked again.
        self._counted: Optional[Tuple[IRModule, Dict[str, int]]] = None

    def exit_pass_ctx(self, ctx) -> None:
        self._counted = None

    def run_before_pass(self, mod, pass_, ctx) -> None:
        counted = self._counted
        if counted is not None and counted[0] is mod:
            stats = dict(counted[1])
        else:
            stats = ir_stats(mod) if isinstance(mod, IRModule) else None
        self._before.append(stats)

    def run_after_pass(self, mod, pass_, ctx) -> None:
        before = self._before.pop()
        # Always walked: a pass may return its input, changed in place.
        after = ir_stats(mod) if isinstance(mod, IRModule) else None
        self._counted = None if after is None else (mod, after)
        record = ctx.current_record
        if record is None or before is None or after is None:
            return
        record.metrics["ir_before"] = before
        record.metrics["ir_after"] = after


# ---------------------------------------------------------------------------
# WellFormedVerifier
# ---------------------------------------------------------------------------


class WellFormedVerifier(PassInstrument):
    """Verify IR invariants after every pass, blaming the pass by name.
    The symbolic-scope checks run by default."""

    name = "well_formed_verifier"

    def __init__(self, check_sym_scope: bool = True):
        self.check_sym_scope = check_sym_scope

    def run_after_pass(self, mod, pass_, ctx) -> None:
        if not isinstance(mod, IRModule):
            return  # codegen produced an Executable; nothing to verify
        try:
            well_formed(mod, check_sym_scope=self.check_sym_scope)
        except WellFormedError as err:
            raise WellFormedError(
                f"IR is ill-formed after pass {pass_.name!r}: {err}"
            ) from err


# ---------------------------------------------------------------------------
# PrintIRDiff
# ---------------------------------------------------------------------------


class PrintIRDiff(PassInstrument):
    """Print the module after every pass that changed it.

    ``only`` restricts printing to the named passes; ``stream`` defaults
    to stdout (pass an ``io.StringIO`` to capture).
    """

    name = "print_ir_diff"

    def __init__(self, only: Optional[Sequence[str]] = None,
                 stream: Optional[TextIO] = None):
        self.only = set(only) if only is not None else None
        self.stream = stream
        self._before: List[Optional[str]] = []

    def _print(self, text: str) -> None:
        if self.stream is not None:
            self.stream.write(text + "\n")
        else:
            print(text)

    def run_before_pass(self, mod, pass_, ctx) -> None:
        text = format_module(mod) if isinstance(mod, IRModule) else None
        self._before.append(text)

    def run_after_pass(self, mod, pass_, ctx) -> None:
        before = self._before.pop()
        if self.only is not None and pass_.name not in self.only:
            return
        after = format_module(mod) if isinstance(mod, IRModule) else None
        if after is None or after == before:
            return
        self._print(f"== after {pass_.name} " + "=" * 40)
        self._print(after)
