"""Pass infrastructure: module-to-module transformations with contexts.

Relax uses a fixed-order pipeline *without* fixed-point iteration (§4.7),
but the ablations (Fig. 17, Table 2) depend on toggling and *observing*
individual stages.  The infrastructure here therefore mirrors TVM's
``PassContext`` / ``PassInstrument`` shape:

* every :class:`Pass` declares metadata — ``name``, ``opt_level``,
  ``required`` and optionally ``opt_flag`` (the :class:`PassContext`
  boolean that gates it) — and registers itself in a module-level
  registry so pipelines can be built and overridden *by name*;
* :class:`PassContext` is a scoped context manager
  (``with PassContext(...) as ctx: ...`` / ``PassContext.current()``)
  carrying a list of :class:`~repro.transform.instrument.PassInstrument`
  hooks with ``enter_pass_ctx / should_run / run_before_pass /
  run_after_pass / exit_pass_ctx`` lifecycle methods;
* every pass execution (or skip) is recorded in the context's
  :class:`PipelineReport`, which ``optimize()`` / ``build()`` can return
  and the benchmark harness serializes alongside results.

:class:`Sequential` composes passes; gating (``enable_*`` flags,
``opt_level``, instrument vetoes) happens uniformly in
:meth:`Pass.__call__`, not ad hoc inside pass bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from .. import sym
from ..core.ir_module import IRModule
from ..runtime.device import Device, TEST_DEVICE
from ..runtime.library import REGISTRY, LibraryRegistry


# ---------------------------------------------------------------------------
# Pipeline report
# ---------------------------------------------------------------------------


@dataclass
class PassRecord:
    """One pipeline step: an executed or skipped pass."""

    name: str
    index: int
    ran: bool = True
    #: Why the pass did not run: ``"flag:<enable_*>"``, ``"opt_level"``,
    #: or ``"instrument:<name>"``.
    skipped_by: Optional[str] = None
    #: Wall time, filled by the :class:`~repro.transform.instrument.Timing`
    #: instrument (``None`` when no Timing instrument is active).
    duration_s: Optional[float] = None
    #: Free-form per-pass measurements contributed by instruments
    #: (e.g. IRStats' before/after node counts).
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "index": self.index,
                               "ran": self.ran}
        if self.skipped_by is not None:
            out["skipped_by"] = self.skipped_by
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.metrics:
            out["metrics"] = dict(self.metrics)
        return out


@dataclass
class PipelineReport:
    """Ordered record of every pass the pipeline executed or skipped."""

    records: List[PassRecord] = field(default_factory=list)

    def new_record(self, name: str) -> PassRecord:
        record = PassRecord(name=name, index=len(self.records))
        self.records.append(record)
        return record

    # -- views --------------------------------------------------------------

    @property
    def executed(self) -> List[PassRecord]:
        return [r for r in self.records if r.ran]

    @property
    def skipped(self) -> List[PassRecord]:
        return [r for r in self.records if not r.ran]

    def executed_names(self) -> List[str]:
        return [r.name for r in self.executed]

    def timings(self) -> Dict[str, float]:
        """Accumulated wall time per pass name (Timing instrument data)."""
        out: Dict[str, float] = {}
        for r in self.executed:
            if r.duration_s is not None:
                out[r.name] = out.get(r.name, 0.0) + r.duration_s
        return out

    @property
    def total_duration_s(self) -> float:
        return sum(r.duration_s or 0.0 for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passes": [r.to_dict() for r in self.records],
            "total_duration_s": self.total_duration_s,
        }

    def format(self) -> str:
        """Human-readable per-pass table."""
        lines = [f"{'#':>3}  {'pass':<24} {'time':>10}  notes"]
        for r in self.records:
            if r.ran:
                time_txt = (f"{r.duration_s * 1e3:.3f} ms"
                            if r.duration_s is not None else "—")
                note = ", ".join(
                    f"{k}={v}" for k, v in r.metrics.items()
                    if v is not None and not isinstance(v, dict)
                )
            else:
                time_txt = "skipped"
                note = r.skipped_by or ""
            lines.append(f"{r.index:>3}  {r.name:<24} {time_txt:>10}  {note}")
        lines.append(f"     {'total':<24} "
                     f"{self.total_duration_s * 1e3:>7.3f} ms")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# PassContext
# ---------------------------------------------------------------------------


@dataclass
class PassContext:
    """Options threaded through the pipeline, plus instrumentation state.

    Usable two ways: passed explicitly (``some_pass(mod, ctx)``) or scoped
    (``with PassContext(...) as ctx: build(mod)``) — inside a ``with``
    block, :meth:`PassContext.current` (which every pass consults when no
    context is given) returns the innermost active context.
    """

    device: Device = TEST_DEVICE
    registry: LibraryRegistry = field(default_factory=lambda: REGISTRY)
    #: Declared upper bounds for symbolic variables by *name* (e.g. the LLM
    #: context length), enabling static memory planning (§4.3).
    sym_var_upper_bounds: Dict[str, int] = field(default_factory=dict)
    enable_library_dispatch: bool = True
    enable_fusion: bool = True
    enable_memory_planning: bool = True
    enable_cuda_graph: bool = True
    enable_autotuning: bool = False  # Ansor-style tuning for opaque kernels
    #: Passes with a declared ``opt_level`` above this are skipped unless
    #: marked ``required``.
    opt_level: int = 2
    #: Active :class:`~repro.transform.instrument.PassInstrument` hooks.
    instruments: List["PassInstrument"] = field(default_factory=list)
    #: Per-pass execution log, appended to by every pass run in this context.
    report: PipelineReport = field(default_factory=PipelineReport)

    _stack: ClassVar[List["PassContext"]] = []

    def __post_init__(self):
        #: Stack of records for passes currently executing (innermost last),
        #: so instruments annotate the right record even on nested calls.
        self._active_records: List[PassRecord] = []
        self._scope_depth = 0

    # -- scoping ------------------------------------------------------------

    @classmethod
    def current(cls) -> "PassContext":
        """The innermost active context, or a fresh default one."""
        if cls._stack:
            return cls._stack[-1]
        return cls()

    def __enter__(self) -> "PassContext":
        PassContext._stack.append(self)
        self._scope_depth += 1
        if self._scope_depth == 1:
            for inst in self.instruments:
                inst.enter_pass_ctx(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._scope_depth == 1:
            for inst in reversed(self.instruments):
                inst.exit_pass_ctx(self)
        self._scope_depth -= 1
        popped = PassContext._stack.pop()
        assert popped is self, "PassContext scopes must nest properly"

    # -- helpers ------------------------------------------------------------

    def bounds_for(self, variables) -> sym.VarBounds:
        """Interval table for the given symbolic variables (matched by name)."""
        out: sym.VarBounds = {}
        for var in variables:
            bound = self.sym_var_upper_bounds.get(var.name)
            if bound is not None:
                out[var] = sym.Interval(0, int(bound))
        return out

    def flag(self, name: str) -> bool:
        """Read an ``enable_*`` toggle by name (unknown flags read True)."""
        return bool(getattr(self, name, True))

    @property
    def current_record(self) -> Optional[PassRecord]:
        """The record of the pass currently executing, for instruments."""
        if self._active_records:
            return self._active_records[-1]
        return None


# ---------------------------------------------------------------------------
# Pass base classes
# ---------------------------------------------------------------------------


class Pass:
    """A module-to-module transformation with declared metadata.

    Class attributes:

    ``name``
        Registry key and report label.
    ``opt_level``
        Optimization tier; the pass is skipped when
        ``PassContext.opt_level`` is lower (unless ``required``).
        0 = mandatory lowering, 1 = standard optimization, 2 = expensive.
    ``required``
        Correctness-critical: never skipped by flags, opt_level, or
        instrument vetoes.
    ``opt_flag``
        Name of the ``PassContext`` boolean gating this pass
        (e.g. ``"enable_fusion"``), or ``None`` for always-on.
    """

    name = "pass"
    opt_level = 1
    required = False
    opt_flag: Optional[str] = None
    #: Container passes (e.g. Sequential) delegate to children and are not
    #: themselves gated, instrumented, or recorded.
    is_container = False

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        raise NotImplementedError

    def _skip_reason(self, mod: IRModule, ctx: PassContext) -> Optional[str]:
        if self.required:
            return None
        if self.opt_flag is not None and not ctx.flag(self.opt_flag):
            return f"flag:{self.opt_flag}"
        if self.opt_level > ctx.opt_level:
            return f"opt_level:{self.opt_level}>{ctx.opt_level}"
        for inst in ctx.instruments:
            if not inst.should_run(mod, self, ctx):
                return f"instrument:{inst.name}"
        return None

    def __call__(self, mod: IRModule, ctx: Optional[PassContext] = None) -> IRModule:
        ctx = ctx or PassContext.current()
        if self.is_container:
            return self.run(mod, ctx)
        record = ctx.report.new_record(self.name)
        reason = self._skip_reason(mod, ctx)
        if reason is not None:
            record.ran = False
            record.skipped_by = reason
            return mod
        ctx._active_records.append(record)
        try:
            for inst in ctx.instruments:
                inst.run_before_pass(mod, self, ctx)
            out = self.run(mod, ctx)
            for inst in reversed(ctx.instruments):
                inst.run_after_pass(out, self, ctx)
        finally:
            ctx._active_records.pop()
        return out


class FunctionPass(Pass):
    """Applies a per-function rewrite to every Relax function."""

    def transform_function(self, name, func, mod: IRModule, ctx: PassContext):
        raise NotImplementedError

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        out = mod.copy()
        for name, func in list(mod.relax_functions()):
            new_func = self.transform_function(name, func, out, ctx)
            if new_func is not None and new_func is not func:
                out.add(name, new_func)
        return out


class Sequential(Pass):
    """Runs passes in order (the fixed-order pipeline of §4.7)."""

    name = "sequential"
    is_container = True

    def __init__(self, passes: List[Pass]):
        self.passes = list(passes)

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        for p in self.passes:
            mod = p(mod, ctx)
        return mod


class LambdaPass(Pass):
    """Wrap a plain function as a pass (testing convenience)."""

    def __init__(self, fn: Callable[[IRModule, PassContext], IRModule], name="lambda"):
        self.fn = fn
        self.name = name

    def run(self, mod: IRModule, ctx: PassContext) -> IRModule:
        return self.fn(mod, ctx)


# ---------------------------------------------------------------------------
# Pass registry
# ---------------------------------------------------------------------------

_PASS_REGISTRY: Dict[str, Type[Pass]] = {}


def register_pass(cls: Type[Pass]) -> Type[Pass]:
    """Class decorator: register a pass under its declared ``name``."""
    key = cls.name
    if key in (None, "", "pass"):
        raise ValueError(f"pass class {cls.__name__} must declare a name")
    existing = _PASS_REGISTRY.get(key)
    if existing is not None and existing is not cls:
        raise ValueError(f"pass name {key!r} already registered by "
                         f"{existing.__name__}")
    _PASS_REGISTRY[key] = cls
    return cls


def get_pass(name: str, **kwargs) -> Pass:
    """Instantiate a registered pass by name."""
    try:
        cls = _PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_PASS_REGISTRY))
        raise KeyError(f"no pass named {name!r}; registered: {known}") from None
    return cls(**kwargs)


def registered_passes() -> Tuple[str, ...]:
    """Names of all registered passes, sorted."""
    return tuple(sorted(_PASS_REGISTRY))


def pass_metadata(name: str) -> Dict[str, Any]:
    """Declared metadata of a registered pass, for introspection."""
    cls = _PASS_REGISTRY[name]
    return {
        "name": cls.name,
        "opt_level": cls.opt_level,
        "required": cls.required,
        "opt_flag": cls.opt_flag,
    }


def build_pipeline(names: Iterable[str], *,
                   skip: Sequence[str] = ()) -> Sequential:
    """Build a Sequential from registered pass names, minus ``skip``."""
    dropped = set(skip)
    return Sequential([get_pass(n) for n in names if n not in dropped])
