"""Instrumented pass infrastructure: registry, scoped PassContext,
PassInstrument lifecycle, built-in instruments, and the PipelineReport."""

import io
import json

import numpy as np
import pytest

from repro import ops, transform
from repro.core import BlockBuilder, TensorAnn, const
from repro.core.printer import format_module
from repro.core.well_formed import WellFormedError
from repro.models import TINY_LLAMA, build_llama
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
from repro.transform import (
    IRStats,
    LambdaPass,
    PassContext,
    PassInstrument,
    PrintIRDiff,
    Timing,
    WellFormedVerifier,
)

RNG = np.random.default_rng(7)

WEIGHT = np.asarray(RNG.standard_normal((8, 8)), dtype=np.float32)


def _simple_module():
    """relu(x @ w) + exp(x @ w): enough structure for fusion, dispatch,
    planning and graph capture to all have something to do."""
    bb = BlockBuilder()
    w = const(WEIGHT)
    with bb.function("main", {"x": TensorAnn(("n", 8), "f32")}) as frame:
        (x,) = frame.params
        with bb.dataflow():
            mm = bb.emit(ops.matmul(x, w))
            r = bb.emit(ops.relu(mm))
            e = bb.emit(ops.exp(mm))
            out = bb.emit(ops.add(r, e))
            gv = bb.emit_output(out)
        bb.emit_func_output(gv)
    return bb.get()


class TestRegistry:
    def test_all_pipeline_passes_registered(self):
        names = transform.registered_passes()
        for name in transform.DEFAULT_PIPELINE:
            assert name in names
        assert "VMCodegen" in names
        assert "RefineShapes" in names

    def test_get_pass_builds_instances(self):
        p = transform.get_pass("FuseOps")
        assert isinstance(p, transform.FuseOps)
        with pytest.raises(KeyError, match="no pass named"):
            transform.get_pass("NoSuchPass")

    def test_metadata_declared(self):
        meta = transform.pass_metadata("FuseOps")
        assert meta == {"name": "FuseOps", "opt_level": 1,
                        "required": False, "opt_flag": "enable_fusion"}
        assert transform.pass_metadata("LegalizeOps")["required"] is True
        assert transform.pass_metadata("TuneTir")["opt_flag"] == "enable_autotuning"

    def test_pipeline_override_by_name(self):
        pipe = transform.build_pipeline(
            ["FoldConstant", "LegalizeOps"], skip=["FoldConstant"]
        )
        assert [p.name for p in pipe.passes] == ["LegalizeOps"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @transform.register_pass
            class Impostor(transform.Pass):
                name = "FuseOps"


class TestScopedContext:
    def test_current_returns_scoped_context(self):
        outer = PassContext()
        inner = PassContext()
        with outer:
            assert PassContext.current() is outer
            with inner:
                assert PassContext.current() is inner
            assert PassContext.current() is outer
        assert PassContext.current() is not outer  # fresh default

    def test_enter_exit_hooks_fire_once(self):
        events = []

        class Recorder(PassInstrument):
            def enter_pass_ctx(self, ctx):
                events.append("enter")

            def exit_pass_ctx(self, ctx):
                events.append("exit")

        ctx = PassContext(instruments=[Recorder()])
        with ctx:
            with ctx:  # re-entrant (build() inside a user scope)
                pass
        assert events == ["enter", "exit"]

    def test_scoped_build_uses_active_context(self):
        mod = _simple_module()
        timing = Timing()
        with PassContext(instruments=[timing]) as ctx:
            exe = transform.build(mod)
        assert timing.records, "scoped instruments must observe build()"
        assert exe.pipeline_report is ctx.report


class TestGoldenOutput:
    def test_instrumented_pipeline_is_identical(self):
        """Acceptance: optimize() under Timing+IRStats returns an identical
        IRModule to the uninstrumented run, while producing a report with
        one entry per executed pass."""
        exported = build_llama(TINY_LLAMA)
        bounds = {"b": 4, "s": 16, "m": 16}
        plain = transform.optimize(
            exported.mod,
            PassContext(device=TEST_DEVICE, sym_var_upper_bounds=bounds),
        )
        ctx = PassContext(
            device=TEST_DEVICE, sym_var_upper_bounds=bounds,
            instruments=[Timing(), IRStats()],
        )
        instrumented, report = transform.optimize(
            exported.mod, ctx, return_report=True
        )
        assert format_module(plain) == format_module(instrumented)
        executed = report.executed
        assert len(executed) == len(transform.DEFAULT_PIPELINE) - 1  # TuneTir off
        for record in executed:
            assert record.duration_s is not None
            assert record.metrics["ir_after"]["relax_functions"] >= 1
        assert [r.name for r in report.skipped] == ["TuneTir"]

    def test_ir_stats_walks_each_module_once_and_reports_the_same(self, monkeypatch):
        """The module pass i returns is the one pass i+1 receives: IRStats
        counts it once.  Every recorded before/after number equals a fresh
        count — also around a pass that edits its input in place."""
        from repro.transform import instrument

        def add_a_function(mod, ctx):
            _, func = next(iter(mod.tir_functions()))
            mod.add("unused_copy", func)
            return mod  # same object, now larger

        walked = []
        fresh_count = instrument.ir_stats

        def counting(mod):
            walked.append(mod)
            return fresh_count(mod)

        monkeypatch.setattr(instrument, "ir_stats", counting)
        passes = [transform.get_pass(n) for n in ("LegalizeOps", "FuseOps")]
        passes.insert(1, LambdaPass(add_a_function, name="InPlace"))

        class Reference(PassInstrument):
            """What IRStats recorded before: both ends freshly counted."""

            def __init__(self):
                self.rows = []

            def run_before_pass(self, mod, pass_, ctx):
                self.rows.append([fresh_count(mod)])

            def run_after_pass(self, mod, pass_, ctx):
                self.rows[-1].append(fresh_count(mod))

        reference = Reference()
        ctx = PassContext(device=TEST_DEVICE,
                          instruments=[IRStats(), reference])
        with ctx:
            mod = _simple_module()
            for p in passes:
                mod = p(mod, ctx)
        assert len(walked) == 1 + len(passes)  # was 2 * len(passes)
        got = [[r.metrics["ir_before"], r.metrics["ir_after"]]
               for r in ctx.report.executed]
        assert got == reference.rows
        in_place = got[1]
        assert in_place[0]["tir_functions"] + 1 == in_place[1]["tir_functions"]
        assert got[0][1] is not got[1][0]  # reused counts are copies

    def test_report_serializes(self):
        mod = _simple_module()
        ctx = PassContext(instruments=[Timing(), IRStats()])
        transform.optimize(mod, ctx)
        payload = json.loads(json.dumps(ctx.report.to_dict()))
        assert len(payload["passes"]) == len(transform.DEFAULT_PIPELINE)
        assert payload["total_duration_s"] > 0
        text = ctx.report.format()
        assert "FoldConstant" in text and "skipped" in text


FLAG_TO_PASS = {
    "enable_fusion": "FuseOps",
    "enable_library_dispatch": "LibraryDispatch",
    "enable_memory_planning": "MemoryPlan",
    "enable_cuda_graph": "CUDAGraphOffload",
    "enable_autotuning": "TuneTir",
}


class TestAblationFlags:
    """Each enable_* toggle removes exactly its pass from the executed
    sequence (observable via the Timing instrument) without changing the
    computed result."""

    def _run(self, mod, **flags):
        timing = Timing()
        ctx = PassContext(device=TEST_DEVICE, instruments=[timing], **flags)
        exe = transform.build(mod, ctx=ctx)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True,
                            enable_cuda_graph=ctx.enable_cuda_graph)
        x = RNG.standard_normal((5, 8)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x)).numpy()
        return timing.executed_names(), ctx.report, out, x

    @pytest.mark.parametrize("flag", sorted(FLAG_TO_PASS))
    def test_toggle_removes_pass_and_preserves_output(self, flag):
        pass_name = FLAG_TO_PASS[flag]
        mod_on, mod_off = _simple_module(), _simple_module()
        on_default = PassContext().flag(flag)

        executed_on, _, out_on, x_on = self._run(mod_on, **{flag: True})
        executed_off, report_off, out_off, x_off = self._run(
            mod_off, **{flag: False}
        )
        assert pass_name in executed_on
        assert pass_name not in executed_off
        skipped = {r.name: r.skipped_by for r in report_off.skipped}
        assert skipped.get(pass_name) == f"flag:{flag}"
        if not on_default:
            # autotuning defaults off; make sure default == off sequence
            assert executed_off == self._run(_simple_module())[0]

        for x, out in ((x_on, out_on), (x_off, out_off)):
            mm = x @ WEIGHT
            expected = np.maximum(mm, 0) + np.exp(mm)
            np.testing.assert_allclose(out, expected, rtol=2e-5)


class TestInstrumentVeto:
    def test_should_run_skips_optional_pass(self):
        class NoFusion(PassInstrument):
            name = "no_fusion"

            def should_run(self, mod, pass_, ctx):
                return pass_.name != "FuseOps"

        mod = _simple_module()
        ctx = PassContext(instruments=[NoFusion(), Timing()])
        transform.optimize(mod, ctx)
        skipped = {r.name: r.skipped_by for r in ctx.report.skipped}
        assert skipped["FuseOps"] == "instrument:no_fusion"

    def test_required_passes_are_immune(self):
        class VetoAll(PassInstrument):
            name = "veto_all"

            def should_run(self, mod, pass_, ctx):
                return False

        mod = _simple_module()
        ctx = PassContext(instruments=[VetoAll()])
        transform.optimize(mod, ctx)
        executed = set(ctx.report.executed_names())
        assert "LegalizeOps" in executed and "LowerCallTIR" in executed
        assert "FuseOps" not in executed

    def test_opt_level_gates_optional_passes(self):
        mod = _simple_module()
        ctx = PassContext(opt_level=0)
        transform.optimize(mod, ctx)
        executed = set(ctx.report.executed_names())
        assert executed == {
            "LegalizeOps", "FuseTensorIR", "ScheduleRules",
            "WorkspaceLifting", "LowerCallTIR", "InsertKills",
        }


class TestWellFormedVerifier:
    def _ill_forming_pass(self):
        """A pass that rebinds main's body to use an unbound variable."""
        from repro.core import Function, SeqExpr, Var
        from repro.core.expr import BindingBlock, VarBinding

        def corrupt(mod, ctx):
            out = mod.copy()
            name, func = next(out.relax_functions())
            rogue = Var("rogue", TensorAnn(("n", 8), "f32"))
            binding = VarBinding(Var("y", None), ops.relu(rogue))
            body = SeqExpr([BindingBlock([binding])], binding.var)
            out.add(name, Function(func.params, body, func.ret_ann,
                                   func.attrs, func.name))
            return out

        return LambdaPass(corrupt, name="CorruptingPass")

    def test_failure_names_the_pass(self):
        mod = _simple_module()
        ctx = PassContext(instruments=[WellFormedVerifier()])
        with pytest.raises(WellFormedError, match="CorruptingPass"):
            self._ill_forming_pass()(mod, ctx)

    def test_sym_scope_checked_by_default(self):
        """Symbolic-scope violations are caught unless the instrument is
        told not to look."""
        from repro import core
        from repro.core import Function, SeqExpr, Var
        from repro.core.expr import BindingBlock, VarBinding

        def leak_sym_var(mod, ctx):
            out = mod.copy()
            name, func = next(out.relax_functions())
            # Annotation mentions a symbolic var never introduced in scope.
            leaked = TensorAnn(("phantom", 8), "f32")
            (x,) = func.params
            binding = VarBinding(Var("y", leaked), ops.relu(x))
            body = SeqExpr([BindingBlock([binding])], binding.var)
            out.add(name, Function(func.params, body, func.ret_ann,
                                   func.attrs, func.name))
            return out

        mod = _simple_module()
        leak = LambdaPass(leak_sym_var, name="LeakyPass")
        strict = PassContext(instruments=[WellFormedVerifier()])
        with pytest.raises(WellFormedError, match="LeakyPass"):
            leak(mod, strict)
        lax = PassContext(
            instruments=[WellFormedVerifier(check_sym_scope=False)]
        )
        leak(_simple_module(), lax)  # masked

    def test_legacy_flag_installs_verifier(self):
        """The flag is gone: the instrument is the one way to verify."""
        with pytest.raises(TypeError):
            PassContext(verify_each_pass=True)
        ctx = PassContext(instruments=[WellFormedVerifier()])
        assert any(isinstance(i, WellFormedVerifier) for i in ctx.instruments)


class TestPrintIRDiff:
    def test_prints_only_changed_passes(self):
        mod = _simple_module()
        stream = io.StringIO()
        ctx = PassContext(instruments=[PrintIRDiff(stream=stream)])
        transform.optimize(mod, ctx)
        text = stream.getvalue()
        assert "after LegalizeOps" in text
        # FoldConstant has nothing to fold here -> no diff printed.
        assert "after FoldConstant" not in text

    def test_only_filter(self):
        mod = _simple_module()
        stream = io.StringIO()
        ctx = PassContext(
            instruments=[PrintIRDiff(only=["FuseOps"], stream=stream)]
        )
        transform.optimize(mod, ctx)
        text = stream.getvalue()
        assert "after FuseOps" in text
        assert "after LegalizeOps" not in text


class TestCompileAndLoad:
    def test_context_threads_to_vm(self):
        """compile_and_load constructs one context for build() and the VM:
        the VM's cuda-graph setting always matches the compiled artifact."""
        mod = _simple_module()
        vm = transform.compile_and_load(mod, TEST_DEVICE,
                                        enable_cuda_graph=False)
        assert vm.enable_cuda_graph is False
        assert getattr(vm.exe, "pipeline_report", None) is not None
        x = RNG.standard_normal((3, 8)).astype(np.float32)
        vm.run("main", NDArray.from_numpy(x))

    def test_explicit_context(self):
        mod = _simple_module()
        ctx = PassContext(device=TEST_DEVICE, enable_fusion=False,
                          instruments=[Timing()])
        vm = transform.compile_and_load(mod, ctx=ctx)
        assert "FuseOps" not in ctx.report.executed_names()
        assert vm.enable_cuda_graph is True
