"""Per-pass tests: DCE, legalize, fusion, workspace lifting, memory plan."""

import numpy as np
import pytest

from repro import core, ops, sym, tir, transform
from repro.core import BlockBuilder, Function, SeqExpr, TensorAnn, const
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
from repro.transform import PassContext, WellFormedVerifier

RNG = np.random.default_rng(3)


def _lookup_factory(mod):
    def lookup(gvar):
        target = mod[gvar.name_hint] if gvar.name_hint in mod else None
        return target.signature_ann() if isinstance(target, Function) else None

    return lookup


class TestDeadCode:
    def _module_with_dead_binding(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n", 4), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                live = bb.emit(ops.relu(x))
                bb.emit(ops.exp(x))  # dead
                gv = bb.emit_output(live)
            bb.emit_func_output(gv)
        return bb.get()

    def test_dead_binding_removed(self):
        mod = self._module_with_dead_binding()
        out = transform.DeadCodeElimination()(mod, PassContext())
        bindings = out["f"].body.blocks[0].bindings
        assert len(bindings) == 2  # relu + output alias

    def test_transitively_dead_chain_removed(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n",), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                a = bb.emit(ops.exp(x))
                bb.emit(ops.relu(a))  # dead, makes `a` dead too
                gv = bb.emit_output(x)
            bb.emit_func_output(gv)
        mod = bb.get()
        out = transform.DeadCodeElimination()(mod, PassContext())
        assert len(out["f"].body.blocks[0].bindings) == 1

    def test_non_dataflow_blocks_untouched(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n",), "f32")}) as frame:
            (x,) = frame.params
            bb.emit(ops.exp(x))  # outside dataflow: conservatively kept
            bb.emit_func_output(x)
        mod = bb.get()
        out = transform.DeadCodeElimination()(mod, PassContext())
        assert len(out["f"].body.blocks[0].bindings) == 1


class TestLegalize:
    def test_all_ops_become_call_tir(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n", 4), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                a = bb.emit(ops.relu(x))
                b = bb.emit(ops.flatten(a))
                gv = bb.emit_output(b)
            bb.emit_func_output(gv)
        mod = bb.get()
        out = transform.LegalizeOps()(mod, PassContext())
        func = out["f"]
        calls = [
            b.value
            for b in func.body.blocks[0].bindings
            if isinstance(b.value, core.Call)
        ]
        assert all(core.is_call_to(c, core.call_tir_op) for c in calls[:2])
        assert any(isinstance(f, tir.PrimFunc) for _, f in out.functions())

    def test_annotations_preserved_after_legalize(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n", 4), "f32")}) as frame:
            (x,) = frame.params
            n = bb.shape_var("n")
            with bb.dataflow():
                a = bb.emit(ops.flatten(x))
                gv = bb.emit_output(a)
            bb.emit_func_output(gv)
        mod = bb.get()
        out = transform.LegalizeOps()(mod, PassContext())
        binding = out["f"].body.blocks[0].bindings[0]
        # The symbolic relation n*4 survives legalization (the paper's core
        # requirement: incremental transforms preserve symbolic shapes).
        assert sym.prove_equal(binding.var.ann.shape[0], n * 4)

    def test_data_dependent_becomes_extern(self):
        bb = BlockBuilder()
        with bb.function("f", {"x": TensorAnn(("n",), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                u = bb.emit(ops.unique(x))
                gv = bb.emit_output(u)
            bb.emit_func_output(gv)
        mod = bb.get()
        out = transform.LegalizeOps()(mod, PassContext())
        call = out["f"].body.blocks[0].bindings[0].value
        assert isinstance(call.op, core.ExternFunc)
        assert call.op.global_symbol == "vm.builtin.unique"


class TestFuseOps:
    def _mm_relu_module(self):
        bb = BlockBuilder()
        with bb.function(
            "main",
            {"x": TensorAnn(("n", 8), "f32"), "w": TensorAnn((8, 4), "f32")},
        ) as frame:
            x, w = frame.params
            with bb.dataflow():
                h = bb.emit(ops.matmul(x, w))
                r = bb.emit(ops.relu(h))
                gv = bb.emit_output(r)
            bb.emit_func_output(gv)
        return bb.get()

    def _legalized(self, mod):
        ctx = PassContext()
        mod = transform.LegalizeOps()(mod, ctx)
        mod = transform.AnnotatePatternKind()(mod, ctx)
        return mod, ctx

    def test_matmul_relu_fused(self):
        mod, ctx = self._legalized(self._mm_relu_module())
        fused = transform.FuseOps()(mod, ctx)
        names = [n for n, f in fused.relax_functions()]
        assert any(n.startswith("fused_") for n in names)
        sub = [f for n, f in fused.relax_functions() if n.startswith("fused_")][0]
        assert sub.attrs.get("fusion_group")

    def test_fuse_tensorir_merges_and_inlines(self):
        mod, ctx = self._legalized(self._mm_relu_module())
        fused = transform.FuseOps()(mod, ctx)
        merged = transform.FuseTensorIR()(fused, ctx)
        # The subgraph function is gone; a merged PrimFunc exists.
        assert not any(
            f.attrs.get("fusion_group") for _, f in merged.relax_functions()
        )
        prims = [f for _, f in merged.tir_functions()]
        fused_prims = [f for f in prims if f.attrs.get("fused")]
        assert len(fused_prims) == 1
        # matmul + relu: reduction stage + epilogue stage.
        assert len(fused_prims[0].stages) == 2

    def test_fused_numerics(self):
        mod, ctx = self._legalized(self._mm_relu_module())
        fused = transform.FuseTensorIR()(transform.FuseOps()(mod, ctx), ctx)
        exe = transform.build(
            fused, TEST_DEVICE, enable_library_dispatch=False,
        )
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = RNG.standard_normal((3, 8)).astype(np.float32)
        w = RNG.standard_normal((8, 4)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x), NDArray.from_numpy(w))
        np.testing.assert_allclose(out.numpy(), np.maximum(x @ w, 0), rtol=1e-5)

    def test_opaque_not_fused(self):
        bb = BlockBuilder()
        with bb.function("main", {"x": TensorAnn(("n", 8), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                s = bb.emit(ops.softmax(x))  # opaque multi-stage
                r = bb.emit(ops.relu(s))
                gv = bb.emit_output(r)
            bb.emit_func_output(gv)
        mod, ctx = self._legalized(bb.get())
        fused = transform.FuseOps()(mod, ctx)
        assert not any(
            n.startswith("fused_") for n, _ in fused.relax_functions()
        )

    def test_multi_use_producer_not_fused(self):
        bb = BlockBuilder()
        with bb.function(
            "main",
            {"x": TensorAnn(("n", 8), "f32"), "w": TensorAnn((8, 8), "f32")},
        ) as frame:
            x, w = frame.params
            with bb.dataflow():
                h = bb.emit(ops.matmul(x, w))
                a = bb.emit(ops.relu(h))
                b = bb.emit(ops.exp(h))  # h used twice
                c = bb.emit(ops.add(a, b))
                gv = bb.emit_output(c)
            bb.emit_func_output(gv)
        mod, ctx = self._legalized(bb.get())
        fused = transform.FuseOps()(mod, ctx)
        # relu/exp cannot absorb the shared matmul; but relu+exp feed add:
        # add's producers are single-use elementwise -> they fuse together.
        for name, func in fused.relax_functions():
            if name.startswith("fused_"):
                assert "matmul" not in name

    def test_fig8_extra_symbolic_parameter(self):
        """flatten -> add -> relu: fused group params carry expression
        shapes (2*n) plus an extra Shape parameter binding n (Fig. 8)."""
        bb = BlockBuilder()
        with bb.function("main", {"x": TensorAnn(("n", 2), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                flat = bb.emit(ops.flatten(x))
                a = bb.emit(ops.add(flat, flat))
                r = bb.emit(ops.relu(a))
                gv = bb.emit_output(r)
            bb.emit_func_output(gv)
        mod, ctx = self._legalized(bb.get())
        fused = transform.FuseOps()(mod, ctx)
        subs = [f for n, f in fused.relax_functions() if n.startswith("fused_")]
        assert subs, "expected a fused subgraph function"
        # Numerics still correct end to end.
        done = transform.FuseTensorIR()(fused, ctx)
        exe = transform.build(done, TEST_DEVICE, enable_library_dispatch=False)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = RNG.standard_normal((3, 2)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_allclose(
            out.numpy(), np.maximum(x.reshape(-1) * 2, 0), rtol=1e-6
        )


class TestWorkspaceLifting:
    def _split_k_module(self):
        n = sym.SymVar("n")
        f = tir.TirBuilder("mm_split_k")
        a = f.arg("A", (n, 8), "f32")
        y = f.out("Y", (n,), "f32")
        ws = f.alloc("workspace", (n, 2), "f32", scope="global")
        i, s = f.spatial(n, 2)
        k = f.reduce(4)
        f.store(ws, [i, s], a[i, s * 4 + k], combiner="sum", init=0.0)
        i = f.spatial(n)
        s = f.reduce(2)
        f.store(y, [i], ws[i, s], combiner="sum", init=0.0)
        prim = f.build()

        bb = BlockBuilder()
        gv = bb.add_func(prim, "mm_split_k")
        with bb.function("main", {"x": TensorAnn(("n", 8), "f32")}) as frame:
            (x,) = frame.params
            nn = bb.shape_var("n")
            with bb.dataflow():
                out = bb.call_tir(gv, [x], TensorAnn((nn,), "f32"))
                g = bb.emit_output(out)
            bb.emit_func_output(g)
        return bb.get()

    def test_workspace_lifted_to_graph(self):
        mod = self._split_k_module()
        ctx = PassContext()
        lifted = transform.WorkspaceLifting()(mod, ctx)
        bindings = lifted["main"].body.blocks[0].bindings
        allocs = [
            b for b in bindings
            if isinstance(b.value, core.Call)
            and b.value.op is transform.alloc_tensor_op
        ]
        assert len(allocs) == 1
        # The rewritten tensor program has no workspace left.
        lifted_prims = [
            f for n, f in lifted.tir_functions() if n.endswith("_lifted")
        ]
        assert lifted_prims and lifted_prims[0].workspace_buffers() == []

    def test_lifted_numerics(self):
        mod = self._split_k_module()
        exe = transform.build(mod, TEST_DEVICE, enable_library_dispatch=False)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = RNG.standard_normal((5, 8)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_allclose(out.numpy(), x.sum(axis=1), rtol=1e-5)

    def test_lifted_workspace_is_planned(self):
        mod = self._split_k_module()
        ctx = PassContext(sym_var_upper_bounds={"n": 64})
        lowered = transform.optimize(mod, ctx)
        assert lowered["main"].attrs.get("memory_planned") == "static"


class TestMemoryPlanFig10:
    def test_transpose_chain_uses_two_storages(self):
        """Figure 10: exp -> transpose -> relu -> transpose over (n, 2):
        four intermediate tensors, two storage chunks after planning."""
        bb = BlockBuilder()
        with bb.function("main", {"x": TensorAnn(("n", 2), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                a = bb.emit(ops.exp(x))
                b = bb.emit(ops.permute_dims(a, (1, 0)))
                c = bb.emit(ops.relu(b))
                d = bb.emit(ops.permute_dims(c, (1, 0)))
                gv = bb.emit_output(d)
            bb.emit_func_output(gv)
        mod = bb.get()
        ctx = PassContext(enable_fusion=False, enable_library_dispatch=False)
        lowered = transform.optimize(mod, ctx)
        bindings = lowered["main"].body.blocks[0].bindings
        storages = [
            b for b in bindings
            if isinstance(b.value, core.Call)
            and b.value.op is transform.alloc_storage_op
        ]
        transient = [b for b in storages if not b.value.attrs.get("escapes")]
        escaping = [b for b in storages if b.value.attrs.get("escapes")]
        # The three *intermediate* tensors share two chunks — (2, n) and
        # (n, 2) have provably equal symbolic sizes (Fig. 10's claim).  The
        # returned tensor gets a dedicated (escaping) storage so results
        # survive the call.
        assert len(transient) == 2
        assert len(escaping) == 1

    def test_planned_numerics(self):
        bb = BlockBuilder()
        with bb.function("main", {"x": TensorAnn(("n", 2), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                a = bb.emit(ops.exp(x))
                b = bb.emit(ops.permute_dims(a, (1, 0)))
                c = bb.emit(ops.relu(b))
                d = bb.emit(ops.permute_dims(c, (1, 0)))
                gv = bb.emit_output(d)
            bb.emit_func_output(gv)
        mod = bb.get()
        exe = transform.build(
            mod, TEST_DEVICE, enable_fusion=False, enable_library_dispatch=False
        )
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = RNG.standard_normal((4, 2)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_allclose(out.numpy(), np.maximum(np.exp(x), 0), rtol=1e-5)


class TestMatchCastThroughPipeline:
    def test_unique_then_match_cast(self):
        """Figure 3's full story: data-dependent unique, match_cast to a
        fresh symbolic length, then a shape-tracked exp."""
        bb = BlockBuilder()
        with bb.function("main", {"x": TensorAnn(("n",), "f32")}) as frame:
            (x,) = frame.params
            m = core.sym_var("m")
            with bb.dataflow():
                u = bb.emit(ops.unique(x))
                cast = bb.match_cast(u, TensorAnn((m,), "f32"))
                e = bb.emit(ops.exp(cast))
                gv = bb.emit_output(e)
            bb.emit_func_output(gv)
        mod = bb.get()
        exe = transform.build(mod, TEST_DEVICE, enable_library_dispatch=False)
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = np.array([3.0, 1.0, 3.0, 2.0, 1.0], dtype=np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_allclose(out.numpy(), np.exp(np.unique(x)), rtol=1e-6)

    def test_match_cast_alias_not_killed_before_use(self):
        """InsertKills regression (found by the differential fuzzer,
        seeds 297/337): a match_cast var aliases its source's register,
        so using the cast var must count as a use of the source — the
        unoptimized pipeline used to kill the source right after the
        cast's shape check and feed a dead register to the next op."""
        bb = BlockBuilder()
        n = core.sym_var("n")
        with bb.function("main", {"x": TensorAnn(("n",), "f32")}) as frame:
            (x,) = frame.params
            with bb.dataflow():
                lv = bb.emit(ops.expand_dims(x, axis=1))
                cast = bb.match_cast(lv, TensorAnn((n, 1), "f32"))
                flat = bb.emit(ops.reshape(cast, (n * 1,)))
                gv = bb.emit_output(flat)
            bb.emit_func_output(gv)
        mod = bb.get()
        # The reference configuration: no planning, pool allocs + kills.
        exe = transform.build(
            mod, TEST_DEVICE, sym_var_upper_bounds={"n": 16},
            enable_library_dispatch=False, enable_fusion=False,
            enable_memory_planning=False, enable_cuda_graph=False,
            enable_autotuning=False,
        )
        vm = VirtualMachine(exe, TEST_DEVICE, concrete=True)
        x = RNG.standard_normal((5,)).astype(np.float32)
        out = vm.run("main", NDArray.from_numpy(x))
        np.testing.assert_array_equal(out.numpy(), x)


class TestVerifyEachPass:
    def test_pipeline_is_well_formed_after_every_pass(self):
        """A WellFormedVerifier instrument runs the verifier between
        stages — the pipeline must keep the IR invariants at every step."""
        from repro.models import TINY_LLAMA, build_llama
        from repro.runtime import TEST_DEVICE

        exported = build_llama(TINY_LLAMA)
        ctx = PassContext(
            device=TEST_DEVICE,
            sym_var_upper_bounds={"b": 4, "s": 16, "m": 16},
            instruments=[WellFormedVerifier()],
        )
        lowered = transform.optimize(exported.mod, ctx)
        assert lowered["decode"].attrs.get("memory_planned") == "static"
