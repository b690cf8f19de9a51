"""Reports: op tables, memory timeline, Chrome trace export, profiler VM."""

import json

import numpy as np
import pytest

from repro import ops, transform
from repro.core import BlockBuilder, TensorAnn, const
from repro.obs import (
    MemoryTimeline,
    OpTable,
    TraceEvent,
    VirtualMachineProfiler,
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.runtime import TEST_DEVICE
from repro.runtime.ndarray import NDArray
from repro.runtime.profiler import AS_PER_S, to_as


def _build(**flags):
    bb = BlockBuilder()
    with bb.function("main", {"x": TensorAnn(("n", 4), "f32")}) as frame:
        (x,) = frame.params
        w = const(np.ones((4, 4), np.float32))
        with bb.dataflow():
            h = bb.emit(ops.matmul(x, w))
            h = bb.emit(ops.relu(h))
            gv = bb.emit_output(h)
        bb.emit_func_output(gv)
    return transform.build(bb.get(), TEST_DEVICE,
                           sym_var_upper_bounds={"n": 64}, **flags)


def _profiled(**kwargs):
    vm = VirtualMachineProfiler(_build(), TEST_DEVICE, concrete=True, **kwargs)
    x = NDArray.from_numpy(np.ones((8, 4), np.float32))
    vm.run("main", x)
    return vm


class TestOpTable:
    def test_percentages_total_100(self):
        table = _profiled().op_table()
        assert table.rows
        assert abs(sum(r["pct"] for r in table.rows) - 100.0) < 1e-6
        assert (sum(to_as(r["time_s"]) for r in table.rows)
                == to_as(table.total_time_s))

    def test_sorted_hottest_first(self):
        rows = _profiled().op_table().rows
        times = [r["time_s"] for r in rows]
        assert times == sorted(times, reverse=True)

    def test_group_by_op_uses_provenance(self):
        table = _profiled().op_table(by="op")
        names = [r["name"] for r in table.rows if r["kind"] in
                 ("kernel", "library")]
        assert any("@" in n for n in names), names

    def test_overhead_rows_bracketed_without_provenance(self):
        rows = _profiled().op_table().rows
        brackets = [r for r in rows if r["name"].startswith("[")]
        assert brackets, "alloc/capture overhead should aggregate into rows"
        for r in brackets:
            assert r["provenance"] == ""

    def test_render_and_to_dict(self):
        table = _profiled().op_table()
        text = table.render(max_rows=3)
        assert "total:" in text
        d = json.loads(json.dumps(table.to_dict()))
        assert d["rows"][0]["calls"] >= 1

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError):
            OpTable.from_events([], by="color")


class TestMemoryTimeline:
    def test_peak_matches_stats(self):
        vm = _profiled()
        timeline = vm.memory_timeline()
        assert timeline.peak_bytes == vm.stats.peak_bytes
        assert timeline.points

    def test_peak_attribution_covers_peak(self):
        timeline = _profiled().memory_timeline()
        assert sum(timeline.peak_by_op().values()) == timeline.peak_bytes
        # Every attributed chain names a source op site.
        for key in timeline.peak_by_op():
            assert "@" in key

    def test_pool_mode_frees_lower_the_curve(self):
        vm = VirtualMachineProfiler(
            _build(enable_memory_planning=False), TEST_DEVICE, concrete=True)
        x = NDArray.from_numpy(np.ones((8, 4), np.float32))
        vm.run("main", x)
        timeline = vm.memory_timeline()
        final = timeline.points[-1][1]
        assert final < timeline.peak_bytes, (
            "kills should release intermediates below the peak"
        )

    def test_to_dict_json_round_trip(self):
        timeline = _profiled().memory_timeline()
        d = json.loads(json.dumps(timeline.to_dict()))
        assert d["peak_bytes"] == timeline.peak_bytes
        assert len(d["points"]) == len(timeline.points)

    def test_manual_event_walk(self):
        events = [
            TraceEvent("alloc", "storage", 0, 0, ("a@x",), {"size": 100}),
            TraceEvent("alloc", "storage", AS_PER_S, 0, ("b@y",),
                       {"size": 50}),
            TraceEvent("free", "storage", 2 * AS_PER_S, 0, ("a@x",),
                       {"size": 100}),
        ]
        tl = MemoryTimeline.from_events(events)
        assert tl.peak_bytes == 150
        assert tl.peak_ts_s == 1.0
        assert tl.points[-1] == (2.0, 50)
        assert tl.peak_by_op() == {"a@x": 100, "b@y": 50}


class TestChromeTrace:
    def test_trace_validates(self):
        vm = _profiled()
        trace = validate_chrome_trace(chrome_trace(vm.events))
        slices = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert slices
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert counters, "memory counter track missing"

    def test_slice_durations_microseconds(self):
        vm = _profiled()
        trace = chrome_trace(vm.events)
        total_us = sum(e.get("dur", 0.0) for e in trace["traceEvents"]
                       if e.get("ph") == "X")
        assert abs(total_us - vm.stats.time_s * 1e6) < 1e-3

    def test_export_writes_valid_json(self, tmp_path):
        vm = _profiled()
        path = tmp_path / "trace.json"
        export_chrome_trace(vm.events, str(path))
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        assert loaded["traceEvents"]

    @pytest.mark.parametrize("bad", [
        [],
        {"traceEvents": "nope"},
        {"traceEvents": [{"ph": "Z", "name": "x", "ts": 0}]},
        {"traceEvents": [{"ph": "X", "name": "x", "ts": 0}]},  # no dur
        {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]},  # no name
        {"traceEvents": [{"ph": "C", "name": "x", "ts": 0}]},  # no args
    ])
    def test_validation_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


class TestVirtualMachineProfiler:
    def test_results_match_plain_vm(self):
        from repro.runtime import VirtualMachine

        x = np.random.default_rng(0).standard_normal((8, 4)).astype(np.float32)
        plain = VirtualMachine(_build(), TEST_DEVICE, concrete=True)
        out_plain = plain.run("main", NDArray.from_numpy(x))
        prof = VirtualMachineProfiler(_build(), TEST_DEVICE, concrete=True)
        out_prof = prof.run("main", NDArray.from_numpy(x))
        np.testing.assert_array_equal(out_plain.numpy(), out_prof.numpy())
        assert plain.stats.time_s == prof.stats.time_s

    def test_report_is_json_ready(self):
        report = _profiled().report()
        d = json.loads(json.dumps(report))
        assert set(d) == {"stats", "op_table", "kernel_dur_s", "memory",
                          "events"}
        assert d["stats"]["kernel_launches"] >= 1
        # Compute-event duration distribution (kernels + library/builtin
        # calls) uses the shared nearest-rank stats.
        dur = d["kernel_dur_s"]
        assert dur["count"] >= d["stats"]["kernel_launches"]
        assert dur["min"] <= dur["p50"] <= dur["p99"] <= dur["max"]

    def test_reset_clears_stats_and_events(self):
        vm = _profiled()
        vm.reset()
        assert vm.events == []
        assert vm.stats.time_s == 0.0
