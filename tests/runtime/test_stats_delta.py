"""ExecutionStats windowing on a shared VM (the serving-engine contract).

One VM serves many scheduler iterations; per-iteration metering must not
perturb allocator state or double-count anything.  The bar matches the
obs-trace invariant (sum of slice durations == stats.time_as): summed
per-iteration deltas reproduce the end-to-end totals exactly, and an
uninterrupted run measures identically to a windowed one.
"""

import itertools

import numpy as np

from repro import transform
from repro.models import TINY_LLAMA, build_llama
from repro.runtime import NDArray, TEST_DEVICE, VirtualMachine
from repro.runtime.profiler import ExecutionStats


def _vm(**kwargs):
    exported = build_llama(TINY_LLAMA)
    exe = transform.build(exported.mod, TEST_DEVICE, **kwargs)
    vm = VirtualMachine(exe, TEST_DEVICE, concrete=False)
    return vm, exported.abstract_params()


def _decode(vm, params, batch, context):
    cfg = TINY_LLAMA
    caches = [
        NDArray.abstract((batch, context, cfg.num_kv_heads, cfg.head_dim),
                         cfg.dtype)
        for _ in range(2 * cfg.num_layers)
    ]
    vm.run("decode", NDArray.abstract((batch, 1), "i64"), *caches, *params)


COUNTER_FIELDS = [
    "kernel_launches", "lib_calls", "builtin_calls", "graph_captures",
    "graph_replays", "replayed_kernels", "allocations",
    "allocated_bytes_total", "escaping_bytes_total", "current_bytes",
]


def test_deltas_sum_to_end_to_end_totals():
    vm, params = _vm()
    start = vm.stats.copy()
    merged = ExecutionStats()
    contexts = [4, 4, 8, 8, 4, 16]
    for i, ctx in enumerate(contexts):
        before = vm.stats.copy()
        _decode(vm, params, batch=1 + i % 2, context=ctx)
        merged.merge(vm.stats.delta(before))
    total = vm.stats.delta(start)
    for field in COUNTER_FIELDS:
        assert getattr(merged, field) == getattr(total, field), field
    assert merged.time_as == total.time_as
    assert merged.kernel_time_as == total.kernel_time_as
    assert merged.peak_bytes == total.peak_bytes


def test_windowed_metering_equals_uninterrupted_run():
    """copy()/delta() must be invisible: same totals as never snapshotting.

    This is the regression for the historical footgun where splitting a
    workload with reset_stats() dropped the pool free list and re-counted
    allocations an uninterrupted run would have recycled.
    """
    plain_vm, params = _vm(enable_memory_planning=False)
    for i in range(4):
        _decode(plain_vm, params, batch=2, context=8)

    windowed_vm, params2 = _vm(enable_memory_planning=False)
    deltas = []
    for i in range(4):
        before = windowed_vm.stats.copy()
        _decode(windowed_vm, params2, batch=2, context=8)
        deltas.append(windowed_vm.stats.delta(before))

    assert windowed_vm.stats.allocations == plain_vm.stats.allocations
    assert (
        windowed_vm.stats.allocated_bytes_total
        == plain_vm.stats.allocated_bytes_total
    )
    assert windowed_vm.stats.time_s == plain_vm.stats.time_s
    # Steady state: later windows recycle instead of allocating afresh.
    assert deltas[-1].allocations < deltas[0].allocations


def test_delta_peak_is_absolute_high_water_mark():
    stats = ExecutionStats()
    stats.record_alloc(100)
    snap = stats.copy()
    stats.record_free(100)
    stats.record_alloc(40)
    delta = stats.delta(snap)
    assert delta.peak_bytes == 100  # absolute peak, not a difference
    assert delta.current_bytes == -60
    assert delta.allocations == 1


def test_merges_do_not_depend_on_the_order_of_their_parts():
    """Integer time makes merging associative and commutative: every
    ordering of real per-iteration deltas merges to the same stats."""
    vm, params = _vm()
    cfg = TINY_LLAMA
    deltas = []
    for entry, batch, length in [("decode", 1, 4), ("prefill", 2, 7),
                                 ("decode", 2, 8), ("prefill", 1, 13),
                                 ("decode", 3, 5)]:
        before = vm.stats.copy()
        if entry == "decode":
            _decode(vm, params, batch=batch, context=length)
        else:
            caches = [NDArray.abstract(
                (batch, 0, cfg.num_kv_heads, cfg.head_dim), cfg.dtype)
                for _ in range(2 * cfg.num_layers)]
            vm.run("prefill", NDArray.abstract((batch, length), "i64"),
                   *caches, *params)
        deltas.append(vm.stats.delta(before))
    orders = list(itertools.permutations(deltas))
    assert len({d.time_as for d in deltas}) == len(deltas)
    # The parts have teeth: as float seconds, their sum moves with order.
    assert len({sum(d.time_s for d in order) for order in orders}) > 1
    for merge in (ExecutionStats.merge_serial, ExecutionStats.merge_parallel):
        first = merge(list(orders[0]))
        for order in orders[1:]:
            assert merge(list(order)) == first, merge.__name__
