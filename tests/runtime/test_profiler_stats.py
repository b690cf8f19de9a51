"""ExecutionStats merging/summary, RuntimePool recycling."""

import pytest

from repro.runtime.profiler import ExecutionStats, RuntimePool


class TestExecutionStats:
    def test_merge_accumulates_current_bytes(self):
        # Regression: merge() used to drop current_bytes, so merging two
        # snapshots with live storage under-reported residency.
        a = ExecutionStats()
        a.record_alloc(100)
        b = ExecutionStats()
        b.record_alloc(300)
        b.record_free(100)
        a.merge(b)
        assert a.current_bytes == 300
        assert a.allocations == 2
        assert a.peak_bytes == 300

    def test_merge_sums_every_counter(self):
        a = ExecutionStats(time_as=10, kernel_launches=2, lib_calls=1,
                           builtin_calls=3, kernel_time_as=5,
                           launch_overhead_as=1)
        b = ExecutionStats(time_as=20, kernel_launches=5, lib_calls=4,
                           builtin_calls=7, kernel_time_as=15,
                           launch_overhead_as=3)
        a.merge(b)
        assert a.time_as == 30
        assert a.kernel_launches == 7
        assert a.lib_calls == 5
        assert a.builtin_calls == 10
        assert a.kernel_time_as == 20
        assert a.launch_overhead_as == 4

    def test_merge_serial_sums_times_and_maxes_peak(self):
        # Back-to-back work on one clock: every time field sums
        # (including the comm breakout), peak_bytes is a high-water
        # mark across distinct pools and takes the max.
        a = ExecutionStats(time_as=100, kernel_time_as=50,
                           launch_overhead_as=10, comm_time_as=25,
                           kernel_launches=3)
        a.record_alloc(200)
        b = ExecutionStats(time_as=200, kernel_time_as=100,
                           launch_overhead_as=20, comm_time_as=50,
                           kernel_launches=4)
        b.record_alloc(500)
        merged = ExecutionStats.merge_serial([a, b])
        assert merged.time_as == 300
        assert merged.kernel_time_as == 150
        assert merged.launch_overhead_as == 30
        assert merged.comm_time_as == 75
        assert merged.kernel_launches == 7
        assert merged.peak_bytes == 500
        assert merged.current_bytes == 700

    def test_merge_serial_single_part_returned_as_is(self):
        a = ExecutionStats(time_as=1)
        assert ExecutionStats.merge_serial([a]) is a

    def test_merge_parallel_maxes_wall_time_sums_counters(self):
        # Lockstep shards/replicas: wall-time fields take the max
        # (nobody leaves the barrier before the slowest), counters and
        # byte totals sum, peak_bytes stays per-device.
        fast = ExecutionStats(time_as=10, kernel_time_as=4,
                              launch_overhead_as=1, comm_time_as=2,
                              kernel_launches=10, lib_calls=2,
                              builtin_calls=5)
        fast.record_alloc(300)
        slow = ExecutionStats(time_as=40, kernel_time_as=30,
                              launch_overhead_as=5, comm_time_as=9,
                              kernel_launches=1, lib_calls=1,
                              builtin_calls=2)
        slow.record_alloc(100)
        merged = ExecutionStats.merge_parallel([fast, slow])
        assert merged.time_as == 40
        assert merged.kernel_time_as == 30
        assert merged.launch_overhead_as == 5
        assert merged.comm_time_as == 9
        assert merged.kernel_launches == 11
        assert merged.lib_calls == 3
        assert merged.builtin_calls == 7
        assert merged.allocated_bytes_total == 400
        assert merged.current_bytes == 400
        assert merged.peak_bytes == 300
        # Fresh snapshot, inputs untouched.
        assert fast.time_as == 10 and slow.kernel_launches == 1

    def test_merge_parallel_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one part"):
            ExecutionStats.merge_parallel([])

    def test_summary_includes_builtin_and_time_split(self):
        stats = ExecutionStats(time_as=10**18, builtin_calls=4,
                               kernel_time_as=7 * 10**17,
                               launch_overhead_as=2 * 10**17)
        summary = stats.summary()
        assert summary["builtin_calls"] == 4
        assert summary["kernel_time_s"] == 0.7
        assert summary["launch_overhead_s"] == 0.2


class TestRuntimePool:
    def test_recycle_exact_size(self):
        stats = ExecutionStats()
        pool = RuntimePool(stats)
        assert pool.allocate(128) is False  # fresh
        pool.release(128)
        assert pool.allocate(128) is True  # recycled, no new allocation
        assert stats.allocations == 1
        assert stats.current_bytes == 128

    def test_different_size_misses(self):
        pool = RuntimePool(ExecutionStats())
        pool.allocate(128)
        pool.release(128)
        assert pool.allocate(256) is False, "exact-size pool must miss"

    def test_release_then_double_allocate(self):
        stats = ExecutionStats()
        pool = RuntimePool(stats)
        pool.allocate(64)
        pool.release(64)
        assert pool.allocate(64) is True
        assert pool.allocate(64) is False, "bucket count must deplete"
        assert stats.allocations == 2

    def test_free_table_counts(self):
        pool = RuntimePool(ExecutionStats())
        for _ in range(3):
            pool.allocate(32)
        for _ in range(3):
            pool.release(32)
        assert pool._free[32] == 3
        pool.allocate(32)
        assert pool._free[32] == 2

    def test_peak_tracks_recycled_blocks(self):
        stats = ExecutionStats()
        pool = RuntimePool(stats)
        pool.allocate(100)
        pool.release(100)
        pool.allocate(100)
        assert stats.peak_bytes == 100
        assert stats.current_bytes == 100
