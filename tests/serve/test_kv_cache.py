"""Property tests for the KV block allocator and page tables."""

import random

import numpy as np
import pytest

from repro.serve import (
    BlockAllocator,
    CacheError,
    ContinuousBatchingScheduler,
    OutOfBlocks,
    PagedKVCache,
    Phase,
    RequestState,
    SchedulerConfig,
)
from repro.serve.metrics import RequestMetrics
from repro.serve.workload import Request


def _random_schedule(seed, num_blocks=24, page_size=4, steps=400):
    """Drive a PagedKVCache through a random add/append/release script;
    returns the cache with every sequence released again."""
    rng = random.Random(seed)
    kv = PagedKVCache(num_blocks, page_size)
    live = []
    next_id = 0
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.35 or not live:
            kv.add_sequence(next_id)
            live.append(next_id)
            next_id += 1
        elif roll < 0.8:
            seq = rng.choice(live)
            n = rng.randint(1, 2 * page_size)
            if kv.can_append(seq, n):
                kv.append(seq, n)
            else:
                with pytest.raises(OutOfBlocks):
                    kv.append(seq, n)
        elif roll < 0.9:
            seq = rng.choice(live)
            kv.release_sequence(seq)
            live.remove(seq)
        else:
            seq = rng.choice(live)
            kv.release_sequence(seq)
            live.remove(seq)
    for seq in live:
        kv.release_sequence(seq)
    return kv


@pytest.mark.parametrize("seed", range(12))
def test_no_block_leaked_after_any_schedule(seed):
    kv = _random_schedule(seed)
    kv.check_no_leaks()  # raises on leak or broken accounting


def test_failed_append_has_no_side_effects():
    kv = PagedKVCache(4, page_size=2)  # 3 usable after padding
    kv.add_sequence(0)
    kv.append(0, 4)  # 2 blocks
    kv.add_sequence(1)
    free_before = kv.num_free_blocks
    length_before = kv.length(0)
    with pytest.raises(OutOfBlocks):
        kv.append(1, 6)  # needs 3 blocks, only 1 free
    assert kv.num_free_blocks == free_before
    assert kv.length(0) == length_before
    assert kv.length(1) == 0


def test_freed_block_reuse_is_deterministic():
    """LIFO free list: identical alloc/free scripts yield identical ids."""

    def script():
        alloc = BlockAllocator(16)
        ids = [alloc.allocate() for _ in range(8)]
        for i in (6, 2, 4):
            alloc.free(ids[i])
        return ids + [alloc.allocate() for _ in range(5)]

    assert script() == script()
    # And the most-recently-freed block comes back first.
    alloc = BlockAllocator(4)
    a, b = alloc.allocate(), alloc.allocate()
    alloc.free(a)
    alloc.free(b)
    assert alloc.allocate() == b
    assert alloc.allocate() == a


def test_double_free_detected():
    alloc = BlockAllocator(2)
    blk = alloc.allocate()
    alloc.free(blk)
    with pytest.raises(CacheError):
        alloc.free(blk)


def _state(req_id, prompt_len=8, output_len=4, arrival=0.0):
    req = Request(req_id=req_id, arrival_s=arrival, prompt_len=prompt_len,
                  output_len=output_len)
    return RequestState(
        request=req,
        metrics=RequestMetrics(req_id=req_id, arrival_s=arrival,
                               prompt_len=prompt_len, output_len=output_len),
    )


@pytest.mark.parametrize("eviction", ["swap", "recompute"])
@pytest.mark.parametrize("seed", range(6))
def test_eviction_never_drops_blocks_of_scheduled_sequence(seed, eviction):
    """Across randomized overloaded schedules, a sequence that decodes in
    an iteration is never also preempted in it, and block accounting
    stays exact (allocated == sum of per-sequence tables + padding)."""
    rng = random.Random(seed)
    kv = PagedKVCache(10, page_size=4)
    sched = ContinuousBatchingScheduler(
        SchedulerConfig(max_num_seqs=6, max_num_batched_tokens=64,
                        prefill_chunk=8, eviction=eviction),
        kv,
    )
    next_id = 0
    for step in range(60):
        for _ in range(rng.randint(0, 2)):
            sched.add_request(_state(next_id,
                                     prompt_len=rng.randint(4, 16),
                                     output_len=rng.randint(2, 12)))
            next_id += 1
        it = sched.schedule()
        decoded = {s.state.seq_id for s in it.steps}
        preempted = {s.seq_id for s, _, _ in it.preempted}
        assert not decoded & preempted
        # Every decoded sequence still owns its blocks after planning.
        for state, _, _ in it.steps:
            assert kv.has_sequence(state.seq_id)
            assert kv.length(state.seq_id) >= 1
        # Exact accounting at every step.
        tracked = sum(
            len(kv.blocks(s.seq_id))
            for s in sched.running
            if kv.has_sequence(s.seq_id)
        )
        assert kv.allocator.num_used == tracked + 1  # + padding block
        # Tick: pretend every scheduled token completed.
        for state, _, _ in it.steps:
            state.generated += 1
            if state.done:
                sched.finish(state)
        for state, _, _, _ in it.chunks:
            if (state.phase is Phase.DECODE and state.generated == 0):
                state.generated = 1
                if state.done:
                    sched.finish(state)
    # Drain everything; nothing may leak.
    for state in list(sched.running):
        sched.finish(state)
    sched.waiting.clear()
    sched.swapped.clear()
    kv.check_no_leaks()


def test_block_table_padding_points_at_padding_page():
    kv = PagedKVCache(8, page_size=2)
    kv.add_sequence(0)
    kv.add_sequence(1)
    kv.append(0, 5)  # 3 blocks
    kv.append(1, 1)  # 1 block
    table = kv.block_table([0, 1])
    assert table.shape == (2, 3)
    assert table.dtype == np.int64
    assert (table[1, 1:] == kv.padding_block).all()
    assert kv.lengths([0, 1]).tolist() == [5, 1]


def test_fragmentation_and_utilization_accounting():
    kv = PagedKVCache(8, page_size=4)
    assert kv.fragmentation() == 0.0
    kv.add_sequence(0)
    kv.append(0, 5)  # 2 blocks, 8 slots, 5 tokens -> 3/8 wasted
    assert kv.fragmentation() == pytest.approx(3 / 8)
    assert kv.utilization() == pytest.approx(3 / 8)  # padding + 2 of 8
    kv.release_sequence(0)
    kv.check_no_leaks()


# ---------------------------------------------------------------------------
# Shared ownership: refcounts, COW forks, exact accounting
# ---------------------------------------------------------------------------


def test_share_and_free_keep_exact_refcounts():
    alloc = BlockAllocator(4)
    blk = alloc.allocate()
    assert alloc.refcount(blk) == 1
    assert alloc.share(blk) == 2
    assert alloc.share(blk) == 3
    assert alloc.total_refs == 3
    assert alloc.free(blk) == 2
    assert alloc.free(blk) == 1
    assert alloc.num_used == 1  # still allocated until the last ref drops
    assert alloc.free(blk) == 0
    assert alloc.num_used == 0
    alloc.check_no_leaks()
    with pytest.raises(CacheError):
        alloc.share(blk)  # unallocated


def test_fork_for_write_semantics():
    alloc = BlockAllocator(4)
    blk = alloc.allocate()
    # Exclusive owner: fork is the identity (no copy needed).
    assert alloc.fork_for_write(blk) == blk
    alloc.share(blk)
    fork = alloc.fork_for_write(blk)
    assert fork != blk
    assert alloc.refcount(blk) == 1   # the other owner keeps the original
    assert alloc.refcount(fork) == 1  # the writer got a private copy
    alloc.free(blk)
    alloc.free(fork)
    alloc.check_no_leaks()


def test_failed_fork_for_write_keeps_the_callers_reference():
    """With the free list empty the fork used to drop the caller's
    reference and *then* raise: the caller's block table still named the
    block, so its eventual release over-freed it."""
    alloc = BlockAllocator(2)
    blk, other = alloc.allocate(), alloc.allocate()
    alloc.share(blk)
    crossings = []
    alloc.on_shared = lambda block, shared: crossings.append((block, shared))
    with pytest.raises(OutOfBlocks):
        alloc.fork_for_write(blk)
    assert alloc.refcount(blk) == 2
    assert alloc.ref_drops_total == 0
    assert crossings == []  # nothing was committed, nobody is told
    alloc.free(other)
    assert alloc.fork_for_write(blk) == other  # LIFO: the block just freed
    assert crossings == [(blk, False)]
    alloc.free(blk)
    alloc.free(other)
    alloc.check_no_leaks()


def test_allocator_reports_only_one_two_crossings():
    alloc = BlockAllocator(4)
    crossings = []
    alloc.on_shared = lambda block, shared: crossings.append((block, shared))
    blk = alloc.allocate()
    alloc.share(blk)          # 1 -> 2
    alloc.share(blk)          # 2 -> 3: still shared, no news
    alloc.free(blk)           # 3 -> 2
    alloc.free(blk)           # 2 -> 1
    alloc.free(blk)           # 1 -> 0: the last owner let go itself
    assert crossings == [(blk, True), (blk, False)]


def test_check_no_leaks_catches_leaked_shared_block():
    alloc = BlockAllocator(4)
    blk = alloc.allocate()
    alloc.share(blk)   # two owners
    alloc.free(blk)    # only one released
    with pytest.raises(CacheError, match="leaked"):
        alloc.check_no_leaks()
    assert alloc.free(blk) == 0
    alloc.check_no_leaks()


def test_refcounted_scripts_keep_lifo_determinism():
    """Interleaving share/fork/free with allocation must not perturb the
    LIFO reuse order: the same script always yields the same ids."""

    def script():
        alloc = BlockAllocator(12)
        ids = [alloc.allocate() for _ in range(6)]
        alloc.share(ids[1])
        alloc.share(ids[3])
        out = [alloc.fork_for_write(ids[3])]   # forks: ids[3] shared
        alloc.free(ids[5])
        alloc.free(ids[1])                      # still held by the share
        out.append(alloc.allocate())
        alloc.free(ids[1])                      # now actually freed
        out.append(alloc.allocate())
        return ids + out

    assert script() == script()


def test_cow_append_into_shared_tail_page():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 7)  # 2 blocks, tail page partially used
    tail = kv.blocks(0)[-1]
    kv.allocator.share(tail)  # someone else (e.g. a cache) holds the tail
    # The append must fork: one block for COW even though no page boundary
    # is crossed.
    assert kv.blocks_needed(0, 1) == 1
    before = kv.cow_copies
    kv.append(0, 1)
    assert kv.cow_copies == before + 1
    assert kv.blocks(0)[-1] != tail
    assert kv.allocator.refcount(tail) == 1  # other owner keeps the page
    kv.release_sequence(0)
    assert kv.allocator.free(tail) == 0
    kv.check_no_leaks()


def test_attach_shared_and_release_report_private_vs_shared():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 8)  # two full pages
    shared_blocks = kv.blocks(0)
    kv.add_sequence(1)
    kv.attach_shared(1, shared_blocks, 8)
    assert kv.length(1) == 8
    kv.append(1, 3)  # one private block, no COW (page boundary)
    rel = kv.release_sequence(1)
    assert rel.freed_blocks == 1
    assert rel.private_tokens == 3
    assert rel.shared_tokens == 8
    rel0 = kv.release_sequence(0)
    assert rel0.freed_blocks == 2
    assert rel0.private_tokens == 8
    kv.check_no_leaks()


def test_attach_shared_rejects_bad_calls():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 4)
    blocks = kv.blocks(0)
    kv.add_sequence(1)
    with pytest.raises(CacheError):
        kv.attach_shared(1, blocks, 5)  # 5 tokens don't fit 1 block
    with pytest.raises(CacheError):
        # A bad id mid-list used to raise after the good block was shared:
        # a leaked reference on a sequence that owns nothing.
        kv.attach_shared(1, blocks + [7], 8)
    assert kv.blocks(1) == [] and kv.length(1) == 0
    assert kv.allocator.refcount(blocks[0]) == 1
    kv.append(1, 1)
    with pytest.raises(CacheError):
        kv.attach_shared(1, blocks, 4)  # non-empty sequence
    kv.release_sequence(0)
    kv.release_sequence(1)
    kv.check_no_leaks()


@pytest.mark.parametrize("seed", range(8))
def test_random_shared_schedules_keep_exact_accounting(seed):
    """Random add/append/attach/release scripts with sharing: total refs
    always equal padding + per-sequence block counts, and everything
    drains leak-free."""
    rng = random.Random(seed)
    kv = PagedKVCache(32, page_size=4)
    live = []
    next_id = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.3 or not live:
            kv.add_sequence(next_id)
            live.append(next_id)
            next_id += 1
        elif roll < 0.55:
            seq = rng.choice(live)
            n = rng.randint(1, 6)
            if kv.can_append(seq, n):
                kv.append(seq, n)
        elif roll < 0.75 and len(live) >= 1:
            # Fork a new sequence off a donor's full prompt pages.
            donor = rng.choice(live)
            full = (kv.length(donor) // 4) * 4
            if full:
                blocks = kv.blocks(donor)[: full // 4]
                kv.add_sequence(next_id)
                kv.attach_shared(next_id, blocks, full)
                live.append(next_id)
                next_id += 1
        else:
            seq = rng.choice(live)
            kv.release_sequence(seq)
            live.remove(seq)
        expected_refs = 1 + sum(len(kv.blocks(s)) for s in live)
        assert kv.allocator.total_refs == expected_refs
    for seq in live:
        kv.release_sequence(seq)
    kv.check_no_leaks()


# ---------------------------------------------------------------------------
# Speculative rollback: exact tail-page release, LIFO determinism
# ---------------------------------------------------------------------------


def test_rollback_releases_exactly_the_tail_blocks():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 6)                 # 2 blocks, tail half full
    kept = list(kv.blocks(0))
    kv.append(0, 5)                 # speculative burst -> 11 tokens, 3 blocks
    assert kv.rollback(0, 4) == 1   # back to 7 tokens -> 2 blocks
    assert kv.length(0) == 7
    assert kv.blocks(0) == kept     # surviving blocks untouched
    assert kv.rollback(0, 0) == 0   # no-op rollback is legal
    kv.rollback(0, 7)               # all the way to empty is legal too
    assert kv.length(0) == 0
    assert kv.blocks(0) == []
    kv.release_sequence(0)
    kv.check_no_leaks()


def test_rollback_error_cases():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 4)
    with pytest.raises(CacheError):
        kv.rollback(0, -1)
    with pytest.raises(CacheError):
        kv.rollback(0, 5)           # exceeds sequence length
    assert kv.length(0) == 4        # failed rollback has no side effects
    kv.release_sequence(0)
    kv.check_no_leaks()


def test_rollback_frees_tail_blocks_in_reverse_order():
    """Rollback mirrors append on the LIFO free list: the blocks it frees
    come back out of the allocator in append order."""
    kv = PagedKVCache(16, page_size=2)
    kv.add_sequence(0)
    kv.append(0, 8)                 # 4 blocks
    grown = list(kv.blocks(0))
    kv.rollback(0, 6)               # drop the last 3
    kv.add_sequence(1)
    kv.append(1, 6)
    assert kv.blocks(1) == grown[1:]
    kv.release_sequence(0)
    kv.release_sequence(1)
    kv.check_no_leaks()


def test_rollback_then_reappend_reuses_identical_blocks():
    """A rejected speculative burst leaves zero trace: re-appending the
    same number of tokens lands on the very same block ids."""
    kv = PagedKVCache(16, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 4)
    kv.append(0, 9)                 # burst crossing two page boundaries
    burst = list(kv.blocks(0))
    kv.rollback(0, 9)
    kv.append(0, 9)
    assert kv.blocks(0) == burst
    kv.release_sequence(0)
    kv.check_no_leaks()


def test_rollback_of_shared_tail_keeps_other_owner():
    kv = PagedKVCache(8, page_size=4)
    kv.add_sequence(0)
    kv.append(0, 8)                 # 2 full blocks
    tail = kv.blocks(0)[-1]
    kv.allocator.share(tail)        # e.g. the prefix cache holds the page
    assert kv.rollback(0, 4) == 1   # the sequence drops its ref...
    assert kv.allocator.refcount(tail) == 1   # ...the block survives
    kv.release_sequence(0)
    assert kv.allocator.free(tail) == 0
    kv.check_no_leaks()


def _spec_traffic_script(seed, num_blocks=32, page_size=4, steps=300):
    """Random interleaving of speculative bursts (optimistic append of
    1 + k tokens, then greedy-match rollback of the k - n rejected ones),
    plain appends, COW forks off shared prompt pages, and releases.
    Exact refcount accounting is asserted after every step; returns the
    full block-table trajectory for determinism comparison."""
    rng = random.Random(seed)
    kv = PagedKVCache(num_blocks, page_size)
    live = []
    next_id = 0
    trajectory = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.25 or not live:
            kv.add_sequence(next_id)
            live.append(next_id)
            next_id += 1
        elif roll < 0.55:
            seq = rng.choice(live)
            k = rng.randint(1, 2 * page_size)
            if kv.can_append(seq, 1 + k):
                kv.append(seq, 1 + k)
                n = rng.randint(0, k)       # accepted prefix length
                kv.rollback(seq, k - n)
        elif roll < 0.7:
            seq = rng.choice(live)
            n = rng.randint(1, page_size)
            if kv.can_append(seq, n):
                kv.append(seq, n)
        elif roll < 0.85:
            donor = rng.choice(live)
            full = (kv.length(donor) // page_size) * page_size
            if full:
                blocks = kv.blocks(donor)[: full // page_size]
                kv.add_sequence(next_id)
                kv.attach_shared(next_id, blocks, full)
                live.append(next_id)
                next_id += 1
        else:
            seq = rng.choice(live)
            kv.release_sequence(seq)
            live.remove(seq)
        expected_refs = 1 + sum(len(kv.blocks(s)) for s in live)
        assert kv.allocator.total_refs == expected_refs
        trajectory.append(sorted((s, tuple(kv.blocks(s))) for s in live))
    for seq in live:
        kv.release_sequence(seq)
    kv.check_no_leaks()
    return trajectory


@pytest.mark.parametrize("seed", range(10))
def test_spec_traffic_keeps_lifo_reuse_determinism(seed):
    """Interleaved speculative-append/rollback/COW-fork traffic never
    perturbs block-id reuse: the same script yields the same block
    tables at every step, and drains leak-free."""
    assert _spec_traffic_script(seed) == _spec_traffic_script(seed)
