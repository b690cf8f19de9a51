"""Radix prefix cache: matching, sharing, LRU eviction, accounting."""

import contextlib
import copy
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import TINY_LLAMA, TINY_LLAMA_TP
from repro.runtime import RTX_4090, TEST_DEVICE
from repro.serve import (
    BlockAllocator,
    CacheError,
    ClusterConfig,
    EngineConfig,
    PagedKVCache,
    PrefixCache,
    SchedulerConfig,
    ServingEngine,
    WorkloadConfig,
    generate,
    serve_cluster,
)


def _kv(num_blocks=16, page_size=4):
    kv = PagedKVCache(num_blocks, page_size)
    cache = PrefixCache(kv)
    return kv, cache


def _prefill(kv, cache, seq_id, tokens):
    """Simulate a finished prompt prefill: append + publish full pages."""
    kv.add_sequence(seq_id)
    kv.append(seq_id, len(tokens))
    cache.insert(tokens, kv.blocks(seq_id))


def test_match_walks_full_pages_only():
    kv, cache = _kv()
    prompt = tuple(range(10))  # 2 full pages + 2 leftover tokens
    _prefill(kv, cache, 0, prompt)
    assert cache.num_nodes == 2  # only full pages are indexed
    blocks, matched = cache.match(prompt)
    assert matched == 8
    assert blocks == kv.blocks(0)[:2]
    # A prompt diverging inside the second page matches one page.
    other = tuple(range(4)) + (99,) * 6
    _, matched = cache.match(other)
    assert matched == 4
    # A prompt diverging in the first page matches nothing.
    assert cache.match((99,) * 8) == ([], 0)


def test_max_tokens_cap_can_split_a_page():
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    blocks, matched = cache.match(prompt, max_tokens=7)
    assert matched == 7
    assert len(blocks) == 2  # 7 tokens still span both pages
    blocks, matched = cache.match(prompt, max_tokens=3)
    assert matched == 3
    assert len(blocks) == 1


def test_attach_shares_blocks_and_records_stats():
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    shared = kv.blocks(0)
    kv.add_sequence(1)
    got = cache.attach(1, prompt, max_tokens=7)
    assert got == 7
    assert kv.length(1) == 7
    assert kv.blocks(1) == shared
    # seq 0 + seq 1 + cache each hold one reference.
    assert all(kv.allocator.refcount(b) == 3 for b in shared)
    assert cache.stats.lookups == 1 and cache.stats.hits == 1
    assert cache.stats.matched_tokens == 7
    # A miss with record=True counts the lookup but attaches nothing.
    kv.add_sequence(2)
    assert cache.attach(2, (99,) * 8) == 0
    assert cache.stats.lookups == 2 and cache.stats.hits == 1
    # record=False (swap-in re-attachment) leaves stats alone.
    kv.release_sequence(1)
    kv.add_sequence(3)
    assert cache.attach(3, prompt, max_tokens=7, record=False) == 7
    assert cache.stats.lookups == 2
    for s in (0, 2, 3):
        kv.release_sequence(s)
    kv.check_no_leaks()


def test_insert_dedupes_existing_chunks():
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    first = cache.cached_blocks()
    # A second sequence with the same prompt publishes nothing new.
    kv.add_sequence(1)
    kv.append(1, 8)
    created = cache.insert(prompt, kv.blocks(1))
    assert created == 0
    assert sorted(cache.cached_blocks()) == sorted(first)
    assert cache.stats.inserts == 2  # only the two original nodes
    kv.release_sequence(0)
    kv.release_sequence(1)
    kv.check_no_leaks()


def test_reclaim_order_is_deterministic_lru():
    kv, cache = _kv(num_blocks=32)
    a = tuple(range(8))
    b = (50, 51, 52, 53, 54, 55, 56, 57)
    _prefill(kv, cache, 0, a)
    _prefill(kv, cache, 1, b)   # B inserted later -> fresher
    kv.release_sequence(0)
    kv.release_sequence(1)
    a_blocks = set(cache.match(a)[0])
    # Touch A after B: now B is the LRU family.
    kv.add_sequence(2)
    cache.attach(2, a, max_tokens=7, record=False)
    kv.release_sequence(2)
    freed = cache.reclaim(2)
    assert freed == 2
    # Family B is gone, family A survives.
    assert cache.match(b) == ([], 0)
    _, matched = cache.match(a)
    assert matched == 8
    assert set(cache.cached_blocks()) == a_blocks
    assert cache.stats.evictions == 2


def test_reclaim_never_touches_shared_blocks():
    kv, cache = _kv(num_blocks=16)
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    # seq 0 still references every cached block: nothing is evictable.
    assert cache.evictable_count() == 0
    assert cache.reclaim(4) == 0
    assert cache.num_nodes == 2
    kv.release_sequence(0)
    assert cache.evictable_count() == 2
    assert cache.reclaim(4) == 2  # only 2 exist
    kv.check_no_leaks()


def test_pool_pressure_reclaims_through_append():
    """Appending past the free list reclaims cached blocks on demand."""
    kv, cache = _kv(num_blocks=6, page_size=4)  # 5 usable after padding
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)   # 2 blocks, cached
    kv.release_sequence(0)           # now cache-only (evictable)
    assert kv.num_free_blocks == 3
    assert kv.num_available_blocks == 5
    kv.add_sequence(1)
    kv.append(1, 18)  # 5 blocks: must reclaim both cached blocks
    assert cache.num_nodes == 0
    assert cache.stats.evictions == 2
    kv.release_sequence(1)
    kv.check_no_leaks()


def test_evictable_count_excludes_attached_and_excluded_blocks():
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    kv.release_sequence(0)
    assert kv.num_reclaimable_blocks == 2
    blocks, matched = cache.match(prompt, max_tokens=7)
    assert cache.evictable_count(exclude=blocks) == 0
    kv.add_sequence(1)
    cache.attach(1, prompt, max_tokens=7)
    assert cache.evictable_count() == 0  # attached blocks are pinned
    kv.release_sequence(1)
    assert cache.evictable_count() == 2
    cache.clear()
    kv.check_no_leaks()


def _reclaimable(cache):
    """What ``reclaim`` can actually free, measured on a throwaway copy."""
    return copy.deepcopy(cache).reclaim(10**9)


def test_cache_only_node_above_a_shared_child_is_not_evictable():
    """``insert`` deduplicates an already-cached chunk and publishes the
    sequence's later pages under the existing node: that node is
    refcount 1 yet leaf-first eviction cannot reach it."""
    kv, cache = _kv()
    first = tuple(range(4))
    _prefill(kv, cache, 0, first)
    kv.release_sequence(0)  # the first-page node is cache-only now
    # Seq 1 prefilled the same first page privately (no attach), plus one.
    _prefill(kv, cache, 1, first + (9, 9, 9, 9))
    parent_block, = cache.match(first)[0]
    assert parent_block != kv.blocks(1)[0]  # deduplicated: own copy kept
    assert kv.allocator.refcount(parent_block) == 1
    assert kv.allocator.refcount(kv.blocks(1)[1]) == 2  # published child
    assert cache.evictable_count() == _reclaimable(cache) == 0
    assert kv.num_available_blocks == kv.num_free_blocks
    kv.release_sequence(1)
    assert cache.evictable_count() == _reclaimable(cache) == 2
    assert cache.reclaim(4) == 2
    kv.check_no_leaks()


# -- oracles: evictability re-derived from the trie, as PR 15 computed it -----------


def _walk_evictable(cache, exclude=()):
    """The stamping walk: every node, polling the allocator's refcount,
    pinning the path above each shared-or-excluded block."""
    skip = set(exclude)
    refcount = cache.allocator.refcount
    pinned = {id(cache._root)}
    nodes = cache._nodes()
    for node in nodes:
        if refcount(node.block) != 1 or node.block in skip:
            while id(node) not in pinned:
                pinned.add(id(node))
                node = node.parent
    return len(nodes) - (len(pinned) - 1)


def _scan_victim(cache):
    """The per-victim scan: ``min (last_use, block)`` over refcount-1
    leaves."""
    victim = None
    for node in cache._nodes():
        if node.children or cache.allocator.refcount(node.block) != 1:
            continue
        if victim is None or ((node.last_use, node.block)
                              < (victim.last_use, victim.block)):
            victim = node
    return victim


@contextlib.contextmanager
def _oracles():
    """Every ``evictable_count`` call must equal the walk and every
    evicted node must be the scan's pick; yields the comparison counts."""
    counts = Counter()
    count, remove = PrefixCache.evictable_count, PrefixCache._remove

    def evictable_count(self, exclude=()):
        got = count(self, exclude)
        assert got == _walk_evictable(self, exclude)
        counts["evictable_count"] += 1
        return got

    def _remove(self, node):
        assert node is _scan_victim(self)
        counts["victims"] += 1
        remove(self, node)

    PrefixCache.evictable_count, PrefixCache._remove = evictable_count, _remove
    try:
        yield counts
    finally:
        PrefixCache.evictable_count, PrefixCache._remove = count, remove


def _check_maintained_state(cache):
    """The ``pins`` invariant, the derived count and map, and the heap's
    completeness (every evictable leaf has an entry with its tick)."""
    nodes = cache._nodes()
    for node in nodes:
        shared = cache.allocator.refcount(node.block) != 1
        assert node.pins == shared + sum(
            c.pins > 0 for c in node.children.values())
        if not node.children and not node.pins:
            assert (node.last_use, node.block) in cache._lru
    assert cache._by_block == {n.block: n for n in nodes}
    assert cache.num_nodes == len(nodes)
    assert cache._evictable == sum(n.pins == 0 for n in nodes)
    assert len(cache._lru) <= 2 * len(nodes) + 17


_PAGES = st.lists(st.integers(0, 1), min_size=1, max_size=3)
_OPS = ["prefill", "attach", "free", "append", "rollback", "reclaim", "clear"]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([10, 16, 128]),
    st.lists(st.tuples(st.sampled_from(_OPS), _PAGES, st.integers(0, 7)),
             max_size=30),
    st.randoms(use_true_random=False),
)
def test_available_blocks_is_what_reclaim_can_free(num_blocks, steps, rng):
    """Random private prefills (dedup on publish), attached prefills
    (whose capped match ends mid-page, so the first append forks the
    shared tail), decode appends that evict under pool pressure,
    rollbacks, explicit reclaims, releases and mid-run ``clear()`` over a
    two-chunk alphabet: the maintained count always equals the walk —
    for any ``exclude`` — victims are the scan's, and the reclaimable
    count the scheduler plans with equals what eviction can deliver."""
    kv, cache = _kv(num_blocks=num_blocks, page_size=2)
    live = []
    with _oracles():
        for seq_id, (op, pages, pick) in enumerate(steps):
            seq = live[pick % len(live)] if live else None
            if op == "free":
                if live:
                    live.remove(seq)
                    kv.release_sequence(seq)
            elif op == "append":
                if live and kv.can_append(seq, pick + 1):
                    kv.append(seq, pick + 1)
            elif op == "rollback":
                if live:
                    kv.rollback(seq, min(pick, kv.length(seq)))
            elif op == "reclaim":
                free = kv.num_free_blocks
                want = min(pick, cache.evictable_count())
                assert cache.reclaim(pick) == want
                assert kv.num_free_blocks == free + want
            elif op == "clear":
                for seq in live:
                    kv.release_sequence(seq)
                live.clear()
                cache.clear()
                assert cache.evictable_count() == cache.num_nodes == 0
                kv.check_no_leaks()
            else:
                tokens = tuple(t for chunk in pages for t in (chunk, chunk))
                kv.add_sequence(seq_id)
                matched = 0
                if op == "attach":
                    matched = cache.attach(seq_id, tokens,
                                           max_tokens=len(tokens) - 1)
                if kv.can_append(seq_id, len(tokens) - matched):
                    kv.append(seq_id, len(tokens) - matched)
                    cache.insert(tokens, kv.blocks(seq_id))
                    live.append(seq_id)
                else:
                    kv.release_sequence(seq_id)
            _check_maintained_state(cache)
            cache.evictable_count()
            cache.evictable_count(
                exclude=rng.sample(range(num_blocks), rng.randint(1, 6)))
            cache.evictable_count(exclude=rng.sample(
                cache.cached_blocks(), rng.randint(0, cache.num_nodes)))
            assert (kv.num_available_blocks - kv.num_free_blocks
                    == _reclaimable(cache))
        for seq_id in live:
            kv.release_sequence(seq_id)
        assert cache.evictable_count() == cache.num_nodes
        cache.clear()
    kv.check_no_leaks()
    assert kv.refcount_audit()["leaked_blocks"] == 0


def test_each_event_that_changes_evictability_is_covered():
    """One deterministic pass over what the property draws at random, so
    none of it can be vacuous: a COW fork of a shared tail page, an
    append that evicts, a rollback off shared pages, a partial reclaim
    whose victim's parent becomes the next leaf, and reuse after
    ``clear()``."""
    kv, cache = _kv(num_blocks=8, page_size=4)  # 7 usable
    prompt = tuple(range(12))
    with _oracles() as counts:
        _prefill(kv, cache, 0, prompt)               # 3 cached pages
        kv.release_sequence(0)
        assert cache.evictable_count() == 3
        # page_size does not divide the match cap: 11 tokens, 3 blocks.
        kv.add_sequence(1)
        assert cache.attach(1, prompt, max_tokens=11) == 11
        assert cache.evictable_count() == 0
        tail = kv.blocks(1)[-1]
        kv.append(1, 1)                              # forks the shared tail
        assert kv.cow_copies == 1 and kv.blocks(1)[-1] != tail
        assert cache.evictable_count() == 1          # the tail's node only
        kv.rollback(1, 8)                            # off two shared pages
        assert len(kv.blocks(1)) == 1
        assert cache.evictable_count() == 2
        # Leaf first: the tail page, then its parent (now a leaf).
        order = cache.match(prompt)[0][::-1]
        free = kv.allocator.num_free
        assert cache.reclaim(1) == 1
        assert kv.allocator._free[free:] == order[:1]
        assert cache.match(prompt)[1] == 8
        # Pool pressure: 5 free + 1 evictable, the append needs 6.
        kv.add_sequence(2)
        assert kv.num_free_blocks == 5 and kv.num_available_blocks == 6
        kv.append(2, 24)
        assert cache.stats.evictions == 2 and cache.num_nodes == 1
        _check_maintained_state(cache)
        kv.release_sequence(1)
        kv.release_sequence(2)
        assert cache.clear() == 1
        kv.check_no_leaks()
        # The same cache, reused.
        _prefill(kv, cache, 3, prompt)
        assert cache.evictable_count() == 0 and cache.num_nodes == 3
        kv.release_sequence(3)
        assert cache.evictable_count() == 3
        assert cache.reclaim(9) == 3
        _check_maintained_state(cache)
    assert counts["victims"] == 5
    kv.check_no_leaks()


def test_lru_heap_stays_bounded_without_pool_pressure():
    """Nothing pops the heap while the pool is never short; re-attaching
    one cached prompt forever must not grow it forever."""
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    kv.release_sequence(0)
    for seq_id in range(1, 200):
        kv.add_sequence(seq_id)
        cache.attach(seq_id, prompt, max_tokens=7)
        kv.release_sequence(seq_id)
        _check_maintained_state(cache)
    assert cache.reclaim(2) == 2
    kv.check_no_leaks()


# -- the same oracles under the engine -------------------------------------------------

#: The ``serve-fleet-prefix`` benchmark shape (dp=2 x tp=2, saturated
#: shared-prefix burst) at about a fifth of its request count.
_FLEET_WORKLOAD = WorkloadConfig(
    num_requests=250, seed=0, arrival_rate=20000.0,
    prompt_min=32, prompt_max=96, output_min=8, output_max=48,
    prefix_families=6, prefix_len=24, vocab_size=TINY_LLAMA_TP.vocab_size,
)
_FLEET_CLUSTER = ClusterConfig(dp=2, policy="prefix_affinity", engine=EngineConfig(
    tp=2, page_size=4, num_blocks=320,
    scheduler=SchedulerConfig(max_num_seqs=16, max_num_batched_tokens=128,
                              prefill_chunk=32),
))


def test_fleet_run_agrees_with_the_oracles_on_every_call():
    with _oracles() as counts:
        report = serve_cluster(TINY_LLAMA_TP, RTX_4090, _FLEET_WORKLOAD,
                               _FLEET_CLUSTER)  # ends with check_no_leaks()
    caches = [rep.summary["prefix_cache"] for rep in report.replica_reports]
    assert counts["victims"] == sum(c["evictions"] for c in caches) > 500
    assert counts["evictable_count"] > 5000
    for rep in report.replica_reports:
        assert rep.summary["num_finished"] == rep.summary["num_requests"]
        assert rep.summary["kv_pool"]["leaked_blocks"] == 0


def test_pool_accounting_never_walks_the_trie_or_polls_refcounts(monkeypatch):
    """The complexity guard, in calls rather than seconds: between
    construction and teardown a shared-prefix run with evictions never
    enumerates the trie, and refcount reads stay a small multiple of the
    appends (the walk polled once per cached node per query)."""
    calls = Counter()

    def counted(cls, name):
        inner = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return inner(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(PrefixCache, "_nodes")
    counted(BlockAllocator, "refcount")
    counted(PagedKVCache, "append")
    engine = ServingEngine(TINY_LLAMA, TEST_DEVICE, EngineConfig(
        page_size=4, num_blocks=96,
        scheduler=SchedulerConfig(max_num_seqs=8, max_num_batched_tokens=128,
                                  prefill_chunk=32)))
    engine.submit(generate(WorkloadConfig(
        num_requests=80, seed=0, arrival_rate=20000.0,
        prompt_min=32, prompt_max=64, output_min=4, output_max=16,
        prefix_families=4, prefix_len=24, vocab_size=TINY_LLAMA.vocab_size)))
    engine.drain()
    assert calls["_nodes"] == 0
    assert calls["append"] > 500
    assert calls["refcount"] <= 4 * calls["append"]
    report = engine.report()  # teardown may walk: check_no_leaks / audit
    assert calls["_nodes"] > 0
    assert report.summary["prefix_cache"]["evictions"] > 0
    assert report.summary["num_finished"] == 80


def test_clear_refuses_while_shared_then_succeeds():
    kv, cache = _kv()
    prompt = tuple(range(4))
    _prefill(kv, cache, 0, prompt)
    with pytest.raises(CacheError):
        cache.clear()  # seq 0 still shares the block
    kv.release_sequence(0)
    assert cache.clear() == 1
    kv.check_no_leaks()
    # After clear the allocator is fully drained except padding.
    assert kv.allocator.num_used == 1


def test_check_no_leaks_accounts_for_cached_blocks():
    kv, cache = _kv()
    prompt = tuple(range(8))
    _prefill(kv, cache, 0, prompt)
    kv.release_sequence(0)
    kv.check_no_leaks()  # cached blocks with exactly one ref are fine
    # A cached block with a stray extra reference is a leak.
    kv.allocator.share(cache.cached_blocks()[0])
    with pytest.raises(CacheError):
        kv.check_no_leaks()
