"""Radix prefix cache: matching, sharing, LRU eviction, accounting."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import CacheError, PagedKVCache, PrefixCache


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


_PAGES = st.lists(st.integers(0, 1), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["prefill", "attach", "free"]), _PAGES,
              st.integers(0, 7)),
    max_size=30,
))
def test_available_blocks_is_what_reclaim_can_free(steps):
    """Random private prefills (dedup on publish), attached prefills and
    releases over a two-chunk alphabet: the reclaimable count the
    scheduler plans with always equals what eviction can deliver."""
    kv, cache = _kv(num_blocks=128, page_size=2)
    live = []
    for seq_id, (op, pages, pick) in enumerate(steps):
        if op == "free":
            if live:
                kv.release_sequence(live.pop(pick % len(live)))
        else:
            tokens = tuple(t for chunk in pages for t in (chunk, chunk))
            kv.add_sequence(seq_id)
            matched = 0
            if op == "attach":
                matched = cache.attach(seq_id, tokens,
                                       max_tokens=len(tokens) - 1)
            kv.append(seq_id, len(tokens) - matched)
            cache.insert(tokens, kv.blocks(seq_id))
            live.append(seq_id)
        assert (kv.num_available_blocks - kv.num_free_blocks
                == _reclaimable(cache))
    for seq_id in live:
        kv.release_sequence(seq_id)
    cache.clear()
    kv.check_no_leaks()


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
