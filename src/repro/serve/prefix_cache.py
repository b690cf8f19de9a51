"""Radix-tree prefix cache over the paged KV pool.

Prompts sharing a prefix (system prompts, few-shot templates) can share
the KV blocks holding that prefix.  The cache indexes *full* pages by
the page-size chunk of token ids they hold, organised as a radix tree:
a path from the root spells out a token-id prefix one page at a time,
and each node maps its chunk to the pool block storing that page's KV.

Ownership model (see :mod:`repro.serve.kv_cache`): the cache holds
exactly **one** allocator reference per node.  Sequences that match a
prefix take additional shared references via
:meth:`~repro.serve.kv_cache.PagedKVCache.attach_shared`; publishing a
finished prefill (:meth:`PrefixCache.insert`) shares the sequence's
prompt blocks into new nodes.  A node whose block is back to refcount 1
is referenced by the cache alone; under pool pressure, :meth:`reclaim`
frees such blocks LRU-first.

Eviction is leaf-first, so a node is *evictable* only when its whole
subtree is cache-only.  A sequence that attached a node's block holds
every ancestor's block too (prefixes attach contiguously from the
root), but publishing does not keep refcount-1 nodes downward closed:
:meth:`PrefixCache.insert` deduplicates a chunk that is already cached
(the sequence keeps its own copy of that page privately) and then
publishes the sequence's *later* pages as children of the existing
node, so a refcount-1 node can sit above a block a live sequence still
shares.  Peeling leaves never reaches such a node until the sequence
lets go, and :meth:`evictable_count` does not count it.  LRU order is
deterministic: nodes carry a logical touch tick, ties break on block id.

Evictability is *maintained*, never re-derived.  Every node carries
``pins`` = (1 if its block is shared, i.e. refcount != 1) + (children
with ``pins > 0``); a node is evictable iff ``pins == 0``.  The cache
never polls refcounts: it registers ``allocator.on_shared`` and the
allocator tells it when a block crosses refcount 1 <-> 2 — the only
refcount change that can move ``pins`` — which, with :meth:`insert` and
leaf eviction, is every event that changes the evictable set.  Victims
come off a lazy min-heap of ``(last_use, block)`` entries, pushed when a
node becomes an evictable leaf and validated when popped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .kv_cache import CacheError, PagedKVCache


@dataclass
class PrefixCacheStats:
    """Counters the engine surfaces in its summary."""

    #: Admission-time lookups (one per admission attempt that completed).
    lookups: int = 0
    #: Lookups that matched at least one full page.
    hits: int = 0
    #: Prompt tokens requested across lookups.
    requested_tokens: int = 0
    #: Prompt tokens served from cached blocks across lookups.
    matched_tokens: int = 0
    #: Trie nodes created (blocks published).
    inserts: int = 0
    #: Cached blocks reclaimed under pool pressure.
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def cached_token_fraction(self) -> float:
        if not self.requested_tokens:
            return 0.0
        return self.matched_tokens / self.requested_tokens

    def to_dict(self) -> Dict[str, float]:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "requested_tokens": self.requested_tokens,
            "matched_tokens": self.matched_tokens,
            "cached_token_fraction": self.cached_token_fraction,
            "inserts": self.inserts,
            "evictions": self.evictions,
        }


@dataclass(eq=False)
class _Node:
    key: Tuple[int, ...]
    block: int
    parent: Optional["_Node"]
    children: Dict[Tuple[int, ...], "_Node"] = field(default_factory=dict)
    last_use: int = 0
    #: (1 if ``block`` is shared) + (children with ``pins > 0``); the node
    #: is evictable iff this is 0 (module docstring).
    pins: int = 0


class PrefixCache:
    """Token-prefix → shared-block index attached to one
    :class:`~repro.serve.kv_cache.PagedKVCache` (constructing the cache
    attaches it; ``kv.prefix_cache`` becomes ``self``)."""

    def __init__(self, kv: PagedKVCache):
        self.kv = kv
        self.allocator = kv.allocator
        self.page_size = kv.page_size
        # The root is pinned for good, so every upward walk ends there.
        self._root = _Node(key=(), block=-1, parent=None, pins=1)
        self._by_block: Dict[int, _Node] = {}
        #: Nodes with ``pins == 0``.
        self._evictable = 0
        #: Lazy min-heap of ``(last_use, block)``: every evictable leaf has
        #: an entry carrying its current ``last_use``; any other entry is
        #: stale and dropped when popped.
        self._lru: List[Tuple[int, int]] = []
        self._tick = 0
        self.stats = PrefixCacheStats()
        kv.prefix_cache = self
        self.allocator.on_shared = self._on_shared

    # -- structure queries ------------------------------------------------------

    def _nodes(self) -> List[_Node]:
        """Every node, by walking the trie (teardown and audits only)."""
        out: List[_Node] = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children.values())
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._by_block)

    def cached_blocks(self) -> List[int]:
        return [n.block for n in self._nodes()]

    def evictable_count(self, exclude: Sequence[int] = ()) -> int:
        """Nodes whose whole subtree only the cache references — exactly
        the blocks leaf-first eviction can free, so this is what
        :meth:`reclaim` would return for an unbounded ``need``.  A
        cache-only node above a block some sequence still shares (module
        docstring) is not counted.  Blocks in ``exclude`` count as shared."""
        count = self._evictable
        if exclude:
            # Sharing a block pins the evictable nodes from it up to its
            # first pinned ancestor, each lost once.
            lost = set()
            for block in exclude:
                node = self._by_block.get(block, self._root)
                while node.pins == 0 and node not in lost:
                    lost.add(node)
                    node = node.parent
            count -= len(lost)
        return count

    # -- maintained evictability ------------------------------------------------

    def _on_shared(self, block: int, shared: bool) -> None:
        """Allocator callback: ``block`` crossed refcount 1 -> 2
        (``shared``) or 2 -> 1."""
        node = self._by_block.get(block)
        if node is not None:
            if shared:
                self._pin(node)
            else:
                self._unpin(node)

    def _pin(self, node: _Node) -> None:
        """One more pin on ``node``; a node that was evictable until now
        stops being so and pins its parent in turn."""
        while True:
            node.pins += 1
            if node.pins != 1:
                return
            self._evictable -= 1
            node = node.parent

    def _unpin(self, node: _Node) -> None:
        """One pin less; a node left with none is evictable again (a
        leaf is queued for eviction) and unpins its parent in turn."""
        while True:
            node.pins -= 1
            if node.pins:
                return
            self._evictable += 1
            if not node.children:
                self._queue(node)
            node = node.parent

    def _queue(self, node: _Node) -> None:
        """``node`` just became an evictable leaf, or is one and its
        ``last_use`` changed: give it a valid heap entry."""
        lru = self._lru
        if len(lru) > 2 * len(self._by_block) + 16:
            # Mostly stale entries (a pool that is never short pops
            # none): rebuild from the evictable leaves, ``node`` included.
            lru[:] = [(n.last_use, n.block) for n in self._by_block.values()
                      if not n.children and not n.pins]
            heapify(lru)
        else:
            heappush(lru, (node.last_use, node.block))

    # -- lookup / attach --------------------------------------------------------

    def _walk(self, tokens: Sequence[int]) -> List[_Node]:
        """Nodes along the longest cached full-page prefix of ``tokens``."""
        page = self.page_size
        path: List[_Node] = []
        cur = self._root
        for i in range(len(tokens) // page):
            chunk = tuple(tokens[i * page: (i + 1) * page])
            node = cur.children.get(chunk)
            if node is None:
                break
            path.append(node)
            cur = node
        return path

    def match(self, tokens: Sequence[int],
              max_tokens: Optional[int] = None) -> Tuple[List[int], int]:
        """Longest cached prefix of ``tokens``, as ``(blocks, tokens)``.

        Read-only (no stats, no recency): schedulers probe with this,
        then commit via :meth:`attach`.  ``max_tokens`` caps the match —
        admission caps at ``prompt_len - 1`` so even a fully-cached
        prompt leaves one token to prefill (logits must come from
        somewhere); the capped match may use only part of its last block.
        """
        path = self._walk(tokens)
        matched = len(path) * self.page_size
        if max_tokens is not None and matched > max_tokens:
            matched = max_tokens
        blocks = [n.block for n in path[: self.kv.blocks_for_tokens(matched)]]
        return blocks, matched

    def attach(self, seq_id: int, tokens: Sequence[int],
               max_tokens: Optional[int] = None, record: bool = True) -> int:
        """Commit a match: the sequence takes shared ownership of the
        matched blocks and the nodes' LRU recency is bumped.  Returns the
        matched token count.  ``record=False`` skips hit-rate stats
        (swap-in re-attachment is not an admission lookup)."""
        blocks, matched = self.match(tokens, max_tokens)
        if record:
            self.stats.lookups += 1
            self.stats.requested_tokens += len(tokens)
            self.stats.matched_tokens += matched
            if matched:
                self.stats.hits += 1
        if matched:
            # Share first: every touched node is pinned from here until
            # its release re-queues it under the new tick.
            self.kv.attach_shared(seq_id, blocks, matched)
            self._tick += 1
            for block in blocks:
                self._by_block[block].last_use = self._tick
        return matched

    # -- publish ----------------------------------------------------------------

    def insert(self, tokens: Sequence[int], blocks: Sequence[int]) -> int:
        """Publish a prefilled prompt's full pages; returns nodes created.

        ``blocks`` is the owning sequence's block list; only the leading
        ``len(tokens) // page_size`` full pages are indexed.  Chunks
        already cached are deduplicated — the existing node (and block)
        wins, the sequence keeps its own copy privately.
        """
        page = self.page_size
        self._tick += 1
        cur = self._root
        created = 0
        for i, block in zip(range(len(tokens) // page), blocks):
            chunk = tuple(tokens[i * page: (i + 1) * page])
            node = cur.children.get(chunk)
            if node is None:
                # The publishing sequence keeps its reference, so a new
                # node starts shared.  The allocator's callback for this
                # very share (if it crossed 1 -> 2) found no node yet.
                self.allocator.share(block)
                node = _Node(key=chunk, block=block, parent=cur, pins=1)
                cur.children[chunk] = node
                self._by_block[block] = node
                self._pin(cur)
                created += 1
            node.last_use = self._tick
            cur = node
        if not cur.children and not cur.pins:
            self._queue(cur)
        if created:
            self.stats.inserts += created
            self.kv._note_usage()
        return created

    # -- eviction ---------------------------------------------------------------

    def reclaim(self, need: int) -> int:
        """Free up to ``need`` cached blocks, least-recently-used leaves
        first; returns how many actually went back to the pool."""
        freed = 0
        lru = self._lru
        while freed < need and lru:
            last_use, block = heappop(lru)
            victim = self._by_block.get(block)
            if (victim is None or victim.children or victim.pins
                    or victim.last_use != last_use):
                continue  # stale entry
            self._remove(victim)
            self.allocator.free(block)
            self.stats.evictions += 1
            freed += 1
        return freed

    def _remove(self, node: _Node) -> None:
        """Unlink an evictable leaf (the caller frees its block)."""
        if node.children:
            raise CacheError("evicting an interior prefix-cache node")
        parent = node.parent
        assert parent is not None and not node.pins
        del parent.children[node.key]
        del self._by_block[node.block]
        self._evictable -= 1
        if not parent.children and not parent.pins:
            self._queue(parent)

    def clear(self) -> int:
        """Drop every cached block (end-of-run teardown); returns count.
        Raises if any block is still shared with a live sequence."""
        nodes = self._nodes()
        for node in nodes:
            if self.allocator.refcount(node.block) != 1:
                raise CacheError(
                    f"clearing prefix cache while block {node.block} is "
                    f"still shared"
                )
        for node in nodes:
            self.allocator.free(node.block)
        self._root.children.clear()
        self._by_block.clear()
        self._lru.clear()
        self._evictable = 0
        return len(nodes)
