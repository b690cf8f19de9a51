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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class _Node:
    key: Tuple[int, ...]
    block: int
    parent: Optional["_Node"]
    children: Dict[Tuple[int, ...], "_Node"] = field(default_factory=dict)
    last_use: int = 0
    #: Scratch for :meth:`PrefixCache.evictable_count`: the number of the
    #: last walk that found a shared block in this node's subtree.
    walk: int = 0


class PrefixCache:
    """Token-prefix → shared-block index attached to one
    :class:`~repro.serve.kv_cache.PagedKVCache` (constructing the cache
    attaches it; ``kv.prefix_cache`` becomes ``self``)."""

    def __init__(self, kv: PagedKVCache):
        self.kv = kv
        self.allocator = kv.allocator
        self.page_size = kv.page_size
        self._root = _Node(key=(), block=-1, parent=None)
        self._tick = 0
        self.stats = PrefixCacheStats()
        kv.prefix_cache = self

    # -- structure queries ------------------------------------------------------

    def _nodes(self) -> List[_Node]:
        out: List[_Node] = []
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.children.values())
        return out

    @property
    def num_nodes(self) -> int:
        return len(self._nodes())

    def cached_blocks(self) -> List[int]:
        return [n.block for n in self._nodes()]

    def evictable_count(self, exclude: Sequence[int] = ()) -> int:
        """Nodes whose whole subtree only the cache references — exactly
        the blocks leaf-first eviction can free, so this is what
        :meth:`reclaim` would return for an unbounded ``need``.  A
        cache-only node above a block some sequence still shares (module
        docstring) is not counted.  Blocks in ``exclude`` count as shared."""
        skip = set(exclude)
        refcount = self.allocator.refcount
        self._root.walk = walk = self._root.walk + 1
        total = pinned = 0
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            total += 1
            if node.children:
                stack.extend(node.children.values())
            block = node.block
            if refcount(block) != 1 or block in skip:
                # Pin the path to the root, stopping where an earlier
                # shared block already pinned it (the root always has).
                while node.walk != walk:
                    node.walk = walk
                    pinned += 1
                    node = node.parent
        return total - pinned

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
            self._tick += 1
            path = self._walk(tokens)
            for node in path[: len(blocks)]:
                node.last_use = self._tick
            self.kv.attach_shared(seq_id, blocks, matched)
        return matched

    def record_miss(self, requested_tokens: int) -> None:
        """Count an admission lookup that matched nothing."""
        self.stats.lookups += 1
        self.stats.requested_tokens += requested_tokens

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
                self.allocator.share(block)
                node = _Node(key=chunk, block=block, parent=cur)
                cur.children[chunk] = node
                created += 1
            node.last_use = self._tick
            cur = node
        if created:
            self.stats.inserts += created
            self.kv._note_usage()
        return created

    # -- eviction ---------------------------------------------------------------

    def reclaim(self, need: int) -> int:
        """Free up to ``need`` cached blocks, least-recently-used leaves
        first; returns how many actually went back to the pool."""
        freed = 0
        while freed < need:
            victim: Optional[_Node] = None
            for node in self._nodes():
                if node.children:
                    continue
                if self.allocator.refcount(node.block) != 1:
                    continue
                if victim is None or (
                    (node.last_use, node.block)
                    < (victim.last_use, victim.block)
                ):
                    victim = node
            if victim is None:
                break
            self._remove(victim)
            self.allocator.free(victim.block)
            self.stats.evictions += 1
            freed += 1
        return freed

    def _remove(self, node: _Node) -> None:
        if node.children:
            raise CacheError("evicting an interior prefix-cache node")
        assert node.parent is not None
        del node.parent.children[node.key]

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
        return len(nodes)
