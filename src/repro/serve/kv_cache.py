"""Paged KV-cache management for the serving engine.

The device-side KV cache is one fixed pool of equal-size blocks (pages)
per layer, shaped ``(p, page_size, h_kv, d)`` — the ``p`` dim is symbolic
in the compiled module, so one Executable serves any VRAM budget.  This
module is the *host-side* bookkeeping over that pool: a refcounted block
allocator with leak accounting, per-sequence block tables, and the padded
batch views the ``decode_paged``/``prefill_paged`` VM functions consume.

Ownership is *shared*: a block may be referenced by several sequences at
once (common prompt prefixes, see :mod:`repro.serve.prefix_cache`) plus
the prefix cache itself.  Each owner holds one reference; a block returns
to the free pool only when its last reference drops.  Writes into a
shared page go through copy-on-write (:meth:`BlockAllocator.fork_for_write`):
the writer trades its reference for a private copy, never mutating pages
other owners still read.

The allocator notifies, the prefix cache never polls: whenever a block's
refcount crosses 1 <-> 2 (it becomes shared, or is back to one owner)
:class:`BlockAllocator` calls ``on_shared(block, shared)``, which an
attached :class:`~repro.serve.prefix_cache.PrefixCache` registers to
keep its evictable count current.

Appends are copy-free in the vLLM sense: growing a sequence never moves
existing pages; at most one new block is allocated (plus one COW fork
when the tail page is shared) and the block table gains one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .prefix_cache import PrefixCache


class CacheError(RuntimeError):
    """Invariant violation in the block allocator or block tables."""


class OutOfBlocks(CacheError):
    """Allocation request exceeds the free pool (callers should evict)."""


class BlockAllocator:
    """Fixed pool of KV blocks with a LIFO free list and per-block refcounts.

    LIFO makes reuse deterministic — freeing blocks and re-allocating the
    same count always yields the same ids in the same order — which is
    what keeps same-seed serving runs bit-identical.

    Refcounts implement shared ownership: :meth:`allocate` hands out a
    block with one reference, :meth:`share` adds an owner, :meth:`free`
    drops one; the block rejoins the free list only at zero references.
    :meth:`fork_for_write` is the copy-on-write primitive.

    ``on_shared(block, shared)``, when set, is called after a committed
    refcount change took ``block`` from one reference to two
    (``shared=True``) or from two back to one (``shared=False``).
    """

    def __init__(self, num_blocks: int):
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self.num_blocks = num_blocks
        # Stack of free ids; initialised so the first allocations hand out
        # 0, 1, 2, ... in order.
        self._free: List[int] = list(range(num_blocks - 1, -1, -1))
        self._refcount: Dict[int, int] = {}
        self.on_shared: Optional[Callable[[int, bool], None]] = None
        # Cumulative reference-traffic counters.  Plain ints bumped on
        # every operation (cheap) but only ever *serialized* behind the
        # telemetry flag — they must not perturb the telemetry-off
        # summary/trace byte format.
        self.allocated_total = 0
        self.freed_total = 0
        self.ref_drops_total = 0
        self.shares_total = 0

    @property
    def num_free(self) -> int:
        return len(self._free)

    @property
    def num_used(self) -> int:
        return len(self._refcount)

    @property
    def total_refs(self) -> int:
        """Sum of all live references (exact-accounting invariant base)."""
        return sum(self._refcount.values())

    def refcount(self, block: int) -> int:
        """Live references to ``block`` (0 = free)."""
        return self._refcount.get(block, 0)

    def allocate(self) -> int:
        if not self._free:
            raise OutOfBlocks(
                f"all {self.num_blocks} KV blocks are in use"
            )
        block = self._free.pop()
        self._refcount[block] = 1
        self.allocated_total += 1
        return block

    def share(self, block: int) -> int:
        """Add one owner to an allocated block; returns the new refcount."""
        refs = self._refcount.get(block)
        if refs is None:
            raise CacheError(f"share of unallocated block {block}")
        self._refcount[block] = refs = refs + 1
        self.shares_total += 1
        if refs == 2 and self.on_shared is not None:
            self.on_shared(block, True)
        return refs

    def free(self, block: int) -> int:
        """Drop one reference; returns refs remaining (0 = back in pool)."""
        refs = self._refcount.get(block)
        if refs is None:
            raise CacheError(f"double free (or foreign id) of block {block}")
        refs -= 1
        self.ref_drops_total += 1
        if refs == 0:
            del self._refcount[block]
            self._free.append(block)
            self.freed_total += 1
        else:
            self._refcount[block] = refs
            if refs == 1 and self.on_shared is not None:
                self.on_shared(block, False)
        return refs

    def fork_for_write(self, block: int) -> int:
        """Copy-on-write: a block owned exclusively is returned unchanged;
        a shared one trades this owner's reference for a freshly allocated
        private block (the caller copies the page payload over).

        All-or-nothing: with the free list empty it raises
        :class:`OutOfBlocks` and the caller still holds its reference."""
        refs = self._refcount.get(block)
        if refs is None:
            raise CacheError(f"fork_for_write of unallocated block {block}")
        if refs == 1:
            return block
        fresh = self.allocate()  # raises before the reference is traded
        self._refcount[block] = refs - 1
        self.ref_drops_total += 1
        if refs == 2 and self.on_shared is not None:
            self.on_shared(block, False)
        return fresh

    def check_no_leaks(self, expected_used: int = 0,
                       expected_refs: Optional[int] = None) -> None:
        """Raise unless exactly ``expected_used`` blocks remain allocated,
        references sum to ``expected_refs`` (defaults to ``expected_used``,
        i.e. every survivor singly owned), and the free list is consistent
        with the pool size."""
        if self.num_used != expected_used:
            raise CacheError(
                f"leaked blocks: {self.num_used} still allocated, "
                f"expected {expected_used}"
            )
        want_refs = expected_used if expected_refs is None else expected_refs
        if self.total_refs != want_refs:
            raise CacheError(
                f"leaked references: {self.total_refs} live refs across "
                f"{self.num_used} blocks, expected {want_refs}"
            )
        if any(r <= 0 for r in self._refcount.values()):
            raise CacheError("allocated block with non-positive refcount")
        if self.num_free + self.num_used != self.num_blocks:
            raise CacheError(
                f"pool accounting broken: {self.num_free} free + "
                f"{self.num_used} used != {self.num_blocks}"
            )


@dataclass
class _Sequence:
    seq_id: int
    blocks: List[int] = field(default_factory=list)
    length: int = 0  # tokens stored in the paged cache


@dataclass(frozen=True)
class ReleaseInfo:
    """What :meth:`PagedKVCache.release_sequence` actually gave back."""

    #: Blocks whose last reference dropped (returned to the free list).
    freed_blocks: int
    #: Tokens whose only KV copy lived in those freed blocks — the bytes
    #: a swap preemption must move to host memory.
    private_tokens: int
    #: Tokens in blocks that survived (still referenced by the prefix
    #: cache or other sequences); they stay resident on the device.
    shared_tokens: int


class PagedKVCache:
    """Per-sequence block tables over one shared :class:`BlockAllocator`.

    Block 0 is reserved as the *padding page*: the generated paged
    attention kernels evaluate both ``select`` branches (``np.where``
    semantics, see :mod:`repro.ops.paged`), so padded block-table slots
    must reference a real page — masked scores keep padded entries out of
    the softmax, but the gather itself has to stay in bounds.  It is
    allocated in ``__init__`` and *permanently pinned* (never shared,
    never freed): releasing it would let the allocator hand block 0 to a
    sequence while every padded table slot still points at it.

    A :class:`~repro.serve.prefix_cache.PrefixCache` may attach itself
    (``self.prefix_cache``); capacity queries then count its *evictable*
    blocks (cached, but unreferenced by any sequence) as available, and
    allocation reclaims them LRU-first under pressure.
    """

    def __init__(self, num_blocks: int, page_size: int):
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.num_blocks = num_blocks
        self.allocator = BlockAllocator(num_blocks)
        self.padding_block = self.allocator.allocate()  # block 0
        self._seqs: Dict[int, _Sequence] = {}
        #: Attached by PrefixCache.__init__ (None = prefix caching off).
        self.prefix_cache: Optional["PrefixCache"] = None
        #: Copy-on-write forks performed (shared tail page written).
        self.cow_copies = 0
        #: Running max of allocated blocks (raw high-water mark).
        self.peak_used_blocks = self.allocator.num_used
        #: Running max of *required* blocks: allocated minus blocks the
        #: prefix cache could evict on demand.  This is the real pool
        #: pressure — cache-only blocks are reclaimable VRAM, not load.
        self.peak_required_blocks = self.allocator.num_used

    # -- capacity queries -------------------------------------------------------

    @property
    def num_free_blocks(self) -> int:
        return self.allocator.num_free

    @property
    def num_reclaimable_blocks(self) -> int:
        """Cached blocks no live sequence references (evictable on demand)."""
        if self.prefix_cache is None:
            return 0
        return self.prefix_cache.evictable_count()

    @property
    def num_available_blocks(self) -> int:
        return self.num_free_blocks + self.num_reclaimable_blocks

    @property
    def num_usable_blocks(self) -> int:
        """Pool capacity a single sequence could ever reach (total minus
        the permanently pinned padding page)."""
        return self.num_blocks - 1

    def blocks_for_tokens(self, num_tokens: int) -> int:
        return -(-num_tokens // self.page_size)

    def blocks_needed(self, seq_id: int, num_tokens: int) -> int:
        """Blocks a ``num_tokens`` append must allocate — page growth plus
        one copy-on-write fork when the partial tail page is shared."""
        seq = self._seqs[seq_id]
        need = self.blocks_for_tokens(seq.length + num_tokens) - len(seq.blocks)
        if (
            num_tokens > 0
            and seq.blocks
            and seq.length % self.page_size != 0
            and self.allocator.refcount(seq.blocks[-1]) > 1
        ):
            need += 1
        return need

    def can_append(self, seq_id: int, num_tokens: int) -> bool:
        return self.blocks_needed(seq_id, num_tokens) <= self.num_available_blocks

    def can_admit(self, num_tokens: int) -> bool:
        return self.blocks_for_tokens(num_tokens) <= self.num_available_blocks

    def can_admit_with_prefix(self, num_tokens: int,
                              matched_blocks: Sequence[int],
                              matched_tokens: int) -> bool:
        """Admission check for a sequence about to attach cached prefix
        blocks: only the *uncached* remainder needs fresh allocation (plus
        one copy-on-write fork when the match ends mid-page — the first
        append writes into that shared tail), and the matched blocks stop
        being reclaimable the moment they are attached, so they are
        excluded from the available count."""
        need = self.blocks_for_tokens(num_tokens) - len(matched_blocks)
        if (matched_blocks and matched_tokens % self.page_size != 0
                and num_tokens > matched_tokens):
            need += 1
        avail = self.num_free_blocks
        if self.prefix_cache is not None:
            avail += self.prefix_cache.evictable_count(exclude=matched_blocks)
        return need <= avail

    def _reserve(self, need: int) -> None:
        """Make ``need`` blocks allocatable, reclaiming cached blocks
        LRU-first when the free list alone cannot cover it."""
        short = need - self.num_free_blocks
        if short > 0:
            freed = (
                self.prefix_cache.reclaim(short)
                if self.prefix_cache is not None else 0
            )
            if freed < short:
                raise OutOfBlocks(
                    f"need {need} blocks, {self.num_free_blocks} free after "
                    f"reclaiming {freed} cached"
                )

    def _note_usage(self) -> None:
        used = self.allocator.num_used
        self.peak_used_blocks = max(self.peak_used_blocks, used)
        required = used - self.num_reclaimable_blocks
        self.peak_required_blocks = max(self.peak_required_blocks, required)

    # -- sequence lifecycle -----------------------------------------------------

    def add_sequence(self, seq_id: int) -> None:
        if seq_id in self._seqs:
            raise CacheError(f"sequence {seq_id} already tracked")
        self._seqs[seq_id] = _Sequence(seq_id)

    def has_sequence(self, seq_id: int) -> bool:
        return seq_id in self._seqs

    def attach_shared(self, seq_id: int, blocks: Sequence[int],
                      num_tokens: int) -> None:
        """Give a fresh sequence shared ownership of cached prefix blocks.

        The blocks hold ``num_tokens`` of already-computed KV (full pages,
        except possibly a partially-used last page); the sequence takes
        one reference on each and its first append into the partial page —
        if any — goes through copy-on-write.
        """
        seq = self._seqs[seq_id]
        if seq.blocks or seq.length:
            raise CacheError(
                f"attach_shared on non-empty sequence {seq_id}"
            )
        if num_tokens < 0 or self.blocks_for_tokens(num_tokens) != len(blocks):
            raise CacheError(
                f"attach_shared: {num_tokens} tokens do not fit "
                f"{len(blocks)} blocks of {self.page_size}"
            )
        for block in blocks:
            # Checked up front: a bad id mid-list must not leave the
            # earlier blocks shared with a sequence that owns nothing.
            if not self.allocator.refcount(block):
                raise CacheError(f"share of unallocated block {block}")
        for block in blocks:
            self.allocator.share(block)
        seq.blocks = list(blocks)
        seq.length = num_tokens
        self._note_usage()

    def append(self, seq_id: int, num_tokens: int = 1) -> int:
        """Grow ``seq_id`` by ``num_tokens``; returns blocks allocated
        (including a copy-on-write fork of a shared tail page, if any).

        All-or-nothing: raises :class:`OutOfBlocks` without side effects
        when the pool (free plus reclaimable) cannot cover the growth.
        """
        need = self.blocks_needed(seq_id, num_tokens)
        if need > self.num_available_blocks:
            raise OutOfBlocks(
                f"sequence {seq_id} needs {need} blocks, "
                f"{self.num_available_blocks} available"
            )
        self._reserve(need)
        seq = self._seqs[seq_id]
        if (
            num_tokens > 0
            and seq.blocks
            and seq.length % self.page_size != 0
            and self.allocator.refcount(seq.blocks[-1]) > 1
        ):
            # Copy-on-write: the partial tail page is shared, and this
            # append writes into it.  Trade our reference for a private
            # copy (the engine copies the page payload device-side).
            seq.blocks[-1] = self.allocator.fork_for_write(seq.blocks[-1])
            self.cow_copies += 1
        grow = self.blocks_for_tokens(seq.length + num_tokens) - len(seq.blocks)
        for _ in range(grow):
            seq.blocks.append(self.allocator.allocate())
        seq.length += num_tokens
        self._note_usage()
        return need

    def rollback(self, seq_id: int, num_tokens: int) -> int:
        """Pop ``num_tokens`` off the tail of ``seq_id``; returns blocks
        whose reference this sequence dropped.

        This is the speculative-decode rejection path: draft tokens the
        target model refused were appended optimistically and their KV
        must come back out *exactly*.  Tail blocks left without any of
        this sequence's tokens lose one reference each, in reverse block
        order — the mirror image of how :meth:`append` allocated them —
        so the allocator's LIFO free list ends up as if the rejected
        tokens were never appended (block-id reuse determinism).  A
        partially vacated tail page stays owned: its earlier slots still
        hold accepted tokens.

        Blocks this sequence shares with the prefix cache or a forked
        sibling survive a dropped reference; only the last owner's drop
        returns a page to the pool, matching :meth:`release_sequence`.
        """
        if num_tokens < 0:
            raise CacheError(f"rollback of {num_tokens} tokens")
        seq = self._seqs[seq_id]
        if num_tokens > seq.length:
            raise CacheError(
                f"rollback of {num_tokens} tokens exceeds sequence "
                f"{seq_id} length {seq.length}"
            )
        new_length = seq.length - num_tokens
        keep = self.blocks_for_tokens(new_length)
        released = 0
        for pos in reversed(range(keep, len(seq.blocks))):
            self.allocator.free(seq.blocks[pos])
            released += 1
        del seq.blocks[keep:]
        seq.length = new_length
        return released

    def release_sequence(self, seq_id: int) -> ReleaseInfo:
        """Release one sequence's ownership of all its blocks.

        This single code path serves both lifecycle exits — *preemption*
        (scheduler evicts a victim; the returned
        :attr:`~ReleaseInfo.private_tokens` drives swap costing, because
        only KV whose last copy was here leaves the device; tokens in
        still-shared blocks remain resident in the pool or prefix cache)
        and *completion* (a finished request; the release info is
        ignored).  Mechanically they are identical: drop one reference
        per block, returning fully-released blocks to the free list in
        reverse order so a LIFO re-allocation of the same count yields
        the same ids (determinism).  Either way the sequence stops being
        tracked; resuming a preempted one goes through
        :meth:`add_sequence` (+ :meth:`attach_shared`/:meth:`append`).
        """
        if seq_id not in self._seqs:
            raise CacheError(f"unknown sequence {seq_id}")
        seq = self._seqs.pop(seq_id)
        freed = private = shared = 0
        for pos in reversed(range(len(seq.blocks))):
            start = pos * self.page_size
            tokens = max(0, min(seq.length, start + self.page_size) - start)
            if self.allocator.free(seq.blocks[pos]) == 0:
                freed += 1
                private += tokens
            else:
                shared += tokens
        return ReleaseInfo(freed, private, shared)

    # -- batch views ------------------------------------------------------------

    def length(self, seq_id: int) -> int:
        return self._seqs[seq_id].length

    def blocks(self, seq_id: int) -> List[int]:
        return list(self._seqs[seq_id].blocks)

    def block_table(self, seq_ids: Sequence[int],
                    width: Optional[int] = None) -> np.ndarray:
        """Padded ``(b, w)`` int64 block table for one batch."""
        tables = [self._seqs[s].blocks for s in seq_ids]
        w = width if width is not None else max(
            (len(t) for t in tables), default=1
        )
        w = max(w, 1)
        out = np.full((len(tables), w), self.padding_block, dtype=np.int64)
        for i, t in enumerate(tables):
            if len(t) > w:
                raise CacheError(
                    f"sequence {seq_ids[i]} has {len(t)} blocks > width {w}"
                )
            out[i, : len(t)] = t
        return out

    def lengths(self, seq_ids: Sequence[int]) -> np.ndarray:
        return np.asarray([self._seqs[s].length for s in seq_ids],
                          dtype=np.int64)

    # -- accounting -------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of pool blocks currently allocated (incl. padding)."""
        return self.allocator.num_used / self.allocator.num_blocks

    def required_utilization(self) -> float:
        """Utilization excluding reclaimable (cache-only) blocks."""
        used = self.allocator.num_used - self.num_reclaimable_blocks
        return used / self.allocator.num_blocks

    def fragmentation(self) -> float:
        """Internal fragmentation: fraction of *allocated* token slots
        (padding page excluded) not holding a token.  Shared blocks make
        this approximate (several sequences count the same slots), so the
        value is clamped at zero."""
        used = self.allocator.num_used - 1  # minus padding block
        if used <= 0:
            return 0.0
        slots = used * self.page_size
        tokens = sum(s.length for s in self._seqs.values())
        return max(0.0, 1.0 - tokens / slots)

    def refcount_audit(self) -> Dict[str, object]:
        """Structured snapshot of the allocator's exact-accounting state.

        The engine attaches this to every :class:`ServeReport` at
        teardown (after :meth:`check_no_leaks`), and folds it into the
        run *summary* only when telemetry is enabled — the summary's
        byte format with telemetry off is pinned by baseline hashes.
        """
        cached = (
            self.prefix_cache.cached_blocks()
            if self.prefix_cache is not None else []
        )
        expected = 1 + len(cached)  # padding page + cache-held blocks
        alloc = self.allocator
        return {
            "num_blocks": alloc.num_blocks,
            "used_blocks": alloc.num_used,
            "free_blocks": alloc.num_free,
            "total_refs": alloc.total_refs,
            "tracked_sequences": len(self._seqs),
            "cached_blocks": len(cached),
            "expected_used_blocks": expected,
            "leaked_blocks": alloc.num_used - expected,
            "allocated_total": alloc.allocated_total,
            "freed_total": alloc.freed_total,
            "ref_drops_total": alloc.ref_drops_total,
            "shares_total": alloc.shares_total,
            "cow_copies": self.cow_copies,
            "peak_used_blocks": self.peak_used_blocks,
            "peak_required_blocks": self.peak_required_blocks,
        }

    def check_no_leaks(self) -> None:
        """After all sequences finish, only the padding block plus blocks
        held by the prefix cache — each with *exactly one* reference —
        may remain (exact refcount accounting)."""
        if self._seqs:
            raise CacheError(
                f"sequences still tracked: {sorted(self._seqs)}"
            )
        cached: List[int] = (
            self.prefix_cache.cached_blocks()
            if self.prefix_cache is not None else []
        )
        if self.padding_block in cached:
            raise CacheError("padding block leaked into the prefix cache")
        if len(set(cached)) != len(cached):
            raise CacheError("prefix cache holds duplicate block references")
        for block in cached:
            refs = self.allocator.refcount(block)
            if refs != 1:
                raise CacheError(
                    f"cached block {block} has {refs} refs after drain"
                )
        if self.allocator.refcount(self.padding_block) != 1:
            raise CacheError(
                f"padding block has "
                f"{self.allocator.refcount(self.padding_block)} refs"
            )
        expected = 1 + len(cached)
        self.allocator.check_no_leaks(expected_used=expected,
                                      expected_refs=expected)
