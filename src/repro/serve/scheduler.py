"""Iteration-level (Orca-style) continuous-batching scheduler.

Each call to :meth:`ContinuousBatchingScheduler.schedule` plans exactly
one engine iteration: every running sequence past its chunked phases runs
one *step* of its stepped phase (an LLM/Whisper decode token, a denoise
iteration), and the leftover token budget (``max_num_batched_tokens``) is
filled with chunks of the *chunked* phases — LLM prefill, Whisper encode
and cross-KV projection — so chunked and stepped work interleave instead
of head-of-line blocking each other (chunked prefill, generalized).

The scheduler is generic over request types: all per-model structure
(which phases exist, their KV demand and budget cost, preemption
eligibility, the completion predicate) comes from the request's
:class:`~repro.serve.program.RequestProgram`.  The scheduler never
branches on ``request.kind``.

When the KV block pool cannot cover the next decode step, the scheduler
preempts the *latest-arrived* running sequence (FCFS priority) and either
swaps its blocks to host memory or discards them for recomputation,
the two recovery policies from the vLLM line of work.  Eviction always
goes through preemption — a sequence scheduled to decode in this
iteration is never the one whose blocks are taken.

With a :class:`~repro.serve.prefix_cache.PrefixCache` attached to the KV
pool, admission first matches the prompt's token ids against cached
prefixes: matched tokens attach as shared blocks and only the *uncached*
remainder charges the chunked-prefill token budget.  Preemption costing
is sharing-aware — swapping a victim moves only the tokens whose last KV
copy lived in its freed blocks (:class:`~repro.serve.kv_cache.ReleaseInfo`);
tokens in still-shared blocks stay resident and re-attach on swap-in.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, NamedTuple, Optional, Tuple

from .kv_cache import CacheError, PagedKVCache
from .metrics import RequestMetrics
from .program import RequestProgram, program_for, stream_seq_id
from .workload import Request


class Phase(enum.Enum):
    """Coarse lifecycle state; fine-grained progress lives in the
    request's :class:`~repro.serve.program.RequestProgram`.  PREFILL
    means "still has chunked-phase work", DECODE means "in the stepped
    phase"."""

    WAITING = "waiting"
    PREFILL = "prefill"
    DECODE = "decode"
    SWAPPED = "swapped"
    FINISHED = "finished"


@dataclass(eq=False)
class RequestState:
    """Scheduler-side view of one request's progress.  A request is an
    entity: states compare (and ``running`` membership tests) by
    identity, not field by field."""

    request: Request
    metrics: RequestMetrics
    #: Phase-step program (built from ``request.kind`` when omitted).
    program: Optional[RequestProgram] = None
    phase: Phase = Phase.WAITING
    #: Output units produced so far (tokens, denoise iterations).
    generated: int = 0
    #: Tokens swapped to host at preemption time (private blocks only —
    #: the bytes a swap-in must copy back).
    swapped_tokens: int = 0
    #: Tokens left resident in shared blocks at preemption time; swap-in
    #: re-attaches them from the prefix cache (or falls back to
    #: recompute when the cache evicted them in the interim).
    shared_at_preempt: int = 0
    #: Total cached tokens at preemption time (restored sequence length).
    tokens_at_preempt: int = 0

    def __post_init__(self):
        if self.program is None:
            self.program = program_for(self.request)

    @property
    def seq_id(self) -> int:
        return self.request.req_id

    @property
    def done(self) -> bool:
        return self.program.is_complete(self.generated)

    # Chunked-phase progress, exposed under the historical prefill names
    # (for the LLM program these are exactly the old fields; recompute
    # preemption and swap-resume manipulate them through the setters).

    @property
    def prefilled(self) -> int:
        """Chunked-phase units already processed."""
        return sum(ph.done for ph in self.program.chunked)

    @prefilled.setter
    def prefilled(self, value: int) -> None:
        if value == 0:
            for ph in self.program.chunked:
                ph.done = 0
        else:
            self.program.chunked[0].done = value

    @property
    def prefill_target(self) -> int:
        """Total chunked-phase units (prompt tokens for the LLM program;
        on a recompute-resume the prompt plus generated tokens)."""
        return sum(ph.target for ph in self.program.chunked)

    @prefill_target.setter
    def prefill_target(self, value: int) -> None:
        self.program.chunked[0].target = value


class Step(NamedTuple):
    """One stepped-phase step: an LLM/Whisper decode token, a denoise
    iteration, or — when ``spec_k`` is set — a draft/verify step."""

    state: RequestState
    #: Self-stream context *before* this step's append (0 for programs
    #: that hold no KV).
    ctx: int
    #: Draft tokens proposed on top of the mandatory bonus token (the
    #: append was an optimistic ``spec_k + 1`` tokens); ``None`` means
    #: the program does not speculate.
    spec_k: Optional[int] = None

    @property
    def path(self) -> str:
        """How the step commits its units: ``"spec"`` (verified drafts),
        ``"decode"`` (a token of a batched-decode program) or ``"step"``."""
        if self.spec_k is not None:
            return "spec"
        return "decode" if self.state.program.batched_decode else "step"


class Chunk(NamedTuple):
    """One chunked-phase chunk: LLM prefill, Whisper encode or cross-KV
    projection."""

    state: RequestState
    phase: str
    past: int
    units: int


@dataclass
class Iteration:
    """One scheduled engine step (already reflected in the KV cache).

    All planned work, whatever the request kind, is in two lists in
    scheduling order; each item's :class:`RequestProgram` says which VM
    calls it becomes (:meth:`~repro.serve.program.RequestProgram.calls`).
    """

    steps: List[Step] = field(default_factory=list)
    chunks: List[Chunk] = field(default_factory=list)
    #: Sequences restored from host swap this step (tokens copied back).
    swapped_in: List[Tuple[RequestState, int]] = field(default_factory=list)
    #: ``(state, swapped_tokens, mode)`` preemptions performed while
    #: planning; ``swapped_tokens`` counts only private tokens (shared
    #: blocks stay resident and cost no host-link traffic).
    preempted: List[Tuple[RequestState, int, str]] = field(default_factory=list)
    #: ``(state, cached_tokens)`` admissions served from the prefix cache.
    cache_hits: List[Tuple[RequestState, int]] = field(default_factory=list)
    #: Sequences admitted from the waiting queue this step (includes
    #: recompute-preempted sequences re-entering the running set).
    admitted: List[RequestState] = field(default_factory=list)

    @property
    def num_batched_tokens(self) -> int:
        return (
            sum(s.state.program.stepped.budget_per_step + (s.spec_k or 0)
                for s in self.steps)
            + sum(c.units for c in self.chunks)
        )

    @property
    def empty(self) -> bool:
        return not (self.steps or self.chunks
                    or self.swapped_in or self.preempted)


@dataclass(frozen=True)
class SchedulerConfig:
    max_num_seqs: int = 16
    max_num_batched_tokens: int = 256
    #: Cap on prefill tokens per sequence per iteration (chunked prefill);
    #: ``None`` disables chunking — whole prompts must fit the budget.
    prefill_chunk: Optional[int] = 64
    #: Preemption recovery: "swap" (blocks copied to host and back) or
    #: "recompute" (blocks dropped, prompt + generated tokens re-prefilled).
    eviction: str = "swap"

    def __post_init__(self):
        if self.eviction not in ("swap", "recompute"):
            raise ValueError(f"unknown eviction policy {self.eviction!r}")


class ContinuousBatchingScheduler:
    def __init__(self, config: SchedulerConfig, kv: PagedKVCache):
        self.config = config
        self.kv = kv
        self.waiting: Deque[RequestState] = deque()
        self.running: List[RequestState] = []   # PREFILL or DECODE
        self.swapped: Deque[RequestState] = deque()
        #: Pool blocks promised to admitted *unevictable* requests
        #: (worst-case lifetime demand).  Their KV cannot be preempted
        #: away once written, so admission must guarantee they all fit
        #: the pool together; evictable requests make room on demand.
        self.unevictable_blocks = 0
        #: Acceptance-aware cap on the speculative width, written by the
        #: engine's adaptive controller (``None`` = no cap).  Planning
        #: uses ``min(program k, cap)``; vanilla programs ignore it.
        self.spec_k_cap: Optional[int] = None

    # -- intake -----------------------------------------------------------------

    def add_request(self, state: RequestState) -> None:
        state.phase = Phase.WAITING
        self.waiting.append(state)

    def has_unfinished(self) -> bool:
        return bool(self.waiting or self.running or self.swapped)

    @property
    def queue_depth(self) -> int:
        return len(self.waiting) + len(self.swapped)

    @property
    def num_running(self) -> int:
        return len(self.running)

    # -- completion -------------------------------------------------------------

    def finish(self, state: RequestState) -> None:
        """Called by the engine once a request emitted all its output.

        Releases every KV stream the program owns — for Whisper both the
        self stream and the write-once cross stream."""
        state.phase = Phase.FINISHED
        self.running.remove(state)
        if not state.program.evictable:
            self.unevictable_blocks -= state.program.lifetime_kv_blocks(
                self.kv.page_size)
        for stream in state.program.streams():
            sid = stream_seq_id(state.seq_id, stream)
            if self.kv.has_sequence(sid):
                self.kv.release_sequence(sid)

    # -- preemption -------------------------------------------------------------

    def _preempt_one(self, it: Iteration,
                     keep: Optional[RequestState] = None) -> bool:
        """Evict the latest-arrived running sequence that is neither
        ``keep`` nor already stepping in ``it``.

        Returns False when no victim exists (callers then shrink their
        demand instead).  The victim's blocks are freed *after* it leaves
        the running list, so eviction can never touch a sequence that is
        part of the batch being planned.
        """
        protect = [s.state for s in it.steps]
        for victim in reversed(self.running):
            if victim is keep or victim in protect:
                continue
            if not victim.program.evictable:
                # Write-once KV (e.g. Whisper's cross stream) cannot be
                # regrown by replaying a prefix: such programs are never
                # preemption victims.
                continue
            self.running.remove(victim)
            tokens = self.kv.length(victim.seq_id)
            rel = self.kv.release_sequence(victim.seq_id)
            victim.metrics.preemptions += 1
            mode = self.config.eviction
            if mode == "swap":
                victim.phase = Phase.SWAPPED
                # Only private tokens leave the device; tokens in shared
                # blocks stay resident (the prefix cache keeps a ref) and
                # re-attach for free on swap-in.
                victim.swapped_tokens = rel.private_tokens
                victim.shared_at_preempt = rel.shared_tokens
                victim.tokens_at_preempt = tokens
                self.swapped.append(victim)
            else:  # recompute: all cached KV must be rebuilt from tokens
                victim.phase = Phase.WAITING
                if victim.prefilled == victim.prefill_target:
                    # Was decoding: the rebuilt prefix covers the prompt
                    # plus every generated token whose KV was cached.
                    victim.prefill_target = tokens
                # else: mid-prefill — keep the original target, restart it.
                victim.prefilled = 0
                self.waiting.appendleft(victim)
            it.preempted.append((victim, rel.private_tokens, mode))
            return True
        return False

    # -- planning ---------------------------------------------------------------

    def schedule(self) -> Iteration:
        it = Iteration()
        cfg = self.config

        # 1. One stepped-phase step for every running sequence past its
        #    chunked phases.  A step needing KV must have room to append;
        #    evict (other) sequences until it fits, else preempt the
        #    stepper itself.  Steps of KV-free programs (denoise) always
        #    place.
        for state in list(self.running):
            if state.phase is not Phase.DECODE:
                continue
            if state not in self.running:
                continue  # evicted as a victim earlier in this loop
            sp = state.program.stepped
            need = sp.kv_per_step
            if need == 0:
                it.steps.append(Step(state, 0))
                continue
            # Speculative width for this step: the program's k, capped by
            # the adaptive controller and by the request's remaining
            # output (the step always emits at least the bonus token, so
            # proposing more than remaining - 1 drafts is pure waste).
            # k = 0 degenerates to the vanilla one-token step arithmetic.
            spec_k = None
            if sp.max_spec_tokens > 0:
                spec_k = min(sp.max_spec_tokens,
                             sp.target - state.generated - 1)
                if self.spec_k_cap is not None:
                    spec_k = min(spec_k, self.spec_k_cap)
                spec_k = max(spec_k, 0)
                # Never let the optimistic append push the sequence past
                # what an otherwise-empty pool could hold — the fail-fast
                # check below must fire only when the *vanilla* step
                # cannot fit, not because of shrinkable draft width.
                while spec_k > 0 and (
                    self.kv.blocks_for_tokens(
                        self.kv.length(state.seq_id)
                        + sp.kv_per_step * (1 + spec_k))
                    > self.kv.num_usable_blocks
                ):
                    spec_k -= 1
                need = sp.kv_per_step * (1 + spec_k)
            placed = False
            while True:
                if self.kv.can_append(state.seq_id, need):
                    # A speculative append is optimistic: the engine
                    # verifies the k drafts and rolls back whatever the
                    # target rejects, so pool pressure here is the honest
                    # worst case for this step.
                    it.steps.append(
                        Step(state, self.kv.length(state.seq_id), spec_k))
                    self.kv.append(state.seq_id, need)
                    placed = True
                    break
                if not self._preempt_one(it, keep=state):
                    break
            if not placed:
                # Could not make room even after evicting everyone else.
                # If the grown sequence exceeds what an otherwise-empty
                # pool could ever hold, no preemption will help: fail
                # fast instead of cycling through self-preempt/swap-in
                # forever (the recompute policy already fails fast — the
                # victim is never re-admitted and the run stalls out).
                grown = self.kv.length(state.seq_id) + need
                if (self.kv.blocks_for_tokens(grown)
                        > self.kv.num_usable_blocks):
                    raise CacheError(
                        f"request {state.seq_id} needs "
                        f"{self.kv.blocks_for_tokens(grown)} KV blocks to "
                        f"keep decoding but the pool only has "
                        f"{self.kv.num_usable_blocks} usable"
                    )
                # Otherwise preempt this sequence too rather than stall
                # with a half-planned step.
                self._preempt_one(it)

        budget = cfg.max_num_batched_tokens - it.num_batched_tokens

        # 2. Resume swapped sequences (oldest first) while seats, blocks
        #    and token budget allow.  A resumed sequence decodes starting
        #    next iteration; the swap-in itself costs host-link time which
        #    the engine charges off the Iteration record.
        while self.swapped and budget > 0:
            state = self.swapped[0]
            if len(self.running) + 1 > cfg.max_num_seqs:
                break
            cache = self.kv.prefix_cache
            prompt = state.request.prompt_tokens
            matched_blocks: List[int] = []
            matched = 0
            if cache is not None and prompt and state.shared_at_preempt:
                matched_blocks, matched = cache.match(
                    prompt, max_tokens=state.shared_at_preempt
                )
            total = max(state.prefill_target, state.tokens_at_preempt)
            if not self.kv.can_admit_with_prefix(total, matched_blocks,
                                                 matched):
                break
            self.swapped.popleft()
            self.kv.add_sequence(state.seq_id)
            if matched:
                cache.attach(state.seq_id, prompt,
                             max_tokens=state.shared_at_preempt,
                             record=False)
            if matched == state.shared_at_preempt:
                # Every shared token is still cached: re-attach them and
                # copy back only the private (swapped) tokens.
                if state.swapped_tokens:
                    self.kv.append(state.seq_id, state.swapped_tokens)
                copied = state.swapped_tokens
                # A victim caught mid-prefill resumes prefilling; one
                # caught decoding resumes decode.
                state.phase = (
                    Phase.PREFILL
                    if state.prefilled < state.prefill_target
                    else Phase.DECODE
                )
            else:
                # The cache evicted part of the shared prefix while this
                # sequence was swapped out — the host copy alone cannot
                # rebuild it.  Fall back to recompute from whatever prefix
                # still matched; the stale host copy is discarded (no
                # swap-in traffic).
                state.prefill_target = max(state.prefill_target,
                                           state.tokens_at_preempt)
                state.prefilled = matched
                state.phase = Phase.PREFILL
                copied = 0
            self.running.append(state)
            it.swapped_in.append((state, copied))
            state.swapped_tokens = 0
            state.shared_at_preempt = 0
            state.tokens_at_preempt = 0

        # 3. Admission control: bring in waiting sequences FCFS when the
        #    whole remaining prefill fits the free pool *now* (no partial
        #    admissions that could deadlock the pool).  Prompts with token
        #    ids first probe the prefix cache: matched tokens attach as
        #    shared blocks and are never prefilled (or charged to the
        #    budget) — only the uncached remainder needs fresh blocks.
        while (
            self.waiting
            and budget > 0
            and len(self.running) < cfg.max_num_seqs
        ):
            state = self.waiting[0]
            cache = self.kv.prefix_cache
            prompt = state.request.prompt_tokens
            probe = (cache is not None and prompt is not None
                     and state.program.prefix_cacheable
                     and state.prefilled == 0)
            matched_blocks: List[int] = []
            matched = 0
            if probe:
                # Cap at target - 1: even a fully-cached prompt must
                # prefill one token (the first logits come from somewhere).
                matched_blocks, matched = cache.match(
                    prompt, max_tokens=state.prefill_target - 1
                )
            if matched:
                fits = self.kv.can_admit_with_prefix(
                    state.prefill_target, matched_blocks, matched
                )
            else:
                # Admit only when the program's declared phase KV demand
                # (remaining prefill tokens; Whisper's cross KV; nothing
                # for denoise) fits the free pool now.
                fits = self.kv.can_admit(state.program.pending_kv_tokens())
            lifetime = 0
            if fits and not state.program.evictable:
                # Unevictable KV is a hard reservation for the request's
                # whole lifetime: over-admitting could wedge the pool
                # with blocks nobody may preempt (FCFS: later requests
                # wait behind this one rather than jump the queue).
                lifetime = state.program.lifetime_kv_blocks(
                    self.kv.page_size)
                fits = (self.unevictable_blocks + lifetime
                        <= self.kv.num_usable_blocks)
            if not fits:
                break
            self.unevictable_blocks += lifetime
            self.waiting.popleft()
            state.phase = (
                Phase.PREFILL if state.program.has_chunked_work()
                else Phase.DECODE
            )
            if state.program.uses_kv() and not self.kv.has_sequence(state.seq_id):
                self.kv.add_sequence(state.seq_id)
            if probe:
                got = cache.attach(state.seq_id, prompt,
                                   max_tokens=state.prefill_target - 1)
                state.prefilled = got
                if state.metrics.cached_prompt_tokens is None:
                    state.metrics.cached_prompt_tokens = got
                if got:
                    it.cache_hits.append((state, got))
            self.running.append(state)
            it.admitted.append(state)
            # A program with no chunked work (denoise) would otherwise
            # contribute nothing to its admission iteration — which the
            # engine reads as a stall.  Take its first KV-free step now,
            # mirroring how an LLM admission prefills its first chunk in
            # the same iteration.
            if (not state.program.has_chunked_work()
                    and state.program.stepped.kv_per_step == 0):
                it.steps.append(Step(state, 0))
                budget -= state.program.stepped.budget_per_step

        # 4. Chunked-phase work over every PREFILL sequence, budget
        #    permitting: LLM prefill chunks, Whisper encode chunks and its
        #    atomic cross-KV projection.
        for state in self.running:
            if state.phase is not Phase.PREFILL or budget <= 0:
                continue
            prog = state.program
            ph = prog.current_chunked()
            if ph is None:
                continue
            remaining = ph.remaining
            chunk = min(remaining, budget)
            if ph.atomic:
                if chunk < remaining:
                    continue  # all-or-nothing, regardless of chunking
            elif cfg.prefill_chunk is not None:
                chunk = min(chunk, cfg.prefill_chunk)
            elif chunk < remaining:
                continue  # unchunked: all-or-nothing per iteration
            if ph.chunk_multiple > 1 and chunk < remaining:
                chunk -= chunk % ph.chunk_multiple
            if chunk <= 0:
                continue
            if ph.kv_per_unit > 0:
                # The phase appends KV to its declared stream (Whisper's
                # cross projection writes to the cross stream, created
                # here on first touch).
                sid = stream_seq_id(state.seq_id, ph.stream)
                if not self.kv.has_sequence(sid):
                    self.kv.add_sequence(sid)
                if not self.kv.can_append(sid, chunk * ph.kv_per_unit):
                    continue
                self.kv.append(sid, chunk * ph.kv_per_unit)
            past = ph.done
            ph.done += chunk
            budget -= chunk
            it.chunks.append(Chunk(state, ph.name, past, chunk))
            if not prog.has_chunked_work():
                state.phase = Phase.DECODE
                # Prompt KV is fully cached now: publish its full pages
                # so later prompts sharing the prefix can reuse them.
                cache = self.kv.prefix_cache
                prompt = state.request.prompt_tokens
                if (cache is not None and prompt is not None
                        and prog.prefix_cacheable):
                    cache.insert(prompt, self.kv.blocks(state.seq_id))

        return it
