"""Per-model request programs: the phase-step protocol.

A request is no longer hard-coded as *prefill then decode*.  Each model
family declares a :class:`RequestProgram`: an ordered list of **chunked
phases** (budget-sliced work the scheduler may spread across iterations)
followed by one **stepped phase** (the iterative tail that emits one
output unit per engine iteration).  The scheduler manipulates programs
only through this protocol — it never inspects the request kind — so a
new model family plugs in by writing a program class, not by editing the
scheduler:

* **LLM**: chunked prefill (1 KV token appended to the self stream per
  prompt token), then decode steps (1 KV token per step).
* **Whisper**: chunked encode (no KV; frames are stacked in pairs, so
  chunks stay even), an atomic cross-KV projection (writes ``t`` encoder
  K/V tokens to the *cross* stream once — never appended again), then
  decode steps (1 self-stream KV token per step, reading both streams).
* **Iterative denoise**: no chunked work and no KV at all — just N
  stepped iterations over a fixed latent.

KV-block demand, token-budget accounting, preemption eligibility, the
completion predicate and — through :meth:`RequestProgram.calls` — the VM
calls a planned step becomes all live here; ``scheduler.py`` and
``engine.py`` are generic over them.  See DESIGN.md §11 and §18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Type

from .workload import Request

#: KV stream names.  Every program owns a *self* stream (sequence id ==
#: request id) and may own a *cross* stream (sequence id == ``~req_id``)
#: in the same shared block pool.
SELF_STREAM = "self"
CROSS_STREAM = "cross"


#: One VM call: ``(model, entry, leading, paged)``.  ``model`` names the
#: compiled model that runs it (a program kind, or ``"draft"``),
#: ``leading`` is the ``(shape, dtype)`` of each argument in front of the
#: weights, and ``paged`` says whether that model's KV pools sit between
#: the two.
Call = Tuple[str, str, List[Tuple[Tuple[int, ...], str]], bool]


def table_width(tokens: int, page: int) -> int:
    """Block-table columns that hold ``tokens`` KV positions.  A decode
    step appending to ``ctx`` cached tokens passes ``ctx + 1``."""
    return max(-(-tokens // page), 1)


def stream_seq_id(req_id: int, stream: str) -> int:
    """Block-pool sequence id for one stream of a request.

    The cross stream uses the bitwise complement of the request id —
    disjoint from every self-stream id, so both streams of a request can
    coexist in one :class:`~repro.serve.kv_cache.PagedKVCache`.
    """
    return req_id if stream == SELF_STREAM else ~req_id


@dataclass
class ChunkedPhase:
    """Budget-sliced phase work (prefill / encode / cross-projection).

    ``target`` units must be processed; the scheduler slices them into
    chunks against the shared token budget.  Each unit appends
    ``kv_per_unit`` KV tokens to ``stream``.
    """

    name: str
    target: int
    kv_per_unit: int = 0
    stream: str = SELF_STREAM
    #: Chunk sizes must be a multiple of this (final chunk excepted only
    #: when it completes the phase).  Whisper's frontend stacks frame
    #: pairs, so its encode phase uses 2.
    chunk_multiple: int = 1
    #: All-or-nothing: the phase must be scheduled as one chunk (the
    #: cross-KV projection writes every encoder position at once).
    atomic: bool = False
    done: int = 0

    @property
    def remaining(self) -> int:
        return self.target - self.done


@dataclass
class SteppedPhase:
    """The iterative tail: one output unit per scheduled step."""

    name: str
    target: int
    #: KV tokens appended to the self stream per step (0 = the phase
    #: never grows the pool, e.g. denoise).
    kv_per_step: int = 1
    #: Token-budget units one step consumes.  1 for an LLM/Whisper decode
    #: token; heavier constant-cost steps (a denoise iteration touches
    #: every latent token) may charge more.
    budget_per_step: int = 1
    #: Speculative variant: maximum draft tokens proposed alongside each
    #: step.  0 (the default) is the vanilla one-token step; k > 0 lets
    #: the scheduler plan a draft/verify step that appends up to
    #: ``(1 + k) * kv_per_step`` KV tokens optimistically (the engine
    #: rolls back whatever the target rejects) and charges ``1 + k``
    #: budget units.  The actual width per step is
    #: ``min(k, remaining_output - 1)``, so speculation degenerates to a
    #: vanilla step on a request's final token.
    max_spec_tokens: int = 0


class RequestProgram:
    """Phase-step program for one request.  Subclass per model family."""

    #: Request type tag (mirrors ``Request.kind``).
    kind: str = "llm"
    #: May the scheduler evict this request's KV under pool pressure?
    #: Programs with write-once cross streams opt out: their KV cannot be
    #: regrown by re-running a prefix, so they are never chosen as
    #: preemption victims (see DESIGN.md §11).
    evictable: bool = True
    #: May the engine probe/populate the radix prefix cache with this
    #: request's prompt?
    prefix_cacheable: bool = False
    #: Is this a token-batched decoder: its steps commit oracle tokens
    #: and are reported as the iteration's ``decode_batch``, its chunks
    #: as ``prefill_tokens``, and its final chunk yields the first token?
    batched_decode: bool = False

    def __init__(self, request: Request, chunked: List[ChunkedPhase],
                 stepped: SteppedPhase):
        self.request = request
        self.chunked = chunked
        self.stepped = stepped

    # -- chunked-phase protocol -------------------------------------------------

    def current_chunked(self) -> Optional[ChunkedPhase]:
        for ph in self.chunked:
            if ph.remaining > 0:
                return ph
        return None

    def has_chunked_work(self) -> bool:
        return self.current_chunked() is not None

    def pending_kv_tokens(self) -> int:
        """KV tokens the remaining chunked work will append (admission
        gate: can the pool ever fit this request's phase-declared
        demand?)."""
        return sum(ph.remaining * ph.kv_per_unit for ph in self.chunked)

    # -- stepped-phase protocol -------------------------------------------------

    def is_complete(self, generated: int) -> bool:
        """Completion predicate over emitted output units."""
        return generated >= self.stepped.target

    # -- KV ownership -----------------------------------------------------------

    def streams(self) -> List[str]:
        """Streams this program may own in the shared pool."""
        out = [SELF_STREAM]
        for ph in self.chunked:
            if ph.kv_per_unit > 0 and ph.stream not in out:
                out.append(ph.stream)
        return out

    def uses_kv(self) -> bool:
        return self.stepped.kv_per_step > 0 or any(
            ph.kv_per_unit > 0 and ph.stream == SELF_STREAM
            for ph in self.chunked
        )

    def lifetime_kv_blocks(self, page_size: int) -> int:
        """Worst-case pool blocks this request holds at completion,
        per stream (each stream rounds up to whole pages).

        Unevictable programs are admission-gated on this: once their KV
        is written it can never be preempted away, so the scheduler must
        guarantee up front that all concurrently admitted unevictable
        requests fit the pool together."""
        per_stream = {}
        for ph in self.chunked:
            if ph.kv_per_unit > 0:
                per_stream[ph.stream] = (
                    per_stream.get(ph.stream, 0) + ph.target * ph.kv_per_unit
                )
        if self.stepped.kv_per_step > 0:
            per_stream[SELF_STREAM] = (
                per_stream.get(SELF_STREAM, 0)
                + self.stepped.target * self.stepped.kv_per_step
            )
        return sum(-(-t // page_size) for t in per_stream.values())

    # -- VM calls ---------------------------------------------------------------

    @staticmethod
    def calls(steps: Sequence[Any], chunks: Sequence[Any], page: int,
              cfg: Any) -> Iterator[Call]:
        """The VM calls one iteration's work of this program kind
        becomes, in issue order.  ``steps`` / ``chunks`` are the
        :class:`~repro.serve.scheduler.Iteration` items whose program is
        of this class, ``page`` the KV page size, ``cfg`` this kind's
        model config."""
        raise NotImplementedError

    # -- preemption/swap cost hooks ---------------------------------------------


class LLMProgram(RequestProgram):
    """Chunked prefill, then one decode step per output token."""

    kind = "llm"
    evictable = True
    prefix_cacheable = True
    batched_decode = True

    def __init__(self, request: Request, *, spec_tokens: int = 0):
        super().__init__(
            request,
            chunked=[ChunkedPhase("prefill", target=request.prompt_len,
                                  kv_per_unit=1)],
            stepped=SteppedPhase("decode", target=request.output_len,
                                 max_spec_tokens=spec_tokens),
        )

    @staticmethod
    def calls(steps, chunks, page, cfg):
        def batch(model, entry, ctxs, s=1, ragged=False):
            # Ragged batch: pad every block table to the widest sequence.
            b = len(ctxs)
            lengths = [((b,), "i64")] * (2 if ragged else 1)
            return (model, entry, [
                ((b, s), "i64"),
                ((b, table_width(max(ctxs) + 1, page)), "i64"),
                *lengths,
            ], True)

        plain = [s.ctx for s in steps if s.spec_k is None]
        if plain:
            yield batch("llm", "decode_paged", plain)
        spec = [s for s in steps if s.spec_k is not None]
        if spec:
            # Draft proposal rounds: round r decodes one draft token for
            # every sequence still proposing (k > r); the draft reads the
            # target's block tables (shared block-id space) with context
            # grown by the r tokens already proposed this step.
            max_k = max(s.spec_k for s in spec)
            for r in range(max_k):
                yield batch("draft", "decode_paged",
                            [s.ctx + r for s in spec if s.spec_k > r])
            # One ragged multi-token verify on the target: row 0 is the
            # last committed token, rows 1..k the draft proposals; the
            # target scores all k + 1 positions in a single weights pass —
            # which is the whole speculative bet (decode is weights-bound,
            # so verifying k extra rows costs barely more than one token).
            yield batch("llm", "verify_paged", [s.ctx for s in spec],
                        s=max_k + 1, ragged=True)
        for c in chunks:
            yield ("llm", "prefill_paged", [
                ((1, c.units), "i64"),
                ((1, table_width(c.past + c.units, page)), "i64"),
                ((c.past,), "i64"),
            ], True)


class WhisperProgram(RequestProgram):
    """Chunked encode → atomic cross-KV projection → decode steps.

    ``prompt_len`` is the mel-frame count; the frontend's 2x frame
    stacking makes the encoder context ``t = frames // 2``.  The cross
    projection writes ``t`` K/V tokens to the cross stream exactly once.
    """

    kind = "whisper"
    evictable = False
    prefix_cacheable = False

    def __init__(self, request: Request):
        frames = request.prompt_len
        if frames % 2 != 0:
            raise ValueError("whisper requests need an even mel-frame count")
        t = frames // 2
        super().__init__(
            request,
            chunked=[
                ChunkedPhase("encode", target=frames, chunk_multiple=2),
                ChunkedPhase("cross_project", target=t, kv_per_unit=1,
                             stream=CROSS_STREAM, atomic=True),
            ],
            stepped=SteppedPhase("decode", target=request.output_len),
        )

    @property
    def enc_positions(self) -> int:
        return self.request.prompt_len // 2

    @staticmethod
    def calls(steps, chunks, page, cfg):
        # Decodes run per sequence: each carries its own cross-stream
        # block table next to the self-stream one.
        for s in steps:
            t = s.state.program.enc_positions
            yield ("whisper", "decode_paged", [
                ((1, 1), "i64"),
                ((1, table_width(s.ctx + 1, page)), "i64"),
                ((s.ctx,), "i64"),
                ((1, table_width(t, page)), "i64"),
                ((t,), "i64"),
            ], True)
        # The encode cost model runs the chunk's frame slice through the
        # encoder entry; the projection reads the encoder output.
        entries = {"encode": ("encode_chunk", cfg.n_mel),
                   "cross_project": ("cross_project", cfg.d_model)}
        for c in chunks:
            entry, width = entries[c.phase]
            yield ("whisper", entry,
                   [((1, c.units, width), cfg.dtype)], False)


class DenoiseProgram(RequestProgram):
    """N stepped denoise iterations; no chunked work, no KV growth."""

    kind = "denoise"
    evictable = False
    prefix_cacheable = False

    def __init__(self, request: Request, *, budget_per_step: int = 1):
        super().__init__(
            request,
            chunked=[],
            stepped=SteppedPhase("denoise", target=request.output_len,
                                 kv_per_step=0,
                                 budget_per_step=budget_per_step),
        )

    @staticmethod
    def calls(steps, chunks, page, cfg):
        # KV-free steps batch into one call.
        if steps:
            yield ("denoise", "denoise_step", [
                ((len(steps), cfg.latent_tokens, cfg.latent_dim), cfg.dtype),
            ], False)


#: Request kind -> program class, in the order the engine issues each
#: kind's VM calls within an iteration.
PROGRAMS: Dict[str, Type[RequestProgram]] = {
    "llm": LLMProgram,
    "whisper": WhisperProgram,
    "denoise": DenoiseProgram,
}


def program_for(request: Request, *,
                denoise_budget_per_step: int = 1,
                llm_spec_tokens: int = 0) -> RequestProgram:
    """Default program factory keyed on ``Request.kind``."""
    if request.kind == "llm":
        return LLMProgram(request, spec_tokens=llm_spec_tokens)
    if request.kind == "whisper":
        return WhisperProgram(request)
    if request.kind == "denoise":
        return DenoiseProgram(request,
                              budget_per_step=denoise_budget_per_step)
    raise ValueError(f"no program registered for request kind {request.kind!r}")
