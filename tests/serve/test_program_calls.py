"""``RequestProgram.calls``: which VM calls a planned iteration becomes.

One hand-built iteration per program class, pinning every
``(model, entry, leading (shape, dtype)s, paged)`` tuple — the engine
adds nothing but the pools and the weights (DESIGN.md §18).
"""

from repro.models import TINY_DENOISE, TINY_LLAMA, TINY_WHISPER
from repro.serve import (
    PROGRAMS,
    Chunk,
    DenoiseProgram,
    LLMProgram,
    Request,
    RequestMetrics,
    RequestState,
    Step,
    WhisperProgram,
)
from repro.serve.program import table_width

PAGE = 4
I64 = "i64"


def _state(req_id, kind, prompt, out=8):
    req = Request(req_id=req_id, arrival_s=0.0, prompt_len=prompt,
                  output_len=out, kind=kind)
    return RequestState(
        request=req,
        metrics=RequestMetrics(req_id=req_id, arrival_s=0.0,
                               prompt_len=prompt, output_len=out, kind=kind),
    )


def test_programs_table_is_in_issue_order():
    assert list(PROGRAMS) == ["llm", "whisper", "denoise"]
    assert [p.kind for p in PROGRAMS.values()] == list(PROGRAMS)


def test_table_width_is_the_one_block_table_rule():
    for page in (1, 2, 4, 16):
        for ctx in range(0, 70):
            # A decode step appending to ctx cached tokens.
            assert table_width(ctx + 1, page) == ctx // page + 1
        assert table_width(0, page) == 1  # never an empty table


def test_llm_vanilla_batch_then_one_prefill_per_chunk():
    llm = [_state(i, "llm", prompt=16) for i in range(4)]
    steps = [Step(llm[0], 5), Step(llm[1], 12), Step(llm[2], 3)]
    chunks = [Chunk(llm[3], "prefill", 8, 6), Chunk(llm[3], "prefill", 0, 4)]
    assert list(LLMProgram.calls(steps, chunks, PAGE, TINY_LLAMA)) == [
        ("llm", "decode_paged",
         [((3, 1), I64), ((3, 4), I64), ((3,), I64)], True),
        ("llm", "prefill_paged",
         [((1, 6), I64), ((1, 4), I64), ((8,), I64)], True),
        ("llm", "prefill_paged",
         [((1, 4), I64), ((1, 1), I64), ((0,), I64)], True),
    ]


def test_llm_ragged_speculative_batch_with_a_k0_row():
    llm = [_state(i, "llm", prompt=16) for i in range(3)]
    steps = [Step(llm[0], 5, 2), Step(llm[1], 12, 0), Step(llm[2], 3, 1)]
    assert list(LLMProgram.calls(steps, [], PAGE, TINY_LLAMA)) == [
        # round 0: the two rows with k > 0; round 1: the one with k > 1,
        # its context grown by the token drafted in round 0
        ("draft", "decode_paged",
         [((2, 1), I64), ((2, 2), I64), ((2,), I64)], True),
        ("draft", "decode_paged",
         [((1, 1), I64), ((1, 2), I64), ((1,), I64)], True),
        # one ragged verify over max_k + 1 positions, all three rows
        ("llm", "verify_paged",
         [((3, 3), I64), ((3, 4), I64), ((3,), I64), ((3,), I64)], True),
    ]
    # All rows at k = 0 (final tokens): no draft round, a width-1 verify.
    assert list(LLMProgram.calls([Step(llm[0], 5, 0)], [], PAGE,
                                 TINY_LLAMA)) == [
        ("llm", "verify_paged",
         [((1, 1), I64), ((1, 2), I64), ((1,), I64), ((1,), I64)], True),
    ]


def test_whisper_step_and_both_chunk_phases():
    w = _state(0, "whisper", prompt=12)  # 12 frames -> 6 encoder positions
    cfg = TINY_WHISPER
    calls = list(WhisperProgram.calls(
        [Step(w, 5)],
        [Chunk(w, "encode", 0, 4), Chunk(w, "cross_project", 0, 6)],
        PAGE, cfg))
    assert calls == [
        ("whisper", "decode_paged",
         [((1, 1), I64), ((1, 2), I64), ((5,), I64),
          ((1, 2), I64), ((6,), I64)], True),
        ("whisper", "encode_chunk", [((1, 4, cfg.n_mel), cfg.dtype)], False),
        ("whisper", "cross_project",
         [((1, 6, cfg.d_model), cfg.dtype)], False),
    ]


def test_denoise_steps_batch_into_one_call():
    cfg = TINY_DENOISE
    steps = [Step(_state(i, "denoise", prompt=0), 0) for i in range(3)]
    assert list(DenoiseProgram.calls(steps, [], PAGE, cfg)) == [
        ("denoise", "denoise_step",
         [((3, cfg.latent_tokens, cfg.latent_dim), cfg.dtype)], False),
    ]
    assert list(DenoiseProgram.calls([], [], PAGE, cfg)) == []
