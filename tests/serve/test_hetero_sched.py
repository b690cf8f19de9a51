"""Scheduler fairness across heterogeneous request types.

Drives the scheduler directly (no VM — the engine's token emission is
mimicked by a tiny driver) so FCFS admission, chunked-budget sharing and
preemption-ordering properties can be asserted on exact iterations when
LLM, Whisper and denoise requests contend for the same block pool.
"""

import pytest

from repro.serve import (
    CacheError,
    ContinuousBatchingScheduler,
    PagedKVCache,
    Phase,
    RequestMetrics,
    RequestState,
    SchedulerConfig,
    Request,
    stream_seq_id,
)
from repro.serve.program import CROSS_STREAM


def _state(req_id, kind="llm", prompt=8, out=4, arrival=0.0):
    r = Request(req_id=req_id, arrival_s=arrival, prompt_len=prompt,
                output_len=out, kind=kind)
    return RequestState(
        request=r,
        metrics=RequestMetrics(req_id=req_id, arrival_s=arrival,
                               prompt_len=prompt, output_len=out, kind=kind),
    )


def _sched(num_blocks=64, page=4, **kwargs):
    kv = PagedKVCache(num_blocks, page)
    defaults = dict(max_num_seqs=8, max_num_batched_tokens=32,
                    prefill_chunk=4, eviction="swap")
    defaults.update(kwargs)
    return ContinuousBatchingScheduler(SchedulerConfig(**defaults), kv), kv


def _drive(sched, max_iters=500):
    """Run the scheduler to completion the way the engine would,
    collecting the kind of every preemption victim."""
    victim_kinds = []
    for _ in range(max_iters):
        if not sched.has_unfinished():
            return victim_kinds
        it = sched.schedule()
        assert not it.empty, "scheduler stalled"
        victim_kinds.extend(s.request.kind for s, _, _ in it.preempted)
        for state, _, _ in it.steps:
            state.generated += 1
            if state.done:
                sched.finish(state)
    raise AssertionError("scheduler did not converge")


def test_fcfs_admission_is_type_blind():
    sched, kv = _sched()
    states = [
        _state(0, "llm"),
        _state(1, "whisper"),
        _state(2, "denoise", prompt=0),
        _state(3, "llm"),
    ]
    for s in states:
        sched.add_request(s)
    sched.schedule()
    # Admission strictly follows queue order; no type is reordered ahead.
    assert [s.seq_id for s in sched.running] == [0, 1, 2, 3]
    # Denoise holds no chunked work: it is immediately a stepper.
    assert states[2].phase is Phase.DECODE
    assert states[0].phase is Phase.PREFILL
    assert states[1].phase is Phase.PREFILL


def test_chunked_budget_is_shared_across_types():
    sched, kv = _sched(max_num_batched_tokens=8)
    llm = _state(0, "llm", prompt=8)
    whisper = _state(1, "whisper", prompt=8)
    sched.add_request(llm)
    sched.add_request(whisper)
    it = sched.schedule()
    # One iteration's budget (8) is split between the LLM prefill chunk
    # and the Whisper encode chunk instead of serving the LLM first.
    assert [(s.seq_id, name, past, n) for s, name, past, n in it.chunks] \
        == [(0, "prefill", 0, 4), (1, "encode", 0, 4)]
    assert it.num_batched_tokens == 8
    it2 = sched.schedule()
    assert [(s.seq_id, name, past, n) for s, name, past, n in it2.chunks] \
        == [(0, "prefill", 4, 4), (1, "encode", 4, 4)]
    # Third iteration: the LLM decodes while Whisper's atomic cross-KV
    # projection (t = 4 <= budget) runs in one chunk.
    it3 = sched.schedule()
    assert [(s.state.seq_id, s.ctx, s.spec_k) for s in it3.steps] \
        == [(0, 8, None)]
    assert [(s.seq_id, name, past, n) for s, name, past, n in it3.chunks] \
        == [(1, "cross_project", 0, 4)]


def test_mixed_iteration_lists_work_in_scheduling_order():
    # One steps list and one chunks list, whatever the kind: items come
    # out in the order the scheduler visits the running set — not LLM
    # first.
    sched, kv = _sched()
    for i, (kind, prompt) in enumerate(
            [("whisper", 4), ("llm", 4), ("denoise", 0), ("llm", 4)]):
        sched.add_request(_state(i, kind, prompt=prompt, out=6))
    it = sched.schedule()
    assert [(c.state.seq_id, c.phase) for c in it.chunks] == [
        (0, "encode"), (1, "prefill"), (3, "prefill")]
    assert [s.state.seq_id for s in it.steps] == [2]  # KV-free first step
    it = sched.schedule()
    assert [(c.state.seq_id, c.phase) for c in it.chunks] == [
        (0, "cross_project")]
    assert [s.state.seq_id for s in it.steps] == [1, 2, 3]
    it = sched.schedule()
    assert [(s.state.request.kind, s.ctx, s.spec_k) for s in it.steps] == [
        ("whisper", 0, None), ("llm", 5, None), ("denoise", 0, None),
        ("llm", 5, None)]
    assert [s.path for s in it.steps] == ["step", "decode", "step", "decode"]
    assert it.chunks == []
    assert it.num_batched_tokens == 4


def test_atomic_cross_projection_needs_full_budget():
    # Budget 4 covers the encode chunks but not the atomic projection of
    # t = 8 encoder positions: the request must wait, never run partially.
    sched, kv = _sched(max_num_batched_tokens=4, prefill_chunk=4)
    w = _state(0, "whisper", prompt=16)
    sched.add_request(w)
    for _ in range(4):  # 16 frames / 4-token chunks
        it = sched.schedule()
        assert all(name == "encode" for _, name, _, _ in it.chunks)
    for _ in range(3):
        it = sched.schedule()
        assert it.chunks == []  # 8 > 4: projection never scheduled
        assert w.phase is Phase.PREFILL
    big = ContinuousBatchingScheduler(
        SchedulerConfig(max_num_seqs=8, max_num_batched_tokens=8,
                        prefill_chunk=4), kv)
    big.waiting = sched.waiting
    big.running = sched.running
    it = big.schedule()
    assert [(name, past, n) for _, name, past, n in it.chunks] \
        == [("cross_project", 0, 8)]
    assert w.phase is Phase.DECODE


def test_encode_chunks_stay_even():
    # chunk_multiple=2: an odd budget remainder must round down, not
    # split a stacked frame pair.
    sched, kv = _sched(max_num_batched_tokens=32, prefill_chunk=3)
    w = _state(0, "whisper", prompt=8)
    sched.add_request(w)
    seen = []
    for _ in range(8):
        it = sched.schedule()
        seen.extend(n for _, name, _, n in it.chunks if name == "encode")
        if sum(seen) == 8:
            break
    assert sum(seen) == 8
    assert all(n % 2 == 0 for n in seen[:-1])


@pytest.mark.parametrize("eviction", ["swap", "recompute"])
def test_only_llm_requests_are_preemption_victims(eviction):
    # A tight pool forces evictions while an (unevictable) Whisper
    # request holds write-once cross KV: every victim must be an LLM.
    sched, kv = _sched(num_blocks=8, max_num_batched_tokens=16,
                       eviction=eviction)
    states = [_state(0, "whisper", prompt=8, out=6)]
    states += [_state(i, "llm", prompt=8, out=8) for i in range(1, 4)]
    states.append(_state(4, "denoise", prompt=0, out=4))
    for s in states:
        sched.add_request(s)
    victims = _drive(sched)
    assert victims, "expected pool pressure to force preemptions"
    assert set(victims) == {"llm"}
    kv.check_no_leaks()
    assert states[0].metrics.preemptions == 0
    assert states[4].metrics.preemptions == 0


def test_cross_stream_lives_and_dies_with_the_request():
    sched, kv = _sched(max_num_batched_tokens=32)
    w = _state(0, "whisper", prompt=8, out=2)
    sched.add_request(w)
    cross = stream_seq_id(0, CROSS_STREAM)
    assert cross != 0
    # Encode chunks hold no KV; the projection creates the cross stream.
    while not kv.has_sequence(cross):
        it = sched.schedule()
        assert not it.empty
    assert kv.length(cross) == 4  # t = frames // 2
    assert kv.has_sequence(0)     # self stream from admission
    _drive(sched)
    assert not kv.has_sequence(cross)
    assert not kv.has_sequence(0)
    kv.check_no_leaks()


def test_unevictable_admission_is_gated_on_lifetime_kv():
    # Two whisper requests whose combined lifetime KV (cross + self
    # streams) exceeds the pool are admitted one at a time: unevictable
    # blocks can never be preempted away, so over-admitting would wedge
    # the pool.  FCFS: the LLM behind the gated whisper also waits.
    sched, kv = _sched(num_blocks=5, max_num_batched_tokens=64)
    # lifetime(whisper, frames=8, out=8) = cross ceil(4/4) + self
    # ceil(8/4) = 3 blocks; two of them exceed the 4 usable blocks.
    w1, w2 = (_state(i, "whisper", prompt=8, out=8) for i in (0, 1))
    llm = _state(2, "llm", prompt=4, out=2)
    for s in (w1, w2, llm):
        sched.add_request(s)
    assert w1.program.lifetime_kv_blocks(4) == 3
    sched.schedule()
    assert [s.seq_id for s in sched.running] == [0]
    assert sched.unevictable_blocks == 3
    victims = _drive(sched)
    assert victims == []
    assert sched.unevictable_blocks == 0
    kv.check_no_leaks()


def test_impossible_decode_growth_fails_fast_instead_of_thrashing():
    # A request whose prompt fits but whose prompt + output KV exceeds
    # the whole pool (minus the pinned padding page) used to livelock
    # under the swap policy: self-preempt, swap back in, repeat forever.
    # It must raise instead.
    sched, kv = _sched(num_blocks=6, eviction="swap",
                       max_num_batched_tokens=64)
    # 5 usable blocks = 20 tokens; this request grows to 12 + 12 = 24.
    sched.add_request(_state(0, "llm", prompt=12, out=12))
    with pytest.raises(CacheError, match="usable"):
        _drive(sched)


def test_denoise_requests_use_no_kv():
    sched, kv = _sched(num_blocks=4)
    d = _state(0, "denoise", prompt=0, out=5)
    sched.add_request(d)
    it = sched.schedule()
    assert [(s.seq_id, ctx, k) for s, ctx, k in it.steps] == [(0, 0, None)]
    assert not kv.has_sequence(0)
    _drive(sched)
    assert d.generated == 5
    kv.check_no_leaks()
