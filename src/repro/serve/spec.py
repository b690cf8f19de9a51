"""Speculative decoding: draft/target configuration and the token oracle.

The serving engine runs in *abstract* mode — VM calls meter cost on the
analytical device model but produce no logits — so token identity has to
come from somewhere deterministic.  The :class:`TokenOracle` is that
somewhere: a counter-mode splitmix64 hash that maps ``(seed, request,
position)`` to the target model's output token, and a second independent
hash channel that decides whether the draft model's proposal at that
position *agrees* with the target (with probability ``draft_quality``).

This factoring keeps the simulation honest in the way that matters for
scheduling research: speculation may change *when* tokens appear on the
clock, never *which* tokens appear.  A speculative run and a vanilla run
over the same workload and oracle seed emit byte-identical token
streams — the invariant ``tests/serve/test_spec_decode.py`` pins — while
acceptance statistics converge to ``draft_quality`` because each
position's agreement draw is an i.i.d. Bernoulli in hash space.

No ``random.Random`` objects anywhere: state-free hashing means token
identity is a pure function of (seed, request, position), immune to
iteration order, batching, preemption and rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..models.llama import LlamaConfig

_MASK64 = (1 << 64) - 1

# Domain-separation constants for the oracle's independent hash channels.
_TARGET_CHANNEL = 0x7441
_DRAFT_CHANNEL = 0xD4AF


def _splitmix64(x: int) -> int:
    """One splitmix64 finalization round (the PRNG's output function)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _mix(*values: int) -> int:
    """Fold integers into one 64-bit hash (order-sensitive)."""
    h = 0
    for v in values:
        h = _splitmix64(h ^ (v & _MASK64))
    return h


def _unit(h: int) -> float:
    """Map a 64-bit hash to [0, 1) with 53-bit precision."""
    return (h >> 11) / float(1 << 53)


@dataclass(frozen=True)
class SpecConfig:
    """Speculative-decoding knobs for :class:`~repro.serve.EngineConfig`.

    ``None`` (the default on the engine config) means speculation is off
    and the engine byte-identically reproduces its vanilla behaviour.
    """

    #: Draft tokens proposed per speculative step (k).  Each step costs k
    #: draft decodes plus one target verify over k + 1 positions and
    #: emits between 1 and k + 1 tokens.
    num_spec_tokens: int = 4
    #: Per-position probability that the draft's proposal matches the
    #: target's token — the workload's configured draft quality.  The
    #: measured acceptance rate converges to this value.
    draft_quality: float = 0.8
    #: Oracle seed.  A vanilla run with the same seed emits the same
    #: token stream (the engine defaults to seed 0 when speculation is
    #: off, so comparisons pin ``seed=0`` here).
    seed: int = 0
    #: Draft model config; ``None`` derives one from the target via
    #: :func:`repro.models.draft_config`.
    draft: Optional["LlamaConfig"] = None
    #: Acceptance-aware k controller: shrink the speculative width when
    #: the measured acceptance rate over ``adapt_window`` proposals drops
    #: below 0.5 (drafting is wasted work), grow it back toward
    #: ``num_spec_tokens`` above 0.8.  Deterministic — driven only by
    #: oracle outcomes — so runs stay seeded-reproducible.
    adaptive: bool = False
    adapt_window: int = 64

    def __post_init__(self):
        if self.num_spec_tokens < 1:
            raise ValueError("num_spec_tokens must be >= 1")
        if not 0.0 <= self.draft_quality <= 1.0:
            raise ValueError("draft_quality must be in [0, 1]")
        if self.adapt_window < 1:
            raise ValueError("adapt_window must be >= 1")


class TokenOracle:
    """Deterministic token identity for abstract-mode serving.

    ``target_token`` is the token the target model would emit at output
    ``position`` of ``req_id`` — a pure hash, so any execution order
    (vanilla one-per-iteration, speculative bursts, recompute after
    preemption) reconstructs the identical stream.  ``draft_matches``
    draws the independent per-position Bernoulli that decides whether
    the draft proposed exactly that token.
    """

    def __init__(self, seed: int = 0, vocab_size: int = 32000,
                 draft_quality: float = 0.0):
        self.seed = seed
        self.vocab_size = vocab_size
        self.draft_quality = draft_quality

    def target_token(self, req_id: int, position: int) -> int:
        return _mix(self.seed, _TARGET_CHANNEL, req_id, position) % self.vocab_size

    def draft_matches(self, req_id: int, position: int) -> bool:
        """Does the draft's proposal for ``position`` agree with the
        target?  Independent of :meth:`target_token`'s hash channel."""
        h = _mix(self.seed, _DRAFT_CHANNEL, req_id, position)
        return _unit(h) < self.draft_quality

    def draft_token(self, req_id: int, position: int) -> int:
        """The draft's actual proposal: the target token when the
        agreement draw hits, any *other* vocab entry when it misses."""
        t = self.target_token(req_id, position)
        if self.draft_matches(req_id, position):
            return t
        h = _mix(self.seed, _DRAFT_CHANNEL, req_id, position, 1)
        return (t + 1 + h % (self.vocab_size - 1)) % self.vocab_size
