"""Relax-IR text goldens for the exported model modules.

``format_module`` of every tiny decoder-only config (paged entry points
included; the TP config at tp=2, i.e. after the sharding pass pair) and of
tiny Whisper with and without ``page_size``, compared against text
committed under ``goldens/``.  The text was produced by the per-entry
``forward*`` methods that predate the single KV-site ``forward``, so a
mismatch names the binding that drifted.

Regenerate (only when a change is *meant* to move the export) with
``PYTHONPATH=src python tests/models/test_export_goldens.py``.
"""

from pathlib import Path

import pytest

from repro.core.printer import format_module
from repro.models import (
    TINY_GEMMA,
    TINY_LLAMA,
    TINY_LLAMA_TP,
    TINY_NEOX,
    TINY_QWEN,
    TINY_WHISPER,
    build_llama,
    build_whisper,
)

GOLDENS = Path(__file__).parent / "goldens"
PAGE = 4

BUILDS = {
    "tiny_llama.paged": lambda: build_llama(TINY_LLAMA, page_size=PAGE),
    "tiny_qwen.paged": lambda: build_llama(TINY_QWEN, page_size=PAGE),
    "tiny_gemma.paged": lambda: build_llama(TINY_GEMMA, page_size=PAGE),
    "tiny_neox.paged": lambda: build_llama(TINY_NEOX, page_size=PAGE),
    "tiny_llama_tp.paged.tp2": lambda: build_llama(
        TINY_LLAMA_TP, page_size=PAGE, tp=2
    ),
    "tiny_whisper.dense": lambda: build_whisper(TINY_WHISPER),
    "tiny_whisper.paged": lambda: build_whisper(TINY_WHISPER, page_size=PAGE),
}


def _render(name) -> str:
    return format_module(BUILDS[name]().mod) + "\n"


@pytest.mark.parametrize("name", list(BUILDS))
def test_exported_module_text_matches_golden(name):
    assert _render(name) == (GOLDENS / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name in BUILDS:
        (GOLDENS / f"{name}.txt").write_text(_render(name))
