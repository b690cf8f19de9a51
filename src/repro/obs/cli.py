"""``python -m repro.obs`` — trace a model end-to-end and report.

Compiles an LLM with the full pipeline, runs prefill + decode steps under
the tracing VM on the analytical device clock, then prints the per-op
table and memory timeline and (optionally) writes the Chrome trace JSON —
open it at https://ui.perfetto.dev or in ``chrome://tracing``.

Examples::

    python -m repro.obs                           # tiny llama, RTX 4090
    python -m repro.obs --model llama3-8b --batch 8 --context 1024
    python -m repro.obs --out trace.json --table-out ops.txt --by op
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from ..models import llama as llama_models
from ..runtime.device import ALL_DEVICES, RTX_4090

#: CLI name -> LlamaConfig; tiny models keep the default run under a second.
MODELS = {
    "tiny-llama": llama_models.TINY_LLAMA,
    "tiny-neox": llama_models.TINY_NEOX,
    "tiny-gemma": llama_models.TINY_GEMMA,
    "tiny-qwen": llama_models.TINY_QWEN,
    "llama3-8b": llama_models.LLAMA3_8B,
    "llama2-7b": llama_models.LLAMA2_7B,
}

#: CLI name -> Device (short keys for the paper's evaluation boards).
DEVICES = {
    "rtx4090": "NVIDIA RTX 4090",
    "7900xtx": "AMD Radeon 7900 XTX",
    "m2ultra": "Apple M2 Ultra",
    "jetson-orin": "NVIDIA Jetson Orin (CUDA)",
    "steam-deck": "Steam Deck (AMD APU, Vulkan)",
    "test": "test-device",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace a compiled model on the simulated VM and "
                    "report per-op time, memory, and a Perfetto trace.",
    )
    parser.add_argument("--model", choices=sorted(MODELS), default="tiny-llama")
    parser.add_argument("--device", choices=sorted(DEVICES), default="rtx4090")
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--context", type=int, default=32,
                        help="KV-cache length for the traced decode step")
    parser.add_argument("--prefill", type=int, default=8,
                        help="prompt length for the traced prefill (0 skips)")
    parser.add_argument("--by", choices=("name", "op"), default="name",
                        help="aggregate the op table by kernel name or by "
                             "source-op provenance chain")
    parser.add_argument("--rows", type=int, default=24,
                        help="max rows of the op table to print")
    parser.add_argument("--out", metavar="TRACE.json", default=None,
                        help="write the Chrome trace-event JSON here")
    parser.add_argument("--report-out", metavar="REPORT.json", default=None,
                        help="write the full JSON report (stats, op table, "
                             "memory, events) here")
    parser.add_argument("--table-out", metavar="TABLE.txt", default=None,
                        help="write the rendered op table here")
    parser.add_argument("--no-cuda-graph", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = MODELS[args.model]
    device = ALL_DEVICES.get(DEVICES[args.device], RTX_4090)

    # Import after arg parsing so ``--help`` stays instant.
    from ..bench.relax_runner import RelaxLLM

    print(f"compiling {args.model} for {device.name} ...", file=sys.stderr)
    runner = RelaxLLM(cfg, device,
                      enable_cuda_graph=not args.no_cuda_graph)

    pvm = runner.op_profile(args.batch, args.context, fn="decode")
    if args.prefill > 0:
        # Trace the prefill on the same profiler VM, after the decode —
        # a second function on one timeline, like a real serving step.
        tokens_events = len(pvm.events)
        from ..runtime import NDArray

        prompt = NDArray.abstract((args.batch, args.prefill), "i64")
        pvm.run("prefill", prompt, *runner._caches(args.batch, 0),
                *runner.params)
        print(f"prefill added {len(pvm.events) - tokens_events} events",
              file=sys.stderr)

    table = pvm.op_table(by=args.by)
    timeline = pvm.memory_timeline()

    title = (f"{args.model} on {device.name} — batch {args.batch}, "
             f"context {args.context}")
    print(f"=== per-op profile: {title} ===")
    print(table.render(max_rows=args.rows))
    print()
    print("=== memory timeline ===")
    print(timeline.render())
    print()
    stats = pvm.stats.summary()
    print("=== execution stats ===")
    for key, value in stats.items():
        print(f"  {key}: {value}")

    for path in (args.table_out, args.out, args.report_out):
        dirname = os.path.dirname(path) if path else ""
        if dirname:
            os.makedirs(dirname, exist_ok=True)
    if args.table_out:
        with open(args.table_out, "w") as fh:
            fh.write(f"{title}\n{table.render()}\n\n{timeline.render()}\n")
        print(f"wrote {args.table_out}", file=sys.stderr)
    if args.out:
        pvm.export_chrome_trace(args.out)
        print(f"wrote {args.out} (open at https://ui.perfetto.dev)",
              file=sys.stderr)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(pvm.report(by=args.by), fh, indent=2)
        print(f"wrote {args.report_out}", file=sys.stderr)

    # The invariant the trace guarantees: every event maps to exactly one
    # clock increment, so the trace accounts for all simulated time.
    drift = pvm.tracer.total_time_as() - pvm.stats.time_as
    if drift:
        print(f"WARNING: trace drift {drift} as vs stats clock",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
