"""``python -m repro.serve`` — run a seeded serving trace and report.

Generates a reproducible request workload, serves it with the
continuous-batching engine on the compiled VM (abstract mode, analytical
device clock), then prints TTFT/TPOT/ITL percentiles, throughput and
goodput.  Optionally writes the metrics JSON and a Perfetto timeline
(one track per request).

Examples::

    python -m repro.serve --seed 0 --requests 64 --device rtx4090
    python -m repro.serve --model tiny-llama --rate 16 --eviction recompute
    python -m repro.serve --out metrics.json --trace serve_trace.json
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional, Sequence

from ..obs.cli import DEVICES, MODELS
from ..runtime.device import ALL_DEVICES
from .engine import EngineConfig, ServingEngine
from .scheduler import SchedulerConfig
from .workload import WorkloadConfig, generate, workload_to_json

#: Model choices for the heterogeneous request types.
WHISPER_MODELS = {
    "tiny-whisper": "TINY_WHISPER",
    "whisper-large-v3": "WHISPER_LARGE_V3",
}
DENOISE_MODELS = {
    "tiny-denoise": "TINY_DENOISE",
    "dit-base": "DIT_BASE",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a seeded request trace with continuous batching "
                    "and a paged KV cache on the simulated VM.",
    )
    parser.add_argument("--model", choices=sorted(MODELS), default="tiny-llama")
    parser.add_argument("--device", choices=sorted(DEVICES), default="rtx4090")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--rate", type=float, default=8.0,
                        help="mean arrival rate (requests/s)")
    parser.add_argument("--arrival", choices=("poisson", "gamma"),
                        default="poisson")
    parser.add_argument("--arrival-cv", type=float, default=2.0,
                        help="coefficient of variation for gamma arrivals")
    parser.add_argument("--prompt-min", type=int, default=8)
    parser.add_argument("--prompt-max", type=int, default=64)
    parser.add_argument("--output-min", type=int, default=4)
    parser.add_argument("--output-max", type=int, default=32)
    parser.add_argument("--prefix-families", type=int, default=0,
                        help="shared-prefix workload: number of prompt "
                             "families (0 = legacy length-only trace)")
    parser.add_argument("--prefix-len", type=int, default=0,
                        help="common prefix tokens per family "
                             "(must be < --prompt-min)")
    parser.add_argument("--no-prefix-cache", action="store_true",
                        help="disable the radix prefix cache")
    parser.add_argument("--whisper-frac", type=float, default=0.0,
                        help="fraction of requests that are Whisper "
                             "transcriptions (heterogeneous mix)")
    parser.add_argument("--denoise-frac", type=float, default=0.0,
                        help="fraction of requests that are iterative "
                             "denoise jobs (heterogeneous mix)")
    parser.add_argument("--whisper-model", choices=sorted(WHISPER_MODELS),
                        default="tiny-whisper")
    parser.add_argument("--denoise-model", choices=sorted(DENOISE_MODELS),
                        default="tiny-denoise")
    parser.add_argument("--whisper-frames-min", type=int, default=8)
    parser.add_argument("--whisper-frames-max", type=int, default=12)
    parser.add_argument("--denoise-steps-min", type=int, default=4)
    parser.add_argument("--denoise-steps-max", type=int, default=16)
    parser.add_argument("--dp", type=int, default=1,
                        help="data-parallel replicas: serve the trace "
                             "across N engines behind a router (1 = the "
                             "plain single engine)")
    parser.add_argument("--route", default="rr", metavar="POLICY",
                        help="routing policy for --dp > 1: rr/round_robin, "
                             "lb/least_loaded, affinity/prefix_affinity")
    parser.add_argument("--page-size", type=int, default=16)
    parser.add_argument("--kv-blocks", type=int, default=None,
                        help="KV pool size in blocks (default: from VRAM)")
    parser.add_argument("--max-num-seqs", type=int, default=16)
    parser.add_argument("--max-batched-tokens", type=int, default=256)
    parser.add_argument("--prefill-chunk", type=int, default=64,
                        help="chunked-prefill cap per sequence (0 disables "
                             "chunking)")
    parser.add_argument("--eviction", choices=("swap", "recompute"),
                        default="swap")
    parser.add_argument("--spec-tokens", type=int, default=0,
                        help="speculative decoding: draft tokens proposed "
                             "per step (0 disables speculation)")
    parser.add_argument("--draft-quality", type=float, default=0.8,
                        help="per-position probability the draft matches "
                             "the target (acceptance converges here)")
    parser.add_argument("--spec-seed", type=int, default=0,
                        help="token-oracle seed (a vanilla run with the "
                             "same seed emits the same token stream)")
    parser.add_argument("--spec-adaptive", action="store_true",
                        help="acceptance-aware speculative width control")
    parser.add_argument("--slo-ttft", type=float, default=1.0)
    parser.add_argument("--slo-tpot", type=float, default=0.1)
    parser.add_argument("--no-cuda-graph", action="store_true")
    parser.add_argument("--out", metavar="METRICS.json", default=None,
                        help="write the metrics/report JSON here")
    parser.add_argument("--trace", metavar="TRACE.json", default=None,
                        help="write the Perfetto timeline here")
    parser.add_argument("--workload-out", metavar="WORKLOAD.json",
                        default=None,
                        help="write the generated request trace here")
    parser.add_argument("--telemetry", metavar="TELEMETRY.json",
                        default=None,
                        help="enable serve-layer telemetry and write the "
                             "metrics registry / spans / SLO snapshot here")
    parser.add_argument("--prometheus", metavar="METRICS.prom", default=None,
                        help="enable telemetry and write Prometheus text "
                             "exposition here")
    parser.add_argument("--telemetry-window", type=float, default=None,
                        metavar="SECONDS",
                        help="sliding window for telemetry latency "
                             "histograms (simulated seconds; default: "
                             "whole run)")
    return parser


#: CLI spellings of the routing policies (short and full names).
ROUTE_ALIASES = {
    "rr": "round_robin",
    "round_robin": "round_robin",
    "lb": "least_loaded",
    "least_loaded": "least_loaded",
    "affinity": "prefix_affinity",
    "prefix_affinity": "prefix_affinity",
}


def _validate_cluster_args(args) -> str:
    """Check the --dp/--route combination; returns the resolved policy
    name.  Raises SystemExit with an actionable message otherwise."""
    if args.dp < 1:
        raise SystemExit(
            f"--dp must be >= 1 (got {args.dp}): it is the number of "
            f"data-parallel engine replicas; use --dp 1 for a single "
            f"engine"
        )
    policy = ROUTE_ALIASES.get(args.route)
    if policy is None:
        options = ", ".join(sorted(set(ROUTE_ALIASES)))
        raise SystemExit(
            f"--route {args.route!r} is not a routing policy; "
            f"choose one of: {options}"
        )
    return policy


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    route_policy = _validate_cluster_args(args)
    cfg = MODELS[args.model]
    device = ALL_DEVICES[DEVICES[args.device]]

    workload = WorkloadConfig(
        num_requests=args.requests,
        seed=args.seed,
        arrival=args.arrival,
        arrival_rate=args.rate,
        arrival_cv=args.arrival_cv,
        prompt_min=args.prompt_min,
        prompt_max=min(args.prompt_max, cfg.context_length // 2),
        output_min=args.output_min,
        output_max=args.output_max,
        prefix_families=args.prefix_families,
        prefix_len=args.prefix_len,
        whisper_fraction=args.whisper_frac,
        denoise_fraction=args.denoise_frac,
        whisper_frames_min=args.whisper_frames_min,
        whisper_frames_max=args.whisper_frames_max,
        denoise_steps_min=args.denoise_steps_min,
        denoise_steps_max=args.denoise_steps_max,
    )
    models = {"enable_cuda_graph": not args.no_cuda_graph}
    if args.whisper_frac > 0:
        import dataclasses

        from ..models import whisper as whisper_models

        whisper_config = getattr(
            whisper_models, WHISPER_MODELS[args.whisper_model])
        # Size the compiled bounds (memory planning / graph capture) to
        # the workload actually being served.
        whisper_config = models["whisper_config"] = dataclasses.replace(
            whisper_config,
            max_frames=args.whisper_frames_max,
            max_target=max(whisper_config.max_target, args.output_max + 1),
        )
        if whisper_config.enc_positions > args.max_batched_tokens:
            raise SystemExit(
                f"--max-batched-tokens ({args.max_batched_tokens}) is "
                f"smaller than the atomic cross-KV projection of "
                f"{args.whisper_model} ({whisper_config.enc_positions} "
                f"encoder positions); raise the budget or shrink "
                f"--whisper-frames-max"
            )
    if args.denoise_frac > 0:
        from ..models import denoise as denoise_models

        models["denoise_config"] = getattr(
            denoise_models, DENOISE_MODELS[args.denoise_model])
    spec_config = None
    if args.spec_tokens > 0:
        from .spec import SpecConfig

        spec_config = SpecConfig(
            num_spec_tokens=args.spec_tokens,
            draft_quality=args.draft_quality,
            seed=args.spec_seed,
            adaptive=args.spec_adaptive,
        )
    engine_config = EngineConfig(
        page_size=args.page_size,
        num_blocks=args.kv_blocks,
        enable_prefix_caching=not args.no_prefix_cache,
        scheduler=SchedulerConfig(
            max_num_seqs=args.max_num_seqs,
            max_num_batched_tokens=args.max_batched_tokens,
            prefill_chunk=args.prefill_chunk or None,
            eviction=args.eviction,
        ),
        slo_ttft_s=args.slo_ttft,
        slo_tpot_s=args.slo_tpot,
        spec=spec_config,
    )
    if args.telemetry or args.prometheus:
        from .telemetry import TelemetryConfig

        engine_config.telemetry = TelemetryConfig(
            window_s=args.telemetry_window,
            # Kernel capture only pays off when a Perfetto file is
            # being written (that's where the merged events land).
            capture_kernels=bool(args.trace),
        )

    requests = generate(workload)
    if args.dp > 1:
        from .cluster import ClusterConfig, ClusterEngine

        server = ClusterEngine(
            cfg, device,
            ClusterConfig(dp=args.dp, policy=route_policy,
                          engine=engine_config),
            **models,
        )
        engines = server.engines
        title = (f"repro.serve cluster: {cfg.name} x{args.dp} on "
                 f"{device.name} (seed {args.seed}, {args.requests} "
                 f"requests, route={route_policy})")
    else:
        server = ServingEngine(cfg, device, engine_config, **models)
        engines = [server]
        title = (f"repro.serve: {cfg.name} on {device.name} "
                 f"(seed {args.seed}, {args.requests} requests)")
    report = server.run(requests)
    print(f"== {title} ==")
    _print_summary(report)
    _print_replay_plans(engines)

    def text(make):
        def write(path):
            with open(path, "w") as f:
                f.write(make())
        return write

    outputs = (
        ("workload  ->", args.workload_out, "",
         text(lambda: workload_to_json(workload, requests))),
        ("metrics   ->", args.out, "",
         text(lambda: json.dumps(report.to_dict(), indent=2))),
        ("perfetto  ->", args.trace, "  (open at https://ui.perfetto.dev)",
         report.export_chrome_trace),
        ("telemetry ->", args.telemetry, "",
         text(lambda: json.dumps(report.telemetry.to_dict(), indent=2,
                                 sort_keys=True))),
        ("prometheus->", args.prometheus, "",
         text(lambda: report.telemetry.to_prometheus())),
    )
    for label, path, note, write in outputs:
        if path:
            if os.path.dirname(path):
                os.makedirs(os.path.dirname(path), exist_ok=True)
            write(path)
            print(f"{label} {path}{note}")
    return 0


def _ms(v) -> str:
    return f"{v * 1e3:8.2f} ms" if v is not None else "       - ms"


def _pct(v) -> str:
    return f"{v * 100:.0f}%" if v is not None else "-"


def _anomalies(counts) -> str:
    if not counts:
        return "none"
    return ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


def _print_summary(report) -> None:
    """Print an engine report or a fleet report: the shared head, then
    one line per section the summary does not report as ``None``."""
    s = report.summary
    fleet = "routing" in s
    print(f"finished          {s['num_finished']}/{s['num_requests']} "
          f"in {s['makespan_s']:.3f} simulated s"
          + ("" if fleet else f" ({len(report.iterations)} iterations)"))
    print(f"throughput        {s['throughput_tokens_per_s']:.1f} tok/s, "
          f"{s['throughput_requests_per_s']:.2f} req/s")
    print(f"goodput           {s['goodput_requests_per_s']:.2f} req/s "
          f"({s['slo']['fraction'] * 100:.0f}% within "
          f"TTFT<={s['slo']['ttft_s']}s, TPOT<={s['slo']['tpot_s']}s)")
    for metric in ("ttft_s", "tpot_s", "itl_s"):
        row = s[metric]
        print(f"{metric:<17} p50 {_ms(row['p50'])}   "
              f"p90 {_ms(row['p90'])}   "
              f"p99 {_ms(row['p99'])}")
    if fleet:
        routing = s["routing"]
        print(f"routing           {routing['assignments']} requests/replica, "
              f"balance entropy {routing['load_balance_entropy']:.3f}")
    else:
        pool = s["kv_pool"]
        print(f"kv pool           {pool['num_blocks']} blocks x "
              f"{pool['page_size']} tokens, peak util "
              f"{pool['peak_utilization'] * 100:.0f}% "
              f"(raw {pool['peak_raw_utilization'] * 100:.0f}%), "
              f"cow copies {pool['cow_copies']}, "
              f"leaked {pool['leaked_blocks']}")
    pc = s["prefix_cache"]
    if pc is not None:
        print(f"prefix cache      {'fleet ' if fleet else ''}hit rate "
              f"{pc['hit_rate'] * 100:.0f}% "
              f"({pc['hits']}/{pc['lookups']} lookups), "
              f"cached tokens {pc['matched_tokens']}/"
              f"{pc['requested_tokens']} "
              f"({pc['cached_token_fraction'] * 100:.0f}%)"
              + ("" if fleet else f", evictions {pc['evictions']}"))
    if fleet:
        fleet_slo = s["fleet_slo"]
        print(f"fleet slo         {fleet_slo['violations']} violations / "
              f"{fleet_slo['finished']} finished; "
              f"anomalies: {_anomalies(fleet_slo['anomaly_counts'])}")
    else:
        _print_engine_tail(s)
    for kind, row in (s["per_type"] or {}).items():
        print(f"[{kind}]".ljust(18)
              + f"{row['num_finished']}/{row['num_requests']} finished, "
              f"ttft p50 {_ms(row['ttft_s']['p50'])}, "
              f"step p50 {_ms(row['tpot_s']['p50'])}, "
              f"p99 {_ms(row['tpot_s']['p99'])}")
    for row in s["per_replica"] if fleet else ():
        ttft = row["ttft_mean_s"]
        ttft_txt = f"{ttft * 1e3:.2f} ms" if ttft is not None else "-"
        line = (f"[replica {row['replica']}]".ljust(18)
                + f"{row['num_requests']} reqs, "
                f"makespan {row['makespan_s']:.3f}s, "
                f"ttft mean {ttft_txt}, "
                f"kv peak {row['kv_peak_utilization'] * 100:.0f}%")
        if row["prefix_cache_hit_rate"] is not None:
            line += f", cache hits {row['prefix_cache_hit_rate'] * 100:.0f}%"
        print(line)


def _print_engine_tail(s) -> None:
    """The engine-only lines after the prefix cache: speculation,
    preemptions and telemetry."""
    sd = s["spec_decode"]
    if sd is not None:
        rate = sd["acceptance_rate"]
        per_pos = sd["per_position_acceptance"]
        print(f"speculation       k={sd['num_spec_tokens']} "
              f"draft={sd['draft_model']}, accepted "
              f"{sd['accepted']}/{sd['proposed']} drafts "
              f"({rate * 100:.0f}%)" if rate is not None else
              f"speculation       k={sd['num_spec_tokens']} (no proposals)")
        if per_pos is not None:
            print(f"                  per-position acceptance "
                  f"{per_pos * 100:.0f}% "
                  f"(configured quality {sd['draft_quality'] * 100:.0f}%)")
    print(f"preemptions       {s['preemptions']} "
          f"(swap time {s['swap_time_s'] * 1e3:.2f} ms)")
    tl = s["telemetry"]
    if tl is not None:
        print(f"telemetry         {tl['num_metrics']} metrics, "
              f"{tl['num_spans']} spans; window attainment "
              f"ttft {_pct(tl['window_ttft_attainment'])} / "
              f"tpot {_pct(tl['window_tpot_attainment'])}; "
              f"anomalies: {_anomalies(tl['anomaly_counts'])}")


def _print_replay_plans(engines) -> None:
    """Footer line: how many VM calls were replayed from a plan instead of
    interpreted.  Host-side only, so it is printed and never serialized."""
    hits, misses, plans, interpreted = map(sum, zip(
        *(engine.plan_cache_info() for engine in engines)))
    calls = hits + interpreted
    print(f"replay plans      {hits}/{calls} VM calls replayed "
          f"({hits / max(calls, 1) * 100:.0f}%), {plans} plans, "
          f"{interpreted} interpreted")
