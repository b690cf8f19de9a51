"""One workload, one process: ``run.py`` starts this file once per run.

The first statement reads the clock: ``setup_s`` runs from here — before
``import repro`` — to the start of the workload's timed region.  The
last line printed is one JSON object (see :func:`main`).
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import names  # noqa: E402
from workloads import WORKLOADS, Context, SetupOnly  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "setup", "trace", "profile"))
    parser.add_argument("--trace-out", default=None,
                        help="where --mode trace writes its Chrome trace")
    args = parser.parse_args()

    if args.mode in ("trace", "profile"):
        import trace  # this directory's, never loaded by an untraced run

    tracer = trace.Tracer() if args.mode == "trace" else None
    profile = cProfile.Profile() if args.mode == "profile" else None
    ctx = Context(seed=args.seed, scale=args.scale, t0=T0, tracer=tracer,
                  profile=profile, setup_only=args.mode == "setup")
    if tracer is not None:
        trace.install(tracer)

    error = None
    try:
        WORKLOADS[args.workload](ctx)
        ctx.finish()
    except SetupOnly:
        pass
    except Exception:
        # An exception fails every operation not yet completed; the
        # suite carries on with the next workload.
        error = traceback.format_exc()
        sys.stderr.write(error)

    metrics = dict(ctx.metrics)
    if ctx.setup_s is not None:
        metrics["setup_s"] = ctx.setup_s
    if ctx.wall_s is not None:
        metrics["wall_s"] = ctx.wall_s
    # ru_maxrss is KiB on Linux.
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None and error is None:
        metrics.update(trace.layer_metrics(tracer, ctx.iterations))
        if ctx.launches:
            # Host time per simulated event: what a simulator speed-up moves.
            metrics["runtime.vm.us_per_launch"] = (
                metrics["runtime.vm.run_s"] * 1e6 / ctx.launches)
        if args.trace_out:
            from repro.obs.report import validate_chrome_trace

            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as f:
                json.dump(validate_chrome_trace(
                    tracer.chrome_trace(f"suite {args.workload}")), f)
    if profile is not None and error is None:
        for bucket, share in trace.profile_shares(profile).items():
            metrics[f"host.share.{bucket}"] = share

    unlisted = sorted(set(metrics) - set(names.ALL))
    if unlisted:
        raise SystemExit(f"metric names missing from names.py: {unlisted}")
    attempted = max(ctx.attempted, 1)
    print(json.dumps({
        "workload": args.workload,
        "attempted": attempted,
        "failed": attempted - ctx.completed if args.mode != "setup" else 0,
        "error": error,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
