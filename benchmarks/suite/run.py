"""Two-clock benchmark suite: host wall time and simulated KPIs.

    python benchmarks/suite/run.py --seed S              # all workloads, tables
    python benchmarks/suite/run.py --seed S --trace      # + per-layer metrics
    python benchmarks/suite/run.py --seed S --check-repeat
    python benchmarks/suite/run.py --list
    python benchmarks/suite/run.py --workload W --seed S --seconds N --trace 0|1

Every run of a workload is a fresh ``worker.py`` process (``PYTHONHASHSEED=0``,
one thread, ``src/`` on ``PYTHONPATH``), one at a time.  With ``--workload``
the last line printed is the one JSON object ``BENCHMARK.json``'s contract
asks for.  See ``README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import names  # noqa: E402
from workloads import CALIBRATED_SECONDS, WORKLOADS  # noqa: E402

#: Fresh-process set-ups per contract run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A worker that runs longer than this is killed and counts as crashed.
WORKER_TIMEOUT_S = 150
#: ``--check-repeat``: set-up may differ by the larger of its bound and this.
SETUP_SLACK_S = 0.3

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class WorkerCrashed(Exception):
    """The worker died, hung, or printed no result line."""


# -- the schema ---------------------------------------------------------------------


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def schema_errors(spec: Dict[str, Any]) -> List[str]:
    """Why the suite may not start: names it would emit that
    ``BENCHMARK.json`` does not list (or the reverse), or malformed ones."""
    errors = []
    for key, emitted in (("end_to_end", names.END_TO_END),
                         ("per_layer", names.PER_LAYER),
                         ("workloads", tuple(WORKLOADS))):
        listed = [m["name"] for m in spec[key]]
        for name in sorted(set(emitted) - set(listed)):
            errors.append(f"{key}: suite emits {name!r}, BENCHMARK.json "
                          f"does not list it")
        for name in sorted(set(listed) - set(emitted)):
            errors.append(f"{key}: BENCHMARK.json lists {name!r}, the suite "
                          f"never emits it")
        errors += [f"{key}: bad name {n!r}" for n in listed
                   if not NAME_RE.match(n)]
    return errors


# -- running workers ----------------------------------------------------------------


def run_worker(workload: str, seed: int, scale: float, mode: str,
               trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One fresh worker process; returns its parsed result line."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        # run() kills the child and waits for it when the timeout expires.
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerCrashed(f"{workload} ({mode}): no result after "
                            f"{WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerCrashed(f"{workload} ({mode}): exit code "
                            f"{proc.returncode}, no result line")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise WorkerCrashed(f"{workload} ({mode}): last line is not JSON: "
                            f"{lines[-1][:200]!r}") from None


def measure(workload: str, seed: int, scale: float, *, traced: bool,
            setup_samples: int = 1) -> Dict[str, Any]:
    """All runs one result needs; returns the merged record.

    Untraced: the plain run, plus ``setup_samples - 1`` set-up-only
    processes whose median replaces ``setup_s``.  Traced: a plain run
    (tracing off, for the overhead's base), the traced run (spans), and
    a cProfile run at quarter counts (``host.share.*``).
    """
    plain = run_worker(workload, seed, scale, "plain")
    metrics = plain["metrics"]
    setups = [metrics["setup_s"]] if "setup_s" in metrics else []
    for _ in range(setup_samples - 1):
        setups.append(
            run_worker(workload, seed, scale, "setup")["metrics"]["setup_s"])
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    record = {"workload": workload, "attempted": plain["attempted"],
              "failed": plain["failed"], "error": plain["error"],
              "metrics": metrics}
    if traced:
        trace_out = os.path.join(OUT, f"{workload}-seed{seed}.trace.json")
        spans = run_worker(workload, seed, scale, "trace", trace_out)
        shares = run_worker(workload, seed, scale / 4, "profile")
        layers = {k: v for k, v in spans["metrics"].items()
                  if k in names.PER_LAYER}
        layers.update((k, v) for k, v in shares["metrics"].items()
                      if k.startswith("host.share."))
        if "wall_s" in spans["metrics"] and "wall_s" in metrics:
            layers["suite.trace_overhead_frac"] = (
                spans["metrics"]["wall_s"] / metrics["wall_s"] - 1.0)
        record["layers"] = layers
        record["traced"] = {
            "attempted": spans["attempted"], "failed": spans["failed"],
            "error": spans["error"] or shares["error"],
            "wall_s": spans["metrics"].get("wall_s"), "trace": trace_out,
        }
    return record


# -- the contract's result line -----------------------------------------------------


def contract_line(spec: Dict[str, Any], record: Dict[str, Any],
                  traced: bool) -> str:
    """``{"correct", "attempted", "failed", "metrics"}`` as one JSON line.

    ``--trace 0`` prints every end-to-end metric (a missing one is an
    error: they are defined on every workload); ``--trace 1`` every
    per-layer metric, where a layer the workload never enters reads 0.
    """
    if traced:
        values, run = record["layers"], record["traced"]
        listed = spec["per_layer"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]} for m in listed}
    else:
        values, run = record["metrics"], record
        listed = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed}
    return json.dumps({
        "correct": run["failed"] == 0 and run["error"] is None,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


# -- tables -------------------------------------------------------------------------


def fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def units_of(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def print_table(header: List[str], rows: List[List[str]]) -> None:
    widths = [max(len(r[i]) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))).rstrip())


def print_end_to_end(spec: Dict[str, Any], records: List[Dict[str, Any]],
                     label: str = "") -> None:
    units = dict(units_of(spec), fail_frac="ratio")
    columns = list(names.END_TO_END) + ["fail_frac"] + list(names.SERVE_KPIS)
    print(f"\nEnd-to-end metrics{label} ('-': the workload does not define it)")
    rows = []
    for rec in records:
        values = dict(rec["metrics"],
                      fail_frac=rec["failed"] / rec["attempted"])
        rows.append([rec["workload"]]
                    + [fmt(values.get(c)) for c in columns])
    print_table(["workload"] + [f"{c} [{units[c]}]" for c in columns], rows)
    for rec in records:
        if rec["error"]:
            print(f"\n{rec['workload']} raised:\n{rec['error']}")


def print_layers(spec: Dict[str, Any], records: List[Dict[str, Any]]) -> None:
    print("\nPer-layer metrics (traced run; '-': not produced)")
    rows = []
    for m in spec["per_layer"]:
        rows.append([f"{m['name']} [{m['unit']}]"] + [
            fmt(rec.get("layers", {}).get(m["name"])) for rec in records])
    print_table(["metric"] + [rec["workload"] for rec in records], rows)
    for rec in records:
        t = rec.get("traced")
        if t:
            print(f"{rec['workload']}: traced wall {fmt(t['wall_s'])} s, "
                  f"failed {t['failed']}/{t['attempted']}, spans in "
                  f"{os.path.relpath(t['trace'], ROOT)}")


def print_list(spec: Dict[str, Any]) -> None:
    print("workloads")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end_to_end (name, unit, better, bound)")
    for m in spec["end_to_end"]:
        print(f"  {m['name']}  {m['unit']}  {m['better']}  {m['bound']}")
    print("per_layer (name, unit, better)")
    for m in spec["per_layer"]:
        print(f"  {m['name']}  {m['unit']}  {m['better']}")


# -- modes --------------------------------------------------------------------------


def run_set(spec: Dict[str, Any], seed: int, scale: float,
            traced: bool) -> List[Dict[str, Any]]:
    """Every workload once, in order; a crashed worker fails all of its
    workload's operations and the set carries on."""
    records = []
    for w in spec["workloads"]:
        print(f"running {w['name']} ...", file=sys.stderr, flush=True)
        try:
            records.append(measure(w["name"], seed, scale, traced=traced))
        except WorkerCrashed as crash:
            records.append({"workload": w["name"], "attempted": 1,
                            "failed": 1, "error": str(crash), "metrics": {}})
    return records


def repeat_mismatches(spec: Dict[str, Any], first: List[Dict[str, Any]],
                      second: List[Dict[str, Any]]) -> List[str]:
    """Where two same-seed sets disagree: anything simulated or counted
    that is not identical, any bounded host metric outside its bound."""
    units = units_of(spec)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for a, b in zip(first, second):
        where = a["workload"]
        if (a["attempted"], a["failed"]) != (b["attempted"], b["failed"]):
            problems.append(f"{where}: failed/attempted differ")
        for name in sorted(set(a["metrics"]) | set(b["metrics"])):
            x, y = a["metrics"].get(name), b["metrics"].get(name)
            if x is None or y is None:
                problems.append(f"{where}: {name} missing from one set")
            elif not names.is_host(name, units[name]):
                if x != y:
                    problems.append(f"{where}: {name} {x!r} != {y!r}")
            elif name in bounds:
                slack = bounds[name] * min(x, y)
                if name == "setup_s":
                    slack = max(slack, SETUP_SLACK_S)
                if abs(x - y) > slack:
                    problems.append(
                        f"{where}: {name} {x:.4g} vs {y:.4g} differ by more "
                        f"than {slack:.3g}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload and print the contract's "
                             "JSON result line (default: all, as tables)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="target length of a timed region; counts scale "
                             "with it (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="extra factor on every count (smoke tests)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run with spans on")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the untraced set twice and compare")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics from BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.list:
        print_list(spec)
        return 0
    errors = schema_errors(spec)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        errors.append(f"no src/repro under {ROOT}: nothing to benchmark")
    if errors:
        print("refusing to start:\n  " + "\n  ".join(errors), file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    scale = args.scale * seconds / CALIBRATED_SECONDS
    traced = bool(args.trace)

    if args.workload:
        try:
            record = measure(args.workload, args.seed, scale, traced=traced,
                             setup_samples=1 if traced else SETUP_SAMPLES)
            line = contract_line(spec, record, traced)
        except (WorkerCrashed, KeyError) as problem:
            print(f"no result: {problem!r}", file=sys.stderr)
            return 1
        print(line)
        return 0

    os.makedirs(OUT, exist_ok=True)
    if args.check_repeat:
        first = run_set(spec, args.seed, scale, traced=False)
        second = run_set(spec, args.seed, scale, traced=False)
        print_end_to_end(spec, first, " (first set)")
        print_end_to_end(spec, second, " (second set)")
        problems = repeat_mismatches(spec, first, second)
        print("\ncheck-repeat: " + ("ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        return 1 if problems else 0

    records = run_set(spec, args.seed, scale, traced=traced)
    print_end_to_end(spec, records)
    if traced:
        print_layers(spec, records)
    suffix = "-traced" if traced else ""
    with open(os.path.join(OUT, f"results-seed{args.seed}{suffix}.json"),
              "w") as f:
        json.dump(records, f, indent=1)
    return 1 if any(r["failed"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
