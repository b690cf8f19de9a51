"""Serving goldens: what every serving mode produces, committed as text.

The scenarios cover vanilla LLM runs (plain, pool pressure, prefix
sharing, on two device models), speculative fixed and adaptive with and
without pool pressure, swap and recompute preemption with prefix-cache
evictions, telemetry with kernel capture, tp=2, dp=2 under every router,
mixed LLM + Whisper + denoise, and the CLI (dp=2 with fleet telemetry
included) — and say *what* moved: each ``summary`` and request-row list
is JSON text compared structurally with exact float equality (a failure
names the first differing key path); large lists (event logs,
iterations, trace events, spans) are a sha256 plus an element count.
Every engine and cluster scenario pins its event log
(:mod:`repro.serve.log`), whose folds the other artifacts are, and
``test_logged_counter_deltas_sum_to_their_sources`` checks the logged
allocator / COW / prefix-cache deltas against the counters themselves.
Mixed-kind runs compare their span and trace-event lists as sorted
multisets: stepped work of different request kinds in one iteration is
recorded in scheduling order (DESIGN.md §18).

The reports are schema 2 (DESIGN.md §9): ``test_one_key_set_per_record_kind``
checks that every engine summary, fleet summary, iteration record and
request row across the scenarios has one key set, inactive sections
``None``.  A golden is rewritten only by a change meant to move it; a
new scenario's golden comes from the change that adds it.  Run as a
script::

    PYTHONPATH=src python tests/serve/test_serve_goldens.py regen
    PYTHONPATH=src python tests/serve/test_serve_goldens.py dump DIR

``regen`` rewrites ``goldens/`` (only for a change *meant* to move
them); ``dump DIR`` writes every artifact in full so two commits can be
``diff -r``'d.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.models import (
    TINY_DENOISE,
    TINY_LLAMA,
    TINY_LLAMA_TP,
    TINY_WHISPER,
)
from repro.runtime import TEST_DEVICE
from repro.runtime.device import ALL_DEVICES
from repro.serve import (
    ClusterConfig,
    EngineConfig,
    SchedulerConfig,
    ServingEngine,
    SpecConfig,
    TelemetryConfig,
    WorkloadConfig,
    generate,
    serve_cluster,
)
from repro.serve.cli import main as cli_main
from repro.serve.log import to_dicts, total_counters

GOLDENS = Path(__file__).parent / "goldens"


# -- artifacts -------------------------------------------------------------------
#
# A scenario returns ``{name: artifact}``; an artifact is one of
#   ("json", obj)            stored as JSON text, compared structurally
#   ("text", str)            stored in its own file, compared exactly
#   ("list", items, sort)    stored as sha256 + count; ``sort`` compares
#                            the list as a multiset (mixed-kind runs)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _listed(items, sort):
    items = json.loads(_canon(items))
    return sorted(items, key=_canon) if sort else items


#: Time fields of span and trace-event records.
_TIME_FIELDS = ("ts", "dur", "start_s", "end_s")


def _dump_order(item):
    """How ``dump`` orders a mixed-kind list: by a record's content with
    its time fields set aside, then by its times.  A last-bit move of a
    time then leaves two commits' dumps aligned element by element."""
    rest = {k: v for k, v in item.items() if k not in _TIME_FIELDS}
    return _canon(rest), _canon([item.get(k) for k in _TIME_FIELDS])


def _digest(items, sort):
    items = _listed(items, sort)
    return {
        "sha256": hashlib.sha256(_canon(items).encode()).hexdigest(),
        "count": len(items),
    }


def _engine_artifacts(report, mixed=False):
    out = {
        "summary": ("json", report.summary),
        "requests": ("json", report.to_dict()["requests"]),
        "log": ("list", to_dicts(report.log), False),
        "iterations": ("list", report.iterations, False),
        "token_streams": ("list", [
            [r.req_id, list(r.output_tokens), list(r.token_times)]
            for r in report.requests
        ], False),
        "trace_events": (
            "list", report.chrome_trace()["traceEvents"], mixed),
    }
    tel = report.telemetry
    if tel is not None:
        doc = tel.to_dict()
        out["spans"] = ("list", doc.pop("spans"), mixed)
        out["telemetry"] = ("json", doc)
        out["prometheus"] = ("text", tel.to_prometheus())
    return out


def _cluster_artifacts(report):
    return {
        "summary": ("json", report.summary),
        "assignments": ("json", [list(a) for a in report.assignments]),
        "log": ("list", to_dicts(report.log), False),
        "replica_summaries": (
            "json", [rep.summary for rep in report.replica_reports]),
        "replicas": (
            "list", [rep.to_dict() for rep in report.replica_reports], False),
        "trace_events": (
            "list", report.chrome_trace()["traceEvents"], False),
    }


# -- engine scenarios ------------------------------------------------------------


#: Arrivals far faster than the tiny model serves them: requests overlap,
#: so batches are ragged and small pools come under pressure.
BURST = 1e5


def _sched(seqs=8, tokens=64, chunk=16, eviction="swap"):
    return SchedulerConfig(max_num_seqs=seqs, max_num_batched_tokens=tokens,
                           prefill_chunk=chunk, eviction=eviction)


def _serve(cfg, workload, econf, device=TEST_DEVICE, **kwargs):
    return ServingEngine(cfg, device, econf, **kwargs).run(generate(workload))


#: The device models the vanilla scenarios are served on, and how the
#: golden files spell them.
VANILLA_DEVICES = {"NVIDIA RTX 4090": "rtx4090",
                   "AMD Radeon 7900 XTX": "7900xtx"}


def vanilla_workload(name):
    if name == "plain":
        return WorkloadConfig(num_requests=10, seed=0, arrival_rate=100.0,
                              prompt_min=4, prompt_max=12,
                              output_min=4, output_max=12)
    if name == "pressure":
        return WorkloadConfig(num_requests=8, seed=1, arrival_rate=400.0,
                              prompt_min=8, prompt_max=16,
                              output_min=6, output_max=12)
    if name == "prefix":
        return WorkloadConfig(num_requests=8, seed=2, arrival_rate=200.0,
                              prompt_min=12, prompt_max=20,
                              output_min=4, output_max=10,
                              prefix_families=2, prefix_len=8)
    raise ValueError(name)


def vanilla_engine_config(name, spec=None):
    """The three canonical configs ``test_spec_decode.py`` also serves
    with ``spec`` set; ``spec=None`` is the engine before speculation."""
    if name == "pressure":
        return EngineConfig(page_size=4, num_blocks=24, spec=spec,
                            scheduler=_sched(seqs=4, tokens=32, chunk=8))
    if name in ("plain", "prefix"):
        return EngineConfig(page_size=4, num_blocks=128, spec=spec,
                            scheduler=_sched())
    raise ValueError(name)


def _vanilla(name, device):
    return _engine_artifacts(_serve(
        TINY_LLAMA, vanilla_workload(name), vanilla_engine_config(name),
        device=ALL_DEVICES[device]))


def _spec(adaptive, pressure):
    # A weak draft under the adaptive controller makes it shrink k.
    spec = SpecConfig(num_spec_tokens=3, seed=0, adaptive=adaptive,
                      draft_quality=0.4 if adaptive else 0.6,
                      adapt_window=12)
    if pressure:
        econf = EngineConfig(page_size=4, num_blocks=16, spec=spec,
                             scheduler=_sched(seqs=4, tokens=32, chunk=8))
        wl = WorkloadConfig(num_requests=8, seed=2, arrival_rate=BURST,
                            prompt_min=8, prompt_max=16,
                            output_min=8, output_max=20)
    else:
        econf = EngineConfig(page_size=4, num_blocks=128, spec=spec,
                             scheduler=_sched())
        wl = WorkloadConfig(num_requests=10, seed=0, arrival_rate=BURST,
                            prompt_min=4, prompt_max=12,
                            output_min=4, output_max=12)
    return _engine_artifacts(_serve(TINY_LLAMA, wl, econf))


def _preempt(eviction):
    # Long outputs on a 14-block pool: decode growth forces preemption,
    # admissions reclaim cached prefix pages (evictions).
    econf = EngineConfig(page_size=4, num_blocks=14,
                         scheduler=_sched(seqs=4, tokens=32, chunk=8,
                                          eviction=eviction))
    wl = WorkloadConfig(num_requests=10, seed=1, arrival_rate=BURST,
                        prompt_min=10, prompt_max=16,
                        output_min=12, output_max=24,
                        prefix_families=2, prefix_len=8)
    return _engine_artifacts(_serve(TINY_LLAMA, wl, econf))


def _telemetry_kernels():
    econf = EngineConfig(page_size=4, num_blocks=20,
                         scheduler=_sched(seqs=4, tokens=32, chunk=8),
                         telemetry=TelemetryConfig(capture_kernels=True))
    wl = WorkloadConfig(num_requests=8, seed=2, arrival_rate=BURST,
                        prompt_min=12, prompt_max=20,
                        output_min=4, output_max=16,
                        prefix_families=2, prefix_len=8)
    return _engine_artifacts(_serve(TINY_LLAMA, wl, econf))


def _tp2(spec_and_telemetry):
    econf = EngineConfig(
        page_size=4, num_blocks=64, tp=2, enable_prefix_caching=False,
        scheduler=_sched(tokens=128),
        spec=SpecConfig(num_spec_tokens=2, draft_quality=0.7, seed=0)
        if spec_and_telemetry else None,
        telemetry=TelemetryConfig() if spec_and_telemetry else None,
    )
    wl = WorkloadConfig(num_requests=10, seed=0, arrival_rate=BURST,
                        prompt_min=4, prompt_max=20,
                        output_min=2, output_max=12)
    return _engine_artifacts(_serve(TINY_LLAMA_TP, wl, econf))


def _dp2(policy):
    wl = WorkloadConfig(num_requests=16, seed=0, arrival_rate=2e4,
                        prompt_min=16, prompt_max=40,
                        output_min=2, output_max=12,
                        prefix_families=3, prefix_len=12)
    econf = EngineConfig(page_size=4, num_blocks=64,
                         scheduler=_sched(tokens=128))
    return _cluster_artifacts(serve_cluster(
        TINY_LLAMA, TEST_DEVICE, generate(wl),
        ClusterConfig(dp=2, policy=policy, engine=econf)))


def _mixed(eviction, telemetry=False):
    # Near-simultaneous arrivals on a 12-block pool: LLM requests are
    # preempted around unevictable Whisper/denoise work.
    econf = EngineConfig(
        page_size=4, num_blocks=12,
        scheduler=_sched(chunk=8, eviction=eviction),
        telemetry=TelemetryConfig(capture_kernels=True)
        if telemetry else None,
    )
    wl = WorkloadConfig(num_requests=16, seed=3, arrival_rate=1e6,
                        prompt_min=4, prompt_max=20,
                        output_min=2, output_max=24,
                        whisper_fraction=0.25, denoise_fraction=0.25)
    return _engine_artifacts(
        _serve(TINY_LLAMA, wl, econf, whisper_config=TINY_WHISPER,
               denoise_config=TINY_DENOISE),
        mixed=True)


# -- CLI scenarios ---------------------------------------------------------------


@contextlib.contextmanager
def _in_tmpdir():
    """Relative output paths keep the printed ``-> path`` lines stable."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(cwd)


_CLI_COMMON = ["--seed", "0", "--requests", "16", "--rate", "20000",
               "--page-size", "4", "--out", "out.json"]
_CLI_PREFIX = ["--prefix-families", "2", "--prefix-len", "12",
               "--prompt-min", "16", "--prompt-max", "24", "--kv-blocks", "48"]


def _cli(extra, mixed=False):
    argv = _CLI_COMMON + extra
    with _in_tmpdir() as tmp:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli_main(argv) == 0
        doc = json.loads((tmp / "out.json").read_text())
        out = {
            "stdout": ("text", stdout.getvalue()),
            "out.summary": ("json", doc.pop("summary")),
        }
        if doc.get("telemetry") is not None:
            out["out.spans"] = ("list", doc["telemetry"].pop("spans"), mixed)
        out["out"] = ("list", [doc], False)
        if "--telemetry" in argv:
            tel = json.loads((tmp / "tel.json").read_text())
            out["telemetry.spans"] = ("list", tel.pop("spans"), mixed)
            out["telemetry"] = ("json", tel)
            out["prometheus"] = ("text", (tmp / "m.prom").read_text())
        return out


SCENARIOS = {
    **{f"vanilla_{name}_{slug}": functools.partial(_vanilla, name, device)
       for name in ("plain", "pressure", "prefix")
       for device, slug in VANILLA_DEVICES.items()},
    "spec_fixed": lambda: _spec(adaptive=False, pressure=False),
    "spec_fixed_pressure": lambda: _spec(adaptive=False, pressure=True),
    "spec_adaptive": lambda: _spec(adaptive=True, pressure=False),
    "spec_adaptive_pressure": lambda: _spec(adaptive=True, pressure=True),
    "preempt_swap": lambda: _preempt("swap"),
    "preempt_recompute": lambda: _preempt("recompute"),
    "telemetry_kernels": _telemetry_kernels,
    "tp2_plain": lambda: _tp2(False),
    "tp2_spec_telemetry": lambda: _tp2(True),
    "dp2_round_robin": lambda: _dp2("round_robin"),
    "dp2_least_loaded": lambda: _dp2("least_loaded"),
    "dp2_prefix_affinity": lambda: _dp2("prefix_affinity"),
    "mixed_swap": lambda: _mixed("swap"),
    "mixed_recompute": lambda: _mixed("recompute"),
    "mixed_swap_telemetry": lambda: _mixed("swap", telemetry=True),
    "cli_dp1": lambda: _cli(["--dp", "1"] + _CLI_PREFIX),
    "cli_spec": lambda: _cli(["--spec-tokens", "3"] + _CLI_PREFIX),
    "cli_mixed_telemetry": lambda: _cli(
        ["--whisper-frac", "0.3", "--denoise-frac", "0.2",
         "--kv-blocks", "24", "--telemetry", "tel.json",
         "--prometheus", "m.prom"], mixed=True),
    "cli_dp2_affinity": lambda: _cli(
        ["--dp", "2", "--route", "affinity"] + _CLI_PREFIX),
    "cli_dp3_lb": lambda: _cli(["--dp", "3", "--route", "lb"] + _CLI_PREFIX),
    "cli_dp2_mixed": lambda: _cli(
        ["--dp", "2", "--route", "lb", "--whisper-frac", "0.3",
         "--denoise-frac", "0.2", "--kv-blocks", "24"], mixed=True),
    "cli_dp2_telemetry": lambda: _cli(
        ["--dp", "2", "--route", "affinity", "--telemetry", "tel.json",
         "--prometheus", "m.prom"] + _CLI_PREFIX),
}


@functools.lru_cache(maxsize=None)
def _run(name):
    """Each scenario runs once per pytest process (runs are deterministic):
    its artifacts and every ``ServeReport`` it produced."""
    reports = []
    report = ServingEngine.report

    def keep(self):
        reports.append(report(self))
        return reports[-1]

    ServingEngine.report = keep
    try:
        return SCENARIOS[name](), reports
    finally:
        ServingEngine.report = report


def _artifacts(name):
    return _run(name)[0]


# -- storage and comparison ------------------------------------------------------


def _stored(artifacts):
    """The committed form: ``(golden json doc, {suffix: text})``."""
    doc, texts = {}, {}
    for name, art in artifacts.items():
        if art[0] == "json":
            doc[name] = json.loads(_canon(art[1]))
        elif art[0] == "text":
            texts[name] = art[1]
        else:
            doc[name] = _digest(art[1], art[2])
    return doc, texts


def _first_diff(got, want, path="$"):
    """Key path of the first structural difference (``None`` if equal).
    Floats compare with ``==``: the goldens are exact."""
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                side = "golden" if key in want else "this run"
                return f"{path}.{key}: only in {side}"
            diff = _first_diff(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} elements != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _first_diff(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def check_golden(name):
    doc, texts = _stored(_artifacts(name))
    want = json.loads((GOLDENS / f"{name}.json").read_text())
    assert _first_diff(doc, want, name) is None
    for suffix, text in texts.items():
        assert text == (GOLDENS / f"{name}.{suffix}.txt").read_text(), (
            f"{name}.{suffix} drifted")


# The vanilla scenarios are checked under the ids the sha256 pins they
# replace had: test_spec_decode.py::test_vanilla_run_byte_identical_….
@pytest.mark.parametrize(
    "name", [n for n in SCENARIOS if not n.startswith("vanilla_")])
def test_serving_output_matches_golden(name):
    check_golden(name)


def test_scenarios_exercise_what_they_claim():
    """The goldens only anchor a mode if the scenario reaches it."""
    def summary(name):
        return json.loads((GOLDENS / f"{name}.json").read_text())["summary"]

    for name in ("spec_fixed_pressure", "spec_adaptive_pressure",
                 "preempt_swap", "preempt_recompute",
                 "mixed_swap", "mixed_recompute"):
        assert summary(name)["preemptions"] > 0, name
    for name in ("preempt_swap", "preempt_recompute"):
        assert summary(name)["prefix_cache"]["evictions"] > 0, name
    for name in ("spec_fixed", "spec_adaptive"):
        assert summary(name)["preemptions"] == 0, name
        assert summary(name)["spec_decode"]["accepted"] > 0, name
    assert summary("tp2_spec_telemetry")["comm_fraction"] > 0
    assert set(summary("mixed_swap")["per_type"]) == {
        "llm", "whisper", "denoise"}


def test_logged_counter_deltas_sum_to_their_sources():
    """Each iteration event logs allocator, COW and prefix-cache counter
    *deltas*; over a run they add up to the cumulative counters the
    engine reads off the pool and the cache at ``report()``."""
    caches = ("lookups", "hits", "requested_tokens", "matched_tokens",
              "inserts", "evictions")
    for name in SCENARIOS:
        reports = _run(name)[1]
        assert reports, name
        for rep in reports:
            total = total_counters(rep.log)
            audit = rep.summary["kv_pool"]["refcount_audit"]
            assert (total.allocated, total.freed, total.ref_drops,
                    total.shares, total.cow_copies) == (
                audit["allocated_total"], audit["freed_total"],
                audit["ref_drops_total"], audit["shares_total"],
                audit["cow_copies"]), name
            cache = rep.summary["prefix_cache"] or dict.fromkeys(caches, 0)
            assert [getattr(total, k) for k in caches] == [
                cache[k] for k in caches], name


def test_same_seed_runs_log_the_same_events():
    for name in ("preempt_swap", "dp2_prefix_affinity"):
        first, second = (_stored(SCENARIOS[name]())[0]["log"]
                         for _ in range(2))
        assert first == second == _stored(_artifacts(name))[0]["log"], name


# -- schema 2 --------------------------------------------------------------------

#: Keys whose values are keyed by data (request kinds, anomaly kinds)
#: rather than being fixed sections: their keys are not a schema.
_MAPS = {"per_type", "anomaly_counts", "anomalies"}


def _records(artifacts):
    """``(record kind, record)`` for every report record of a scenario."""
    def engine(summary, requests, iterations):
        yield "engine_summary", summary
        yield from (("request", row) for row in requests)
        yield from (("iteration", it) for it in iterations)

    def fleet(summary, replicas):
        yield "fleet_summary", summary
        for rep in replicas:
            yield from engine(rep["summary"], rep["requests"],
                              rep["iterations"])

    arts = {name: art[1] for name, art in artifacts.items()}
    if "out" in arts:  # a CLI run: the --out document
        doc = arts["out"][0]
        if "replicas" in doc:
            yield from fleet(arts["out.summary"], doc["replicas"])
        else:
            yield from engine(arts["out.summary"], doc["requests"],
                              doc["iterations"])
    elif "replicas" in arts:
        yield from fleet(arts["summary"], arts["replicas"])
    else:
        yield from engine(arts["summary"], arts["requests"],
                          arts["iterations"])


def _key_sets(obj, path, out):
    """Add the key set of ``obj`` and of every non-null section below it
    to ``out[path]``; values of a ``_MAPS`` key are checked under ``*``."""
    if isinstance(obj, list):
        for item in obj:
            _key_sets(item, f"{path}[]", out)
    elif isinstance(obj, dict):
        out.setdefault(path, set()).add(frozenset(obj))
        for key, value in obj.items():
            if key not in _MAPS:
                _key_sets(value, f"{path}.{key}", out)
            elif isinstance(value, dict):
                for item in value.values():
                    _key_sets(item, f"{path}.{key}.*", out)


def test_one_key_set_per_record_kind():
    shapes = {}
    for name in SCENARIOS:
        for kind, record in _records(_artifacts(name)):
            if kind.endswith("summary"):
                assert record["schema"] == 2, name
            _key_sets(record, kind, shapes)
    assert {"engine_summary", "fleet_summary", "iteration",
            "request"} <= set(shapes)
    assert {path: sets for path, sets in shapes.items()
            if len(sets) > 1} == {}


def _main(argv):
    if argv[:1] == ["regen"] and len(argv) == 1:
        GOLDENS.mkdir(exist_ok=True)
        for old in GOLDENS.iterdir():
            old.unlink()
        for name, scenario in SCENARIOS.items():
            doc, texts = _stored(scenario())
            (GOLDENS / f"{name}.json").write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n")
            for suffix, text in texts.items():
                (GOLDENS / f"{name}.{suffix}.txt").write_text(text)
        return 0
    if argv[:1] == ["dump"] and len(argv) == 2:
        for name, scenario in SCENARIOS.items():
            out = Path(argv[1]) / name
            out.mkdir(parents=True, exist_ok=True)
            for art_name, art in scenario().items():
                if art[0] == "text":
                    (out / f"{art_name}.txt").write_text(art[1])
                else:
                    full = art[1]
                    if art[0] == "list":
                        full = _listed(full, False)
                        if art[2]:
                            full.sort(key=_dump_order)
                    (out / f"{art_name}.json").write_text(
                        json.dumps(full, indent=1, sort_keys=True) + "\n")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
