"""DP cluster router: determinism, policies, dp=1 identity, aggregation."""

import json

import pytest

from repro.models import TINY_LLAMA, TINY_LLAMA_TP
from repro.obs import validate_chrome_trace
from repro.runtime import RTX_4090, TEST_DEVICE
from repro.serve import (
    CacheError,
    ClusterConfig,
    ClusterEngine,
    EngineConfig,
    Request,
    SchedulerConfig,
    WorkloadConfig,
    generate,
    make_policy,
    serve_cluster,
    serve_workload,
)
from repro.serve.cli import main as cli_main


def _engine_config(num_blocks=64, **sched_kwargs):
    sched = SchedulerConfig(
        max_num_seqs=8, max_num_batched_tokens=128, prefill_chunk=16,
        **sched_kwargs,
    )
    return EngineConfig(page_size=4, num_blocks=num_blocks, scheduler=sched)


def _workload(seed=0, n=24, rate=200.0):
    return WorkloadConfig(
        num_requests=n, seed=seed, arrival_rate=rate,
        prompt_min=16, prompt_max=40, output_min=2, output_max=12,
        prefix_families=3, prefix_len=12,
    )


def _serve(requests, dp, policy, **cluster_kwargs):
    return serve_cluster(
        TINY_LLAMA, TEST_DEVICE, requests,
        ClusterConfig(dp=dp, policy=policy, engine=_engine_config(),
                      **cluster_kwargs),
    )


def _family_trace():
    """Two prompt families with 32-token shared prefixes.  The first
    two arrivals overlap (so least-loaded fallback spreads them); the
    rest are spaced out so every replica is idle — and its prefix cache
    warm — when the router decides."""
    fam_a = tuple(range(1, 33))
    fam_b = tuple(range(101, 133))
    reqs = []
    times = [0.0, 1e-4, 1.0, 1.01, 2.0, 2.01]
    for i, t in enumerate(times):
        prefix = fam_a if i % 2 == 0 else fam_b
        tokens = prefix + tuple(1000 + 10 * i + j for j in range(8))
        reqs.append(Request(
            req_id=i, arrival_s=t, prompt_len=len(tokens),
            output_len=4, prompt_tokens=tokens,
        ))
    return reqs


class TestRouting:
    def test_round_robin_cycles_in_arrival_order(self):
        report = _serve(_family_trace(), dp=3, policy="round_robin")
        assert report.assignments == [
            (0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]

    def test_least_loaded_spreads_simultaneous_arrivals(self):
        reqs = [
            Request(req_id=i, arrival_s=0.0, prompt_len=16, output_len=4)
            for i in range(4)
        ]
        report = _serve(reqs, dp=2, policy="least_loaded")
        # All four arrive at t=0: in-flight feedback alternates replicas.
        assert [idx for _, idx in report.assignments] == [0, 1, 0, 1]

    def test_prefix_affinity_keeps_each_family_on_one_replica(self):
        report = _serve(_family_trace(), dp=2, policy="prefix_affinity")
        owner = dict(report.assignments)
        fam_a_replicas = {owner[i] for i in (0, 2, 4)}
        fam_b_replicas = {owner[i] for i in (1, 3, 5)}
        # After the cold start each family sticks to the replica that
        # cached its prefix, and the two families land on different
        # replicas (the overlapping cold arrivals forced the split).
        assert len(fam_a_replicas) == 1
        assert len(fam_b_replicas) == 1
        assert fam_a_replicas != fam_b_replicas

    def test_prefix_affinity_beats_round_robin_on_hit_rate(self):
        requests = generate(_workload(n=32, rate=400.0))
        aff = _serve(requests, dp=2, policy="prefix_affinity")
        rr = _serve(requests, dp=2, policy="round_robin")
        assert (aff.summary["prefix_cache"]["hit_rate"]
                >= rr.summary["prefix_cache"]["hit_rate"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_policy("fastest_fingers")
        with pytest.raises(ValueError, match="unknown routing policy"):
            ClusterConfig(dp=2, policy="fastest_fingers")

    def test_dp_must_be_positive(self):
        with pytest.raises(ValueError, match="dp must be >= 1"):
            ClusterConfig(dp=0)


class TestDeterminismAndIdentity:
    def test_same_trace_same_assignments_and_report(self):
        r1 = _serve(generate(_workload()), dp=2, policy="prefix_affinity")
        r2 = _serve(generate(_workload()), dp=2, policy="prefix_affinity")
        assert r1.assignments == r2.assignments
        assert r1.to_json(sort_keys=True) == r2.to_json(sort_keys=True)
        r3 = _serve(generate(_workload(seed=1)), dp=2,
                    policy="prefix_affinity")
        assert r1.to_json(sort_keys=True) != r3.to_json(sort_keys=True)

    def test_dp1_replica_report_byte_identical_to_single_engine(self):
        requests = generate(_workload())
        single = serve_workload(
            TINY_LLAMA, TEST_DEVICE, requests, _engine_config())
        crep = _serve(requests, dp=1, policy="round_robin")
        replica = crep.replica_reports[0]
        assert (single.to_json(sort_keys=True)
                == replica.to_json(sort_keys=True))
        assert (json.dumps(single.chrome_trace(), sort_keys=True)
                == json.dumps(replica.chrome_trace(), sort_keys=True))
        # Vacuous balance: one replica is always perfectly balanced.
        assert crep.summary["routing"]["load_balance_entropy"] == 1.0


class TestAggregation:
    def test_fleet_summary_merges_replica_counters(self):
        requests = generate(_workload())
        report = _serve(requests, dp=2, policy="prefix_affinity")
        s = report.summary
        assert s["num_requests"] == len(requests)
        assert s["num_finished"] == len(requests)
        counts = s["routing"]["assignments"]
        assert sum(counts) == len(requests)
        assert len(counts) == 2
        assert 0.0 <= s["routing"]["load_balance_entropy"] <= 1.0
        assert len(s["per_replica"]) == 2
        assert (sum(r["num_requests"] for r in s["per_replica"])
                == len(requests))
        # Fleet cache counters are the per-replica sums, rates recomputed.
        reps = [r.summary["prefix_cache"] for r in report.replica_reports]
        assert s["prefix_cache"]["lookups"] == sum(
            r["lookups"] for r in reps)
        assert s["prefix_cache"]["hits"] == sum(r["hits"] for r in reps)
        assert s["fleet_slo"]["finished"] == len(requests)

    def test_unrouted_replicas_still_report(self):
        # Two spaced same-family requests at dp=3: affinity parks both
        # on one replica; the idle replicas report an empty run.
        fam = tuple(range(1, 33))
        reqs = [
            Request(req_id=i, arrival_s=float(i), prompt_len=36,
                    output_len=4, prompt_tokens=fam + (500 + i, 501, 502, 503))
            for i in range(2)
        ]
        report = _serve(reqs, dp=3, policy="prefix_affinity")
        assert len(report.replica_reports) == 3
        assert report.summary["num_requests"] == 2
        idle = [r for r in report.summary["per_replica"]
                if r["num_requests"] == 0]
        assert len(idle) == 2

    def test_merged_trace_one_process_block_per_replica(self):
        report = _serve(generate(_workload()), dp=2,
                        policy="round_robin")
        trace = validate_chrome_trace(report.chrome_trace())
        pids = {ev["pid"] for ev in trace["traceEvents"]}
        # Replica i owns pid block [16*i, 16*(i+1)).
        assert any(pid < 16 for pid in pids)
        assert any(16 <= pid < 32 for pid in pids)
        assert all(pid < 32 for pid in pids)
        names = {
            ev["args"]["name"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "M" and ev.get("name") == "process_name"
        }
        assert any(n.startswith("replica0 ") for n in names)
        assert any(n.startswith("replica1 ") for n in names)


def test_saturated_prefix_fleet_under_pool_pressure_preempts_and_finishes():
    """A reduced ``serve-fleet-prefix`` (benchmarks/suite) at the block
    count where ``schedule()`` used to raise ``OutOfBlocks``: the prefix
    cache counted cache-only nodes above a still-shared block as
    reclaimable, so the scheduler appended instead of preempting."""
    n = 200
    report = serve_cluster(
        TINY_LLAMA_TP, RTX_4090,
        WorkloadConfig(
            num_requests=n, seed=1, arrival_rate=20000.0,
            prompt_min=32, prompt_max=96, output_min=8, output_max=48,
            prefix_families=6, prefix_len=24,
            vocab_size=TINY_LLAMA_TP.vocab_size,
        ),
        ClusterConfig(dp=2, policy="prefix_affinity", engine=EngineConfig(
            tp=2, page_size=4, num_blocks=160,
            scheduler=SchedulerConfig(max_num_seqs=16,
                                      max_num_batched_tokens=128,
                                      prefill_chunk=32),
        )),
    )  # run() ends with check_no_leaks() on every replica
    for rep in report.replica_reports:
        assert rep.summary["num_finished"] == rep.summary["num_requests"]
        assert rep.summary["kv_pool"]["leaked_blocks"] == 0
        assert rep.summary["preemptions"] > 0
    assert sum(rep.summary["num_finished"]
               for rep in report.replica_reports) == n


def test_cluster_run_starts_fresh_after_a_failed_run():
    """``ClusterEngine.run`` used to resume whatever a failed run left
    behind: replica 0 still had the outgrown request in flight, so the
    next ``run()`` re-raised the *old* request's error."""
    cluster = ClusterEngine(
        TINY_LLAMA, TEST_DEVICE,
        ClusterConfig(dp=2, engine=_engine_config(num_blocks=6)),
    )
    too_long = Request(req_id=0, arrival_s=0.0, prompt_len=8, output_len=40)
    with pytest.raises(CacheError, match="request 0 needs"):
        cluster.run([too_long])
    assert all(e.active_run is None for e in cluster.engines)
    ok = [Request(req_id=i, arrival_s=0.0, prompt_len=6, output_len=4)
          for i in range(1, 5)]
    report = cluster.run(ok)  # report() ends with check_no_leaks()
    assert report.summary["num_finished"] == len(ok)
    for rep in report.replica_reports:
        assert rep.summary["kv_pool"]["leaked_blocks"] == 0
        assert {m.req_id for m in rep.requests} <= {r.req_id for r in ok}


class TestClusterCLIValidation:
    def test_rejects_nonpositive_dp(self):
        with pytest.raises(SystemExit, match="--dp must be >= 1"):
            cli_main(["--dp", "0"])

    def test_rejects_unknown_route(self):
        with pytest.raises(SystemExit, match="not a routing policy"):
            cli_main(["--route", "hashring"])

    def test_rejects_telemetry_with_dp(self):
        with pytest.raises(SystemExit, match="--telemetry"):
            cli_main(["--dp", "2", "--telemetry", "t.json"])
        with pytest.raises(SystemExit, match="--prometheus"):
            cli_main(["--dp", "2", "--prometheus", "m.prom"])

    def test_rejects_hetero_mix_with_dp(self):
        with pytest.raises(SystemExit, match="LLM-only"):
            cli_main(["--dp", "2", "--whisper-frac", "0.5"])
        with pytest.raises(SystemExit, match="LLM-only"):
            cli_main(["--dp", "2", "--denoise-frac", "0.5"])

    def test_route_aliases_accept_short_and_full_names(self):
        from repro.serve.cli import ROUTE_ALIASES, build_parser

        assert ROUTE_ALIASES["rr"] == "round_robin"
        assert ROUTE_ALIASES["lb"] == "least_loaded"
        assert ROUTE_ALIASES["affinity"] == "prefix_affinity"
        args = build_parser().parse_args(["--dp", "2", "--route", "lb"])
        assert args.dp == 2 and args.route == "lb"
