"""Benchmark: replicated gateway fleet under live policy churn.

Replays a provisioned device fleet's heavy-tailed trace across N
gateway replicas that share one policy store through the serialized
delta log, while an administrator commits rule edits between bursts,
and checks the properties the fleet runtime must hold:

* every replica converges to the store's exact version and rule-table
  fingerprint (verified hash chain, not just a version counter);
* the fleet's stitched verdict sequence is identical to a single
  head-subscribed gateway replaying the same schedule — replication
  never changes what the policy decides;
* convergence lag opens while edits are committed (replicas off the
  live push path) and closes on catch-up replay;
* flow-hash routing spreads the fleet's traffic across every gateway;
* the persistent worker-pool shard backend produces verdicts identical
  to the sequential model, and on multi-core hosts beats it in measured
  wall-clock on the 10k-packet replay; its amortized per-batch IPC cost
  lands in BENCH_fleet.json next to both measured walls;
* a gateway attaching after heavy policy churn bootstraps from the
  compacted log's snapshot in O(suffix) records — never more than
  suffix + 1 — instead of replaying the full history, and still lands
  on the head fingerprint with verdict-identical enforcement.

Run with:  pytest benchmarks/test_bench_fleet.py --benchmark-only
Smoke mode (CI): set FLEET_BENCH_PACKETS to a smaller replay size.
The late-joiner churn depth stays at LATE_JOINER_VERSIONS (default 240,
acceptance floor 200) even in smoke mode — it is control-plane work,
not packet replay.
"""

import os

import pytest

from repro.experiments.benchmeta import record_bench_metadata
from repro.experiments.fleet import (
    available_cpus,
    run_fleet_bench,
    run_late_joiner_bench,
    run_shard_backend_comparison,
)

PACKETS = int(os.environ.get("FLEET_BENCH_PACKETS", "10000"))
DEVICES = max(20, min(120, PACKETS // 80))
GATEWAYS = 3
SHARDS = 2
EDITS = 12 if PACKETS >= 5000 else 4
LATE_JOINER_VERSIONS = int(os.environ.get("LATE_JOINER_VERSIONS", "240"))
COMPACT_EVERY = 50

#: Wall-clock ratio assertions need a replay long enough to drown out
#: scheduler noise on shared CI runners.
timing_sensitive = pytest.mark.skipif(
    PACKETS < 5000,
    reason="relative-throughput assertions are unreliable on short smoke replays",
)

#: Real fork parallelism needs real cores; on a single-CPU host the
#: pool backend can only demonstrate verdict identity, not speedup.
multicore = pytest.mark.skipif(
    available_cpus() < 2,
    reason="multiprocessing speedup needs at least two schedulable CPUs",
)


@pytest.fixture(scope="module")
def fleet_result():
    return run_fleet_bench(
        packets=PACKETS,
        devices=DEVICES,
        gateways=GATEWAYS,
        shards_per_gateway=SHARDS,
        edits=EDITS,
        seed=7,
        backend_packets=0,
    )


@pytest.fixture(scope="module")
def backend_result():
    return run_shard_backend_comparison(packets=PACKETS, shards=4, corpus_apps=6, seed=7)


@pytest.fixture(scope="module")
def late_joiner_result():
    return run_late_joiner_bench(
        versions=LATE_JOINER_VERSIONS,
        compact_every=COMPACT_EVERY,
        packets=min(PACKETS, 2_000),
        corpus_apps=6,
        seed=7,
    )


def test_bench_fleet_sweep(benchmark):
    result = benchmark.pedantic(
        lambda: run_fleet_bench(
            packets=PACKETS,
            devices=DEVICES,
            gateways=GATEWAYS,
            shards_per_gateway=SHARDS,
            edits=EDITS,
            seed=7,
            backend_packets=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.table())
    assert result.packets == PACKETS
    record_bench_metadata(benchmark.extra_info, smoke=PACKETS < 5000)


def test_replicas_converge_to_identical_version(fleet_result):
    versions = set(fleet_result.final_versions.values())
    assert versions == {fleet_result.store_version}
    assert fleet_result.converged  # fingerprint-verified, not just counters


def test_fleet_verdicts_match_single_gateway(fleet_result):
    assert len(fleet_result.fleet_verdicts) == fleet_result.packets
    assert fleet_result.verdicts_match


def test_convergence_lag_opens_and_closes(fleet_result):
    # Replicas were off the live path, so the committed edits opened a
    # real version lag before each catch-up...
    assert all(lag > 0 for lag in fleet_result.max_lag.values())
    # ...and every replica replayed every committed transaction.
    for applied in fleet_result.records_applied.values():
        assert applied == fleet_result.store_version


def test_traffic_spreads_across_all_gateways(fleet_result):
    assert len(fleet_result.per_gateway_packets) == GATEWAYS
    assert sum(fleet_result.per_gateway_packets) == fleet_result.packets
    assert all(count > 0 for count in fleet_result.per_gateway_packets)


def test_catch_up_reuses_interned_rule_parses(fleet_result):
    # Convergence cost must drop replica-over-replica: the delta log's
    # rule strings are parsed once and interned, so with 3 gateways
    # replaying the identical records (plus churn toggles re-committing
    # the same rule texts) catch-up reuses far more parses than it does
    # cold ones.
    hits = fleet_result.catch_up_parse_hits
    misses = fleet_result.catch_up_parse_misses
    assert hits + misses > 0  # the churn schedule replayed add/replace ops
    assert hits > misses


def test_policy_churn_surfaces_hottest_apps(fleet_result):
    # The rotating per-app deny edits must register as per-app cache churn.
    assert fleet_result.top_churn_apps
    assert all(count > 0 for _, count in fleet_result.top_churn_apps)


def test_bench_late_joiner_bootstrap(benchmark, late_joiner_result):
    # The timed body is the attach itself (snapshot bootstrap + suffix
    # replay); the module fixture's full run provides the numbers the
    # BENCH_fleet.json artifact carries across PRs.
    result = benchmark.pedantic(
        lambda: run_late_joiner_bench(
            versions=LATE_JOINER_VERSIONS,
            compact_every=COMPACT_EVERY,
            packets=min(PACKETS, 2_000),
            corpus_apps=6,
            seed=7,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["late_joiner"] = {
        "versions": result.versions,
        "compact_every": result.compact_every,
        "suffix_records": result.suffix_records,
        "bootstrap_records": result.bootstrap_records,
        "full_history_records": result.full_history_records,
        "compacted_log_bytes": result.compacted_log_bytes,
        "full_log_bytes": result.full_log_bytes,
        "bootstrap_wall_s": result.bootstrap_wall_s,
        "full_replay_wall_s": result.full_replay_wall_s,
    }
    print("\n" + result.summary())
    assert result.bootstrap_bound_held


def test_late_joiner_replays_suffix_not_history(late_joiner_result):
    # The acceptance bound: after >= 200 committed versions with
    # compact_every=50, attach cost is at most suffix + 1 records...
    assert late_joiner_result.versions >= 200
    assert late_joiner_result.bootstrap_records <= late_joiner_result.suffix_records + 1
    assert late_joiner_result.suffix_records < COMPACT_EVERY
    # ...while the uncompacted control replays every committed version
    # (plus its genesis bootstrap).
    assert late_joiner_result.full_history_records == late_joiner_result.versions + 1
    assert late_joiner_result.bootstrap_records < late_joiner_result.full_history_records
    # Compaction also bounds what goes over the wire.
    assert late_joiner_result.compacted_log_bytes < late_joiner_result.full_log_bytes


def test_late_joiner_converges_and_matches_head_verdicts(late_joiner_result):
    assert late_joiner_result.converged  # head fingerprint, verified
    assert late_joiner_result.verdicts_match


def test_pool_backend_verdict_identical(backend_result):
    assert backend_result.packets == PACKETS
    # The sequential model and the persistent pool must agree packet
    # for packet.
    assert backend_result.verdicts_match


def test_bench_shard_backends(benchmark, backend_result):
    # The timed body re-runs the two-way comparison; the measured walls
    # and the pool's amortized per-batch IPC cost ride to
    # BENCH_fleet.json in extra_info.
    result = benchmark.pedantic(
        lambda: run_shard_backend_comparison(
            packets=PACKETS, shards=4, corpus_apps=6, seed=7
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["shard_backends"] = {
        "packets": result.packets,
        "batches": result.batches,
        "shards": result.shards,
        "cpus": result.cpus,
        "sequential_wall_s": result.sequential_wall_s,
        "pool_wall_s": result.pool_wall_s,
        "pool_ipc_ms_per_batch": result.pool_ipc_ms_per_batch,
        "verdicts_match": result.verdicts_match,
    }
    print("\n" + result.summary())
    record_bench_metadata(benchmark.extra_info, smoke=PACKETS < 5000)
    assert result.verdicts_match


@timing_sensitive
@multicore
def test_pool_backend_beats_sequential_wall_clock(backend_result):
    # The acceptance bar for the modelled parallel speedup: on
    # multi-core hosts the persistent pool must beat the sequential
    # baseline on actual wall-clock, not just in the model.
    assert backend_result.pool_speedup > 1.0


def test_bench_fleet_pool(benchmark):
    # The gateway-pool fleet run: pipelined bursts against live worker
    # delta pushes, with the measured pipelined wall and pool health
    # counters carried to BENCH_fleet.json.
    result = benchmark.pedantic(
        lambda: run_fleet_bench(
            packets=PACKETS,
            devices=DEVICES,
            gateways=GATEWAYS,
            shards_per_gateway=SHARDS,
            edits=EDITS,
            seed=7,
            backend_packets=0,
            backend="pool",
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["fleet_pool"] = {
        "packets": result.packets,
        "gateways": result.gateways,
        "backend": result.fleet_backend,
        "measured_wall_s": result.fleet_measured_wall_s,
        "modelled_compute_s": result.fleet_wall_s,
        "delta_pushes": result.pool_delta_pushes,
        "worker_crashes": result.pool_worker_crashes,
        "verdicts_match": result.verdicts_match,
    }
    print("\n" + result.table())
    # Replication through long-lived workers must never change what the
    # policy decides.
    assert result.verdicts_match
    assert result.converged
    if result.fleet_backend == "pool":
        assert result.fleet_measured_wall_s > 0.0
        assert result.pool_delta_pushes > 0
