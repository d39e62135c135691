"""Benchmark: runtime observability overhead and the latency profile.

Runs the three-variant obs bench (uninstrumented / null-registry /
fully instrumented) over the identical in-process sharded 16-batch
replay and checks the observability layer's contract:

* instrumentation never changes a verdict — parity holds on every run,
  smoke or full;
* the attached-but-null code path costs <= 2% wall and live
  instrumentation <= 5% (timing bars bind only on full-size replays,
  per the suite's ``timing_sensitive`` convention);
* the instrumented run yields the sampled per-stage enforcer
  breakdown (extract / decode / eval with the flow cache off) —
  archived in ``extra_info`` so ``BENCH_obs.json`` is the gateway's
  latency record.

Run with:  pytest benchmarks/test_bench_obs.py --benchmark-only
Smoke mode (CI): set OBS_BENCH_PACKETS to a smaller replay size.
"""

import os

import pytest

from repro.experiments.benchmeta import record_bench_metadata
from repro.experiments.obs import run_obs_bench

PACKETS = int(os.environ.get("OBS_BENCH_PACKETS", "10000"))
SHARDS = 4
BATCHES = 16
ROUNDS = 3 if PACKETS >= 5000 else 2
SMOKE = PACKETS < 5000

#: Overhead ratios need a replay long enough to drown out scheduler
#: noise on shared CI runners; smoke runs pin parity and structure only.
timing_sensitive = pytest.mark.skipif(
    SMOKE,
    reason="relative-overhead assertions are unreliable on short smoke replays",
)


@pytest.fixture(scope="module")
def obs_result():
    return run_obs_bench(
        packets=PACKETS,
        flows=256,
        shards=SHARDS,
        seed=7,
        batches=BATCHES,
        rounds=ROUNDS,
    )


def test_bench_obs_sweep(benchmark, obs_result):
    result = benchmark.pedantic(
        lambda: run_obs_bench(
            packets=PACKETS,
            flows=256,
            shards=SHARDS,
            seed=7,
            batches=BATCHES,
            rounds=1,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + obs_result.table())
    assert result.verdicts_match
    record_bench_metadata(benchmark.extra_info, smoke=SMOKE)
    benchmark.extra_info["obs"] = obs_result.to_dict()


def test_instrumentation_never_changes_a_verdict(obs_result):
    # The layer's first promise: observability is read-only on policy.
    assert obs_result.verdicts_match


def test_stage_breakdown_covers_the_uncached_path(obs_result):
    # flow_cache_size=0: every sampled packet is extracted, decoded and
    # evaluated, and never touches the cache stages.
    assert list(obs_result.stage_seconds) == ["extract", "decode", "eval"]
    assert all(seconds > 0 for seconds in obs_result.stage_seconds.values())


def test_enforcer_stage_sampling_ran(obs_result):
    # 1/32 sampling over the instrumented rounds and the warm-up.
    assert sum(obs_result.enforcer_samples.values()) > 0


@timing_sensitive
def test_null_registry_overhead_within_budget(obs_result):
    # Attached-but-null must be nearly free: a per-packet counter tick.
    assert obs_result.null_overhead_pct <= 2.0


@timing_sensitive
def test_instrumented_overhead_within_budget(obs_result):
    # Live sampled stage metrics: <= 5% of wall.
    assert obs_result.instrumented_overhead_pct <= 5.0
