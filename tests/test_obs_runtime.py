"""Observability on the sharded and fleet enforcement paths.

The integration half of the obs suite: a :class:`RuntimeObservability`
attached to a ``ShardedEnforcer`` or a ``GatewayFleet`` must

* keep verdicts identical to uninstrumented and null-registry runs,
* sample enforcer stages from every shard and gateway into the one
  shared registry (gateways added later included),
* sum the sampled stages into a breakdown the profiler renders.
"""

from __future__ import annotations

import pytest

from repro.core.fleet import GatewayFleet
from repro.core.policy import Policy
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.obs import ENFORCER_STAGES, NULL_REGISTRY, RuntimeObservability, render_top


@pytest.fixture(scope="module")
def database():
    return build_signature_database(corpus_apps=4, seed=7)


@pytest.fixture(scope="module")
def replay(database):
    return build_replay(database.entries(), packets=600, flows=32, seed=11)


def make_policy() -> Policy:
    return Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-runtime")


def _verdicts(batch):
    return [verdict for verdict, _ in batch.results]


def _sharded(database, obs=None, shards=2, flow_cache_size=0):
    enforcer = ShardedEnforcer(
        database=database,
        policy=make_policy(),
        num_shards=shards,
        keep_records=False,
        flow_cache_size=flow_cache_size,
    )
    if obs is not None:
        enforcer.attach_obs(obs)
    return enforcer


class TestShardedObs:
    def test_verdict_parity_across_instrumentation_tiers(self, database, replay):
        plain = _sharded(database)
        nulled = _sharded(database, RuntimeObservability(NULL_REGISTRY))
        live = _sharded(database, RuntimeObservability(sample_every=4))
        for start in range(0, len(replay), 200):
            burst = replay[start : start + 200]
            expected = _verdicts(plain.process_batch_timed(burst))
            assert _verdicts(nulled.process_batch_timed(burst)) == expected
            assert _verdicts(live.process_batch_timed(burst)) == expected

    def test_every_shard_samples_into_the_shared_registry(self, database, replay):
        # No flow cache: every packet is decoded and evaluated, so the
        # sampled packets reach every stage but the cache ones.
        obs = RuntimeObservability(sample_every=8)
        enforcer = _sharded(database, obs)
        enforcer.process_batch_timed(replay)
        breakdown = obs.stage_breakdown()
        assert list(breakdown) == ["extract", "decode", "eval"]
        # 600 packets at 1/8 across both shards: one shared tick.
        assert all(samples == len(replay) // 8 for samples, _ in breakdown.values())
        assert all(seconds > 0 for _, seconds in breakdown.values())

    def test_cached_path_reports_cache_stages_in_pipeline_order(self, database, replay):
        obs = RuntimeObservability(sample_every=1)
        enforcer = _sharded(database, obs, flow_cache_size=4096)
        enforcer.process_batch_timed(replay)
        breakdown = obs.stage_breakdown()
        assert list(breakdown) == list(ENFORCER_STAGES)
        # Every packet does a lookup; only misses decode and cache.
        assert breakdown["cache_lookup"][0] == len(replay)
        assert breakdown["cache_put"][0] == enforcer.stats.cache_misses

    def test_null_registry_breakdown_is_empty(self, database, replay):
        obs = RuntimeObservability(NULL_REGISTRY, sample_every=1)
        _sharded(database, obs).process_batch_timed(replay[:100])
        assert obs.stage_breakdown() == {}

    def test_detach_stops_sampling(self, database, replay):
        obs = RuntimeObservability(sample_every=1)
        enforcer = _sharded(database, obs)
        enforcer.process_batch_timed(replay[:50])
        before = obs.stage_breakdown()["extract"][0]
        enforcer.attach_obs(None)
        enforcer.process_batch_timed(replay[50:100])
        assert obs.stage_breakdown()["extract"][0] == before

    def test_render_top_reports_stages_and_stats(self, database, replay):
        obs = RuntimeObservability(sample_every=4)
        enforcer = _sharded(database, obs)
        enforcer.process_batch_timed(replay[:200])
        frame = render_top(obs, title="test obs", stats=enforcer.aggregate_stats())
        assert frame.startswith("test obs — sampling 1/4 packets")
        assert "packets: 200 seen" in frame
        assert "p50 us" in frame and "p99 us" in frame
        for stage in ("extract", "decode", "eval"):
            assert f"\n{stage} " in frame
        assert "cache_lookup" not in frame

    def test_render_top_without_samples(self):
        frame = render_top(RuntimeObservability(), title="idle")
        assert frame.endswith("no stage samples yet")


class TestFleetObs:
    def test_fleet_obs_parity_and_late_joiner_sampling(self, database, replay):
        obs = RuntimeObservability(sample_every=1)
        fleet = GatewayFleet(
            database=database,
            policy=make_policy(),
            num_gateways=2,
            shards_per_gateway=2,
            keep_records=False,
        )
        fleet.attach_obs(obs)
        control = GatewayFleet(
            database=database, policy=make_policy(), num_gateways=2, keep_records=False
        )
        assert _verdicts(fleet.process_batch_timed(replay)) == _verdicts(
            control.process_batch_timed(replay)
        )
        assert obs.stage_breakdown()["extract"][0] == len(replay)
        # A gateway added later reports into the same registry at once.
        late = fleet.add_gateway()
        late.enforcer.process_batch(replay[:10])
        assert obs.stage_breakdown()["extract"][0] == len(replay) + 10
