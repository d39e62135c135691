"""Tests for the fleet runtime: delta-log replication, gateway replicas,
the worker-pool shard backend, device fleets and multi-gateway
deployments.

The common thread mirrors the fast-path suites: no matter how the
deployment is scaled out — replicated gateways, pooled shard workers,
staged catch-up — enforcement must stay verdict-identical to one
gateway applying the same policy versions.
"""

import pytest

from repro.core.database import DatabaseEntry, SignatureDatabase
from repro.core.deployment import BorderPatrolDeployment
from repro.core.encoding import StackTraceEncoder
from repro.core.fleet import GatewayFleet
from repro.core.policy import Policy, PolicyAction, PolicyLevel, PolicyRule
from repro.core.policy_enforcer import EnforcerStats, FlowCache, PolicyEnforcer
from repro.core.policy_store import (
    DeltaLog,
    DeltaLogRecord,
    GatewayReplica,
    PolicyStore,
    PolicyUpdate,
    ReplicationError,
)
from repro.netstack.ip import IPPacket
from repro.netstack.netfilter import Verdict
from repro.netstack.sharding import ShardedEnforcer
from repro.runtime.pool import fork_available
from repro.network.topology import EnterpriseNetwork, NetworkConfig
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.fleet import DeviceFleet, DeviceFleetConfig

APP_A_MD5 = "aa" * 16
APP_A_ID = APP_A_MD5[:16]
APP_B_MD5 = "bb" * 16
APP_B_ID = APP_B_MD5[:16]

SIGNATURES_A = [
    "Lcom/alpha/app/MainActivity;->onClick(Landroid/view/View;)V",
    "Lcom/alpha/app/net/ApiClient;->upload([B)Z",
    "Lcom/flurry/sdk/FlurryAgent;->logEvent(Ljava/lang/String;)V",
]
SIGNATURES_B = [
    "Lcom/beta/app/MainActivity;->onClick(Landroid/view/View;)V",
    "Lcom/beta/app/net/Sync;->push([B)Z",
    "Lcom/mixpanel/android/Tracker;->track(Ljava/lang/String;)V",
]

DENY_FLURRY = PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry")
DENY_MIXPANEL = PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/mixpanel")


@pytest.fixture()
def database():
    db = SignatureDatabase()
    db.add(DatabaseEntry(md5=APP_A_MD5, app_id=APP_A_ID, package_name="com.alpha.app",
                         signatures=list(SIGNATURES_A)))
    db.add(DatabaseEntry(md5=APP_B_MD5, app_id=APP_B_ID, package_name="com.beta.app",
                         signatures=list(SIGNATURES_B)))
    return db


def make_packet(app_id, indexes, src_port=40001):
    return IPPacket(
        src_ip="10.10.0.2",
        dst_ip="203.0.113.9",
        src_port=src_port,
        dst_port=443,
        payload_size=256,
        options=StackTraceEncoder().encode_option(app_id, indexes),
    )


def replay_packets(count=24):
    packets = []
    for index in range(count):
        app_id = APP_A_ID if index % 2 == 0 else APP_B_ID
        packets.append(make_packet(app_id, [0, index % 3], src_port=41000 + index % 7))
    return packets


class TestDeltaLog:
    def test_every_commit_appends_one_contiguous_record(self):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        store.apply(PolicyUpdate().remove_rule("r1"))
        log = store.delta_log
        assert log.head_version == store.version == 2
        assert [record.version for record in log] == [1, 2]
        assert log.record(2).ops[0]["op"] == "remove"

    def test_records_carry_resolved_ids_and_rendered_rules(self):
        store = PolicyStore()
        store.apply(PolicyUpdate().add_rule(DENY_FLURRY))
        record = store.delta_log.record(1)
        assert record.ops[0] == {
            "op": "add",
            "id": "r1",
            "rule": '{[deny][library]["com/flurry"]}',
        }
        assert record.fingerprint == store.fingerprint()

    def test_log_json_round_trip(self):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        store.apply(PolicyUpdate().replace_rule("r1", DENY_MIXPANEL))
        restored = DeltaLog.from_json(store.delta_log.to_json())
        assert restored.head_version == store.delta_log.head_version
        assert [record.fingerprint for record in restored] == [
            record.fingerprint for record in store.delta_log
        ]

    def test_non_contiguous_append_rejected(self):
        log = DeltaLog(base_version=3)
        record = DeltaLogRecord(
            version=7, kind="update", reason="", full=False,
            parent_fingerprint="x", fingerprint="y",
        )
        with pytest.raises(ReplicationError):
            log.append(record)

    def test_since_rejects_replicas_older_than_the_log(self):
        store = PolicyStore()
        store.version = 5
        store.delta_log = DeltaLog(base_version=5)
        with pytest.raises(ReplicationError):
            store.delta_log.since(2)

    def test_failed_transaction_appends_nothing(self):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        with pytest.raises(Exception):
            store.apply(PolicyUpdate().remove_rule("r99"))
        assert len(store.delta_log) == 0


class TestGatewayReplica:
    def test_replica_converges_from_any_intermediate_version(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL, rule_id="m"))
        replica.catch_up(store.delta_log)  # converge at v1
        store.apply(PolicyUpdate().remove_rule("m"))
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL, rule_id="m2"))
        assert replica.lag(store.delta_log) == 2
        assert replica.catch_up(store.delta_log) == 2
        assert replica.verify_against(store)

    def test_partial_catch_up_stops_at_target_version(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        for _ in range(3):
            store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert replica.catch_up(store.delta_log, target_version=2) == 2
        assert replica.version == 2
        assert not replica.verify_against(store)

    def test_replica_verdicts_match_head_after_catch_up(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        head = PolicyEnforcer(database=database, policy=store.snapshot())
        store.subscribe(head, push=False)
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        replica.catch_up(store.delta_log)
        for packet in replay_packets():
            assert head.process(packet)[0] is replica.enforcer.process(packet)[0]

    def test_live_subscription_applies_records_synchronously(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.subscribe_replica(replica)
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert replica.version == store.version == 1
        verdict, _ = replica.enforcer.process(make_packet(APP_B_ID, [0, 2]))
        assert verdict is Verdict.DROP

    def test_catch_up_interns_identical_rule_strings(self, database):
        from repro.core.policy_store import RULE_INTERN_CACHE

        store = PolicyStore.from_policy(Policy.allow_all())
        replicas = [
            GatewayReplica(PolicyEnforcer(database=database), store, name=f"gw{i}")
            for i in range(3)
        ]
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        RULE_INTERN_CACHE.clear()
        for replica in replicas:
            replica.catch_up(store.delta_log)
        # One cold parse for the logged rule string; the other two
        # replicas reuse the shared frozen PolicyRule.
        assert RULE_INTERN_CACHE.misses == 1
        assert RULE_INTERN_CACHE.hits == 2
        rules = {replica.snapshot().rules[-1] for replica in replicas}
        assert len(rules) == 1  # value-equal (and in fact the same object)
        assert all(replica.verify_against(store) for replica in replicas)

    def test_replica_uses_surgical_invalidation_not_whole_flush(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        flushes_after_attach = replica.enforcer.stats.cache_invalidations
        # Warm a flow of app A, then edit a rule that touches only app B.
        replica.enforcer.process(make_packet(APP_A_ID, [0, 1]))
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        replica.catch_up(store.delta_log)
        stats = replica.enforcer.stats
        assert stats.cache_invalidations == flushes_after_attach  # no new flush
        assert stats.cache_surgical_invalidations == 1
        replica.enforcer.process(make_packet(APP_A_ID, [0, 1]))
        assert stats.cache_hits == 1  # app A's flow stayed warm

    def test_gapped_record_rejected(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        with pytest.raises(ReplicationError):
            replica.apply_delta(store.delta_log.record(2))

    def test_already_applied_record_is_idempotent(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        record = store.delta_log.record(1)
        assert replica.apply_delta(record) is True
        assert replica.apply_delta(record) is False
        assert replica.version == 1

    def test_diverged_replica_refuses_records(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        # Out-of-band mutation of the replica's shadow table.
        replica._shadow._rules["r1"] = DENY_MIXPANEL
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        with pytest.raises(ReplicationError):
            replica.apply_delta(store.delta_log.record(1))

    def test_update_record_after_sync_record_replays(self, database):
        # Regression: replaying an update that was committed *after* a
        # reset_to used to trip the shadow store's own log-contiguity
        # check (the shadow's log was never re-based at the adopted
        # sync state), killing any catch-up that crossed a full sync.
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.reset_to(Policy.deny_libraries(["com/mixpanel"], name="resync"))
        store.apply(PolicyUpdate().add_rule(DENY_FLURRY, rule_id="again"))
        assert replica.catch_up(store.delta_log) == 2
        assert replica.verify_against(store)

    def test_reset_to_replicates_as_sync_record(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        store.subscribe_replica(replica)
        store.reset_to(Policy.deny_libraries(["com/mixpanel"], name="new"))
        assert replica.version == store.version
        assert replica.verify_against(store)
        verdict, _ = replica.enforcer.process(make_packet(APP_B_ID, [0, 2]))
        assert verdict is Verdict.DROP

    def test_opaque_sync_forces_reattach(self, database):
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
        unserializable = Policy(
            rules=[PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, 'com/"quoted')]
        )
        store.reset_to(unserializable)
        with pytest.raises(ReplicationError):
            replica.catch_up(store.delta_log)


needs_fork = pytest.mark.skipif(not fork_available(), reason="the pool backend needs fork")


class TestPoolBackend:
    """Records, stats and telemetry of pool-backed shards fold back into
    the parent exactly as the sequential backend would leave them."""

    def test_unknown_backend_rejected(self, database):
        # "process" named a removed backend; the pool is the parallel one.
        for backend in ("threads", "process"):
            with pytest.raises(ValueError, match="unknown shard backend"):
                ShardedEnforcer(database=database, num_shards=2, backend=backend)

    @needs_fork
    def test_pool_stats_and_records_fold_back_into_parent(self, database):
        pooled = ShardedEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_shards=2,
            backend="pool",
        )
        packets = replay_packets(30)
        pooled.process_batch_timed(packets)
        stats = pooled.aggregate_stats()
        assert stats.packets_seen == len(packets)
        assert stats.packets_allowed + stats.packets_dropped == len(packets)
        assert len(pooled.records) == len(packets)
        assert [r.packet_id for r in pooled.records] == sorted(
            r.packet_id for r in pooled.records
        )
        pooled.close()

    @needs_fork
    def test_pool_batches_publish_to_audit_sink_without_keep_records(self, database):
        from repro.telemetry.pipeline import TelemetryPipeline

        pooled = ShardedEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_shards=2,
            backend="pool",
            keep_records=False,
        )
        pipeline = TelemetryPipeline(window_packets=256)
        pooled.attach_audit_sink(pipeline, "gw0")
        packets = replay_packets(30)
        pooled.process_batch_timed(packets)
        # The data plane's publish contract holds across the fork even
        # though nothing is stored: the workers capture their batches
        # and the parent republishes them.
        assert pipeline.records_seen == len(packets)
        assert len(pooled.records) == 0
        # ...and capturing must not flip keep_records in the worker:
        # that would steer the decision path into decoding signatures,
        # publishing different records (and stats) than the sequential
        # backend does under the identical configuration.
        sequential = ShardedEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_shards=2,
            keep_records=False,
        )
        twin = TelemetryPipeline(window_packets=256)
        sequential.attach_audit_sink(twin, "gw0")
        sequential.process_batch_timed(packets)
        assert pooled.aggregate_stats().full_decodes == (
            sequential.aggregate_stats().full_decodes
        )
        assert pipeline.aggregator.snapshot() == twin.aggregator.snapshot()
        pooled.close()

    @needs_fork
    def test_pool_workers_never_publish_into_their_sink_copies(self, database, tmp_path):
        from repro.telemetry.audit import AuditLog
        from repro.telemetry.pipeline import TelemetryPipeline

        # With keep_records=True a worker running its inherited sink copy
        # would make a spooling AuditLog behind the sink write segment
        # files from inside the fork that collide with the parent's,
        # corrupting the round-trip.
        pooled = ShardedEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_shards=2,
            backend="pool",
            keep_records=True,
        )
        pipeline = TelemetryPipeline(
            window_packets=256,
            audit_log=AuditLog(spool_dir=tmp_path, segment_records=4),
        )
        pooled.attach_audit_sink(pipeline, "gw0")
        packets = replay_packets(30)
        pooled.process_batch_timed(packets)
        pooled.close()
        pipeline.flush()
        assert pipeline.records_seen == len(packets)
        spooled = AuditLog.load_segments(tmp_path)
        assert sorted(r.packet_id for r in spooled) == sorted(
            p.packet_id for p in packets
        )

    @needs_fork
    def test_pool_batches_publish_past_a_full_record_ring(self, database):
        from repro.telemetry.pipeline import TelemetryPipeline

        pooled = ShardedEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_shards=2,
            backend="pool",
            record_capacity=8,  # far smaller than the replay
        )
        pipeline = TelemetryPipeline(window_packets=256)
        pooled.attach_audit_sink(pipeline, "gw0")
        packets = replay_packets(30)
        pooled.process_batch_timed(packets)
        pooled.process_batch_timed(packets)
        # A full bounded ring keeps a constant length, so a length-based
        # slice in the worker would read as "no new records" and
        # telemetry would silently go blind after the ring wrapped.
        assert pipeline.records_seen == 2 * len(packets)
        # The parent ring still holds (only) the most recent records.
        assert len(pooled.records) == 8 * pooled.num_shards
        pooled.close()

    @needs_fork
    def test_policy_churn_between_pool_batches_takes_effect(self, database):
        # Without an attached control store, an edit between batches
        # reaches the live workers as a full sync.
        store = PolicyStore.from_policy(Policy.deny_libraries(["com/flurry"]))
        pooled = ShardedEnforcer(
            database=database, policy=store.snapshot(), num_shards=2, backend="pool"
        )
        store.subscribe(pooled, push=False)
        packet = make_packet(APP_B_ID, [0, 2])
        assert pooled.process_batch_timed([packet]).results[0][0] is Verdict.ACCEPT
        store.apply(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert pooled.process_batch_timed([packet]).results[0][0] is Verdict.DROP
        pooled.close()

    @needs_fork
    def test_empty_batch_is_fine(self, database):
        pooled = ShardedEnforcer(database=database, num_shards=2, backend="pool")
        batch = pooled.process_batch_timed([])
        assert batch.results == [] and batch.packets == 0
        pooled.close()


class TestChurnStats:
    def test_invalidate_apps_reports_per_app_counts(self):
        cache = FlowCache(capacity=8)
        from repro.core.policy_enforcer import _CachedDecision

        for index, app in enumerate(["a", "a", "b"]):
            cache.put(
                (("flow", index),),
                _CachedDecision(
                    verdict=Verdict.ACCEPT, reason="", app_id=app,
                    package_name=f"com.{app}", signatures=(),
                ),
            )
        removed = cache.invalidate_apps({"a"})
        assert removed == {"com.a": 2}
        assert len(cache) == 1

    def test_eviction_churn_counts_by_package(self, database):
        enforcer = PolicyEnforcer(database=database, flow_cache_size=2)
        for port in (40001, 40002, 40003):
            enforcer.process(make_packet(APP_A_ID, [0], src_port=port))
        assert enforcer.stats.cache_evictions == 1
        assert enforcer.stats.cache_churn_by_app == {"com.alpha.app": 1}

    def test_stats_merge_and_delta(self):
        first = EnforcerStats(packets_seen=3, cache_churn_by_app={"a": 2})
        second = EnforcerStats(packets_seen=4, cache_churn_by_app={"a": 1, "b": 5})
        first.merge(second)
        assert first.packets_seen == 7
        assert first.cache_churn_by_app == {"a": 3, "b": 5}
        delta = first.delta_since(EnforcerStats(packets_seen=3, cache_churn_by_app={"a": 2}))
        assert delta.packets_seen == 4
        assert delta.cache_churn_by_app == {"a": 1, "b": 5}
        assert first.top_churn_apps(limit=1) == [("b", 5)]


class TestGatewayFleet:
    def test_flow_routing_is_stable_and_spreads(self, database):
        fleet = GatewayFleet(database=database, policy=Policy.allow_all(), num_gateways=3)
        packet = make_packet(APP_A_ID, [0])
        assert len({fleet.gateway_index(packet) for _ in range(10)}) == 1
        indices = {
            fleet.gateway_index(make_packet(APP_A_ID, [0], src_port=42000 + i))
            for i in range(64)
        }
        assert len(indices) > 1

    def test_fleet_verdicts_match_single_enforcer(self, database):
        policy = Policy.deny_libraries(["com/flurry"])
        fleet = GatewayFleet(database=database, policy=policy, num_gateways=3,
                             shards_per_gateway=2)
        single = PolicyEnforcer(database=database, policy=policy)
        packets = replay_packets(48)
        batch = fleet.process_batch_timed(packets)
        expected = [single.process(p)[0] for p in packets]
        assert [v for v, _ in batch.results] == expected
        assert sum(batch.gateway_packet_counts) == len(packets)

    def test_live_fleet_converges_on_every_commit(self, database):
        fleet = GatewayFleet(
            database=database, policy=Policy.deny_libraries(["com/flurry"]), num_gateways=2
        )
        fleet.apply_update(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert fleet.policy_versions() == {"gw0": 1, "gw1": 1}
        assert fleet.converged
        assert fleet.lags() == {"gw0": 0, "gw1": 0}

    def test_staged_rollout_lags_then_converges(self, database):
        fleet = GatewayFleet(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_gateways=3,
            live=False,
        )
        fleet.apply_update(PolicyUpdate().add_rule(DENY_MIXPANEL))
        fleet.apply_update(PolicyUpdate().remove_rule("r1"))
        assert fleet.lags() == {"gw0": 2, "gw1": 2, "gw2": 2}
        assert not fleet.converged
        canary = fleet.replicas[0]
        canary.catch_up(fleet.delta_log)
        assert canary.verify_against(fleet.store)
        assert fleet.lags()["gw1"] == 2
        applied = fleet.catch_up()
        assert applied == {"gw0": 0, "gw1": 2, "gw2": 2}
        assert fleet.converged

    def test_set_live_resubscribes_and_converges(self, database):
        fleet = GatewayFleet(
            database=database, policy=Policy.allow_all(), num_gateways=2, live=False
        )
        fleet.apply_update(PolicyUpdate().add_rule(DENY_FLURRY))
        assert not fleet.converged
        fleet.set_live(True)
        assert fleet.converged
        fleet.apply_update(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert fleet.converged

    def test_rejects_both_policy_and_store(self, database):
        with pytest.raises(ValueError):
            GatewayFleet(
                database=database,
                policy=Policy.allow_all(),
                store=PolicyStore(),
                num_gateways=2,
            )


class TestLateJoiningGateway:
    def churn(self, fleet, edits):
        for index in range(edits):
            fleet.apply_update(
                PolicyUpdate().add_rule(
                    PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, f"com/churn{index}"),
                    rule_id=f"c{index}",
                )
            )

    def test_add_gateway_bootstraps_in_suffix_records(self, database):
        fleet = GatewayFleet(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            num_gateways=2,
            compact_every=5,
        )
        self.churn(fleet, 23)
        suffix = len(fleet.delta_log)
        late = fleet.add_gateway()
        assert late.name == "gw2"
        # One snapshot bootstrap + the surviving suffix, not 23 records.
        assert late.records_applied == suffix + 1 <= 6
        assert late.verify_against(fleet.store)
        assert fleet.num_gateways == 3 and fleet.converged

    def test_late_joiner_participates_in_routing_and_live_push(self, database):
        fleet = GatewayFleet(
            database=database, policy=Policy.allow_all(), num_gateways=2,
            compact_every=4,
        )
        self.churn(fleet, 9)
        late = fleet.add_gateway()
        # Live fleet: the next commit converges the late joiner too.
        fleet.apply_update(PolicyUpdate().add_rule(DENY_MIXPANEL, rule_id="post-join"))
        assert fleet.converged
        verdict, _ = late.enforcer.process(make_packet(APP_B_ID, [0, 2]))
        assert verdict is Verdict.DROP
        # Flow hashing now spreads across three gateways.
        indices = {
            fleet.gateway_index(make_packet(APP_A_ID, [0], src_port=42000 + i))
            for i in range(128)
        }
        assert indices == {0, 1, 2}

    def test_late_joiner_publishes_into_attached_telemetry(self, database):
        from repro.telemetry.pipeline import FleetAuditor

        fleet = GatewayFleet(
            database=database, policy=Policy.allow_all(), num_gateways=2
        )
        auditor = FleetAuditor(window_packets=256, buffered=False)
        fleet.attach_telemetry(auditor)
        self.churn(fleet, 3)
        late = fleet.add_gateway()
        # Flows hashed to the new gateway must show up in its pipeline —
        # a late joiner outside the audit stream would blind the
        # fleet-level detectors to a third of the traffic.
        packets = [
            make_packet(APP_A_ID, [0], src_port=42000 + i) for i in range(96)
        ]
        fleet.process_batch(packets)
        assert late.enforcer.stats.packets_seen > 0
        assert auditor.pipelines[late.name].records_seen == (
            late.enforcer.stats.packets_seen
        )

    def test_staged_fleet_leaves_late_joiner_unsubscribed(self, database):
        fleet = GatewayFleet(
            database=database, policy=Policy.allow_all(), num_gateways=2, live=False
        )
        self.churn(fleet, 3)
        late = fleet.add_gateway()
        assert late.verify_against(fleet.store)  # converged at attach...
        fleet.apply_update(PolicyUpdate().add_rule(DENY_MIXPANEL))
        assert late.lag(fleet.delta_log) == 1  # ...but staged afterwards
        fleet.catch_up()
        assert fleet.converged


class TestDeviceFleet:
    @pytest.fixture()
    def corpus_apps(self):
        return CorpusGenerator(CorpusConfig(n_apps=4, seed=7)).generate()

    def test_provisions_devices_with_app_mixes(self, corpus_apps):
        deployment = BorderPatrolDeployment()
        fleet = DeviceFleet(
            deployment, corpus_apps, DeviceFleetConfig(devices=12, seed=7)
        )
        devices = fleet.provision()
        assert len(devices) == 12
        assert deployment.devices == devices
        for provisioned in devices:
            installed = provisioned.device.installed_apps()
            assert 1 <= len(installed) <= 3
        # Every corpus app was enrolled with the offline analyzer once.
        assert len(deployment.database) == len(corpus_apps)

    def test_trace_is_deterministic_and_decodable(self, corpus_apps):
        def build():
            deployment = BorderPatrolDeployment()
            fleet = DeviceFleet(
                deployment, corpus_apps, DeviceFleetConfig(devices=8, seed=11)
            )
            return deployment, fleet.build_trace(200)

        deployment, trace = build()
        _, trace_again = build()
        assert [p.options.to_bytes() for p in trace] == [
            p.options.to_bytes() for p in trace_again
        ]
        encoder = StackTraceEncoder()
        decoded = 0
        for packet in trace:
            tag_bytes = encoder.extract_tag_bytes(packet.options)
            assert tag_bytes is not None
            tag = encoder.decode(tag_bytes)
            entry = deployment.database.lookup_app_id(tag.app_id)
            assert entry is not None
            entry.decode_indexes(tag.indexes)  # raises if out of range
            decoded += 1
        assert decoded == 200

    def test_flows_point_at_registered_servers(self, corpus_apps):
        deployment = BorderPatrolDeployment()
        fleet = DeviceFleet(deployment, corpus_apps, DeviceFleetConfig(devices=6, seed=7))
        for flow in fleet.build_flows():
            assert deployment.network.servers.get(flow.dst_ip) is not None

    def test_rejects_empty_fleet(self, corpus_apps):
        with pytest.raises(ValueError):
            DeviceFleet(BorderPatrolDeployment(), [], DeviceFleetConfig(devices=4))
        with pytest.raises(ValueError):
            DeviceFleet(
                BorderPatrolDeployment(), corpus_apps, DeviceFleetConfig(devices=0)
            )


class TestMultiGatewayDeployment:
    def test_deployment_builds_matching_network_and_fleet(self):
        deployment = BorderPatrolDeployment(num_gateways=3, enforcer_shards=2)
        assert len(deployment.network.gateways) == 3
        assert deployment.fleet is not None
        assert len(deployment.fleet.replicas) == 3
        assert deployment.enforcer is deployment.fleet.replicas[0].enforcer
        # Every gateway got its own enforcement chain.
        for gateway in deployment.network.gateways:
            assert len(gateway.rules()) == 2

    def test_network_gateway_count_mismatch_rejected(self):
        network = EnterpriseNetwork(config=NetworkConfig(num_gateways=2))
        with pytest.raises(ValueError):
            BorderPatrolDeployment(network=network, num_gateways=3)

    def test_shard_backend_is_single_gateway_only(self):
        # Fleet gateways run their shards in-process; a shard backend
        # the fleet would ignore is rejected instead.
        with pytest.raises(ValueError, match="gateway_backend"):
            BorderPatrolDeployment(num_gateways=2, enforcer_shards=2, shard_backend="pool")

    def test_apply_update_converges_every_gateway(self):
        deployment = BorderPatrolDeployment(num_gateways=2)
        deployment.apply_update(PolicyUpdate().add_rule(DENY_FLURRY, rule_id="f"))
        assert deployment.policy_version == 1
        assert deployment.fleet.converged

    def test_add_gateway_grows_network_fleet_and_chains(self):
        deployment = BorderPatrolDeployment(
            policy=Policy.deny_libraries(["com/flurry"]),
            num_gateways=2,
            compact_every=4,
        )
        for index in range(10):
            deployment.apply_update(
                PolicyUpdate().add_rule(
                    PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, f"com/g{index}"),
                    rule_id=f"g{index}",
                )
            )
        suffix = len(deployment.policy_store.delta_log)
        replica = deployment.add_gateway()
        assert replica.records_applied == suffix + 1  # snapshot + suffix
        assert replica.verify_against(deployment.policy_store)
        assert deployment.num_gateways == 3
        assert len(deployment.network.gateways) == 3
        # The new border gateway got its own enforcement chain.
        assert len(deployment.network.gateways[2].rules()) == 2
        # And traffic actually reaches it end to end.
        apps = CorpusGenerator(CorpusConfig(n_apps=3, seed=7)).generate()
        fleet = DeviceFleet(deployment, apps, DeviceFleetConfig(devices=10, seed=7))
        deployment.network.transmit(fleet.build_trace(300))
        assert replica.enforcer.stats.packets_seen > 0

    def test_add_gateway_requires_a_fleet_deployment(self):
        with pytest.raises(ValueError):
            BorderPatrolDeployment().add_gateway()

    def test_end_to_end_transmit_enforces_at_every_gateway(self):
        apps = CorpusGenerator(CorpusConfig(n_apps=3, seed=7)).generate()
        deployment = BorderPatrolDeployment(
            policy=Policy.deny_libraries(["com/flurry", "com/mixpanel/android"]),
            num_gateways=2,
        )
        fleet = DeviceFleet(deployment, apps, DeviceFleetConfig(devices=10, seed=7))
        trace = fleet.build_trace(300)
        report = deployment.network.transmit(trace)
        assert len(report.delivered) + len(report.dropped) == len(trace)
        # Both gateways saw traffic (flow-hash spread), and drops match
        # what the fleet's own enforcers decided.
        for gateway in deployment.network.gateways:
            queue_numbers = [rule.queue_num or 100 for rule in gateway.rules()]
            assert queue_numbers  # chains installed
        stats = deployment.fleet.aggregate_stats()
        assert stats.packets_seen == len(trace)
        per_replica = [
            replica.enforcer.stats.packets_seen for replica in deployment.fleet.replicas
        ]
        assert all(count > 0 for count in per_replica)


class TestFleetCli:
    def test_fleet_command_reports_convergence_and_verdicts(self, capsys):
        from repro.cli import main

        assert main(
            ["fleet", "--packets", "400", "--devices", "8", "--gateways", "2",
             "--shards", "1", "--edits", "3", "--corpus-apps", "3", "--skip-backend",
             "--skip-late-joiner"]
        ) == 0
        out = capsys.readouterr().out
        assert "single-gateway" in out
        assert "gw0" in out and "gw1" in out
        assert "replicas converged (fingerprint-verified): True" in out
        assert "fleet verdict-identical to single gateway: True" in out
        assert "apps churning the flow cache hardest" in out

    def test_fleet_command_reports_late_joiner_bootstrap_cost(self, capsys):
        from repro.cli import main

        assert main(
            ["fleet", "--packets", "400", "--devices", "8", "--gateways", "2",
             "--shards", "1", "--edits", "3", "--corpus-apps", "3", "--skip-backend",
             "--late-joiner-versions", "60", "--compact-every", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "late joiner after 60 committed versions (compact_every=20):" in out
        assert "bootstrap cost:" in out and "snapshot @v" in out
        assert "uncompacted control: 61 record(s)" in out
        assert "log size on the wire:" in out
        assert "O(suffix) bound held: True" in out
        assert "converged to head fingerprint: True" in out
