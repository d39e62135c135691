"""Hardening tests for the gateway fast path.

Covers the three tentpole layers — compiled policies, the conntrack-style
flow cache, and the sharded (queue-balanced) enforcer — plus the
iptables chain semantics they plug into.  The common thread: the fast
path must be behaviourally indistinguishable from the paper's naive
decode-and-evaluate pipeline.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import DatabaseEntry, SignatureDatabase
from repro.core.encoding import StackTraceEncoder
from repro.core.packet_sanitizer import PacketSanitizer
from repro.core.policy import (
    DecodedContext,
    Policy,
    PolicyAction,
    PolicyLevel,
    PolicyRule,
)
from repro.core.policy_enforcer import REASON_MALFORMED_TAG, FlowCache, PolicyEnforcer
from repro.netstack.ip import IPOptions, IPPacket
from repro.netstack.netfilter import (
    Iptables,
    IptablesRule,
    RuleTarget,
    Verdict,
    flow_hash,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.telemetry.detectors import INTEGRITY_REASONS
from repro.telemetry.pipeline import TelemetryPipeline

APP_MD5 = "aabbccdd" * 4
APP_ID = APP_MD5[:16]

SIGNATURES = [
    "Lcom/test/app/MainActivity;->onClick(Landroid/view/View;)V",
    "Lcom/test/app/net/ApiClient;->login(Ljava/lang/String;Ljava/lang/String;)Z",
    "Lcom/test/app/net/ApiClient;->upload([B)Z",
    "Lcom/flurry/sdk/FlurryAgent;->logEvent(Ljava/lang/String;)V",
    "Lcom/squareup/okhttp3/client/HttpClient;->execute(Ljava/lang/String;)V",
]


def build_database() -> SignatureDatabase:
    db = SignatureDatabase()
    db.add(
        DatabaseEntry(
            md5=APP_MD5,
            app_id=APP_ID,
            package_name="com.test.app",
            signatures=list(SIGNATURES),
        )
    )
    return db


@pytest.fixture()
def database():
    return build_database()


def make_packet(indexes, src_port=40001, dst_ip="203.0.113.9", app_id=APP_ID):
    options = StackTraceEncoder().encode_option(app_id, indexes)
    return IPPacket(
        src_ip="10.10.0.2",
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=443,
        payload_size=256,
        options=options,
    )


POLICIES = [
    Policy.allow_all(),
    Policy.deny_libraries(["com/flurry"]),
    Policy(rules=[PolicyRule(PolicyAction.DENY, PolicyLevel.METHOD, SIGNATURES[2])]),
    Policy(rules=[PolicyRule(PolicyAction.DENY, PolicyLevel.HASH, APP_MD5)]),
    Policy(rules=[PolicyRule(PolicyAction.ALLOW, PolicyLevel.LIBRARY, "com/test/app")]),
    Policy(
        rules=[
            PolicyRule(PolicyAction.DENY, PolicyLevel.CLASS, "com/flurry/sdk/FlurryAgent"),
            PolicyRule(PolicyAction.ALLOW, PolicyLevel.HASH, APP_ID),
        ]
    ),
    Policy(default_action=PolicyAction.DENY),
]

STACKS = [(0,), (0, 1), (0, 2), (0, 3), (3,), (0, 1, 4), ()]


class TestCompiledPolicyParity:
    @pytest.mark.parametrize("policy_index", range(len(POLICIES)))
    def test_compiled_evaluation_matches_string_evaluation(self, database, policy_index):
        policy = POLICIES[policy_index]
        compiled_app = policy.compile(database).for_app(APP_ID)
        assert compiled_app is not None
        for indexes in STACKS:
            context = DecodedContext(
                app_id=APP_ID,
                signatures=tuple(SIGNATURES[i] for i in indexes),
                app_md5=APP_MD5,
                package_name="com.test.app",
            )
            slow = policy.evaluate(context)
            fast = compiled_app.evaluate_indexes(indexes)
            assert fast.verdict is slow.verdict
            assert fast.reason == slow.reason
            assert fast.matched_rule == slow.matched_rule

    def test_unknown_app_compiles_to_none(self, database):
        compiled = Policy.allow_all().compile(database)
        assert compiled.for_app("ff" * 8) is None

    def test_late_enrolled_app_compiles_on_first_lookup(self, database):
        compiled = Policy.deny_libraries(["com/flurry"]).compile(database)
        other_id = "11" * 8
        assert compiled.for_app(other_id) is None
        database.add(
            DatabaseEntry(
                md5="11" * 16,
                app_id=other_id,
                package_name="com.other.app",
                signatures=list(SIGNATURES),
            )
        )
        # The database generation moved, so the negative result is dropped.
        recompiled = compiled.for_app(other_id)
        assert recompiled is not None
        assert recompiled.evaluate_indexes((3,)).verdict is Verdict.DROP

    def test_uncompilable_rule_falls_back_to_string_path(self, database):
        class ExplodingRule(PolicyRule):
            # Lowering enumerates the app's whole signature table; this
            # rule chokes on a signature the replayed stacks never carry,
            # so only compilation fails — evaluation stays usable.
            def signature_matches(self, signature):
                if "HttpClient" in signature:
                    raise RuntimeError("cannot lower this rule")
                return super().signature_matches(signature)

        policy = Policy(
            rules=[ExplodingRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry")]
        )
        assert policy.compile(database).for_app(APP_ID) is None
        enforcer = PolicyEnforcer(database=database, policy=policy, flow_cache_size=0)
        verdict, _ = enforcer.process(make_packet([0, 3]))
        assert verdict is Verdict.DROP
        assert enforcer.stats.fallback_evals == 1
        assert enforcer.stats.compiled_evals == 0


class TestFlowCache:
    def test_repeat_packets_hit_the_cache(self, database):
        enforcer = PolicyEnforcer(database=database, policy=Policy.deny_libraries(["com/flurry"]))
        for _ in range(5):
            verdict, _ = enforcer.process(make_packet([0, 1]))
            assert verdict is Verdict.ACCEPT
        assert enforcer.stats.cache_misses == 1
        assert enforcer.stats.cache_hits == 4
        assert enforcer.stats.full_decodes == 1

    def test_cached_records_match_uncached_records(self, database):
        cached = PolicyEnforcer(database=database, policy=Policy.deny_libraries(["com/flurry"]))
        naive = PolicyEnforcer(
            database=database,
            policy=Policy.deny_libraries(["com/flurry"]),
            compile_policy=False,
            flow_cache_size=0,
        )
        for _ in range(3):
            packet = make_packet([0, 3])
            cached.process(packet)
            naive.process(packet)
        for fast, slow in zip(cached.records, naive.records):
            assert fast == slow

    def test_different_tag_bytes_on_same_flow_miss(self, database):
        enforcer = PolicyEnforcer(database=database)
        enforcer.process(make_packet([0, 1]))
        enforcer.process(make_packet([0, 2]))
        assert enforcer.stats.cache_misses == 2
        assert enforcer.stats.cache_hits == 0

    def test_lru_eviction_counts(self, database):
        enforcer = PolicyEnforcer(database=database, flow_cache_size=2)
        enforcer.process(make_packet([0], src_port=40001))
        enforcer.process(make_packet([1], src_port=40002))
        enforcer.process(make_packet([2], src_port=40003))  # evicts the first flow
        assert enforcer.stats.cache_evictions == 1
        enforcer.process(make_packet([0], src_port=40001))  # must re-miss
        assert enforcer.stats.cache_misses == 4
        assert len(enforcer.flow_cache) == 2

    def test_set_policy_invalidates_cache_and_changes_verdict(self, database):
        enforcer = PolicyEnforcer(database=database, policy=Policy.allow_all())
        packet = make_packet([0, 3])
        assert enforcer.process(packet)[0] is Verdict.ACCEPT
        assert enforcer.process(packet)[0] is Verdict.ACCEPT
        assert len(enforcer.flow_cache) == 1

        enforcer.set_policy(Policy.deny_libraries(["com/flurry"]))
        assert len(enforcer.flow_cache) == 0
        assert enforcer.stats.cache_invalidations == 1
        # Stale cached ACCEPT must not leak through the policy change.
        assert enforcer.process(packet)[0] is Verdict.DROP

    def test_empty_policy_object_is_kept_by_reference(self, database):
        # Regression: `policy or Policy.allow_all()` silently replaced an
        # *empty* policy (falsy via __len__) with a new object, severing
        # the caller's reference before any rules were added.
        empty = Policy(name="starts-empty")
        enforcer = PolicyEnforcer(database=database, policy=empty)
        assert enforcer.policy is empty

    def test_in_place_add_rule_takes_effect_immediately(self, database):
        # The naive path read the live rule list every packet; the fast
        # path must honour policy.add_rule without an explicit set_policy.
        policy = Policy.allow_all()
        enforcer = PolicyEnforcer(database=database, policy=policy)
        packet = make_packet([0, 3])
        assert enforcer.process(packet)[0] is Verdict.ACCEPT
        assert enforcer.process(packet)[0] is Verdict.ACCEPT  # cached
        policy.add_rule(PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry"))
        assert enforcer.process(packet)[0] is Verdict.DROP
        assert enforcer.stats.cache_invalidations == 1

    def test_in_place_rule_removal_takes_effect_immediately(self, database):
        policy = Policy.deny_libraries(["com/flurry"])
        enforcer = PolicyEnforcer(database=database, policy=policy)
        packet = make_packet([0, 3])
        assert enforcer.process(packet)[0] is Verdict.DROP
        assert enforcer.process(packet)[0] is Verdict.DROP  # cached
        policy.rules.clear()
        # Deleted rules must not keep enforcing out of the caches.
        assert enforcer.process(packet)[0] is Verdict.ACCEPT
        assert enforcer.stats.cache_invalidations == 1

    def test_database_mutation_invalidates_cached_verdicts(self, database):
        enforcer = PolicyEnforcer(database=database)
        packet = make_packet([0])
        assert enforcer.process(packet)[0] is Verdict.ACCEPT
        assert enforcer.process(packet)[0] is Verdict.ACCEPT  # cache hit
        database.remove(APP_MD5)
        # A revoked app must not keep riding its stale cached ACCEPT.
        assert enforcer.process(packet)[0] is Verdict.DROP
        assert enforcer.records[-1].reason == "unknown app hash"
        assert enforcer.stats.cache_invalidations == 1

    def test_clear_records_keeps_stats_and_cache(self, database):
        enforcer = PolicyEnforcer(database=database)
        enforcer.process(make_packet([0]))
        enforcer.clear_records()
        assert enforcer.records == []
        assert enforcer.stats.packets_seen == 1
        assert len(enforcer.flow_cache) == 1

    def test_reset_clears_cache(self, database):
        enforcer = PolicyEnforcer(database=database)
        enforcer.process(make_packet([0]))
        assert len(enforcer.flow_cache) == 1
        enforcer.reset()
        assert len(enforcer.flow_cache) == 0
        assert enforcer.stats.cache_misses == 0

    def test_flow_cache_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlowCache(capacity=0)

    def test_untagged_and_unknown_packets_bypass_the_cache(self, database):
        enforcer = PolicyEnforcer(
            database=database, drop_untagged=False, drop_unknown_apps=False
        )
        untagged = IPPacket(
            src_ip="10.10.0.2", dst_ip="203.0.113.9", src_port=40001, dst_port=443,
            payload_size=64, options=IPOptions(),
        )
        enforcer.process(untagged)
        enforcer.process(make_packet([0], app_id="ee" * 8))
        assert enforcer.stats.untagged_packets == 1
        assert enforcer.stats.unknown_apps == 1
        assert enforcer.stats.cache_hits == 0
        assert len(enforcer.flow_cache) == 0


def malformed_packet(data: bytes, src_port: int) -> IPPacket:
    return IPPacket(
        src_ip="10.10.0.2", dst_ip="203.0.113.9", src_port=src_port, dst_port=443,
        payload_size=64, options=IPOptions.single(0x9E, data),
    )


class TestMalformedTags:
    # A tag shorter than the 8-byte app id, and one whose 2-byte index
    # body has an odd length.
    MALFORMED = (b"\x01\x02\x03", bytes.fromhex(APP_ID) + b"\x00\x01\x02")

    @pytest.mark.parametrize("flow_cache_size", [4096, 0])
    def test_malformed_tag_drops_one_packet_not_the_burst(self, database, flow_cache_size):
        enforcer = PolicyEnforcer(database=database, flow_cache_size=flow_cache_size)
        burst = [
            make_packet([0]),
            malformed_packet(self.MALFORMED[0], 41001),
            malformed_packet(self.MALFORMED[1], 41002),
            make_packet([0], src_port=41003),
        ]
        verdicts = [verdict for verdict, _ in enforcer.process_batch(burst)]
        assert verdicts == [Verdict.ACCEPT, Verdict.DROP, Verdict.DROP, Verdict.ACCEPT]
        stats = enforcer.stats
        assert stats.decode_errors == 2
        assert stats.packets_seen == stats.packets_allowed + stats.packets_dropped == 4
        assert [record.reason for record in enforcer.records][1:3] == [
            REASON_MALFORMED_TAG,
            REASON_MALFORMED_TAG,
        ]

    def test_malformed_decision_is_not_cached(self, database):
        enforcer = PolicyEnforcer(database=database)
        packet = malformed_packet(self.MALFORMED[1], 41004)
        enforcer.process_batch([packet, packet])
        assert len(enforcer.flow_cache) == 0
        assert enforcer.stats.cache_hits == 0
        assert enforcer.stats.decode_errors == 2

    def test_malformed_tag_counts_as_a_decode_failure_in_telemetry(self, database):
        assert REASON_MALFORMED_TAG in INTEGRITY_REASONS
        pipeline = TelemetryPipeline(window_packets=8)
        enforcer = PolicyEnforcer(database=database, keep_records=False)
        enforcer.attach_audit_sink(pipeline)
        enforcer.process(malformed_packet(self.MALFORMED[0], 41005))
        assert pipeline.aggregator.device_integrity("10.10.0.2") == (0, 0, 1)


class TestDistinctDecodedStacks:
    def test_decoded_stacks_to_returns_distinct_stacks_in_first_seen_order(self, database):
        enforcer = PolicyEnforcer(database=database, flow_cache_size=0)
        enforcer.process(make_packet([0, 1]))
        enforcer.process(make_packet([0, 2]))
        enforcer.process(make_packet([0, 1]))  # duplicate of the first stack
        enforcer.process(make_packet([0, 1], dst_ip="203.0.113.77"))
        stacks = enforcer.decoded_stacks_to("203.0.113.9")
        assert len(stacks) == 2
        assert stacks[0] == (SIGNATURES[0], SIGNATURES[1])
        assert stacks[1] == (SIGNATURES[0], SIGNATURES[2])


class TestShardedEnforcer:
    def test_same_flow_always_lands_on_same_shard(self, database):
        sharded = ShardedEnforcer(database=database, num_shards=4)
        packet = make_packet([0, 1])
        assert len({sharded.shard_index(packet) for _ in range(10)}) == 1

    def test_flows_spread_across_shards(self, database):
        sharded = ShardedEnforcer(database=database, num_shards=4)
        indices = {
            sharded.shard_index(make_packet([0], src_port=40000 + i)) for i in range(64)
        }
        assert len(indices) > 1

    def test_aggregate_stats_equal_sum_of_shard_stats(self, database):
        sharded = ShardedEnforcer(
            database=database, policy=Policy.deny_libraries(["com/flurry"]), num_shards=3
        )
        packets = [make_packet([0, i % 4], src_port=41000 + i) for i in range(40)]
        sharded.process_batch(packets)
        total = sharded.aggregate_stats()
        assert total.packets_seen == 40
        assert total.packets_seen == sum(s.stats.packets_seen for s in sharded.shards)
        assert total.packets_dropped == sum(s.stats.packets_dropped for s in sharded.shards)
        assert total.cache_misses == sum(s.stats.cache_misses for s in sharded.shards)
        assert total.full_decodes == sum(s.stats.full_decodes for s in sharded.shards)

    def test_process_batch_preserves_input_order_and_verdicts(self, database):
        policy = Policy.deny_libraries(["com/flurry"])
        sharded = ShardedEnforcer(database=database, policy=policy, num_shards=4)
        single = PolicyEnforcer(database=database, policy=policy)
        packets = [make_packet([0, i % 4], src_port=42000 + i) for i in range(32)]
        results = sharded.process_batch(packets)
        assert [p.packet_id for _, p in results] == [p.packet_id for p in packets]
        expected = [single.process(p)[0] for p in packets]
        assert [verdict for verdict, _ in results] == expected

    def test_process_batch_shape_matches_single_enforcer(self, database):
        """Either enforcer type can sit behind deployment.enforcer."""
        packets = [make_packet([0], src_port=45000 + i) for i in range(8)]
        single = PolicyEnforcer(database=database).process_batch(packets)
        sharded = ShardedEnforcer(database=database, num_shards=3).process_batch(packets)
        assert type(single) is type(sharded) is list
        assert [v for v, _ in single] == [v for v, _ in sharded]

    def test_process_batch_timed_models_parallel_wall_clock(self, database):
        sharded = ShardedEnforcer(database=database, num_shards=4)
        packets = [make_packet([0, i % 4], src_port=46000 + i) for i in range(32)]
        batch = sharded.process_batch_timed(packets)
        assert batch.packets == 32
        assert sum(batch.shard_packet_counts) == 32
        assert batch.parallel_wall_s <= batch.serial_wall_s

    def test_unfilled_positions_raise_instead_of_silent_loss(self, database, monkeypatch):
        # A shard handing back no verdict used to be filtered out of the
        # stitched results: the burst shrank silently.
        sharded = ShardedEnforcer(database=database, num_shards=2)
        packets = [make_packet([0], src_port=47000 + i) for i in range(16)]
        lost = [i for i, p in enumerate(packets) if sharded.shard_index(p) == 1]
        assert lost and len(lost) < len(packets)
        monkeypatch.setattr(sharded.shards[1], "process_batch", lambda packets: [])
        with pytest.raises(RuntimeError, match=f"lost {len(lost)} of 16") as excinfo:
            sharded.process_batch_timed(packets)
        assert f"positions {lost[0]}, " in str(excinfo.value)

    def test_set_policy_propagates_to_every_shard(self, database):
        sharded = ShardedEnforcer(database=database, policy=Policy.allow_all(), num_shards=3)
        packets = [make_packet([3], src_port=43000 + i) for i in range(12)]
        for packet in packets:
            assert sharded.process(packet)[0] is Verdict.ACCEPT
        sharded.set_policy(Policy.deny_libraries(["com/flurry"]))
        for shard in sharded.shards:
            assert len(shard.flow_cache) == 0
        for packet in packets:
            assert sharded.process(packet)[0] is Verdict.DROP

    def test_needs_at_least_one_shard(self, database):
        with pytest.raises(ValueError):
            ShardedEnforcer(database=database, num_shards=0)


class TestShardedDeployment:
    """BorderPatrolDeployment(enforcer_shards=N) end-to-end."""

    @pytest.fixture()
    def sharded_deployment(self, enterprise_network):
        from repro.core.deployment import BorderPatrolDeployment

        return BorderPatrolDeployment(network=enterprise_network, enforcer_shards=3)

    def test_gateway_installs_queue_balance_range(self, sharded_deployment):
        rules = sharded_deployment.network.gateway.rules()
        balance = [rule.queue_balance for rule in rules if rule.queue_balance]
        assert balance == [(100, 102)]
        for queue_num in range(100, 103):
            assert sharded_deployment.network.gateway.queue(queue_num).is_bound

    def test_sharded_enforcement_matches_single_queue(self, simple_app, enterprise_network):
        from repro.core.deployment import BorderPatrolDeployment
        from repro.network.topology import EnterpriseNetwork

        apk, behavior = simple_app
        outcomes = {}
        for shards in (1, 3):
            network = EnterpriseNetwork()
            for endpoint in sorted(behavior.endpoints()):
                network.add_server(endpoint)
            deployment = BorderPatrolDeployment(network=network, enforcer_shards=shards)
            device = deployment.provision_device(name=f"dev-{shards}")
            process = deployment.install_and_launch(device, apk, behavior)
            deployment.set_policy(Policy.deny_libraries(["com/flurry"]))
            outcomes[shards] = {
                name: process.invoke(name).completed
                for name in ("login", "upload", "analytics")
            }
        assert outcomes[1] == outcomes[3]
        assert outcomes[3]["login"] and not outcomes[3]["analytics"]

    def test_deployment_reset_clears_every_shard(self, sharded_deployment, simple_app):
        apk, behavior = simple_app
        device = sharded_deployment.provision_device()
        process = sharded_deployment.install_and_launch(device, apk, behavior)
        process.invoke("login")
        assert sharded_deployment.enforcer.stats.packets_seen > 0
        sharded_deployment.reset_observations()
        assert sharded_deployment.enforcer.stats.packets_seen == 0


class TestIptablesChainSemantics:
    def test_accept_target_stops_chain_before_later_queue(self, database):
        class NeverCalled:
            def process(self, packet):  # pragma: no cover - must not run
                raise AssertionError("ACCEPT target must end the chain")

        table = Iptables()
        table.append_rule(IptablesRule(target=RuleTarget.ACCEPT, dst_port=443))
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=1))
        table.bind_queue(1, NeverCalled())
        verdict, _, latency = table.process(make_packet([0]))
        assert verdict is Verdict.ACCEPT
        assert latency == 0.0

    def test_chained_enforcer_and_sanitizer_queues(self, database):
        table = Iptables()
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=1))
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=2))
        enforcer = PolicyEnforcer(database=database, policy=Policy.allow_all())
        sanitizer = PacketSanitizer()
        table.bind_queue(1, enforcer, latency_ms=0.5)
        table.bind_queue(2, sanitizer, latency_ms=0.25)
        verdict, out, latency = table.process(make_packet([0, 1]))
        assert verdict is Verdict.ACCEPT
        assert not out.has_options  # sanitizer ran after the enforcer accepted
        assert latency == pytest.approx(0.75)

    def test_enforcer_drop_skips_sanitizer(self, database):
        table = Iptables()
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=1))
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=2))
        enforcer = PolicyEnforcer(database=database, policy=Policy.deny_libraries(["com/flurry"]))
        sanitizer = PacketSanitizer()
        table.bind_queue(1, enforcer)
        table.bind_queue(2, sanitizer)
        verdict, out, _ = table.process(make_packet([0, 3]))
        assert verdict is Verdict.DROP
        assert out.has_options  # never reached the sanitizer
        assert sanitizer.stats.packets_seen == 0

    def test_unbound_queue_fails_open_mid_chain(self, database):
        table = Iptables()
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=1))
        table.append_rule(IptablesRule(target=RuleTarget.QUEUE, queue_num=2))
        sanitizer = PacketSanitizer()
        table.bind_queue(2, sanitizer, latency_ms=0.5)
        verdict, out, latency = table.process(make_packet([0]))
        assert verdict is Verdict.ACCEPT
        assert not out.has_options
        assert latency == pytest.approx(0.5)

    def test_queue_balance_routes_flows_deterministically(self, database):
        table = Iptables()
        table.append_rule(
            IptablesRule(target=RuleTarget.QUEUE, queue_balance=(10, 13))
        )
        sharded = ShardedEnforcer(database=database, num_shards=4)
        table.bind_queue_balance(10, sharded.shards, latency_ms=0.1)
        packets = [make_packet([0], src_port=44000 + i) for i in range(50)]
        for packet in packets:
            expected_queue = 10 + flow_hash(packet) % 4
            verdict, _, latency = table.process(packet)
            assert verdict is Verdict.ACCEPT
            assert latency == pytest.approx(0.1)
            assert table.queue(expected_queue).stats.received >= 1
        received = sum(table.queue(q).stats.received for q in range(10, 14))
        assert received == 50
        # Flow-hash routing and shard routing agree, so every shard's
        # packet count equals its queue's packet count.
        for offset, shard in enumerate(sharded.shards):
            assert shard.stats.packets_seen == table.queue(10 + offset).stats.received

    def test_queue_balance_range_validation(self):
        with pytest.raises(ValueError):
            Iptables().append_rule(
                IptablesRule(target=RuleTarget.QUEUE, queue_balance=(5, 3))
            )


# -- differential: the enforcement loop vs the naive pipeline -----------------------

UNKNOWN_ID = "ee" * 8
FLURRY_RULE = PolicyRule(PolicyAction.DENY, PolicyLevel.LIBRARY, "com/flurry")


def enroll_unknown_app(db: SignatureDatabase) -> None:
    db.add(
        DatabaseEntry(
            md5=UNKNOWN_ID * 2, app_id=UNKNOWN_ID, package_name="com.late.app",
            signatures=list(SIGNATURES),
        )
    )


def packet_pool() -> list[IPPacket]:
    """Repeated flows plus every integrity-failure shape, built once so
    every enforcer sees the very same packet objects (and packet ids)."""
    pool = [
        make_packet(stack, src_port=42000 + flow)
        for flow in range(3)
        for stack in ((0,), (0, 1), (0, 3), (3,))
    ]
    pool.append(
        IPPacket(
            src_ip="10.10.0.2", dst_ip="203.0.113.9", src_port=42100, dst_port=443,
            payload_size=64, options=IPOptions(),
        )
    )
    pool.append(make_packet([0, 3], src_port=42101, app_id=UNKNOWN_ID))
    pool.append(make_packet([0, 99], src_port=42102))  # index out of range
    pool.extend(
        malformed_packet(data, 42103 + offset)
        for offset, data in enumerate(TestMalformedTags.MALFORMED)
    )
    return pool


POOL_SIZE = len(packet_pool())
bursts_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=24),
        st.sampled_from(["none", "add_rule", "enroll"]),
    ),
    min_size=1,
    max_size=6,
)

#: Counters a naive (uncompiled, uncached) enforcer shares with the fast
#: path; cache and compilation counters legitimately differ.
SHARED_COUNTERS = (
    "packets_seen", "packets_allowed", "packets_dropped",
    "untagged_packets", "unknown_apps", "decode_errors",
)


class _ListSink:
    def __init__(self) -> None:
        self.records = []

    def publish(self, record, source: str = "") -> None:
        self.records.append((record, source))


class _SampleLog:
    """Stands in for EnforcerObservability: keeps every sampled packet's marks."""

    def __init__(self, sample_every: int) -> None:
        self.sample_every = sample_every
        self.samples: list[list[str]] = []

    def record(self, started, marks) -> None:
        self.samples.append([stage for stage, _ in marks])


class TestEnforcementLoopDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        script=bursts_strategy,
        keep_records=st.booleans(),
        with_sink=st.booleans(),
    )
    def test_batch_matches_naive_and_per_packet(self, script, keep_records, with_sink):
        db = build_database()
        policy = Policy.allow_all()
        pool = packet_pool()
        naive = PolicyEnforcer(database=db, policy=policy, compile_policy=False,
                               flow_cache_size=0)
        batch, single = (
            PolicyEnforcer(database=db, policy=policy, keep_records=keep_records)
            for _ in range(2)
        )
        sinks = []
        if with_sink:
            for enforcer in (batch, single):
                sinks.append(_ListSink())
                enforcer.attach_audit_sink(sinks[-1], "gw")
        for positions, edit in script:
            burst = [pool[position] for position in positions]
            expected = naive.process_batch(burst)
            assert batch.process_batch(burst) == expected
            assert [single.process(packet) for packet in burst] == expected
            if edit == "add_rule":
                policy.add_rule(FLURRY_RULE)
            elif edit == "enroll" and db.lookup_app_id(UNKNOWN_ID) is None:
                enroll_unknown_app(db)
        # Per-packet process is a one-packet burst: every counter agrees.
        assert batch.stats == single.stats
        for name in SHARED_COUNTERS:
            assert getattr(batch.stats, name) == getattr(naive.stats, name), name
        if keep_records:
            assert list(batch.records) == list(single.records) == list(naive.records)
        else:
            assert len(batch.records) == len(single.records) == 0
        if with_sink:
            assert sinks[0].records == sinks[1].records
            assert len(sinks[0].records) == batch.stats.packets_seen
            published = [record for record, _ in sinks[0].records]
            if keep_records:
                assert published == list(batch.records)
            # Without kept records the compiled path skips the signature
            # decode; every other field matches the naive record.
            assert [replace(r, signatures=()) for r in published] == [
                replace(r, signatures=()) for r in naive.records
            ]

    def test_policy_edit_inside_a_burst_applies_to_the_next_packet(self):
        # A sink that edits the live policy while the burst is running:
        # the per-packet mutation check must catch it before packet two.
        policy = Policy.allow_all()
        enforcer = PolicyEnforcer(database=build_database(), policy=policy)

        class EditingSink:
            def publish(self, record, source=""):
                if not policy.rules:
                    policy.add_rule(FLURRY_RULE)

        enforcer.attach_audit_sink(EditingSink())
        burst = [make_packet([0, 3]), make_packet([0, 3])]  # one flow, two packets
        verdicts = [verdict for verdict, _ in enforcer.process_batch(burst)]
        assert verdicts == [Verdict.ACCEPT, Verdict.DROP]

    def test_enroll_app_applies_to_the_next_packet(self):
        db = build_database()
        enforcer = PolicyEnforcer(database=db)
        known = make_packet([0])
        late = make_packet([0], src_port=42200, app_id=UNKNOWN_ID)

        def run(burst):
            return [verdict for verdict, _ in enforcer.process_batch(burst)]

        assert run([known, late]) == [Verdict.ACCEPT, Verdict.DROP]
        enroll_unknown_app(db)
        assert run([late, known]) == [Verdict.ACCEPT, Verdict.ACCEPT]
        # The generation move flushed the cache: the known flow re-missed.
        assert enforcer.stats.cache_invalidations == 1
        assert enforcer.stats.cache_hits == 0
        assert enforcer.stats.cache_misses == 4

    @settings(max_examples=60, deadline=None)
    @given(
        sample_every=st.integers(min_value=1, max_value=9),
        positions=st.lists(st.integers(min_value=0, max_value=POOL_SIZE - 1), max_size=80),
        cuts=st.lists(st.integers(min_value=0, max_value=80), max_size=5),
    )
    def test_obs_samples_every_kth_packet_across_bursts(self, sample_every, positions, cuts):
        pool = packet_pool()
        packets = [pool[position] for position in positions]
        enforcer = PolicyEnforcer(database=build_database(), keep_records=False)
        obs = _SampleLog(sample_every)
        enforcer.attach_observability(obs)
        bounds = sorted({0, len(packets), *(cut for cut in cuts if cut < len(packets))})
        for start, stop in zip(bounds, bounds[1:]):
            enforcer.process_batch(packets[start:stop])
        assert len(obs.samples) == len(packets) // sample_every
        stats = enforcer.stats
        assert stats.packets_seen == len(packets)
        paths = (
            ["extract"],  # untagged
            ["extract", "cache_lookup"],  # cache hit
            ["extract", "cache_lookup", "decode"],  # integrity failure
            ["extract", "cache_lookup", "decode", "eval", "cache_put"],  # fresh decision
        )
        for marks in obs.samples:
            assert marks in paths
        if sample_every == 1:
            # Every packet sampled: each hit carries exactly the extract
            # and cache_lookup marks; a fresh decision decodes too.
            hits = [marks for marks in obs.samples if marks == ["extract", "cache_lookup"]]
            assert len(hits) == stats.cache_hits
            assert sum("decode" in marks for marks in obs.samples) == stats.cache_misses
