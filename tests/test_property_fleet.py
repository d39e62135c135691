"""Property-based tests (hypothesis) for delta-log replication.

The replication invariant the fleet stands on: **a replica that attaches
at any version and replays the delta log converges to the store's exact
state** — same version, same rule-table fingerprint — **and its gateway
enforces packet-for-packet identically to a head-subscribed enforcer**,
no matter what sequence of control-plane edits happened, when the
replica attached, or how its catch-up was staged.

Compaction extends the invariant: folding an arbitrary prefix of an
arbitrary history into a snapshot and converging via
``compact``-then-``catch_up`` must be indistinguishable from replaying
the full history — same fingerprint chain tail, same verdicts — and a
tampered snapshot must raise :class:`ReplicationError` instead of
seeding a forked policy.
"""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.database import DatabaseEntry, SignatureDatabase
from repro.core.encoding import StackTraceEncoder
from repro.core.policy import Policy, PolicyAction, PolicyLevel, PolicyRule
from repro.core.policy_enforcer import PolicyEnforcer
from repro.core.policy_store import (
    DeltaLog,
    GatewayReplica,
    PolicyStore,
    PolicyUpdate,
    ReplicationError,
)
from repro.netstack.ip import IPPacket

APPS = (
    ("aa" * 16, "com.alpha.app", [
        "Lcom/alpha/app/MainActivity;->onClick(Landroid/view/View;)V",
        "Lcom/alpha/app/net/ApiClient;->upload([B)Z",
        "Lcom/flurry/sdk/FlurryAgent;->logEvent(Ljava/lang/String;)V",
    ]),
    ("bb" * 16, "com.beta.app", [
        "Lcom/beta/app/MainActivity;->onClick(Landroid/view/View;)V",
        "Lcom/beta/app/sync/Engine;->push([B)Z",
        "Lcom/mixpanel/android/Tracker;->track(Ljava/lang/String;)V",
    ]),
)

TARGETS = (
    "com/alpha/app", "com/beta/app", "com/flurry", "com/mixpanel/android",
    "com/flurry/sdk/FlurryAgent", APPS[0][2][1], "aa" * 16, ("bb" * 16)[:16],
    "com/present/nowhere",
)

rule_strategy = st.builds(
    PolicyRule,
    action=st.sampled_from(PolicyAction),
    level=st.sampled_from(PolicyLevel),
    target=st.sampled_from(TARGETS),
)

edit_strategy = st.one_of(
    st.tuples(st.just("add"), rule_strategy),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=9)),
    st.tuples(st.just("replace"), st.integers(min_value=0, max_value=9), rule_strategy),
    st.tuples(st.just("default"), st.sampled_from(PolicyAction)),
)


def build_database() -> SignatureDatabase:
    database = SignatureDatabase()
    for md5, package, signatures in APPS:
        database.add(
            DatabaseEntry(
                md5=md5, app_id=md5[:16], package_name=package,
                signatures=list(signatures),
            )
        )
    return database


def build_packets():
    encoder = StackTraceEncoder()
    packets = []
    port = 40000
    for md5, _package, signatures in APPS:
        for indexes in [(0,), tuple(range(len(signatures))), (len(signatures) - 1,)]:
            port += 1
            packets.append(
                IPPacket(
                    src_ip="10.10.0.2",
                    dst_ip="203.0.113.9",
                    src_port=port,
                    dst_port=443,
                    payload_size=128,
                    options=encoder.encode_option(md5[:16], indexes),
                )
            )
    return packets


def apply_edit(store: PolicyStore, edit) -> None:
    kind = edit[0]
    update = PolicyUpdate()
    if kind == "add":
        update.add_rule(edit[1])
    elif kind == "remove":
        ids = store.rule_ids()
        if not ids:
            return
        update.remove_rule(ids[edit[1] % len(ids)])
    elif kind == "replace":
        ids = store.rule_ids()
        if not ids:
            return
        update.replace_rule(ids[edit[1] % len(ids)], edit[2])
    else:
        update.set_default(edit[1])
    store.apply(update)


@settings(max_examples=50, deadline=None)
@given(
    initial=st.lists(rule_strategy, max_size=4),
    edits=st.lists(edit_strategy, min_size=1, max_size=10),
    attach_after=st.integers(min_value=0, max_value=10),
    stage_at=st.integers(min_value=0, max_value=10),
)
def test_replay_from_any_version_converges_and_enforces_identically(
    initial, edits, attach_after, stage_at
):
    database = build_database()
    store = PolicyStore.from_policy(Policy(rules=list(initial), name="head"))
    head = PolicyEnforcer(database=database, policy=store.snapshot())
    store.subscribe(head, push=False)
    packets = build_packets()

    # Commit a prefix of the history, then attach the replica at
    # whatever version the store happens to be at.
    attach_after = min(attach_after, len(edits))
    for edit in edits[:attach_after]:
        apply_edit(store, edit)
    replica = GatewayReplica(PolicyEnforcer(database=database), store, name="gw")
    attach_version = replica.version
    assert attach_version == store.version

    # Commit the rest of the history while the replica lags.
    for edit in edits[attach_after:]:
        apply_edit(store, edit)

    # Staged catch-up: stop at an arbitrary intermediate version first,
    # then converge fully — replay must compose across stages.
    target = min(attach_version + (stage_at % (store.version - attach_version + 1)),
                 store.version) if store.version > attach_version else store.version
    replica.catch_up(store.delta_log, target_version=target)
    assert replica.version == target
    replica.catch_up(store.delta_log)

    # Convergence: version and rule-table fingerprint equal the store's.
    assert replica.version == store.version
    assert replica.fingerprint() == store.fingerprint()
    assert replica.verify_against(store)
    assert replica.snapshot().rules == store.snapshot().rules
    assert replica.snapshot().default_action is store.default_action

    # Enforcement: the replica's gateway matches the head-subscribed
    # enforcer packet for packet, verdicts and reasons.
    for packet in packets:
        head_verdict, _ = head.process(packet)
        replica_verdict, _ = replica.enforcer.process(packet)
        assert replica_verdict is head_verdict
        assert (
            replica.enforcer.records[-1].reason == head.records[-1].reason
        )


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(rule_strategy, max_size=4),
    edits=st.lists(edit_strategy, min_size=1, max_size=10),
    compact_at=st.integers(min_value=1, max_value=10),
)
def test_compact_then_catch_up_equals_full_history_replay(
    initial, edits, compact_at
):
    """For any history and any compaction point, snapshot + suffix is
    equivalent to the full log: same fingerprint chain tail, same
    converged state, same verdicts — and tampering is detected."""
    database = build_database()
    store = PolicyStore.from_policy(Policy(rules=list(initial), name="head"))
    head = PolicyEnforcer(database=database, policy=store.snapshot())
    store.subscribe(head, push=False)
    for edit in edits:
        apply_edit(store, edit)
    # remove/replace edits against an empty table commit nothing; the
    # compaction point needs at least one record to fold.
    assume(store.version >= 1)
    full_json = store.delta_log.to_json()
    target = 1 + (compact_at % store.version) if store.version > 1 else 1

    full_log = DeltaLog.from_json(full_json)
    via_history = GatewayReplica.from_log(
        PolicyEnforcer(database=database), full_log, name="full"
    )
    compacted_log = DeltaLog.from_json(full_json)
    snapshot = compacted_log.compact(target)
    via_snapshot = GatewayReplica.from_log(
        PolicyEnforcer(database=database), compacted_log, name="compacted"
    )

    # Same converged state as the store, by both routes.
    for replica in (via_history, via_snapshot):
        assert replica.version == store.version
        assert replica.fingerprint() == store.fingerprint()
        assert replica.snapshot().rules == store.snapshot().rules
    # The surviving suffix is the full log's tail, fingerprint chain
    # intact, and the snapshot carries the chain value at the fold.
    assert [record.fingerprint for record in compacted_log] == [
        record.fingerprint for record in full_log.since(target)
    ]
    assert snapshot.fingerprint == full_log.record(target).fingerprint
    assert via_snapshot.records_applied == 1 + (store.version - target)
    assert via_history.records_applied == store.version + 1

    # Verdict identity across head / full-replay / snapshot-bootstrap.
    for packet in build_packets():
        head_verdict, _ = head.process(packet)
        assert via_history.enforcer.process(packet)[0] is head_verdict
        assert via_snapshot.enforcer.process(packet)[0] is head_verdict

    # A tampered snapshot (content changed, recorded fingerprint kept)
    # must never seed a replica.
    payload = json.loads(compacted_log.to_json())
    payload["snapshot"]["default_action"] = (
        "deny" if payload["snapshot"]["default_action"] == "allow" else "allow"
    )
    tampered = DeltaLog.from_json(json.dumps(payload))
    with pytest.raises(ReplicationError):
        GatewayReplica.from_log(
            PolicyEnforcer(database=database), tampered, name="tampered"
        )


# -- sharded enforcement under churn ---------------------------------------------------
#
# The invariant extends to sharded gateways: for ANY interleaving of
# control-plane edits and packet bursts, a ``ShardedEnforcer`` fed the
# store's deltas — subscribed directly (single gateway) or through a
# ``GatewayReplica`` (fleet gateway) — must enforce every burst exactly
# as a naive enforcer built from the store's current snapshot does, and
# the replica must converge to the store's rule-table fingerprint.

script_strategy = st.lists(
    st.one_of(edit_strategy, st.just("burst")),
    min_size=1,
    max_size=12,
)


@settings(max_examples=20, deadline=None)
@given(initial=st.lists(rule_strategy, max_size=4), script=script_strategy)
def test_sharded_enforcer_matches_naive_under_policy_churn(initial, script):
    from repro.netstack.sharding import ShardedEnforcer

    database = build_database()
    packets = build_packets()
    store = PolicyStore.from_policy(Policy(rules=list(initial), name="head"), name="prop")

    def sharded(policy=None):
        return ShardedEnforcer(
            database=database, policy=policy, num_shards=2, keep_records=False
        )

    direct = sharded(store.snapshot())
    store.subscribe(direct, push=False)
    replica = GatewayReplica(sharded(), store, name="gw")
    store.subscribe_replica(replica)

    def check_burst():
        naive = PolicyEnforcer(
            database=database,
            policy=store.snapshot(),
            compile_policy=False,
            flow_cache_size=0,
            keep_records=False,
        )
        expected = [verdict for verdict, _ in naive.process_batch(packets)]
        for enforcer in (direct, replica.enforcer):
            batch = enforcer.process_batch_timed(packets)
            assert [verdict for verdict, _ in batch.results] == expected

    for step in script:
        if step == "burst":
            check_burst()
        else:
            apply_edit(store, step)
    # A closing burst proves the shards converged on the final policy
    # no matter where the script's last edit landed.
    check_burst()
    assert replica.version == store.version
    assert replica.fingerprint() == store.fingerprint()
