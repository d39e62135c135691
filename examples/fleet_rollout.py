#!/usr/bin/env python3
"""Staged policy rollout across a replicated gateway fleet.

The paper's deployment has one gateway, so a policy change is one
``set_policy`` call.  A fleet of gateways sharing one policy store
changes the operational picture: the administrator commits a transaction
*once*, the store's serialized delta log records it, and each gateway
replica converges by replaying the log — immediately (live
subscription) or whenever operations decides (staged catch-up).

This example walks the canonical canary rollout:

1. three gateway replicas attach to one store and serve traffic;
2. the administrator commits an upload-deny rule — one version, logged;
3. only the canary gateway catches up (the other two keep enforcing the
   old version; their lag is visible and bounded);
4. after the canary's fingerprint verifies against the store, the rest
   of the fleet converges the same way;
5. a rollback is just another logged transaction;
6. the log is compacted (snapshot + suffix) and a late-joining gateway
   bootstraps from the snapshot instead of replaying the history.

Run with:  python examples/fleet_rollout.py
"""

from repro.core.database import DatabaseEntry, SignatureDatabase
from repro.core.encoding import StackTraceEncoder
from repro.core.fleet import GatewayFleet
from repro.core.policy import Policy, PolicyAction, PolicyLevel, PolicyRule
from repro.core.policy_store import PolicyUpdate
from repro.netstack.ip import IPPacket

UPLOAD_SIGNATURE = "Lcom/cloudbox/android/net/ApiClient;->upload([B)Z"
BROWSE_SIGNATURE = "Lcom/cloudbox/android/ui/Browser;->open(Ljava/lang/String;)V"
APP_MD5 = "5f" * 16
APP_ID = APP_MD5[:16]


def build_database() -> SignatureDatabase:
    database = SignatureDatabase()
    database.add(
        DatabaseEntry(
            md5=APP_MD5,
            app_id=APP_ID,
            package_name="com.cloudbox.android",
            signatures=[BROWSE_SIGNATURE, UPLOAD_SIGNATURE],
        )
    )
    return database


def make_packet(indexes, src_port: int) -> IPPacket:
    return IPPacket(
        src_ip="10.10.0.2",
        dst_ip="203.0.113.9",
        src_port=src_port,
        dst_port=443,
        payload_size=512,
        options=StackTraceEncoder().encode_option(APP_ID, indexes),
    )


def print_fleet_state(fleet: GatewayFleet, label: str) -> None:
    lags = fleet.lags()
    print(f"{label}:")
    for name, version in fleet.policy_versions().items():
        print(f"  {name}: policy v{version}, {lags[name]} version(s) behind head")


def main() -> None:
    database = build_database()
    fleet = GatewayFleet(
        database=database,
        policy=Policy.allow_all(name="fleet-baseline"),
        num_gateways=3,
        live=False,  # operations controls when each gateway converges
    )
    upload_packet = make_packet([0, 1], src_port=40001)
    browse_packet = make_packet([0], src_port=40002)

    print_fleet_state(fleet, "fleet attached at v0")
    verdicts = [fleet.process(upload_packet)[0].value for _ in fleet.replicas]
    print(f"uploads before rollout (any gateway): {verdicts[0]}\n")

    # One committed transaction; the log remembers it for every replica.
    delta = fleet.apply_update(
        PolicyUpdate(reason="block cloud-storage uploads").add_rule(
            PolicyRule(
                action=PolicyAction.DENY,
                level=PolicyLevel.METHOD,
                target=UPLOAD_SIGNATURE,
            ),
            rule_id="upload-deny",
        )
    )
    print(f"committed v{delta.version}: {delta.changed_rules[0].render()}")
    print_fleet_state(fleet, "after commit (no gateway converged yet)")

    # Stage 1: canary gateway only.
    canary = fleet.replicas[0]
    canary.catch_up(fleet.delta_log)
    assert canary.verify_against(fleet.store)
    print(f"\ncanary {canary.name} converged, fingerprint verified")
    print(f"  canary drops uploads:   {canary.enforcer.process(upload_packet)[0].value}")
    print(f"  canary keeps browsing:  {canary.enforcer.process(browse_packet)[0].value}")
    laggard = fleet.replicas[1]
    print(f"  {laggard.name} still allows uploads: "
          f"{laggard.enforcer.process(upload_packet)[0].value}")
    print_fleet_state(fleet, "mid-rollout")

    # Stage 2: the rest of the fleet.
    applied = fleet.catch_up()
    print(f"\nfleet catch-up applied: {applied}")
    print_fleet_state(fleet, "after full rollout")
    print(f"fleet converged (fingerprints verified): {fleet.converged}")
    verdicts = {
        replica.name: replica.enforcer.process(upload_packet)[0].value
        for replica in fleet.replicas
    }
    print(f"uploads everywhere: {verdicts}")

    # Rollback is just another transaction in the same log.
    rollback = fleet.apply_update(PolicyUpdate(reason="roll back").remove_rule("upload-deny"))
    fleet.catch_up()
    print(f"\nrolled back at v{rollback.version}; fleet converged: {fleet.converged}")

    # A gateway provisioned months later must not replay the whole
    # history.  Compact the log — the prefix folds into one snapshot
    # carrying the chain's fingerprint — and the late joiner attaches
    # from the serialized log alone: one fingerprint-verified bootstrap
    # plus the surviving suffix, O(suffix) however old the fleet is.
    # (`PolicyStore(compact_every=N)` does this fold automatically.)
    history = fleet.store.version
    snapshot = fleet.store.compact()
    print(
        f"\nlog compacted: snapshot @v{snapshot.version} folds "
        f"{snapshot.compacted_records} record(s); suffix holds {len(fleet.delta_log)}"
    )
    late = fleet.add_gateway()
    print(
        f"late joiner {late.name} attached from the log: applied "
        f"{late.records_applied} record(s) instead of replaying {history} version(s)"
    )
    print(f"late joiner converged (fingerprint verified): {late.verify_against(fleet.store)}")
    print(f"  {late.name} allows uploads post-rollback: "
          f"{late.enforcer.process(upload_packet)[0].value}")

    print("\nserialized delta log (what the next late joiner bootstraps from):")
    print(fleet.delta_log.to_json())


if __name__ == "__main__":
    main()
