"""Persistent worker-pool runtime: parity, robustness, degradation.

The pool's conformance bar is verdict identity: a ``backend="pool"``
enforcer (or fleet) must produce the identical verdict sequence to the
sequential model packet for packet, across policy churn, worker
crashes, and shared-memory-ring fallbacks.  These tests are tier-1 —
they run in the default ``pytest tests`` sweep, so the parity bar is
enforced on every change, not only in the benchmark suite.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.core.fleet import GatewayFleet
from repro.core.policy import Policy, PolicyAction, PolicyLevel, PolicyRule
from repro.core.policy_enforcer import PolicyEnforcer
from repro.core.policy_store import PolicyStore, PolicyUpdate
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.ip import (
    BORDERPATROL_OPTION_TYPE,
    OPTION_END_OF_LIST,
    IPOption,
    IPOptions,
    IPPacket,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.runtime.pool import WorkerPoolError, fork_available
from repro.runtime.ring import (
    PacketRing,
    RingCodecError,
    decode_batch,
    encode_batch,
    encode_packet,
)

needs_fork = pytest.mark.skipif(
    not fork_available(),
    reason="the pool backend needs the fork start method",
)


@pytest.fixture(scope="module")
def database():
    return build_signature_database(corpus_apps=4, seed=7)


@pytest.fixture(scope="module")
def replay(database):
    return build_replay(database.entries(), packets=400, flows=32, seed=11)


def make_policy() -> Policy:
    return Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="pool-test")


@pytest.fixture()
def policy():
    return make_policy()


def _deny(app_id: str) -> PolicyRule:
    return PolicyRule(action=PolicyAction.DENY, level=PolicyLevel.HASH, target=app_id)


def _verdicts(batch):
    return [verdict for verdict, _ in batch.results]


# -- shared-memory ring codec ----------------------------------------------------------


class TestRingCodec:
    def test_round_trip_preserves_enforcement_fields(self):
        packet = IPPacket(
            src_ip="10.0.0.1",
            dst_ip="203.0.113.9",
            src_port=40001,
            dst_port=443,
            protocol=17,
            payload_size=900,
            options=IPOptions.single(BORDERPATROL_OPTION_TYPE, b"abcd"),
            ttl=17,
            direction="inbound",
            socket_id=12345,
            connection_id=67890,
        )
        [decoded] = decode_batch(encode_batch([packet]))
        for attribute in (
            "src_ip",
            "dst_ip",
            "src_port",
            "dst_port",
            "protocol",
            "payload_size",
            "options",
            "ttl",
            "direction",
            "socket_id",
            "connection_id",
            "packet_id",
            "created_at_ms",
        ):
            assert getattr(decoded, attribute) == getattr(packet, attribute)

    def test_none_ids_survive(self):
        packet = IPPacket(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2)
        [decoded] = decode_batch(encode_batch([packet]))
        assert decoded.socket_id is None and decoded.connection_id is None

    def test_eol_option_byte_is_rejected(self):
        # IPPacket.from_bytes truncates options at EOL, so shipping an
        # EOL through the ring would change what the worker enforces —
        # the codec refuses and the pool falls back to pickling.
        packet = IPPacket(
            src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2,
            options=IPOptions(
                options=(
                    IPOption(option_type=OPTION_END_OF_LIST),
                    IPOption(option_type=BORDERPATROL_OPTION_TYPE, data=b"tag"),
                )
            ),
        )
        with pytest.raises(RingCodecError):
            encode_packet(packet)

    def test_oversize_fields_are_rejected(self):
        oversize = IPPacket(
            src_ip="1" * 300, dst_ip="10.0.0.2", src_port=1, dst_port=2
        )
        with pytest.raises(RingCodecError):
            encode_packet(oversize)

    def test_out_of_range_fixed_fields_are_rejected(self):
        # IPPacket does not validate these fields, and struct.error is
        # NOT RingCodecError — it would bypass the pool's pickle
        # fallback and crash submit instead.
        base = dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2)
        for overrides in (
            {"protocol": 300},
            {"protocol": -1},
            {"packet_id": -5},
            {"packet_id": 1 << 64},
            {"socket_id": 1 << 70},
        ):
            with pytest.raises(RingCodecError):
                encode_packet(IPPacket(**base, **overrides))

    def test_ring_reclaims_released_regions(self):
        ring = PacketRing(size=256)
        blob = b"x" * 100
        first = ring.try_write(blob)
        second = ring.try_write(blob)
        assert first is not None and second is not None
        # Both inflight regions pin the buffer: no room for a third.
        assert ring.try_write(blob) is None
        assert ring.read(first) == blob
        ring.release(first)
        # FIFO reclaim + wraparound: the freed head region is writable
        # again once the oldest inflight region is released.
        assert ring.try_write(blob) is not None
        ring.release(second)
        ring.close()


# -- graceful degradation --------------------------------------------------------------


class TestDegradation:
    @pytest.fixture()
    def no_fork(self, monkeypatch):
        monkeypatch.setattr("multiprocessing.get_all_start_methods", lambda: ["spawn"])

    def test_sharded_enforcer_falls_back_to_sequential(
        self, no_fork, caplog, database, replay, policy
    ):
        with caplog.at_level("WARNING", logger="repro.netstack.sharding"):
            enforcer = ShardedEnforcer(
                database=database, policy=policy, num_shards=2,
                keep_records=False, backend="pool",
            )
        # Construction must not raise: the gateway comes up and enforces
        # sequentially instead.
        assert enforcer.degraded
        assert enforcer.requested_backend == "pool"
        assert enforcer.backend == "sequential"
        assert enforcer.stats.backend_fallbacks == 1
        assert any("degrading to sequential" in message for message in caplog.messages)
        batch = enforcer.process_batch_timed(replay[:50])
        assert batch.backend == "sequential"
        assert len(batch.results) == 50

    def test_degradation_survives_reset(self, no_fork, database, policy):
        enforcer = ShardedEnforcer(
            database=database, policy=policy, num_shards=2,
            keep_records=False, backend="pool",
        )
        enforcer.reset()
        # Fork support is a platform property, not per-run state.
        assert enforcer.degraded
        assert enforcer.backend == "sequential"
        assert enforcer.stats.backend_fallbacks == 1

    def test_fleet_falls_back_to_sequential(self, no_fork, caplog, database, policy):
        with caplog.at_level("WARNING", logger="repro.core.fleet"):
            fleet = GatewayFleet(
                database=database, policy=policy, num_gateways=2,
                live=True, backend="pool", keep_records=False,
            )
        assert fleet.degraded
        assert fleet.requested_backend == "pool"
        assert fleet.backend == "sequential"
        assert fleet.aggregate_stats().backend_fallbacks == 1
        assert any("degrading to sequential" in message for message in caplog.messages)

    def test_degraded_pipelined_bursts_run_synchronously(
        self, no_fork, database, replay, policy
    ):
        # The pipelined API must not resurrect pool workers on a
        # degraded enforcer: bursts run in-process at submit time and
        # collect by token, out of order included.
        enforcer = ShardedEnforcer(
            database=database, policy=policy, num_shards=2,
            keep_records=False, backend="pool",
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential",
        )
        first, second = replay[:50], replay[50:100]
        token_first = enforcer.submit_batch(first)
        token_second = enforcer.submit_batch(second)
        assert enforcer._pool is None  # no workers were spawned
        batch_second = enforcer.collect_batch(token_second)
        batch_first = enforcer.collect_batch(token_first)
        assert batch_first.backend == "sequential"
        assert _verdicts(batch_first) == _verdicts(control.process_batch_timed(first))
        assert _verdicts(batch_second) == _verdicts(control.process_batch_timed(second))
        with pytest.raises(WorkerPoolError):
            enforcer.collect_batch()
        with pytest.raises(WorkerPoolError):
            enforcer.collect_batch(token_first)

    def test_degraded_fleet_pipelined_bursts_run_synchronously(
        self, no_fork, database, replay, policy
    ):
        fleet = GatewayFleet(
            database=database, policy=policy, num_gateways=2,
            live=True, backend="pool", keep_records=False,
        )
        control = GatewayFleet(
            database=database, policy=make_policy(), num_gateways=2,
            live=True, backend="sequential", keep_records=False,
        )
        burst = replay[:60]
        token = fleet.submit_burst(burst)
        assert fleet._pool is None
        result = fleet.collect_burst(token)
        control_result = control.process_batch_timed(burst)
        assert [v for v, _ in result.results] == [v for v, _ in control_result.results]
        with pytest.raises(WorkerPoolError):
            fleet.collect_burst()

    def test_sequential_backend_rejects_pipelined_bursts(self, database, replay, policy):
        # An explicitly sequential enforcer/fleet never asked for
        # pipelining; silently spawning pool workers for it would betray
        # the backend choice.
        enforcer = ShardedEnforcer(
            database=database, policy=policy, num_shards=2,
            keep_records=False, backend="sequential",
        )
        with pytest.raises(ValueError, match="backend='pool'"):
            enforcer.submit_batch(replay[:10])
        with pytest.raises(ValueError, match="backend='pool'"):
            enforcer.collect_batch()
        assert enforcer._pool is None
        fleet = GatewayFleet(
            database=database, policy=make_policy(), num_gateways=2,
            live=True, backend="sequential", keep_records=False,
        )
        with pytest.raises(ValueError, match="backend='pool'"):
            fleet.submit_burst(replay[:10])
        assert fleet._pool is None


# -- pool parity across policy churn ---------------------------------------------------


@needs_fork
class TestShardPoolParity:
    def test_verdict_identity_across_delta_pushes(self, database, replay, policy):
        apps = [entry.app_id for entry in database.entries()]
        updates = [
            PolicyUpdate(reason="deny 0").add_rule(_deny(apps[0]), rule_id="t0"),
            PolicyUpdate(reason="deny 1").add_rule(_deny(apps[1]), rule_id="t1"),
            PolicyUpdate(reason="undo 0").remove_rule("t0"),
        ]

        def run(backend):
            enforcer = ShardedEnforcer(
                database=database, policy=make_policy(), num_shards=2,
                keep_records=False, backend=backend,
            )
            store = PolicyStore.from_policy(make_policy(), name="parity")
            store.subscribe(enforcer, push=False)
            enforcer.attach_control(store)
            verdicts = []
            bursts = [replay[i : i + 100] for i in range(0, len(replay), 100)]
            for index, burst in enumerate(bursts):
                if index < len(updates):
                    store.apply(updates[index])
                verdicts.extend(_verdicts(enforcer.process_batch_timed(burst)))
            stats = enforcer.aggregate_stats()
            enforcer.close()
            return verdicts, stats

        sequential_verdicts, _ = run("sequential")
        pool_verdicts, pool_stats = run("pool")
        assert pool_verdicts == sequential_verdicts
        # The control store gives the surgical record-push path: every
        # version committed while the pool is live reaches each worker
        # as one delta record, never as a pickled snapshot.  The first
        # update lands before the lazily-spawned workers fork (they
        # inherit it at fork), so only the later two are pushed.
        assert pool_stats.pool_delta_pushes == 2 * 2  # live versions x workers
        assert pool_stats.pool_snapshot_syncs == 0
        assert pool_stats.pool_ring_batches > 0

    def test_set_policy_without_control_syncs_snapshots(self, database, replay, policy):
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool",
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential",
        )
        first = replay[:100]
        second = replay[100:200]
        verdicts = _verdicts(enforcer.process_batch_timed(first))
        assert verdicts == _verdicts(control.process_batch_timed(first))
        replacement = Policy.allow_all(name="swap")
        enforcer.set_policy(replacement)
        control.set_policy(replacement)
        assert _verdicts(enforcer.process_batch_timed(second)) == _verdicts(
            control.process_batch_timed(second)
        )
        # No attached store, so the replacement shipped as a full sync.
        assert enforcer.aggregate_stats().pool_snapshot_syncs > 0
        enforcer.close()

    def test_tiny_ring_falls_back_to_pickling(self, database, replay, policy):
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool", ring_bytes=8,
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential",
        )
        burst = replay[:120]
        assert _verdicts(enforcer.process_batch_timed(burst)) == _verdicts(
            control.process_batch_timed(burst)
        )
        stats = enforcer.aggregate_stats()
        assert stats.pool_pickled_batches > 0
        assert stats.pool_ring_batches == 0
        enforcer.close()

    def test_results_carry_original_packet_objects(self, database, replay, policy):
        # The ring codec drops provenance (enforcement never reads it);
        # the parent must stitch verdicts onto its own packet objects so
        # callers keep full-fidelity packets.
        enforcer = ShardedEnforcer(
            database=database, policy=policy, num_shards=2,
            keep_records=False, backend="pool",
        )
        burst = replay[:40]
        batch = enforcer.process_batch_timed(burst)
        assert [packet for _, packet in batch.results] == burst
        assert all(
            returned is original
            for (_, returned), original in zip(batch.results, burst)
        )
        enforcer.close()

    def test_pool_records_match_sequential(self, database, replay, policy):
        def run(backend):
            enforcer = ShardedEnforcer(
                database=database, policy=make_policy(), num_shards=2,
                keep_records=True, backend=backend,
            )
            enforcer.process_batch_timed(replay[:80])
            records = [
                (record.packet_id, record.verdict, record.reason, record.app_id)
                for record in enforcer.records
            ]
            enforcer.close()
            return records

        assert run("pool") == run("sequential")


# -- worker-crash robustness -----------------------------------------------------------


@needs_fork
class TestCrashRecovery:
    def test_killed_worker_respawns_and_replays(self, database, policy):
        # A batch big enough that the worker is still enforcing when the
        # kill lands, so the pending batch must be replayed from the
        # parent's spec on the respawned worker.
        big_replay = build_replay(
            database.entries(), packets=4000, flows=64, seed=13
        )
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool", flow_cache_size=0,
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential", flow_cache_size=0,
        )
        warm = big_replay[:100]
        assert _verdicts(enforcer.process_batch_timed(warm)) == _verdicts(
            control.process_batch_timed(warm)
        )
        token = enforcer.submit_batch(big_replay)
        enforcer._pool.kill_worker(0)
        batch = enforcer.collect_batch(token)
        assert _verdicts(batch) == _verdicts(control.process_batch_timed(big_replay))
        stats = enforcer.aggregate_stats()
        assert stats.pool_worker_crashes == 1
        assert stats.pool_worker_respawns == 1
        assert stats.pool_batches_replayed >= 1
        # The pool keeps enforcing normally after the respawn.
        tail = big_replay[:60]
        assert _verdicts(enforcer.process_batch_timed(tail)) == _verdicts(
            control.process_batch_timed(tail)
        )
        enforcer.close()

    def test_crash_detected_during_submit_replays_once(self, database, policy):
        # The first-detection point here is the non-blocking pump inside
        # the *second* submit's dispatch, not a collect: the revive
        # replays the just-queued batch, and the dispatch must then skip
        # its own trailing send — a double send would enforce the batch
        # twice and abort the burst on the duplicate (out-of-order)
        # result.
        big_replay = build_replay(
            database.entries(), packets=3000, flows=64, seed=19
        )
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool", flow_cache_size=0,
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential", flow_cache_size=0,
        )
        first, second = big_replay[:2000], big_replay[2000:]
        token_first = enforcer.submit_batch(first)
        enforcer._pool.kill_worker(0)
        token_second = enforcer.submit_batch(second)
        batch_first = enforcer.collect_batch(token_first)
        batch_second = enforcer.collect_batch(token_second)
        assert _verdicts(batch_first) == _verdicts(control.process_batch_timed(first))
        assert _verdicts(batch_second) == _verdicts(control.process_batch_timed(second))
        # A tail batch pumps any stray duplicate result out of the pipe:
        # a double-sent replay would surface here as WorkerPoolError.
        tail = big_replay[:80]
        assert _verdicts(enforcer.process_batch_timed(tail)) == _verdicts(
            control.process_batch_timed(tail)
        )
        stats = enforcer.aggregate_stats()
        assert stats.pool_worker_crashes == 1
        assert stats.pool_worker_respawns == 1
        assert stats.pool_batches_replayed >= 1
        enforcer.close()

    def test_reconfigure_refuses_while_bursts_outstanding(self, database, replay, policy):
        # Tearing the pool down with submitted-but-uncollected bursts
        # would silently discard their verdicts; reset/attach must
        # refuse until they are collected.  close() is the explicit
        # discard path and stays allowed.
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool",
        )
        token = enforcer.submit_batch(replay[:40])
        with pytest.raises(WorkerPoolError, match="outstanding"):
            enforcer.reset()
        with pytest.raises(WorkerPoolError, match="outstanding"):
            enforcer.attach_control(
                PolicyStore.from_policy(make_policy(), name="late")
            )
        batch = enforcer.collect_batch(token)
        assert len(batch.results) == 40
        enforcer.reset()  # collected: reconfiguration is fine again
        enforcer.close()

    def test_fleet_reconfigure_refuses_while_bursts_outstanding(
        self, database, replay, policy
    ):
        fleet = GatewayFleet(
            database=database, policy=make_policy(), num_gateways=2,
            live=True, backend="pool", keep_records=False,
        )
        token = fleet.submit_burst(replay[:40])
        with pytest.raises(WorkerPoolError, match="outstanding"):
            fleet.reset()
        with pytest.raises(WorkerPoolError, match="outstanding"):
            fleet.add_gateway()
        assert fleet.num_gateways == 2  # the refused join left no stub
        result = fleet.collect_burst(token)
        assert len(result.results) == 40
        fleet.add_gateway()  # collected: reconfiguration is fine again
        fleet.close()

    def test_fleet_pool_survives_worker_crash(self, database, replay, policy):
        def build(backend):
            return GatewayFleet(
                database=database, policy=make_policy(), num_gateways=2,
                live=True, backend=backend, keep_records=False,
            )

        pool_fleet = build("pool")
        control = build("sequential")
        bursts = [replay[i : i + 100] for i in range(0, len(replay), 100)]
        pool_verdicts, control_verdicts = [], []
        for index, burst in enumerate(bursts):
            token = pool_fleet.submit_burst(burst)
            if index == 1:
                pool_fleet._pool.kill_worker(0)
            result = pool_fleet.collect_burst(token)
            pool_verdicts.extend(verdict for verdict, _ in result.results)
            control_verdicts.extend(
                verdict
                for verdict, _ in control.process_batch_timed(burst).results
            )
        assert pool_verdicts == control_verdicts
        stats = pool_fleet.aggregate_stats()
        assert stats.pool_worker_crashes == 1
        assert stats.pool_worker_respawns == 1
        pool_fleet.close()


# -- deterministic batch failure (poison) and silent-loss guards -----------------------


#: TEST-NET-3 source no replay generator emits; the poisoned enforcer
#: raises on exactly this packet.
_POISON_SRC = "203.0.113.254"


@needs_fork
class TestPoisonAndLossGuards:
    def test_poison_batch_fails_fast_instead_of_replay_looping(
        self, database, replay, policy, monkeypatch
    ):
        # A deterministic enforcement error (as opposed to a worker
        # crash) must NOT leave the failing batch at the head of
        # worker.pending: the revive would replay it into the respawned
        # worker, which dies on it again — an unbounded crash loop.
        # The regression: fail the burst once, keep the pool alive.
        assert all(packet.src_ip != _POISON_SRC for packet in replay)
        original = PolicyEnforcer.process_batch

        def poisoned_process_batch(self, packets):
            if any(packet.src_ip == _POISON_SRC for packet in packets):
                raise RuntimeError("crafted poison packet")
            return original(self, packets)

        # Patched in the parent BEFORE the workers fork, so every forked
        # enforcer inherits the poisoned method.
        monkeypatch.setattr(PolicyEnforcer, "process_batch", poisoned_process_batch)
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool", flow_cache_size=0,
        )
        control = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="sequential", flow_cache_size=0,
        )
        poison = dataclasses.replace(replay[0], src_ip=_POISON_SRC)
        burst = replay[:120] + [poison] + replay[120:240]
        token = enforcer.submit_batch(burst)
        with pytest.raises(WorkerPoolError, match="failed enforcing batch"):
            enforcer.collect_batch(token)
        assert enforcer.aggregate_stats().pool_poisoned_batches == 1
        # The pool keeps enforcing healthy bursts, verdict-identical
        # (the dead worker's EOF is noticed on this pump and respawned).
        tail = replay[240:]
        assert _verdicts(enforcer.process_batch_timed(tail)) == _verdicts(
            control.process_batch_timed(tail)
        )
        # The worker died exactly once on the poison; the respawn never
        # saw the batch again, so the crash count stays at one.
        stats = enforcer.aggregate_stats()
        assert stats.pool_worker_crashes == 1
        assert stats.pool_worker_respawns == 1
        enforcer.close()

    def test_control_plane_worker_error_still_raises_directly(
        self, database, replay, policy, monkeypatch
    ):
        # Non-batch failures (a policy push the worker cannot apply)
        # have no batch to pop; they surface as a plain WorkerPoolError.
        parent_pid = os.getpid()
        original = PolicyEnforcer.set_policy

        def broken_set_policy(self, policy):
            if os.getpid() != parent_pid:  # only the forked workers fail
                raise RuntimeError("worker rejected the policy swap")
            return original(self, policy)

        monkeypatch.setattr(PolicyEnforcer, "set_policy", broken_set_policy)
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool",
        )
        enforcer.process_batch_timed(replay[:40])  # fork the workers
        with pytest.raises(WorkerPoolError, match="failed"):
            enforcer.set_policy(make_policy())
            enforcer.process_batch_timed(replay[:40])
        enforcer.close()

    def test_unfilled_positions_raise_instead_of_silent_loss(
        self, database, replay, policy
    ):
        # collect() used to filter None positions out of the stitched
        # results: a dropped batch shrank the output silently.  Simulate
        # the loss by erasing the burst's outstanding-batch accounting
        # right after submit, so collect sees "complete" with holes.
        enforcer = ShardedEnforcer(
            database=database, policy=make_policy(), num_shards=2,
            keep_records=False, backend="pool",
        )
        token = enforcer.submit_batch(replay[:50])
        pool_burst = enforcer._pool._bursts[token]
        pool_burst.remaining = {}
        with pytest.raises(WorkerPoolError, match="lost") as excinfo:
            enforcer.collect_batch(token)
        message = str(excinfo.value)
        assert f"burst {token} " in message
        assert "positions" in message
        enforcer.close()


# -- stats plumbing --------------------------------------------------------------------


def test_pool_counters_are_merge_safe():
    from repro.core.policy_enforcer import EnforcerStats

    left, right = EnforcerStats(), EnforcerStats()
    left.pool_worker_crashes = 1
    left.pool_ring_batches = 5
    right.pool_worker_crashes = 2
    right.pool_delta_pushes = 3
    right.backend_fallbacks = 1
    left.merge(right)
    assert left.pool_worker_crashes == 3
    assert left.pool_ring_batches == 5
    assert left.pool_delta_pushes == 3
    assert left.backend_fallbacks == 1
