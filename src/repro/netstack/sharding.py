"""Flow-sharded gateway enforcement (``NFQUEUE --queue-balance``).

Real gateways scale the user-space NFQUEUE path by binding a *range* of
queues (``iptables -j NFQUEUE --queue-balance 0:3``) and letting the
kernel spread flows across them by flow hash; one consumer process per
queue then handles its share of the traffic in parallel.

:class:`ShardedEnforcer` reproduces that architecture over the
simulation: N independent :class:`~repro.core.policy_enforcer.PolicyEnforcer`
shards (each with its own compiled policy and flow cache, so shards
share no mutable state — exactly the property that makes the real thing
embarrassingly parallel), a flow-hash router that keeps every packet of
a flow on the same shard, and a :meth:`process_batch_timed` API whose
:class:`BatchResult` models the parallel wall-clock of the bottleneck
shard.

The sharder is itself a :class:`~repro.netstack.netfilter.QueueConsumer`,
so it can be bound to a single queue; bound through
:meth:`~repro.netstack.netfilter.Iptables.bind_queue_balance` instead,
each shard owns its own queue number, mirroring the real deployment.

Every burst runs in-process: the shard groups execute one after another,
and :class:`BatchResult` reports the *measured* wall-clock of the burst
beside the *modelled* parallel wall-clock (the slowest group).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.policy_enforcer import (
    EnforcementRecord,
    EnforcerStats,
    PolicyEnforcer,
    distinct_stacks,
)
from repro.netstack.ip import IPPacket
from repro.netstack.netfilter import Verdict, flow_hash


def check_complete(results: list, what: str) -> list:
    """Return ``results`` if every position holds a verdict, else raise.

    Filtering unfilled positions out would hand back a shorter list that
    reads as "fewer packets" downstream; the error names the evidence.
    """
    if None not in results:
        return results
    missing = [position for position, result in enumerate(results) if result is None]
    preview = ", ".join(str(position) for position in missing[:8])
    if len(missing) > 8:
        preview += ", ..."
    raise RuntimeError(
        f"{what} lost {len(missing)} of {len(results)} result(s) "
        f"(positions {preview}); no verdict came back for them"
    )


@dataclass
class BatchResult:
    """Outcome of one :meth:`ShardedEnforcer.process_batch_timed` burst.

    ``results`` preserves the input packet order.  ``shard_elapsed_s``
    holds the measured processing time each shard spent on its share;
    since shards are independent consumers, the modelled parallel
    wall-clock of the burst is the slowest shard, while a single-queue
    gateway would pay the sum.

    ``measured_wall_s`` is the wall-clock the burst *actually* took:
    the shard groups ran back to back, so it is the sum of the shard
    times plus the routing and stitching around them.
    """

    results: list[tuple[Verdict, IPPacket]]
    shard_elapsed_s: list[float]
    shard_packet_counts: list[int]
    measured_wall_s: float

    @property
    def parallel_wall_s(self) -> float:
        return max(self.shard_elapsed_s, default=0.0)

    @property
    def serial_wall_s(self) -> float:
        return sum(self.shard_elapsed_s)

    @property
    def packets(self) -> int:
        return len(self.results)


class ShardedEnforcer:
    """Hash-balanced fan-out of the Policy Enforcer across N shards."""

    def __init__(
        self,
        database,
        policy=None,
        num_shards: int = 4,
        **enforcer_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one enforcer shard")
        self.num_shards = num_shards
        self.shards: list[PolicyEnforcer] = [
            PolicyEnforcer(database=database, policy=policy, **enforcer_kwargs)
            for _ in range(num_shards)
        ]

    # -- policy management -----------------------------------------------------------

    @property
    def policy(self):
        return self.shards[0].policy

    @property
    def database(self):
        return self.shards[0].database

    def set_policy(self, policy) -> None:
        """Swap the policy on every shard (compiles and flushes each cache)."""
        for shard in self.shards:
            shard.set_policy(policy)

    def sync_policy(self, policy, version: int) -> None:
        """Full control-plane resync, broadcast to every shard."""
        for shard in self.shards:
            shard.sync_policy(policy, version)

    def apply_policy_delta(self, delta) -> None:
        """Versioned broadcast of a control-plane delta.

        Every shard applies the same
        :class:`~repro.core.policy_store.PolicyDelta` (each patches its
        own compiled policy and surgically invalidates its own flow
        cache), so after the loop all shards have converged to
        ``delta.version`` — see :attr:`policy_version`.
        """
        for shard in self.shards:
            shard.apply_policy_delta(delta)

    @property
    def policy_version(self) -> int:
        """The policy version every shard has converged to.

        Raises if the shards have somehow diverged — with the
        synchronous broadcast of :meth:`apply_policy_delta` that would
        mean a shard was policy-edited behind the sharder's back.
        """
        versions = {shard.policy_version for shard in self.shards}
        if len(versions) > 1:
            raise RuntimeError(
                f"enforcer shards diverged across policy versions: {sorted(versions)}"
            )
        return next(iter(versions))

    def invalidate_caches(self) -> None:
        for shard in self.shards:
            shard.invalidate_caches()

    # -- telemetry ---------------------------------------------------------------------

    def attach_audit_sink(self, sink, source: str | None = None) -> None:
        """Publish every shard's decisions into one gateway-level sink.

        All shards share the gateway's source label: telemetry
        aggregates per gateway, and inside a gateway the shards are one
        logical enforcement point.
        """
        for shard in self.shards:
            shard.attach_audit_sink(sink, source)

    # -- observability -----------------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Attach (or detach, with ``None``) a
        :class:`~repro.obs.instrument.RuntimeObservability`.

        Every shard gets sampled per-stage enforcement latency, all
        feeding the one shared registry.
        """
        enforcer_obs = None if obs is None else obs.enforcer
        for shard in self.shards:
            shard.attach_observability(enforcer_obs)

    # -- flow routing ------------------------------------------------------------------

    def shard_index(self, packet: IPPacket) -> int:
        """The shard this packet's flow is pinned to (stable per flow)."""
        return flow_hash(packet) % self.num_shards

    def shard_for(self, packet: IPPacket) -> PolicyEnforcer:
        return self.shards[self.shard_index(packet)]

    # -- QueueConsumer interface --------------------------------------------------------

    def process(self, packet: IPPacket) -> tuple[Verdict, IPPacket]:
        return self.shard_for(packet).process(packet)

    def process_batch(self, packets: list[IPPacket]) -> list[tuple[Verdict, IPPacket]]:
        """Process a burst, preserving input order.

        Same signature and return shape as
        :meth:`~repro.core.policy_enforcer.PolicyEnforcer.process_batch`,
        so either enforcer can sit behind
        ``BorderPatrolDeployment.enforcer``; use
        :meth:`process_batch_timed` for the per-shard wall-clock model.
        """
        return self.process_batch_timed(packets).results

    def process_batch_timed(self, packets: list[IPPacket]) -> BatchResult:
        """Process a burst shard-by-shard, modelling per-shard wall-clock.

        Packets are grouped by flow shard and the verdicts are stitched
        back into input order.  Each group is processed on its shard in
        one timed run (the simulation executes shards sequentially, but
        the groups are independent, so the slowest group is the
        parallel-deployment bottleneck).
        """
        groups: list[list[int]] = [[] for _ in range(self.num_shards)]
        for position, packet in enumerate(packets):
            groups[self.shard_index(packet)].append(position)

        results: list[tuple[Verdict, IPPacket] | None] = [None] * len(packets)
        elapsed: list[float] = []
        started_batch = time.perf_counter()
        for shard, positions in zip(self.shards, groups):
            started = time.perf_counter()
            verdicts = shard.process_batch([packets[position] for position in positions])
            for position, result in zip(positions, verdicts):
                results[position] = result
            elapsed.append(time.perf_counter() - started)
        return BatchResult(
            results=check_complete(results, "shard burst"),
            shard_elapsed_s=elapsed,
            shard_packet_counts=[len(positions) for positions in groups],
            measured_wall_s=time.perf_counter() - started_batch,
        )

    # -- aggregated inspection ----------------------------------------------------------

    def aggregate_stats(self) -> EnforcerStats:
        """Sum of every shard's counters."""
        total = EnforcerStats()
        for shard in self.shards:
            total.merge(shard.stats)
        return total

    @property
    def stats(self) -> EnforcerStats:
        return self.aggregate_stats()

    @property
    def records(self) -> list[EnforcementRecord]:
        """All shard records merged into packet order.

        This is a freshly built list — mutating it does not touch shard
        state; use :meth:`clear_records` or :meth:`reset` for that.
        """
        merged: list[EnforcementRecord] = []
        for shard in self.shards:
            merged.extend(shard.records)
        merged.sort(key=lambda record: record.packet_id)
        return merged

    def dropped_records(self) -> list[EnforcementRecord]:
        return [record for record in self.records if record.dropped]

    def allowed_records(self) -> list[EnforcementRecord]:
        return [record for record in self.records if not record.dropped]

    def decoded_stacks_to(self, dst_ip: str) -> list[tuple[str, ...]]:
        """Distinct stacks towards ``dst_ip`` across all shards (first-seen order)."""
        return distinct_stacks(self.records, dst_ip)

    def clear_records(self) -> None:
        """Drop every shard's audit records, keeping stats and caches."""
        for shard in self.shards:
            shard.clear_records()

    def reset(self) -> None:
        for shard in self.shards:
            shard.reset()
