"""The gateway fleet: N replicated gateways behind one policy delta log.

The paper deploys a single gateway in front of a single BYOD device; an
enterprise serving millions of users runs *fleets* of them — one
enforcement gateway per site or per load-balancer bucket — that must all
enforce the same policy at the same version.  This module is the fleet
runtime on top of the two primitives the control plane provides:

* every gateway is a :class:`~repro.core.policy_store.GatewayReplica`
  subscribed to one shared :class:`~repro.core.policy_store.PolicyStore`
  and its :class:`~repro.core.policy_store.DeltaLog`, so policy edits
  commit once and converge everywhere (live push, or staged
  :meth:`GatewayFleet.catch_up` for canary-style rollouts);
* device traffic is spread across gateways by the same deterministic
  flow hash that spreads flows across NFQUEUE shards inside one gateway
  (:func:`~repro.netstack.netfilter.flow_hash`), so every packet of a
  flow always reaches the same gateway — two levels of the same
  balancing scheme.

Because replicas converge to fingerprint-identical rule tables and each
gateway's enforcer is verdict-deterministic, a converged fleet is
verdict-identical to one big gateway processing the whole stream; the
fleet experiment (:mod:`repro.experiments.fleet`) asserts exactly that.

Every gateway runs in-process: a burst visits the gateways one after
another, and :class:`FleetBatchResult` carries the measured wall-clock
of the whole burst beside the modelled parallel wall (the slowest
gateway).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.policy import Policy
from repro.core.policy_enforcer import EnforcerStats, PolicyEnforcer
from repro.core.policy_store import (
    DeltaLog,
    GatewayReplica,
    PolicyDelta,
    PolicyStore,
    PolicyUpdate,
)
from repro.netstack.ip import IPPacket
from repro.netstack.netfilter import Verdict, flow_hash
from repro.netstack.sharding import ShardedEnforcer, check_complete


@dataclass
class FleetBatchResult:
    """Outcome of one :meth:`GatewayFleet.process_batch_timed` burst.

    ``results`` preserves the input packet order.  Gateways are
    independent deployments, so the modelled parallel wall-clock of the
    burst is the slowest gateway; for sharded gateways each gateway's
    elapsed time is itself the modelled parallel wall of its shards, so
    the fleet number composes both balancing levels.

    ``measured_wall_s`` is the wall-clock the burst actually took: the
    gateways ran back to back, so it covers every gateway's work plus
    the routing and stitching around them.
    """

    results: list[tuple[Verdict, IPPacket]]
    gateway_elapsed_s: list[float]
    gateway_packet_counts: list[int]
    measured_wall_s: float

    @property
    def parallel_wall_s(self) -> float:
        return max(self.gateway_elapsed_s, default=0.0)

    @property
    def serial_wall_s(self) -> float:
        return sum(self.gateway_elapsed_s)

    @property
    def packets(self) -> int:
        return len(self.results)


class GatewayFleet:
    """N gateway replicas converging from one store, balanced by flow hash.

    Each gateway gets its own enforcer (a plain
    :class:`~repro.core.policy_enforcer.PolicyEnforcer`, or a
    :class:`~repro.netstack.sharding.ShardedEnforcer` when
    ``shards_per_gateway > 1``) wrapped in a
    :class:`~repro.core.policy_store.GatewayReplica` attached to the
    shared ``store``.  With ``live=True`` every replica is subscribed to
    the store and converges synchronously on each commit; with
    ``live=False`` replicas lag until :meth:`catch_up` — the staged-
    rollout mode the fleet experiment uses to measure convergence lag.
    """

    def __init__(
        self,
        database,
        policy: Policy | None = None,
        store: PolicyStore | None = None,
        num_gateways: int = 2,
        shards_per_gateway: int = 1,
        live: bool = True,
        compact_every: int | None = None,
        **enforcer_kwargs,
    ) -> None:
        if num_gateways < 1:
            raise ValueError("a gateway fleet needs at least one gateway")
        if store is not None and policy is not None:
            raise ValueError("pass either a policy or an existing store, not both")
        self._obs = None
        if store is None:
            store = PolicyStore.from_policy(
                policy if policy is not None else Policy.allow_all(), name="fleet-policy"
            )
        if compact_every is not None:
            store.compact_every = compact_every
        self.store = store
        self.database = database
        self.num_gateways = num_gateways
        self.shards_per_gateway = shards_per_gateway
        self.live = live
        self._enforcer_kwargs = dict(enforcer_kwargs)
        self._auditor = None
        self.replicas: list[GatewayReplica] = []
        for index in range(num_gateways):
            replica = GatewayReplica(
                enforcer=self._build_enforcer(), store=store, name=f"gw{index}"
            )
            if live:
                store.subscribe_replica(replica)
            self.replicas.append(replica)

    def _build_enforcer(self):
        """One gateway's enforcer, per the fleet-wide shard configuration."""
        if self.shards_per_gateway > 1:
            return ShardedEnforcer(
                database=self.database,
                policy=None,
                num_shards=self.shards_per_gateway,
                **self._enforcer_kwargs,
            )
        return PolicyEnforcer(database=self.database, policy=None, **self._enforcer_kwargs)

    # -- policy management -----------------------------------------------------------

    @property
    def delta_log(self) -> DeltaLog:
        return self.store.delta_log

    def apply_update(self, update: PolicyUpdate) -> PolicyDelta:
        """Commit one transaction at the store; live replicas converge now,
        lagging replicas on their next :meth:`catch_up`."""
        return self.store.apply(update)

    def catch_up(self, target_version: int | None = None) -> dict[str, int]:
        """Replay missing log records on every replica; returns how many
        records each applied (the per-gateway convergence work)."""
        return {
            replica.name: replica.catch_up(self.store.delta_log, target_version)
            for replica in self.replicas
        }

    def set_live(self, live: bool) -> None:
        """Switch between synchronous replication and staged catch-up.

        ``live=False`` detaches every replica from the store's push path
        (commits accumulate in the delta log and replicas lag until
        :meth:`catch_up`); ``live=True`` re-subscribes them, catching
        each up first so subscription leaves the fleet converged.
        """
        self.live = live
        for replica in self.replicas:
            self.store.unsubscribe_replica(replica)
        if live:
            for replica in self.replicas:
                self.store.subscribe_replica(replica)

    def add_gateway(self, name: str | None = None) -> GatewayReplica:
        """Attach a late-joining gateway, bootstrapping from the delta log.

        The new replica converges from the serialized log alone — the
        base snapshot (one full sync) plus the surviving delta suffix —
        so with a compacted log (``compact_every``) attach cost is
        O(suffix) records no matter how many versions the fleet has
        committed.  It then joins flow-hash routing, and the live push
        path if the fleet is live.
        """
        replica = GatewayReplica.from_log(
            self._build_enforcer(),
            self.store.delta_log,
            name=name or f"gw{len(self.replicas)}",
            compact_every=self.store.compact_every,
        )
        if self._auditor is not None:
            # The fleet's telemetry contract extends to late joiners:
            # flow hashing reassigns traffic to the new gateway at once,
            # so its decisions must publish from the first packet.
            replica.enforcer.attach_audit_sink(
                self._auditor.pipeline_for(replica.name), replica.name
            )
        if self._obs is not None:
            # Same contract for observability: the joiner's enforcement
            # reports from its first packet.
            self._wire_obs(replica)
        if self.live:
            self.store.subscribe_replica(replica)
        self.replicas.append(replica)
        self.num_gateways += 1
        return replica

    def lags(self) -> dict[str, int]:
        """Versions-behind-head for every gateway (0 when converged)."""
        return {replica.name: replica.lag(self.store.delta_log) for replica in self.replicas}

    def policy_versions(self) -> dict[str, int]:
        return {replica.name: replica.version for replica in self.replicas}

    @property
    def converged(self) -> bool:
        """True when every gateway holds the store's exact state."""
        return all(replica.verify_against(self.store) for replica in self.replicas)

    def fingerprints(self) -> dict[str, str]:
        return {replica.name: replica.fingerprint() for replica in self.replicas}

    # -- telemetry ---------------------------------------------------------------------

    def attach_telemetry(self, auditor) -> None:
        """Wire one telemetry pipeline per gateway out of ``auditor``.

        ``auditor`` is anything exposing ``pipeline_for(gateway_name)``
        — canonically a :class:`~repro.telemetry.pipeline.FleetAuditor`
        (duck-typed so the core package does not depend on telemetry).
        Each replica's enforcer publishes every decision into its own
        gateway pipeline, labelled with the replica name; the publish
        cost lands inside that gateway's wall-clock, exactly like every
        other per-gateway cost in the parallel model.  The auditor is
        kept so gateways added later (:meth:`add_gateway`) publish too.
        """
        self._auditor = auditor
        for replica in self.replicas:
            replica.enforcer.attach_audit_sink(
                auditor.pipeline_for(replica.name), replica.name
            )

    def _wire_obs(self, replica) -> None:
        enforcer = replica.enforcer
        if hasattr(enforcer, "attach_obs"):
            enforcer.attach_obs(self._obs)
        else:
            enforcer.attach_observability(
                None if self._obs is None else self._obs.enforcer
            )

    def attach_obs(self, obs) -> None:
        """Attach (or detach, with ``None``) a
        :class:`~repro.obs.instrument.RuntimeObservability` fleet-wide.

        Every gateway's enforcer gets sampled per-stage latency into the
        one shared ``obs.registry``; gateways added later report too.
        """
        self._obs = obs
        for replica in self.replicas:
            self._wire_obs(replica)

    def attach_ops(self, control_plane) -> None:
        """Wire the operator control plane's telemetry onto every gateway.

        ``control_plane`` is anything exposing an ``auditor`` attribute
        (canonically a :class:`repro.ops.console.OperatorControlPlane`,
        duck-typed so core never depends on ops); the control plane has
        already attached its alert bus and federation to that auditor —
        this call is the data-plane half of the wiring.
        """
        self.attach_telemetry(control_plane.auditor)

    # -- flow routing ------------------------------------------------------------------

    def gateway_index(self, packet: IPPacket) -> int:
        """The gateway this packet's flow is pinned to (stable per flow).

        Uses the same flow hash that spreads flows across NFQUEUE shards
        inside a gateway, so the two balancing levels compose without
        re-hashing collisions pinning whole gateways to one shard.
        """
        return flow_hash(packet) % self.num_gateways

    def replica_for(self, packet: IPPacket) -> GatewayReplica:
        return self.replicas[self.gateway_index(packet)]

    # -- data plane --------------------------------------------------------------------

    def process(self, packet: IPPacket) -> tuple[Verdict, IPPacket]:
        return self.replica_for(packet).enforcer.process(packet)

    def process_batch(self, packets: list[IPPacket]) -> list[tuple[Verdict, IPPacket]]:
        """Process a burst across the fleet, preserving input order."""
        return self.process_batch_timed(packets).results

    def process_batch_timed(self, packets: list[IPPacket]) -> FleetBatchResult:
        """Process a burst gateway-by-gateway, modelling fleet wall-clock.

        Packets are grouped by gateway, each group runs on its gateway's
        enforcer (sharded gateways model their own internal parallelism),
        and verdicts are stitched back into input order.
        """
        started_burst = time.perf_counter()
        groups: list[list[int]] = [[] for _ in range(self.num_gateways)]
        for position, packet in enumerate(packets):
            groups[self.gateway_index(packet)].append(position)

        results: list[tuple[Verdict, IPPacket] | None] = [None] * len(packets)
        elapsed: list[float] = []
        for replica, positions in zip(self.replicas, groups):
            group = [packets[position] for position in positions]
            enforcer = replica.enforcer
            if hasattr(enforcer, "process_batch_timed"):
                batch = enforcer.process_batch_timed(group)
                processed = batch.results
                elapsed.append(batch.parallel_wall_s)
            else:
                started = time.perf_counter()
                processed = enforcer.process_batch(group)
                elapsed.append(time.perf_counter() - started)
            for position, result in zip(positions, processed):
                results[position] = result
        return FleetBatchResult(
            results=check_complete(results, "fleet burst"),
            gateway_elapsed_s=elapsed,
            gateway_packet_counts=[len(positions) for positions in groups],
            measured_wall_s=time.perf_counter() - started_burst,
        )

    # -- aggregated inspection ----------------------------------------------------------

    def aggregate_stats(self) -> EnforcerStats:
        """Every gateway's counters folded into one fleet-wide view."""
        total = EnforcerStats()
        for replica in self.replicas:
            total.merge(replica.enforcer.stats)
        return total

    def reset(self) -> None:
        for replica in self.replicas:
            replica.enforcer.reset()
