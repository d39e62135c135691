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

Backends
--------
``backend="sequential"`` (the default) executes the shard groups one
after another and *models* the parallel wall-clock as the slowest group
— cheap, deterministic, and how every verdict-identity check runs.
``backend="pool"`` runs the shards genuinely in parallel on the
persistent :class:`~repro.runtime.pool.ShardWorkerPool`: one long-lived
worker per shard (one NFQUEUE consumer per core) holding its own
compiled policy and flow cache *across* batches, fed over pipes
(payloads on a shared-memory ring), with policy changes pushed as delta
records — see :mod:`repro.runtime.pool`.  Verdicts, counter deltas and
audit records come back and are stitched into input order, and
:attr:`BatchResult.measured_wall_s` is the *actual* elapsed wall-clock
— the number that validates the model.  Attach the governing
:class:`~repro.core.policy_store.PolicyStore` via
:meth:`ShardedEnforcer.attach_control` to get the surgical record-push
path; without it every policy change ships as a pickled full sync.

On platforms without the fork start method, constructing the pool
backend degrades to sequential execution with a logged warning
(``degraded`` flag, ``backend_fallbacks`` stat) instead of raising —
a gateway must come up and enforce even where it cannot parallelise.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
import weakref
from dataclasses import dataclass

from repro.core.policy_enforcer import (
    EnforcementRecord,
    EnforcerStats,
    PolicyEnforcer,
    distinct_stacks,
)
from repro.netstack.ip import IPPacket
from repro.netstack.netfilter import Verdict, flow_hash

logger = logging.getLogger(__name__)

#: Supported :meth:`ShardedEnforcer.process_batch_timed` execution backends.
BACKENDS = ("sequential", "pool")


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def check_complete(results: list, what: str, error=RuntimeError) -> list:
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
    raise error(
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
    for the sequential backend that is the sum of the shard times (the
    simulation really ran them back to back); for the pool backend it
    is the submit-to-harvest elapsed time of the parallel fan-out — IPC,
    parallel processing, and result harvesting included — which is what
    validates the modelled :attr:`parallel_wall_s` on real hardware.
    """

    results: list[tuple[Verdict, IPPacket]]
    shard_elapsed_s: list[float]
    shard_packet_counts: list[int]
    backend: str = "sequential"
    measured_wall_s: float = 0.0

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
        backend: str = "sequential",
        ring_bytes: int | None = None,
        **enforcer_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one enforcer shard")
        if backend not in BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}; choose from {BACKENDS}")
        #: The backend asked for at construction; ``backend`` is the one
        #: actually in effect (they differ only after degradation).
        self.requested_backend = backend
        self.degraded = False
        self._local_stats = EnforcerStats()
        if backend == "pool" and not _fork_available():
            logger.warning(
                "shard backend %r needs the fork start method, which this "
                "platform lacks; degrading to sequential execution",
                backend,
            )
            self.degraded = True
            self._local_stats.backend_fallbacks += 1
            backend = "sequential"
        self.num_shards = num_shards
        self.backend = backend
        self._ring_bytes = ring_bytes
        self._control = None
        self._obs = None
        self._pool = None
        self._pool_finalizer = None
        # Degraded-pool pipelined bursts run synchronously at submit time
        # and buffer their results here until collected by token.
        self._sync_bursts: dict[int, BatchResult] = {}
        self._next_sync_token = 0
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

    def attach_control(self, store) -> None:
        """Hand the pool backend its id-addressed control store.

        Pool workers can only replay compact
        :class:`~repro.core.policy_store.DeltaLogRecord` pushes against
        a :class:`~repro.core.policy_store.GatewayReplica` shadow of the
        store that commits them (remove/replace ops address stable rule
        ids).  With a control store attached, every
        :meth:`apply_policy_delta` ships the committed record — small,
        JSON-able, fingerprint-verified in the worker; without one the
        pool still works, but every change falls back to a pickled
        full-policy sync (counted in ``pool_snapshot_syncs``).
        :class:`~repro.core.policy_store.GatewayReplica` attaches its
        shadow automatically, so sharded gateways inside a fleet get the
        record-push path for free.
        """
        self._restart_pool()
        self._control = store

    def set_policy(self, policy) -> None:
        """Swap the policy on every shard (compiles and flushes each cache)."""
        for shard in self.shards:
            shard.set_policy(policy)
        if self._pool is not None:
            self._pool.push_set_policy(policy)

    def sync_policy(self, policy, version: int) -> None:
        """Full control-plane resync, broadcast to every shard."""
        for shard in self.shards:
            shard.sync_policy(policy, version)
        if self._pool is not None:
            record = self._control_record(version)
            if record is not None:
                self._pool.push_record(record)
            else:
                self._pool.push_sync(policy, version)

    def apply_policy_delta(self, delta) -> None:
        """Versioned broadcast of a control-plane delta.

        Every shard applies the same
        :class:`~repro.core.policy_store.PolicyDelta` (each patches its
        own compiled policy and surgically invalidates its own flow
        cache), so after the loop all shards have converged to
        ``delta.version`` — see :attr:`policy_version`.  Live pool
        workers get the change pushed too: the committed delta-log
        record when a control store is attached (surgical recompile in
        the worker), a pickled full sync otherwise.  The command pipes
        are FIFO, so batches already submitted still enforce at the
        pre-delta version — the serial interleaving, preserved.
        """
        for shard in self.shards:
            shard.apply_policy_delta(delta)
        if self._pool is not None:
            record = self._control_record(delta.version)
            if record is not None:
                self._pool.push_record(record)
            else:
                self._pool.push_sync(delta.policy, delta.version)

    def _control_record(self, version: int):
        """The committed log record for ``version``, or None when the
        pool must fall back to a full sync (no control store, the record
        was compacted away, or it is an opaque sync)."""
        if self._control is None:
            return None
        try:
            record = self._control.delta_log.record(version)
        except Exception:
            return None
        if record.kind == "sync" and record.rules is None:
            return None
        return record

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
        if self._pool is not None:
            self._pool.push_invalidate()

    # -- pool lifecycle ----------------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            from repro.runtime.pool import ShardWorkerPool
            from repro.runtime.ring import DEFAULT_RING_BYTES

            ring_bytes = (
                DEFAULT_RING_BYTES if self._ring_bytes is None else self._ring_bytes
            )
            self._pool = ShardWorkerPool(
                self.shards,
                control=self._control,
                ring_bytes=ring_bytes,
                obs=self._obs,
            )
            # The finalizer holds only the pool (not self): leaked
            # enforcers still reap their daemon workers at GC.
            self._pool_finalizer = weakref.finalize(self, self._pool.close)
        return self._pool

    def _restart_pool(self, drop_outstanding: bool = False) -> None:
        """Tear the pool down; the next pool batch respawns fresh workers.

        Used when worker-side state must be rebuilt (control store or
        audit sink attached after workers forked, :meth:`reset`).  Pool
        runtime counters fold into :attr:`aggregate_stats` first so a
        restart never loses them.  Submitted-but-uncollected pipelined
        bursts would lose their verdicts in the teardown, so the restart
        refuses while any are outstanding — collect them first; only an
        explicit :meth:`close` discards them (``drop_outstanding``).
        """
        if self._pool is not None:
            if self._pool.outstanding and not drop_outstanding:
                from repro.runtime.pool import WorkerPoolError

                raise WorkerPoolError(
                    f"{self._pool.outstanding} pipelined burst(s) still "
                    "outstanding; collect them before reconfiguring the pool"
                )
            self._local_stats.merge(self._pool.stats)
            if self._pool_finalizer is not None:
                self._pool_finalizer.detach()
                self._pool_finalizer = None
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Stop pool workers, if any.  Safe to call on any backend.

        Uncollected pipelined bursts are discarded — the caller is
        ending the enforcer's life, so there is nowhere to deliver them.
        """
        self._restart_pool(drop_outstanding=True)

    # -- telemetry ---------------------------------------------------------------------

    def attach_audit_sink(self, sink, source: str | None = None) -> None:
        """Publish every shard's decisions into one gateway-level sink.

        All shards share the gateway's source label: telemetry
        aggregates per gateway, and inside a gateway the shards are one
        logical enforcement point.  With the ``pool`` backend the
        workers never publish into their sink copies: each worker
        captures its batch's records and the parent republishes them —
        ``keep_records`` does not need to be on for that.
        """
        # Pool workers install their capture hooks at fork time; a sink
        # attached afterwards would go unseen, so respawn them (fails
        # fast, before any shard is touched, if bursts are outstanding).
        self._restart_pool()
        for shard in self.shards:
            shard.attach_audit_sink(sink, source)

    # -- observability -----------------------------------------------------------------

    def attach_obs(self, obs) -> None:
        """Attach (or detach, with ``None``) a
        :class:`~repro.obs.instrument.RuntimeObservability`.

        Local shards get sampled per-stage enforcement latency; the pool
        backend additionally captures batch span traces and merges each
        worker's local registry deltas as they ride home on batch
        results.  Like :meth:`attach_control`, workers fork with their
        instrumentation in place, so the pool restarts (refusing while
        pipelined bursts are outstanding).
        """
        self._restart_pool()
        self._obs = obs
        enforcer_obs = None if obs is None else obs.enforcer
        for shard in self.shards:
            shard.attach_observability(enforcer_obs)

    def pool_health(self):
        """Live :class:`~repro.obs.health.PoolHealthSnapshot`, or None
        when no pool is running (sequential backend, degraded, or no
        batch submitted yet)."""
        return self._pool.health() if self._pool is not None else None

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

    def process_batch_timed(
        self, packets: list[IPPacket], backend: str | None = None
    ) -> BatchResult:
        """Process a burst shard-by-shard, modelling per-shard wall-clock.

        Packets are grouped by flow shard and the verdicts are stitched
        back into input order.  With the default ``sequential`` backend
        each group is processed on its shard in one timed run (the
        simulation executes shards sequentially, but the groups are
        independent, so the slowest group is the parallel-deployment
        bottleneck); the ``pool`` backend hands each group to its
        persistent shard worker and runs them genuinely in parallel.
        """
        backend = self.backend if backend is None else backend
        if backend not in BACKENDS:
            raise ValueError(f"unknown shard backend {backend!r}; choose from {BACKENDS}")
        groups: list[list[int]] = [[] for _ in range(self.num_shards)]
        for position, packet in enumerate(packets):
            groups[self.shard_index(packet)].append(position)

        if backend == "pool" and packets:
            return self._process_batch_pooled(packets)

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
            results=check_complete(results, "sequential shard burst"),
            shard_elapsed_s=elapsed,
            shard_packet_counts=[len(positions) for positions in groups],
            backend="sequential",
            measured_wall_s=time.perf_counter() - started_batch,
        )

    def _process_batch_pooled(self, packets: list[IPPacket]) -> BatchResult:
        """One synchronous burst through the persistent worker pool.

        There is no per-batch setup: workers already exist, already hold
        the current compiled policy (kept current by delta pushes), and
        keep their flow caches warm *across* batches.  ``measured_wall_s`` is submit-to-harvest
        wall-clock, so the amortized IPC cost per batch is directly
        visible next to the modelled compute time.
        """
        pool = self._ensure_pool()
        burst = pool.collect(pool.submit(packets))
        return BatchResult(
            results=burst.results,
            shard_elapsed_s=burst.worker_elapsed_s,
            shard_packet_counts=burst.worker_packet_counts,
            backend="pool",
            measured_wall_s=burst.wall_s,
        )

    # -- pipelined bursts --------------------------------------------------------------

    def submit_batch(self, packets: list[IPPacket]) -> int:
        """Hand a burst to the pool without waiting (pipelined mode).

        The parent is free to commit policy edits, drain telemetry, or
        prepare the next burst while workers enforce; pipe FIFO order
        keeps verdicts identical to the synchronous path.  Returns a
        token for :meth:`collect_batch`.

        Pipelining is a pool-backend feature: on an enforcer that asked
        for the pool but degraded (no fork start method) the burst runs
        synchronously right here and :meth:`collect_batch` hands back the
        buffered result — degraded gateways keep enforcing, they just
        lose the overlap.  Any other backend raises.
        """
        if self.backend != "pool":
            self._check_pipelined_backend()
            token = self._next_sync_token
            self._next_sync_token += 1
            self._sync_bursts[token] = self.process_batch_timed(packets)
            return token
        return self._ensure_pool().submit(packets)

    def collect_batch(self, token: int | None = None) -> BatchResult:
        """Harvest a submitted burst (default: the oldest outstanding)."""
        if self.backend != "pool":
            self._check_pipelined_backend()
            return self._collect_sync_burst(token)
        burst = self._ensure_pool().collect(token)
        return BatchResult(
            results=burst.results,
            shard_elapsed_s=burst.worker_elapsed_s,
            shard_packet_counts=burst.worker_packet_counts,
            backend="pool",
            measured_wall_s=burst.wall_s,
        )

    def _check_pipelined_backend(self) -> None:
        if not (self.degraded and self.requested_backend == "pool"):
            raise ValueError(
                "pipelined bursts need backend='pool'; this enforcer runs "
                f"backend={self.backend!r}"
            )

    def _collect_sync_burst(self, token: int | None):
        from repro.runtime.pool import WorkerPoolError

        if not self._sync_bursts:
            raise WorkerPoolError("no outstanding burst to collect")
        if token is None:
            token = min(self._sync_bursts)
        if token not in self._sync_bursts:
            raise WorkerPoolError(
                f"unknown or already-collected burst token {token}"
            )
        return self._sync_bursts.pop(token)

    # -- aggregated inspection ----------------------------------------------------------

    def aggregate_stats(self) -> EnforcerStats:
        """Sum of every shard's counters, plus runtime-level counters
        (pool health, backend degradation)."""
        total = EnforcerStats()
        for shard in self.shards:
            total.merge(shard.stats)
        total.merge(self._local_stats)
        if self._pool is not None:
            total.merge(self._pool.stats)
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
        # Worker-side caches/stats cannot be rewound in place; fresh
        # forks at the next pool batch start from the reset state.  The
        # restart fails fast (outstanding bursts) before any shard is
        # touched.
        self._restart_pool()
        for shard in self.shards:
            shard.reset()
        self._local_stats = EnforcerStats()
        # Degradation is a platform property, not a counter: it survives
        # a reset, and so does its stats flag.
        if self.degraded:
            self._local_stats.backend_fallbacks += 1
