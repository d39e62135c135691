"""Persistent worker-pool runtime for shard- and gateway-level parallelism.

This module is the one parallel backend of the sharded enforcer and the
gateway fleet — the multiprocessing worker-pool idiom of SNIPPETS.md
Snippet 1: workers are forked **once**, each holding its own
enforcer (compiled policy, flow cache) and, when a control store is
attached, its own :class:`~repro.core.policy_store.GatewayReplica`
shadow state; packet batches stream to them over pipes (payloads ride a
shared-memory ring, see :mod:`repro.runtime.ring`), and policy changes
are **pushed as delta-log records** — the same surgical recompile path
the in-process enforcer uses — instead of re-forking or re-pickling
snapshots.

Ordering and verdict identity
-----------------------------
Each worker's command pipe is FIFO, so a batch submitted before a delta
is enforced at the pre-delta version and a batch submitted after it at
the post-delta version — exactly the serial interleaving.  Flow-hash
routing pins every flow to one worker, workers process their group in
input order, and verdicts are stitched back by position: the pool is
verdict-identical to the sequential backend by construction, and the
conformance tests assert it packet-for-packet.

Pipelining
----------
:meth:`WorkerPool.submit` returns immediately with a burst token;
:meth:`WorkerPool.collect` harvests it.  Between the two the parent can
commit policy edits, drain telemetry, or catch up replicas while the
workers enforce — the overlap the burst loop of the fleet experiment
exploits.  Multiple bursts may be in flight (bounded by
``max_inflight`` per worker, which also keeps the two pipe directions
from ever filling simultaneously).

Crash recovery
--------------
A worker death (EOF/EPIPE) is detected during pumping: the result pipe
is drained first (results sent before the crash still count), then a
fresh fork is spawned from the parent's *current* state and every
unacknowledged batch is replayed to it, so no packet is silently
dropped.  Replayed batches enforce at the respawned worker's (current)
policy version — under live churn a crash can therefore surface
post-edit verdicts for a pre-edit batch.  Crash/respawn/replay counters
surface in :class:`~repro.core.policy_enforcer.EnforcerStats`.

Exactly-once accounting
-----------------------
Packet verdicts, counter deltas and audit records are reported per
batch and folded into the owning parent shard/gateway, so packet-level
stats and telemetry read exactly as if the batch had run in process.
Control-plane counters (``policy_deltas_applied`` …) are the one
honest divergence: parent *and* worker each really apply every delta,
so a pool-backed enforcer reports the genuine N+1 applications.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait

from repro.core.policy_enforcer import EnforcerStats
from repro.core.policy_store import DeltaLogRecord, GatewayReplica
from repro.netstack.ip import IPPacket
from repro.obs.instrument import EnforcerObservability
from repro.obs.trace import BatchTrace
from repro.netstack.netfilter import Verdict, flow_hash
from repro.netstack.sharding import check_complete
from repro.runtime.ring import (
    DEFAULT_RING_BYTES,
    PacketRing,
    RingCodecError,
    decode_batch,
    encode_batch,
)

logger = logging.getLogger(__name__)

#: How many bursts one worker may hold unharvested before ``submit``
#: blocks on harvesting.  Bounding this keeps ring regions reclaimable
#: and prevents the cmd/result pipes from filling at the same time.
DEFAULT_MAX_INFLIGHT = 8


class PoolUnavailableError(RuntimeError):
    """The platform cannot run a persistent pool (no fork start method)."""


class WorkerPoolError(RuntimeError):
    """A pool protocol violation or unrecoverable worker failure."""


def fork_available() -> bool:
    """Whether this platform supports the fork start method the pools
    require."""
    return "fork" in multiprocessing.get_all_start_methods()


def fork_context():
    if not fork_available():
        raise PoolUnavailableError(
            "persistent worker pools need the fork start method; "
            "use the sequential backend on this platform"
        )
    return multiprocessing.get_context("fork")


# -- worker-side seeds ---------------------------------------------------------------


class _BareSeed:
    """A worker holding only an enforcer: full-sync pushes, no delta replay."""

    def __init__(self, enforcer) -> None:
        self.enforcer = enforcer

    def apply_record(self, record: DeltaLogRecord) -> None:
        raise WorkerPoolError(
            "worker has no shadow store; the parent must push full syncs"
        )


class _ReplicaSeed:
    """A worker holding a :class:`GatewayReplica`: records replay through
    the shadow store, fanning the same surgical delta the head saw, with
    every fingerprint verified in the worker itself."""

    def __init__(self, replica: GatewayReplica) -> None:
        self.replica = replica
        self.enforcer = replica.enforcer

    def apply_record(self, record: DeltaLogRecord) -> None:
        self.replica.apply_delta(record)


class _ShardSeedSpec:
    """Parent-side recipe for one shard worker; ``materialize`` runs in
    the child, so respawns always seed from the parent's current state
    and the replica's construction-time full sync never touches the
    parent shard."""

    def __init__(self, enforcer, store, name: str, obs_config=None) -> None:
        self.enforcer = enforcer
        self.store = store
        self.name = name
        self.obs_config = obs_config

    def version(self) -> int:
        if self.store is not None:
            return self.store.version
        return getattr(self.enforcer, "policy_version", 0)

    def materialize(self):
        if self.store is None:
            return _BareSeed(self.enforcer)
        return _ReplicaSeed(GatewayReplica(self.enforcer, self.store, name=self.name))


class _GatewaySeedSpec:
    """Parent-side recipe for one gateway worker: fork the fleet's own
    replica (enforcer + shadow store), which is current by definition."""

    def __init__(self, replica: GatewayReplica, obs_config=None) -> None:
        self.replica = replica
        self.obs_config = obs_config

    def version(self) -> int:
        return self.replica.version

    def materialize(self):
        return _ReplicaSeed(self.replica)


def _enforcement_units(enforcer) -> list:
    """The :class:`PolicyEnforcer` instances behind ``enforcer`` (its
    shards for a sequential :class:`ShardedEnforcer`, itself otherwise)."""
    shards = getattr(enforcer, "shards", None)
    return list(shards) if shards is not None else [enforcer]


def _aggregate_stats(units) -> EnforcerStats:
    total = EnforcerStats()
    for unit in units:
        total.merge(unit.stats)
    return total


def _install_capture(units, captured: list) -> None:
    """Redirect every unit's record/sink hooks into ``captured``.

    Records go to a plain list rather than the unit's store: the store
    is a bounded AuditLog ring (a full ring keeps a constant length, so
    a length-based slice reads as "no new records" forever), and with
    ``keep_records=False`` it stores nothing at all — yet the parent
    still needs every record of the batch to republish into its audit
    sink.  The worker must not also run its inherited copy of the sink:
    a sink backed by a spooling AuditLog would write segment files from
    inside the fork that collide with the parent's.  ``keep_records``
    itself is NOT flipped: it steers the decision path (a kept record
    decodes signatures and counts a full decode), so forcing it on would
    make the pool publish different records — and different stats —
    than the sequential backend under the identical configuration.
    """
    for unit in units:
        if unit.keep_records:
            unit.records = captured
            unit._sink_publish = None
        elif unit.audit_sink is not None:
            unit._sink_publish = lambda record, _source="": captured.append(record)


def _worker_main(spec, ring: PacketRing, cmd, out) -> None:
    """One pool worker's loop: enforce batches, apply pushed deltas."""
    try:
        seed = spec.materialize()
        units = _enforcement_units(seed.enforcer)
        captured: list = []
        _install_capture(units, captured)
        # Worker-side observability: attach a worker-local registry whose
        # drained deltas ride home on batch/flush replies, so a respawned
        # worker is instrumented identically to the one it replaced.
        obs_config = getattr(spec, "obs_config", None)
        registry = None
        if obs_config is not None:
            registry = obs_config.build_registry()
            enforcer_obs = EnforcerObservability(registry, obs_config.sample_every)
            for unit in units:
                unit.attach_observability(enforcer_obs)
        # Baseline AFTER materialization: a replica seed's construction
        # full-sync must not leak into the first batch's stats delta.
        baseline = _aggregate_stats(units)
        while True:
            try:
                message = cmd.recv()
            except (EOFError, OSError):
                break
            received = time.perf_counter()
            kind = message[0]
            try:
                if kind == "batch":
                    _, seq, mode, payload = message
                    if mode == "ring":
                        packets = decode_batch(ring.read(payload))
                    else:
                        packets = payload
                    started = time.perf_counter()
                    results = seed.enforcer.process_batch(packets)
                    elapsed = time.perf_counter() - started
                    current = _aggregate_stats(units)
                    obs_payload = None
                    if obs_config is not None:
                        delta = registry.drain() if registry.enabled else None
                        obs_payload = (received, delta)
                    out.send(
                        (
                            "batch",
                            seq,
                            elapsed,
                            [verdict.value for verdict, _ in results],
                            current.delta_since(baseline),
                            list(captured),
                            obs_payload,
                        )
                    )
                    baseline = current
                    captured.clear()
                elif kind == "record":
                    seed.apply_record(DeltaLogRecord.from_payload(message[1]))
                elif kind == "sync":
                    seed.enforcer.sync_policy(message[1], message[2])
                elif kind == "set_policy":
                    seed.enforcer.set_policy(message[1])
                elif kind == "invalidate":
                    seed.enforcer.invalidate_caches()
                elif kind == "flush":
                    current = _aggregate_stats(units)
                    obs_payload = None
                    if obs_config is not None:
                        delta = registry.drain() if registry.enabled else None
                        obs_payload = (received, delta)
                    out.send(
                        (
                            "flush",
                            message[1],
                            current.delta_since(baseline),
                            list(captured),
                            obs_payload,
                        )
                    )
                    baseline = current
                    captured.clear()
                elif kind == "die":
                    os._exit(23)  # chaos hook: simulate a hard crash
                elif kind == "exit":
                    break
                else:
                    raise WorkerPoolError(f"unknown pool message kind {kind!r}")
            except Exception as exc:  # surface, then die: the parent respawns
                # A batch failure names its seq so the parent can pop the
                # poisoned batch instead of replaying it into the respawn
                # (and crashing the replacement forever).
                failing_seq = message[1] if kind == "batch" else None
                try:
                    out.send(("error", f"{type(exc).__name__}: {exc}", failing_seq))
                except Exception:
                    pass
                break
    finally:
        try:
            out.close()
        except Exception:
            pass


# -- parent-side bookkeeping ---------------------------------------------------------


@dataclass
class PoolBurst:
    """One harvested burst: verdicts in input order plus the measured cost."""

    results: list[tuple[Verdict, IPPacket]]
    worker_elapsed_s: list[float]
    worker_packet_counts: list[int]
    #: Submit-to-harvest wall-clock, queueing and IPC included — the
    #: number that makes amortized per-batch IPC cost visible next to
    #: the workers' own ``worker_elapsed_s`` compute time.
    wall_s: float
    #: Batches replayed into this burst after worker crashes.
    replayed_batches: int = 0

    @property
    def parallel_wall_s(self) -> float:
        return max(self.worker_elapsed_s, default=0.0)

    @property
    def packets(self) -> int:
        return len(self.results)


class _PendingBatch:
    __slots__ = (
        "token",
        "seq",
        "positions",
        "packets",
        "mode",
        "payload",
        "region",
        "spans",
        "send_ts",
    )

    def __init__(self, token, seq, positions, packets, mode, payload, region, spans=None):
        self.token = token
        self.seq = seq
        self.positions = positions
        self.packets = packets
        self.mode = mode
        self.payload = payload
        self.region = region
        #: Parent-side encode spans {stage: (start, duration)} when
        #: tracing is active, else None.
        self.spans = spans
        #: perf_counter stamp of the (latest) send; replays re-stamp.
        self.send_ts = 0.0


class _Burst:
    __slots__ = (
        "token",
        "packets",
        "results",
        "remaining",
        "elapsed",
        "counts",
        "started",
        "wall_s",
        "replayed",
        "failed",
    )

    def __init__(self, token, packets, groups, num_workers):
        self.token = token
        self.packets = packets
        self.results = [None] * len(packets)
        #: Workers still owing this burst their batch.  Filled before the
        #: first dispatch: a pump inside dispatch can complete an earlier
        #: worker's batch of this very burst.
        self.remaining = {index for index, group in enumerate(groups) if group}
        self.elapsed = [0.0] * num_workers
        self.counts = [len(group) for group in groups]
        self.started = time.perf_counter()
        self.wall_s = 0.0
        self.replayed = 0
        #: Set when a worker reported a deterministic enforcement error
        #: for one of this burst's batches; raised at ``collect``.
        self.failed: WorkerPoolError | None = None


class _PoolWorker:
    __slots__ = (
        "index",
        "ring",
        "process",
        "cmd",
        "results",
        "pending",
        "next_seq",
        "version",
        "shadow_stale",
        "flushed",
        "incarnation",
    )

    def __init__(self, index: int, ring: PacketRing):
        self.index = index
        self.ring = ring
        self.process = None
        self.cmd = None
        self.results = None
        self.pending: deque[_PendingBatch] = deque()
        self.next_seq = 0
        self.version = 0
        self.shadow_stale = False
        self.flushed = None
        #: Bumped at every (re)spawn; lets a caller that pumped mid-path
        #: detect that a revive replayed the work it was about to send.
        self.incarnation = 0


class WorkerPool:
    """N long-lived fork workers behind a flow-hash router.

    ``seed_specs[i]`` builds worker *i*'s state (called in the child at
    every spawn and respawn, so it always reflects the parent's current
    state); ``route(packet)`` picks the worker; ``fold(index,
    stats_delta, records)`` folds a harvested batch into the owning
    parent-side shard or gateway.
    """

    def __init__(
        self,
        seed_specs,
        route,
        fold,
        ring_bytes: int = DEFAULT_RING_BYTES,
        name: str = "pool",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        obs=None,
    ) -> None:
        if not seed_specs:
            raise ValueError("a worker pool needs at least one seed")
        self._ctx = fork_context()
        self._specs = list(seed_specs)
        self._route = route
        self._fold = fold
        self._name = name
        self._max_inflight = max(1, max_inflight)
        #: Optional :class:`~repro.obs.instrument.RuntimeObservability`.
        #: Span capture (perf_counter stamps around encode/send/fold) is
        #: additionally gated on ``obs.enabled`` so a null-registry
        #: attach exercises only the no-op instrument calls.
        self._obs = obs
        self._trace_active = obs is not None and obs.enabled
        self._obs_counts = obs.bind_pool(name) if obs is not None else None
        self._has_shadows = False
        self._closed = False
        self._bursts: dict[int, _Burst] = {}
        self._next_token = 0
        #: Pool-runtime counters (the ``pool_*`` EnforcerStats fields);
        #: owners merge this into their aggregate view.
        self.stats = EnforcerStats()
        self._workers = [
            _PoolWorker(index, PacketRing(ring_bytes)) for index in range(len(self._specs))
        ]
        try:
            for worker in self._workers:
                self._spawn(worker)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def outstanding(self) -> int:
        """Bursts submitted but not yet collected."""
        return len(self._bursts)

    def worker_versions(self) -> list[int]:
        """The policy version each worker has been pushed to (parent view)."""
        return [worker.version for worker in self._workers]

    def _spawn(self, worker: _PoolWorker) -> None:
        spec = self._specs[worker.index]
        cmd_recv, cmd_send = self._ctx.Pipe(duplex=False)
        out_recv, out_send = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, worker.ring, cmd_recv, out_send),
            name=f"{self._name}-w{worker.index}",
            daemon=True,
        )
        process.start()
        cmd_recv.close()
        out_send.close()
        worker.process = process
        worker.cmd = cmd_send
        worker.results = out_recv
        worker.next_seq = 0
        worker.version = spec.version()
        worker.shadow_stale = False
        worker.flushed = "spawned"
        worker.incarnation += 1

    def close(self) -> None:
        """Stop every worker and release rings/pipes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.cmd is not None:
                try:
                    worker.cmd.send(("exit",))
                except Exception:
                    pass
        for worker in self._workers:
            if worker.process is not None:
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
                worker.process = None
            for connection in (worker.cmd, worker.results):
                if connection is not None:
                    try:
                        connection.close()
                    except Exception:
                        pass
            worker.cmd = worker.results = None
            worker.ring.close()
        self._bursts.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def kill_worker(self, index: int) -> None:
        """Chaos hook: hard-kill one worker (SIGKILL), as a crash would.

        The pool discovers the death on its next send or pump, respawns
        the worker from current parent state and replays its pending
        batches — what the robustness tests exercise.
        """
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5)

    # -- data plane --------------------------------------------------------------------

    def submit(self, packets: list[IPPacket]) -> int:
        """Route a burst to the workers; returns a token for :meth:`collect`.

        Each worker gets its whole flow-hash group as one batch.
        """
        self._check_open()
        groups: list[list[int]] = [[] for _ in self._workers]
        for position, packet in enumerate(packets):
            groups[self._route(packet)].append(position)
        token = self._next_token
        self._next_token += 1
        self._bursts[token] = _Burst(token, packets, groups, len(self._workers))
        for worker, positions in zip(self._workers, groups):
            if positions:
                group = [packets[position] for position in positions]
                self._dispatch(worker, token, positions, group)
        return token

    def collect(self, token: int | None = None) -> PoolBurst:
        """Block until the given burst (default: the oldest) completes."""
        self._check_open()
        if not self._bursts:
            raise WorkerPoolError("no outstanding burst to collect")
        if token is None:
            token = min(self._bursts)
        burst = self._bursts.get(token)
        if burst is None:
            raise WorkerPoolError(f"unknown or already-collected burst token {token}")
        while burst.remaining and burst.failed is None:
            self._pump(block=True)
        del self._bursts[token]
        if burst.failed is not None:
            # The poisoned batch was already popped and accounted; late
            # results for this token fall into the void harmlessly.
            raise burst.failed
        if not burst.wall_s:
            burst.wall_s = time.perf_counter() - burst.started
        # Every batch acked but positions stayed unfilled: a protocol bug
        # dropped packets.
        check_complete(burst.results, f"{self._name} burst {token}", WorkerPoolError)
        return PoolBurst(
            results=burst.results,
            worker_elapsed_s=burst.elapsed,
            worker_packet_counts=burst.counts,
            wall_s=burst.wall_s,
            replayed_batches=burst.replayed,
        )

    def process_batch_timed(self, packets: list[IPPacket]) -> PoolBurst:
        """Synchronous submit-and-collect of one burst."""
        return self.collect(self.submit(packets))

    # -- control plane -----------------------------------------------------------------

    def push_record(self, record: DeltaLogRecord) -> None:
        """Broadcast one delta-log record; workers replay it through their
        shadow store (surgical recompile, fingerprint-verified)."""
        self._check_open()
        payload = record.to_payload()
        for worker in self._workers:
            if record.version <= worker.version:
                continue
            if worker.shadow_stale or record.version != worker.version + 1:
                # The worker's shadow cannot chain this record; a fresh
                # fork from current parent state already includes it.
                self._reseed(worker)
                continue
            self._send(worker, ("record", payload))
            worker.version = max(worker.version, record.version)
            self.stats.pool_delta_pushes += 1

    def push_log(self, log, target_versions=None) -> None:
        """Catch each worker up from a delta log (to its own target).

        ``target_versions[i]`` bounds worker *i* (the staged-rollout
        mode: a worker converges exactly as far as its parent replica);
        a worker that fell behind a compaction is reseeded by respawn
        instead — the fresh fork is current by construction.
        """
        self._check_open()
        for worker in self._workers:
            target = None if target_versions is None else target_versions[worker.index]
            if worker.shadow_stale or worker.version < log.base_version:
                self._reseed(worker)
                continue
            for record in log.since(worker.version):
                if target is not None and record.version > target:
                    break
                self._send(worker, ("record", record.to_payload()))
                worker.version = max(worker.version, record.version)
                self.stats.pool_delta_pushes += 1

    def push_sync(self, policy, version: int) -> None:
        """Full-policy fallback push (no control store, or an opaque sync)."""
        self._check_open()
        for worker in self._workers:
            self._send(worker, ("sync", policy, version))
            worker.version = max(worker.version, version)
            if self._has_shadows:
                # The worker's shadow no longer chains off its enforcer
                # state; the next record push will reseed it.
                worker.shadow_stale = True
            self.stats.pool_snapshot_syncs += 1

    def push_set_policy(self, policy) -> None:
        """Legacy by-reference policy swap, broadcast to every worker."""
        self._check_open()
        for worker in self._workers:
            self._send(worker, ("set_policy", policy))
            if self._has_shadows:
                worker.shadow_stale = True
            self.stats.pool_snapshot_syncs += 1

    def push_invalidate(self) -> None:
        self._check_open()
        for worker in self._workers:
            self._send(worker, ("invalidate",))

    def flush_stats(self) -> None:
        """Harvest counters accrued outside batches (delta applies etc.).

        Batch results already carry their own deltas; this collects the
        tail so ``aggregate_stats`` converges after the last burst.
        """
        self._check_open()
        for worker in self._workers:
            worker.flushed = None
            self._send(worker, ("flush", worker.next_seq))
        for worker in self._workers:
            # A crash during the flush resolves it too: the respawn
            # resets ``flushed`` (that incarnation's tail counters die
            # with it, like any crash-lost work).
            while worker.flushed is None:
                self._pump(block=True)

    # -- internals ---------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise WorkerPoolError("worker pool is closed")

    def _encode(self, worker: _PoolWorker, group: list[IPPacket], spans=None):
        if worker.ring.size:
            if spans is not None:
                t0 = time.perf_counter()
            try:
                blob = encode_batch(group)
            except RingCodecError:
                blob = None
            if spans is not None:
                t1 = time.perf_counter()
                spans["serialize"] = (t0, t1 - t0)
            if blob is not None:
                region = worker.ring.try_write(blob)
                if spans is not None:
                    spans["ring_write"] = (t1, time.perf_counter() - t1)
                if region is not None:
                    self.stats.pool_ring_batches += 1
                    if self._obs_counts is not None:
                        self._obs_counts.ring.inc()
                    return "ring", region, region
        self.stats.pool_pickled_batches += 1
        if self._obs_counts is not None:
            self._obs_counts.pickled.inc()
        return "pickle", group, None

    def _dispatch(self, worker, token, positions, group) -> None:
        while len(worker.pending) >= self._max_inflight:
            self._pump(block=True)
        spans = {} if self._trace_active else None
        mode, payload, region = self._encode(worker, group, spans)
        pending = _PendingBatch(
            token, worker.next_seq, positions, group, mode, payload, region, spans
        )
        worker.next_seq += 1
        worker.pending.append(pending)
        incarnation = worker.incarnation
        # Drain whatever results are ready before pushing more work:
        # keeps the result pipe shallow so the two directions cannot
        # fill (and deadlock) simultaneously.
        self._pump(block=False)
        if worker.incarnation != incarnation:
            # The pump found the worker dead and _revive already replayed
            # every pending batch — including the one just queued, under a
            # reassigned seq.  Sending it again would enforce it twice and
            # trip the out-of-order check on the duplicate result.
            return
        if self._trace_active:
            pending.send_ts = time.perf_counter()
        self._send(worker, ("batch", pending.seq, mode, payload))

    def _send(self, worker: _PoolWorker, message) -> None:
        if worker.cmd is None:
            self._revive(worker)
            return
        try:
            worker.cmd.send(message)
        except (BrokenPipeError, OSError):
            # The worker died; pending batches (including one just
            # queued) replay to its replacement, control-plane pushes
            # are subsumed by the respawn's current-state seed.
            self._revive(worker)

    def _pump(self, block: bool) -> None:
        connections = {
            worker.results: worker
            for worker in self._workers
            if worker.results is not None
        }
        if not connections:
            return
        ready = _connection_wait(list(connections), timeout=None if block else 0)
        for connection in ready:
            worker = connections[connection]
            if worker.results is not connection:
                continue  # worker was revived while handling this round
            try:
                message = connection.recv()
            except (EOFError, OSError):
                self._revive(worker)
                continue
            self._on_message(worker, message)

    def _on_message(self, worker: _PoolWorker, message) -> None:
        kind = message[0]
        if kind == "batch":
            _, seq, elapsed, verdict_values, stats_delta, records, obs_payload = message
            if not worker.pending or worker.pending[0].seq != seq:
                raise WorkerPoolError(
                    f"{self._name} worker {worker.index} returned out-of-order "
                    f"batch {seq}"
                )
            pending = worker.pending.popleft()
            if pending.region is not None:
                worker.ring.release(pending.region)
            tracing = self._trace_active and pending.spans is not None
            if tracing:
                fold_start = time.perf_counter()
            self._fold(worker.index, stats_delta, records)
            if self._obs is not None:
                if self._obs_counts is not None:
                    self._obs_counts.batches.inc()
                if obs_payload is not None:
                    recv_ts, registry_delta = obs_payload
                    if registry_delta:
                        self._obs.merge_worker(registry_delta)
                    if tracing:
                        self._close_trace(
                            worker, pending, recv_ts, elapsed, fold_start
                        )
            burst = self._bursts.get(pending.token)
            if burst is not None:
                for position, value in zip(pending.positions, verdict_values):
                    burst.results[position] = (Verdict(value), burst.packets[position])
                burst.elapsed[worker.index] += elapsed
                burst.remaining.discard(worker.index)
                if not burst.remaining:
                    burst.wall_s = time.perf_counter() - burst.started
        elif kind == "flush":
            _, flush_id, stats_delta, records, obs_payload = message
            self._fold(worker.index, stats_delta, records)
            if self._obs is not None and obs_payload is not None and obs_payload[1]:
                self._obs.merge_worker(obs_payload[1])
            worker.flushed = flush_id
        elif kind == "error":
            detail = message[1]
            failing_seq = message[2] if len(message) > 2 else None
            if (
                failing_seq is not None
                and worker.pending
                and worker.pending[0].seq == failing_seq
            ):
                self._poison(worker, detail)
            else:
                # A control-plane apply failed (record/sync/flush) — the
                # worker's state may have diverged; surface immediately.
                raise WorkerPoolError(
                    f"{self._name} worker {worker.index} failed: {detail}"
                )
        else:
            raise WorkerPoolError(f"unexpected pool result kind {kind!r}")

    def _poison(self, worker: _PoolWorker, detail: str) -> None:
        """A worker reported an enforcement error for its head batch.

        The batch is poisoned: the reply arrived, so this is a
        deterministic enforcement failure, not a lost worker — replaying
        it into the respawn would only crash every replacement, forever.
        Pop and account it (release its ring region, fail its burst with
        a clear error surfaced at :meth:`collect`); the respawn then
        replays only the healthy batches queued behind it.
        """
        pending = worker.pending.popleft()
        if pending.region is not None:
            worker.ring.release(pending.region)
        self.stats.pool_poisoned_batches += 1
        error = WorkerPoolError(
            f"{self._name} worker {worker.index} failed enforcing batch "
            f"{pending.seq} of burst {pending.token} "
            f"({len(pending.packets)} packet(s)): {detail}"
        )
        logger.error("%s", error)
        burst = self._bursts.get(pending.token)
        if burst is not None and burst.failed is None:
            burst.failed = error

    def _close_trace(
        self, worker: _PoolWorker, pending: _PendingBatch, recv_ts, elapsed, fold_start
    ) -> None:
        """Assemble and record the completed batch's span trace.

        Parent and worker stamps share the CLOCK_MONOTONIC perf_counter
        domain on one host; queue_wait is clamped at zero to absorb the
        residual cross-process jitter.
        """
        trace = BatchTrace(
            batch_id=f"{self._name}:{pending.token}.{pending.seq}",
            worker=worker.index,
        )
        for stage in ("serialize", "ring_write"):
            span = pending.spans.get(stage)
            if span is not None:
                trace.add(stage, span[0], span[1])
        if pending.send_ts:
            trace.add("queue_wait", pending.send_ts, max(0.0, recv_ts - pending.send_ts))
        trace.add("enforce", recv_ts, elapsed)
        trace.add("fold", fold_start, time.perf_counter() - fold_start)
        self._obs.observe_batch(self._name, worker.index, trace)

    def health(self):
        """A structural :class:`~repro.obs.health.PoolHealthSnapshot`."""
        from repro.obs.health import PoolHealthSnapshot

        return PoolHealthSnapshot(
            name=self._name,
            workers=len(self._workers),
            queue_depths=tuple(len(worker.pending) for worker in self._workers),
            outstanding_bursts=len(self._bursts),
            incarnations=tuple(worker.incarnation for worker in self._workers),
            alive=tuple(
                worker.process is not None and worker.process.is_alive()
                for worker in self._workers
            ),
            crashes=self.stats.pool_worker_crashes,
            respawns=self.stats.pool_worker_respawns,
            batches_replayed=self.stats.pool_batches_replayed,
            ring_batches=self.stats.pool_ring_batches,
            pickled_batches=self.stats.pool_pickled_batches,
            delta_pushes=self.stats.pool_delta_pushes,
            snapshot_syncs=self.stats.pool_snapshot_syncs,
        )

    def _revive(self, worker: _PoolWorker) -> None:
        """Respawn a dead worker and replay its unacknowledged batches."""
        # Results delivered before the crash may still sit in the pipe
        # buffer ahead of the EOF — harvest them first so completed
        # batches are not double-counted by the replay.
        if worker.results is not None:
            while True:
                try:
                    if not worker.results.poll(0):
                        break
                    message = worker.results.recv()
                except (EOFError, OSError):
                    break
                self._on_message(worker, message)
        for connection in (worker.cmd, worker.results):
            if connection is not None:
                try:
                    connection.close()
                except Exception:
                    pass
        worker.cmd = worker.results = None
        if worker.process is not None:
            worker.process.join(timeout=5)
            worker.process = None
        self.stats.pool_worker_crashes += 1
        if self._obs_counts is not None:
            self._obs_counts.crashes.inc()
        logger.warning(
            "%s worker %d died; respawning and replaying %d pending batch(es)",
            self._name,
            worker.index,
            len(worker.pending),
        )
        if self._closed:
            worker.pending.clear()
            return
        replay = list(worker.pending)
        worker.pending.clear()
        self._spawn(worker)
        self.stats.pool_worker_respawns += 1
        if self._obs_counts is not None:
            self._obs_counts.respawns.inc()
        for pending in replay:
            pending.seq = worker.next_seq
            worker.next_seq += 1
            worker.pending.append(pending)
            burst = self._bursts.get(pending.token)
            if burst is not None:
                burst.replayed += 1
            self.stats.pool_batches_replayed += 1
            if self._obs_counts is not None:
                self._obs_counts.replays.inc()
            # Ring regions were never released (no result arrived), and
            # the respawned fork inherits the very same mapping — the
            # reference replays as-is.  Re-stamp the send: queue_wait
            # measures this delivery, not the one that died.
            if self._trace_active:
                pending.send_ts = time.perf_counter()
            self._send(worker, ("batch", pending.seq, pending.mode, pending.payload))

    def _reseed(self, worker: _PoolWorker) -> None:
        """Replace a worker with a fresh fork of current parent state
        (stale shadow or behind a compaction).  Pending work drains
        first so nothing is enforced twice."""
        while worker.pending:
            self._pump(block=True)
        if worker.cmd is not None:
            try:
                worker.cmd.send(("exit",))
            except Exception:
                pass
        if worker.process is not None:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.process = None
        for connection in (worker.cmd, worker.results):
            if connection is not None:
                try:
                    connection.close()
                except Exception:
                    pass
        worker.cmd = worker.results = None
        self._spawn(worker)
        self.stats.pool_worker_respawns += 1
        if self._obs_counts is not None:
            self._obs_counts.respawns.inc()


class ShardWorkerPool(WorkerPool):
    """One persistent worker per enforcer shard (NFQUEUE consumer model).

    With a ``control`` store attached each worker holds a
    :class:`GatewayReplica` shadow and receives surgical delta records;
    without one, policy changes fall back to pickled full syncs.
    """

    def __init__(
        self,
        shards,
        control=None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        name: str = "shard-pool",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        obs=None,
    ) -> None:
        self._shards = list(shards)
        num_shards = len(self._shards)
        obs_config = obs.worker_config() if obs is not None else None
        specs = [
            _ShardSeedSpec(shard, control, f"{name}-w{index}", obs_config)
            for index, shard in enumerate(self._shards)
        ]
        super().__init__(
            specs,
            route=lambda packet: flow_hash(packet) % num_shards,
            fold=self._fold_into_shard,
            ring_bytes=ring_bytes,
            name=name,
            max_inflight=max_inflight,
            obs=obs,
        )
        self._has_shadows = control is not None

    def _fold_into_shard(self, index: int, stats_delta, records) -> None:
        shard = self._shards[index]
        shard.stats.merge(stats_delta)
        if shard.keep_records:
            shard.records.extend(records)
        if shard.audit_sink is not None:
            for record in records:
                shard.audit_sink.publish(record, shard.audit_source)


class GatewayWorkerPool(WorkerPool):
    """One persistent worker per fleet gateway, forked around the fleet's
    own :class:`GatewayReplica` (enforcer + shadow store).  Workers run
    their gateway's shards sequentially in-process: fleet gateways
    always use the sequential shard backend."""

    def __init__(
        self,
        replicas,
        ring_bytes: int = DEFAULT_RING_BYTES,
        name: str = "gateway-pool",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        obs=None,
    ) -> None:
        self._replicas = list(replicas)
        num_gateways = len(self._replicas)
        obs_config = obs.worker_config() if obs is not None else None
        specs = [_GatewaySeedSpec(replica, obs_config) for replica in self._replicas]
        super().__init__(
            specs,
            route=lambda packet: flow_hash(packet) % num_gateways,
            fold=self._fold_into_gateway,
            ring_bytes=ring_bytes,
            name=name,
            max_inflight=max_inflight,
            obs=obs,
        )
        self._has_shadows = True

    def _fold_into_gateway(self, index: int, stats_delta, records) -> None:
        enforcer = self._replicas[index].enforcer
        unit = _enforcement_units(enforcer)[0]
        unit.stats.merge(stats_delta)
        if unit.keep_records:
            unit.records.extend(records)
        if unit.audit_sink is not None:
            for record in records:
                unit.audit_sink.publish(record, unit.audit_source)
