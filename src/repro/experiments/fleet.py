"""Fleet-scale replay: replicated gateways under live policy churn.

The ROADMAP north star (heavy traffic from millions of users) outgrows
one gateway; this driver measures the fleet runtime end to end:

* a :class:`~repro.workloads.fleet.DeviceFleet` provisions hundreds of
  BYOD devices with per-device app mixes from the workload corpus and
  derives a heavy-tailed packet trace;
* a multi-gateway :class:`~repro.core.deployment.BorderPatrolDeployment`
  routes the trace across N :class:`~repro.core.policy_store.GatewayReplica`
  gateways by flow hash, while an administrator commits rule edits to
  the shared :class:`~repro.core.policy_store.PolicyStore` between
  bursts;
* replicas are deliberately kept off the live push path, so every
  commit opens a measurable convergence lag (versions behind the delta
  log head) that the next catch-up replay closes — the staged-rollout
  loop, instrumented;
* a single head-subscribed enforcer processes the identical trace under
  the identical edit schedule, and the fleet must match it verdict for
  verdict: replication must never change what the policy decides.

:func:`run_shard_backend_comparison` separately validates the *modelled*
shard parallelism with wall-clock: the same replay through
``ShardedEnforcer`` with the sequential backend vs the persistent
worker pool.

:func:`run_late_joiner_bench` measures the other scale axis — control-
plane history.  A gateway provisioned after hundreds of committed
policy versions must not replay the whole history: with log compaction
(``compact_every``) it bootstraps from the base snapshot and replays
only the delta suffix, and the bench holds it to that bound while
asserting fingerprint convergence and verdict identity against a
head-subscribed gateway.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core.deployment import BorderPatrolDeployment
from repro.core.fleet import FLEET_BACKENDS, GatewayFleet
from repro.core.policy import Policy, PolicyAction, PolicyLevel, PolicyRule
from repro.core.policy_enforcer import PolicyEnforcer
from repro.core.policy_store import (
    RULE_INTERN_CACHE,
    GatewayReplica,
    PolicyStore,
    PolicyUpdate,
)
from repro.experiments.common import format_table, split_into_bursts
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.netfilter import Verdict
from repro.netstack.sharding import ShardedEnforcer
from repro.workloads.corpus import CorpusConfig, CorpusGenerator
from repro.workloads.fleet import DeviceFleet, DeviceFleetConfig


def available_cpus() -> int:
    """CPUs this process may schedule on (what real fork parallelism has)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


@dataclass
class ShardBackendComparison:
    """Sequential vs persistent pool on one batched replay.

    The replay is split into ``batches`` equal bursts and both backends
    process the identical burst sequence.  The pool forks its workers
    once and amortizes that cost across the whole run, so
    :attr:`pool_ipc_ms_per_batch` — measured wall minus the modelled
    in-worker compute, spread over the burst count — is the runtime
    overhead the parallel backend adds on top of the enforcement work.
    """

    packets: int
    shards: int
    cpus: int
    sequential_wall_s: float
    pool_wall_s: float
    verdicts_match: bool
    batches: int = 1
    #: Modelled in-worker compute (sum over bursts of the slowest
    #: shard's elapsed): the wall the pool would cost if IPC were free.
    pool_compute_s: float = 0.0

    @property
    def pool_speedup(self) -> float:
        """Real wall-clock speedup of the pool backend over sequential."""
        if self.pool_wall_s <= 0:
            return float("inf")
        return self.sequential_wall_s / self.pool_wall_s

    @property
    def pool_ipc_ms_per_batch(self) -> float:
        """Pool IPC + one-time spawn beyond compute, amortized per burst."""
        if self.batches <= 0:
            return 0.0
        return max(0.0, self.pool_wall_s - self.pool_compute_s) / self.batches * 1e3

    def summary(self) -> str:
        return "\n".join(
            [
                f"shard backends on {self.packets} packets in {self.batches} "
                f"batch(es), {self.shards} shards, {self.cpus} cpu(s):",
                f"  sequential      {self.sequential_wall_s * 1e3:8.1f} ms",
                f"  persistent pool {self.pool_wall_s * 1e3:8.1f} ms "
                f"({self.pool_speedup:.2f}x vs sequential, "
                f"{self.pool_ipc_ms_per_batch:.2f} ms/batch amortized IPC)",
                f"  verdict-identical across both: {self.verdicts_match}",
            ]
        )


def _run_batched_replay(enforcer, bursts, pipelined=False):
    """Run one burst sequence; return (verdicts, measured wall, compute)."""
    verdicts: list[Verdict] = []
    compute = 0.0
    started = time.perf_counter()
    if pipelined:
        tokens = [enforcer.submit_batch(burst) for burst in bursts]
        batches = [enforcer.collect_batch(token) for token in tokens]
    else:
        batches = [enforcer.process_batch_timed(burst) for burst in bursts]
    wall = time.perf_counter() - started
    for batch in batches:
        verdicts.extend(verdict for verdict, _ in batch.results)
        compute += batch.parallel_wall_s
    return verdicts, wall, compute


def run_shard_backend_comparison(
    packets: int = 10_000,
    flows: int = 256,
    shards: int = 4,
    corpus_apps: int = 6,
    seed: int = 7,
    flow_cache_size: int = 0,
    batches: int = 16,
) -> ShardBackendComparison:
    """Measure both shard backends on the identical batched replay.

    Both enforcers process the identical burst sequence with identical
    shard configuration; ``flow_cache_size`` defaults to 0 (compiled-only
    path) so there is real per-packet work for the parallel fan-out to
    win on.  A small warm-up burst triggers lazy per-app policy
    compilation on both sides before the timed runs — the pool's workers
    then fork *once* from the warmed parent.  The pool run is pipelined
    (submit-ahead), so its measured wall also credits the overlap of
    parent-side stitching with worker-side enforcement.
    """
    if packets < 1:
        raise ValueError("the replay needs at least one packet")
    if shards < 2:
        raise ValueError("comparing backends needs at least two shards")
    if batches < 1:
        raise ValueError("the replay needs at least one batch")
    database = build_signature_database(corpus_apps=corpus_apps, seed=seed)
    replay = build_replay(database.entries(), packets=packets, flows=flows, seed=seed)
    bursts = [burst for burst in split_into_bursts(replay, batches) if burst]
    policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="backend-compare")
    kwargs = dict(
        database=database,
        policy=policy,
        num_shards=shards,
        keep_records=False,
        flow_cache_size=flow_cache_size,
    )
    sequential = ShardedEnforcer(backend="sequential", **kwargs)
    pooled = ShardedEnforcer(backend="pool", **kwargs)
    warmup = replay[: min(64, len(replay))]
    sequential.process_batch_timed(warmup)
    pooled.process_batch_timed(warmup, backend="sequential")

    seq_verdicts, seq_wall, _ = _run_batched_replay(sequential, bursts)
    # The pool's effective backend may have degraded to sequential on
    # fork-less platforms; pipelining only exists on the real pool.
    pool_verdicts, pool_wall, pool_compute = _run_batched_replay(
        pooled, bursts, pipelined=pooled.backend == "pool"
    )
    pooled.close()
    return ShardBackendComparison(
        packets=len(replay),
        shards=shards,
        cpus=available_cpus(),
        sequential_wall_s=seq_wall,
        pool_wall_s=pool_wall,
        verdicts_match=seq_verdicts == pool_verdicts,
        batches=len(bursts),
        pool_compute_s=pool_compute,
    )


@dataclass
class LateJoinerResult:
    """Attach cost of a gateway that joins after heavy policy churn.

    The compacted side attaches from a snapshot + suffix log; the
    control side replays the identical full history from an uncompacted
    log.  Both must land on the head's fingerprint and enforce
    verdict-identically to a head-subscribed gateway.
    """

    versions: int
    compact_every: int
    packets: int
    #: Delta records surviving compaction (the log's tail window).
    suffix_records: int
    snapshot_version: int
    snapshot_rules: int
    #: Records the late joiner applied: snapshot bootstrap + suffix.
    bootstrap_records: int
    #: Records the control replica replayed: the entire history.
    full_history_records: int
    compacted_log_bytes: int
    full_log_bytes: int
    bootstrap_wall_s: float
    full_replay_wall_s: float
    converged: bool
    verdicts_match: bool

    @property
    def bootstrap_bound_held(self) -> bool:
        """The acceptance bound: attach cost is O(suffix), not O(history)."""
        return self.bootstrap_records <= self.suffix_records + 1

    @property
    def replay_savings(self) -> float:
        """Fraction of the history the snapshot bootstrap skipped."""
        if self.full_history_records <= 0:
            return 0.0
        return 1.0 - self.bootstrap_records / self.full_history_records

    def summary(self) -> str:
        return "\n".join(
            [
                f"late joiner after {self.versions} committed versions "
                f"(compact_every={self.compact_every}):",
                f"  bootstrap cost: {self.bootstrap_records} record(s) "
                f"(snapshot @v{self.snapshot_version} with {self.snapshot_rules} rule(s) "
                f"+ {self.suffix_records}-record suffix) in {self.bootstrap_wall_s * 1e3:.1f} ms",
                f"  uncompacted control: {self.full_history_records} record(s) "
                f"in {self.full_replay_wall_s * 1e3:.1f} ms "
                f"({self.replay_savings:.0%} of the history skipped)",
                f"  log size on the wire: {self.compacted_log_bytes} bytes compacted "
                f"vs {self.full_log_bytes} bytes full history",
                f"  O(suffix) bound held: {self.bootstrap_bound_held}; "
                f"converged to head fingerprint: {self.converged}; "
                f"verdict-identical on {self.packets} packets: {self.verdicts_match}",
            ]
        )


def run_late_joiner_bench(
    versions: int = 240,
    compact_every: int = 50,
    packets: int = 2_000,
    flows: int = 128,
    gateways: int = 2,
    corpus_apps: int = 6,
    seed: int = 7,
) -> LateJoinerResult:
    """Measure snapshot bootstrap vs full-history replay for a late joiner.

    Two stores commit the identical ``versions``-transaction churn
    schedule: one with ``compact_every`` retention (its log is snapshot
    + suffix), one append-only (the control).  A fresh gateway then
    attaches to each from the serialized log alone, and both are
    replayed against a head-subscribed enforcer for verdict identity.
    """
    if versions < 1:
        raise ValueError("the late joiner needs at least one committed version")
    if compact_every < 1:
        raise ValueError("compact_every must be at least 1")
    database = build_signature_database(corpus_apps=corpus_apps, seed=seed)
    replay = build_replay(database.entries(), packets=packets, flows=flows, seed=seed)
    base_policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="late-joiner-base")

    fleet = GatewayFleet(
        database=database,
        policy=base_policy,
        num_gateways=gateways,
        live=True,
        compact_every=compact_every,
        keep_records=False,
    )
    control_store = PolicyStore.from_policy(base_policy, name="late-joiner-control")

    # The identical churn schedule commits to both stores: rotating
    # per-app deny toggles, every commit one version (ids are explicit,
    # so both histories produce identical fingerprint chains).
    churn_targets = [
        entry.package_name.replace(".", "/") for entry in database.entries()
    ]
    toggled: dict[str, bool] = {}
    for index in range(versions):
        target = churn_targets[index % len(churn_targets)]
        rule_id = f"churn-{target}"
        if toggled.get(target):
            update = PolicyUpdate(reason=f"unblock {target}").remove_rule(rule_id)
            toggled[target] = False
        else:
            update = PolicyUpdate(reason=f"block {target}").add_rule(
                PolicyRule(
                    action=PolicyAction.DENY,
                    level=PolicyLevel.LIBRARY,
                    target=target,
                ),
                rule_id=rule_id,
            )
            toggled[target] = True
        fleet.apply_update(update)
        control_store.apply(update)

    compacted_log = fleet.delta_log
    full_log = control_store.delta_log
    assert compacted_log.snapshot is not None

    started = time.perf_counter()
    late = fleet.add_gateway(name="late-joiner")
    bootstrap_wall = time.perf_counter() - started

    control = PolicyEnforcer(database=database, policy=None, keep_records=False)
    started = time.perf_counter()
    control_replica = GatewayReplica.from_log(control, full_log, name="full-history")
    full_replay_wall = time.perf_counter() - started

    head = PolicyEnforcer(
        database=database, policy=fleet.store.snapshot(), keep_records=False
    )
    head_verdicts = [head.process(packet)[0] for packet in replay]
    late_verdicts = [late.enforcer.process(packet)[0] for packet in replay]
    control_verdicts = [control_replica.enforcer.process(packet)[0] for packet in replay]

    return LateJoinerResult(
        versions=versions,
        compact_every=compact_every,
        packets=len(replay),
        suffix_records=len(compacted_log),
        snapshot_version=compacted_log.snapshot.version,
        snapshot_rules=len(compacted_log.snapshot.rules),
        bootstrap_records=late.records_applied,
        full_history_records=control_replica.records_applied,
        compacted_log_bytes=len(compacted_log.to_json()),
        full_log_bytes=len(full_log.to_json()),
        bootstrap_wall_s=bootstrap_wall,
        full_replay_wall_s=full_replay_wall,
        converged=(
            late.verify_against(fleet.store)
            and control_replica.fingerprint() == fleet.store.fingerprint()
        ),
        verdicts_match=late_verdicts == head_verdicts == control_verdicts,
    )


@dataclass
class FleetBenchResult:
    """One fleet replay under churn, plus its single-gateway baseline."""

    packets: int
    devices: int
    gateways: int
    shards_per_gateway: int
    edits: int
    flows: int
    fleet_wall_s: float = 0.0
    baseline_wall_s: float = 0.0
    fleet_verdicts: tuple = ()
    baseline_verdicts: tuple = ()
    per_gateway_packets: tuple[int, ...] = ()
    #: Largest versions-behind-head each gateway reached before a catch-up.
    max_lag: dict = field(default_factory=dict)
    #: Delta-log records each gateway replayed over the whole schedule.
    records_applied: dict = field(default_factory=dict)
    final_versions: dict = field(default_factory=dict)
    store_version: int = 0
    #: Every replica verified (version + rule-table fingerprint) against
    #: the store after the run.
    converged: bool = False
    #: Apps that lost the most flow-cache entries fleet-wide.
    top_churn_apps: list = field(default_factory=list)
    #: Interned-rule cache traffic during catch-up replay: replicas
    #: re-consuming identical logged rule strings should *hit* (reuse a
    #: parse) far more often than they *miss* (parse from scratch).
    catch_up_parse_hits: int = 0
    catch_up_parse_misses: int = 0
    #: Fleet-wide integrity failures (tag-less, unknown-app, and
    #: undecodable packets) — surfaced from the aggregated enforcer
    #: stats instead of requiring a walk over raw records.
    untagged_packets: int = 0
    unknown_apps: int = 0
    decode_errors: int = 0
    backend: ShardBackendComparison | None = None
    #: Effective gateway execution backend ("sequential", or "pool" for
    #: the persistent gateway worker pool; may read "sequential" after
    #: a graceful degradation on fork-less platforms).
    fleet_backend: str = "sequential"
    #: Pool backend only: measured submit-to-harvest wall-clock of the
    #: pipelined burst loop.  The parent commits edits, replays the
    #: baseline and catches replicas up *while* workers enforce, so this
    #: includes the overlapped control-plane work — the pipelining win
    #: is this number staying close to the workers' own compute time.
    fleet_measured_wall_s: float = 0.0
    #: Pool health counters surfaced from the aggregated stats.
    pool_worker_crashes: int = 0
    pool_delta_pushes: int = 0
    pool_worker_respawns: int = 0
    backend_fallbacks: int = 0
    pool_ring_batches: int = 0
    pool_pickled_batches: int = 0

    @property
    def verdicts_match(self) -> bool:
        return self.fleet_verdicts == self.baseline_verdicts

    @property
    def fleet_kpps(self) -> float:
        return self.packets / self.fleet_wall_s / 1e3 if self.fleet_wall_s > 0 else float("inf")

    @property
    def baseline_kpps(self) -> float:
        return (
            self.packets / self.baseline_wall_s / 1e3
            if self.baseline_wall_s > 0
            else float("inf")
        )

    def table(self) -> str:
        rows = [
            (
                "single-gateway",
                self.packets,
                f"{self.baseline_wall_s * 1e3:.1f}",
                f"{self.baseline_kpps:.1f}",
                "-",
                "-",
            )
        ]
        lag = self.max_lag
        applied = self.records_applied
        for name, version in self.final_versions.items():
            rows.append(
                (
                    name,
                    self.per_gateway_packets[int(name[2:])]
                    if name.startswith("gw")
                    else "-",
                    "-",
                    "-",
                    f"{lag.get(name, 0)} (applied {applied.get(name, 0)})",
                    f"v{version}",
                )
            )
        rows.append(
            (
                f"fleet-{self.gateways}x{self.shards_per_gateway}",
                self.packets,
                f"{self.fleet_wall_s * 1e3:.1f}",
                f"{self.fleet_kpps:.1f}",
                "-",
                f"v{self.store_version} (head)",
            )
        )
        table = format_table(
            ("configuration", "packets", "wall (ms)", "kpps", "max lag", "policy version"),
            rows,
        )
        churn = (
            ", ".join(f"{app}:{count}" for app, count in self.top_churn_apps)
            if self.top_churn_apps
            else "(none)"
        )
        lines = [
            table,
            f"{self.devices} devices over {self.flows} flows; {self.edits} edits "
            f"committed live ({self.store_version} store versions)",
            f"apps churning the flow cache hardest: {churn}",
            f"catch-up rule parses: {self.catch_up_parse_misses} cold, "
            f"{self.catch_up_parse_hits} reused from the intern cache",
            f"integrity outcomes: {self.untagged_packets} untagged, "
            f"{self.unknown_apps} unknown-app, {self.decode_errors} decode-failure",
            f"replicas converged (fingerprint-verified): {self.converged}",
            f"fleet verdict-identical to single gateway: {self.verdicts_match}",
        ]
        if self.fleet_backend == "pool":
            lines.append(
                f"gateway pool: {self.fleet_measured_wall_s * 1e3:.1f} ms measured "
                f"pipelined wall (modelled compute {self.fleet_wall_s * 1e3:.1f} ms); "
                f"{self.pool_delta_pushes} delta pushes to live workers, "
                f"{self.pool_worker_crashes} worker crash(es)"
            )
            lines.append(
                f"pool health: {self.pool_worker_respawns} respawn(s), "
                f"{self.backend_fallbacks} backend fallback(s); batches "
                f"{self.pool_ring_batches} via ring, "
                f"{self.pool_pickled_batches} pickled"
            )
        if self.backend is not None:
            lines.append(self.backend.summary())
        return "\n".join(lines)


def run_fleet_bench(
    packets: int = 10_000,
    devices: int = 120,
    gateways: int = 3,
    shards_per_gateway: int = 2,
    edits: int = 12,
    corpus_apps: int = 8,
    seed: int = 7,
    flow_cache_size: int = 4096,
    apps_per_device: tuple[int, int] = (1, 3),
    backend_packets: int = 0,
    backend: str = "sequential",
) -> FleetBenchResult:
    """Replay one fleet workload under live churn; compare with one gateway.

    Per burst: the administrator commits a rotating set of per-app deny
    edits to the shared store (replicas off the live path lag by exactly
    those versions — the recorded convergence lag), every gateway then
    catches up by delta-log replay, and the burst is processed across
    the fleet.  A single enforcer subscribed directly to the store
    replays the identical schedule as the verdict baseline.

    ``backend="pool"`` runs the fleet on the persistent gateway worker
    pool with a *pipelined* burst loop: each burst is submitted to the
    workers first, the parent then replays the baseline and commits the
    next round of edits while the workers enforce, and only then is the
    burst harvested.  Pipe FIFO ordering keeps the worker-side record
    replay and batch enforcement in exactly the serial interleaving, so
    verdict identity against the baseline is unchanged.  The pool
    degrades gracefully to sequential on platforms without the ``fork``
    start method.

    ``backend_packets > 0`` additionally runs
    :func:`run_shard_backend_comparison` at that replay size.
    """
    if packets <= edits:
        raise ValueError("need more packets than edits so every burst is non-empty")
    if gateways < 2:
        raise ValueError("a fleet bench needs at least two gateway replicas")
    if corpus_apps < 2:
        raise ValueError("the churn schedule needs at least two corpus apps")
    if devices < 1:
        raise ValueError("the device fleet needs at least one device")

    apps = CorpusGenerator(CorpusConfig(n_apps=corpus_apps, seed=seed)).generate()
    base_policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="fleet-base")
    if backend not in FLEET_BACKENDS:
        raise ValueError(
            f"unknown fleet backend {backend!r}; choose from {FLEET_BACKENDS}"
        )
    deployment = BorderPatrolDeployment(
        policy=base_policy,
        num_gateways=gateways,
        enforcer_shards=shards_per_gateway,
        # "pool" runs whole gateways in long-lived workers (their shards
        # in-process).
        gateway_backend=backend,
        drop_untagged=True,
        drop_unknown_apps=True,
        keep_records=False,
    )
    fleet = deployment.fleet
    device_fleet = DeviceFleet(
        deployment,
        apps,
        DeviceFleetConfig(
            devices=devices,
            min_apps_per_device=apps_per_device[0],
            max_apps_per_device=apps_per_device[1],
            seed=seed,
        ),
    )
    trace = device_fleet.build_trace(packets)
    bursts = [burst for burst in split_into_bursts(trace, edits + 1) if burst]
    store = deployment.policy_store

    # The verdict baseline: one enforcer subscribed straight to the head
    # store, so it is always at the committed version when a burst runs.
    baseline = PolicyEnforcer(
        database=deployment.database,
        policy=store.snapshot(),
        keep_records=False,
        flow_cache_size=flow_cache_size,
    )
    store.subscribe(baseline, push=False)

    # Staged-rollout mode: commits accumulate in the delta log and every
    # gateway converges by catch-up replay between bursts.
    fleet.set_live(False)

    result = FleetBenchResult(
        packets=len(trace),
        devices=device_fleet.device_count(),
        gateways=gateways,
        shards_per_gateway=shards_per_gateway,
        edits=len(bursts) - 1,
        flows=len(device_fleet.build_flows()),
        max_lag={replica.name: 0 for replica in fleet.replicas},
        records_applied={replica.name: 0 for replica in fleet.replicas},
    )

    churn_targets = [app.package_name.replace(".", "/") for app in apps]
    toggled: dict[str, bool] = {}
    fleet_verdicts: list[Verdict] = []
    baseline_verdicts: list[Verdict] = []
    fleet_wall = 0.0
    baseline_wall = 0.0
    per_gateway = [0] * gateways

    for index, burst in enumerate(bursts):
        # Converge the fleet (and record the lag the last edits opened).
        # Replicas are independent gateways catching up concurrently, so
        # the burst pays the slowest replica's replay, not the sum.
        for name, lag in fleet.lags().items():
            result.max_lag[name] = max(result.max_lag[name], lag)
        catch_up_walls = []
        hits_before = RULE_INTERN_CACHE.hits
        misses_before = RULE_INTERN_CACHE.misses
        for replica in fleet.replicas:
            started = time.perf_counter()
            applied = replica.catch_up(store.delta_log)
            catch_up_walls.append(time.perf_counter() - started)
            result.records_applied[replica.name] += applied
        result.catch_up_parse_hits += RULE_INTERN_CACHE.hits - hits_before
        result.catch_up_parse_misses += RULE_INTERN_CACHE.misses - misses_before
        fleet_wall += max(catch_up_walls, default=0.0)

        # Pipelined pool mode: hand the burst to the workers *first*
        # (they enforce at the versions the replicas hold right now),
        # then overlap the baseline replay and the next edit round with
        # the workers' enforcement, and harvest last.
        pooled = fleet.backend == "pool"
        if pooled:
            token = fleet.submit_burst(burst)
            batch = None
        else:
            batch = fleet.process_batch_timed(burst)

        started = time.perf_counter()
        processed = baseline.process_batch(burst)
        baseline_wall += time.perf_counter() - started
        baseline_verdicts.extend(verdict for verdict, _ in processed)

        if index < len(bursts) - 1:
            # Rotate 1..3 per-app deny toggles; each is one committed
            # version, so the pre-catch-up lag varies across bursts.
            # Commit time (which includes the live-subscribed baseline's
            # delta application) is charged to the baseline path, the
            # replicas' replay of the same transactions to the fleet —
            # each side pays for applying every edit exactly once.
            started = time.perf_counter()
            for offset in range(1 + index % 3):
                target = churn_targets[(index + offset) % len(churn_targets)]
                rule_id = f"churn-{target}"
                if toggled.get(target):
                    store.apply(
                        PolicyUpdate(reason=f"unblock {target}").remove_rule(rule_id)
                    )
                    toggled[target] = False
                else:
                    store.apply(
                        PolicyUpdate(reason=f"block {target}").add_rule(
                            PolicyRule(
                                action=PolicyAction.DENY,
                                level=PolicyLevel.LIBRARY,
                                target=target,
                            ),
                            rule_id=rule_id,
                        )
                    )
                    toggled[target] = True
            baseline_wall += time.perf_counter() - started

        if pooled:
            batch = fleet.collect_burst(token)
            result.fleet_measured_wall_s += batch.measured_wall_s
        fleet_wall += batch.parallel_wall_s
        fleet_verdicts.extend(verdict for verdict, _ in batch.results)
        per_gateway = [
            total + count for total, count in zip(per_gateway, batch.gateway_packet_counts)
        ]

    result.fleet_backend = fleet.backend
    result.fleet_wall_s = fleet_wall
    result.baseline_wall_s = baseline_wall
    result.fleet_verdicts = tuple(fleet_verdicts)
    result.baseline_verdicts = tuple(baseline_verdicts)
    result.per_gateway_packets = tuple(per_gateway)
    result.final_versions = fleet.policy_versions()
    result.store_version = store.version
    result.converged = fleet.converged
    aggregated = fleet.aggregate_stats()
    fleet.close()
    result.top_churn_apps = aggregated.top_churn_apps(limit=3)
    result.untagged_packets = aggregated.untagged_packets
    result.unknown_apps = aggregated.unknown_apps
    result.decode_errors = aggregated.decode_errors
    result.pool_worker_crashes = aggregated.pool_worker_crashes
    result.pool_delta_pushes = aggregated.pool_delta_pushes
    result.pool_worker_respawns = aggregated.pool_worker_respawns
    result.backend_fallbacks = aggregated.backend_fallbacks
    result.pool_ring_batches = aggregated.pool_ring_batches
    result.pool_pickled_batches = aggregated.pool_pickled_batches
    # The store seeds at version 0, so its version is exactly the number
    # of churn transactions committed over the schedule.
    result.edits = store.version
    if backend_packets > 0:
        result.backend = run_shard_backend_comparison(
            packets=backend_packets,
            shards=max(2, shards_per_gateway),
            corpus_apps=corpus_apps,
            seed=seed,
        )
    return result
