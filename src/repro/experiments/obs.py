"""Observability overhead bench and the live fleet profiler driver.

The runtime observability layer (:mod:`repro.obs`) promises two things
the rest of the repo depends on: instrumentation must not change what
the policy decides, and it must stay cheap enough to leave attached in
production.  :func:`run_obs_bench` pins both — three pool-backed
enforcers process the identical batched replay:

* **uninstrumented** — no observability attached (the baseline);
* **null registry**  — the full instrumented code path with every
  observation a no-op (the "is it attached" branch cost);
* **instrumented**   — a live :class:`~repro.obs.RuntimeObservability`
  with sampled enforcer stages, cross-process batch spans, and worker
  registry deltas folding back into the parent.

Walls are medians over ``rounds`` interleaved repetitions; verdicts
must be identical across all three variants.  The instrumented run
additionally yields the per-stage pipeline breakdown
(serialize/ring_write/queue_wait/enforce/fold) and a per-worker latency
profile — the numbers ``BENCH_obs.json`` archives and CI gates on.

:func:`run_obs_profile` drives the same instrumented replay for the
``obs`` CLI subcommand: it captures a ``top``-style frame after each
burst plus final Prometheus/JSONL exports and any health events.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

from repro.core.policy import Policy
from repro.experiments.common import format_table, split_into_bursts
from repro.experiments.fleet import available_cpus
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.obs import (
    NULL_REGISTRY,
    HealthThresholds,
    PoolHealthMonitor,
    RuntimeObservability,
    render_top,
    to_jsonl,
    to_prometheus,
)
from repro.obs.export import record_enforcer_stats, record_pool_health

#: The :class:`~repro.runtime.pool.ShardWorkerPool` default name — the
#: pool label every shard-pool metric series carries.
SHARD_POOL = "shard-pool"


@dataclass
class WorkerProfile:
    """Per-worker latency profile extracted from the batch histogram."""

    worker: int
    batches: int
    p50_ms: float
    p99_ms: float
    respawns: int = 0

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "batches": self.batches,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "respawns": self.respawns,
        }


@dataclass
class ObsBenchResult:
    """Instrumentation overhead plus the latency profile it bought."""

    packets: int
    shards: int
    cpus: int
    batches: int
    rounds: int
    sample_every: int
    #: Effective execution backend ("pool", or "sequential" after a
    #: fork-less degradation — overheads still bind, spans do not).
    backend: str
    uninstrumented_wall_s: float
    null_wall_s: float
    instrumented_wall_s: float
    verdicts_match: bool
    #: Total seconds per pool pipeline stage over the instrumented run.
    stage_seconds: dict = field(default_factory=dict)
    #: Sampled enforcer stage observation counts (proof sampling ran).
    enforcer_samples: dict = field(default_factory=dict)
    workers: list = field(default_factory=list)

    def _overhead_pct(self, wall_s: float) -> float:
        if self.uninstrumented_wall_s <= 0:
            return 0.0
        return (wall_s / self.uninstrumented_wall_s - 1.0) * 100.0

    @property
    def null_overhead_pct(self) -> float:
        """Cost of the attached-but-null code path vs no instrumentation."""
        return self._overhead_pct(self.null_wall_s)

    @property
    def instrumented_overhead_pct(self) -> float:
        """Cost of live metrics + traces vs no instrumentation."""
        return self._overhead_pct(self.instrumented_wall_s)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "shards": self.shards,
            "cpus": self.cpus,
            "batches": self.batches,
            "rounds": self.rounds,
            "sample_every": self.sample_every,
            "backend": self.backend,
            "uninstrumented_wall_s": self.uninstrumented_wall_s,
            "null_wall_s": self.null_wall_s,
            "instrumented_wall_s": self.instrumented_wall_s,
            "null_overhead_pct": self.null_overhead_pct,
            "instrumented_overhead_pct": self.instrumented_overhead_pct,
            "verdicts_match": self.verdicts_match,
            "stage_seconds": dict(self.stage_seconds),
            "enforcer_samples": dict(self.enforcer_samples),
            "workers": [profile.to_dict() for profile in self.workers],
        }

    def table(self) -> str:
        rows = [
            ("uninstrumented", f"{self.uninstrumented_wall_s * 1e3:.1f}", "-"),
            (
                "null registry",
                f"{self.null_wall_s * 1e3:.1f}",
                f"{self.null_overhead_pct:+.2f}%",
            ),
            (
                "instrumented",
                f"{self.instrumented_wall_s * 1e3:.1f}",
                f"{self.instrumented_overhead_pct:+.2f}%",
            ),
        ]
        table = format_table(("variant", "median wall (ms)", "overhead"), rows)
        lines = [
            f"obs overhead on {self.packets} packets in {self.batches} batch(es), "
            f"{self.shards} shards, {self.cpus} cpu(s), backend={self.backend}, "
            f"sampling 1/{self.sample_every}:",
            table,
        ]
        if self.stage_seconds:
            parts = [
                f"{stage} {total * 1e3:.2f} ms"
                for stage, total in sorted(
                    self.stage_seconds.items(), key=lambda item: -item[1]
                )
            ]
            lines.append("pipeline stages: " + " | ".join(parts))
        for profile in self.workers:
            lines.append(
                f"  w{profile.worker}: {profile.batches} batches, "
                f"p50 {profile.p50_ms:.3f} ms, p99 {profile.p99_ms:.3f} ms, "
                f"{profile.respawns} respawn(s)"
            )
        lines.append(f"verdict-identical across all variants: {self.verdicts_match}")
        return "\n".join(lines)


def _run_bursts(enforcer, bursts, pipelined):
    """One replay pass; returns (verdicts, wall-clock seconds)."""
    started = time.perf_counter()
    if pipelined:
        tokens = [enforcer.submit_batch(burst) for burst in bursts]
        batches = [enforcer.collect_batch(token) for token in tokens]
    else:
        batches = [enforcer.process_batch_timed(burst) for burst in bursts]
    wall = time.perf_counter() - started
    verdicts = [
        verdict for batch in batches for verdict, _ in batch.results
    ]
    return verdicts, wall


def worker_profiles(obs, pool: str = SHARD_POOL, health=None) -> list[WorkerProfile]:
    """Per-worker p50/p99 batch latency (ms) from the registry, with
    respawn counts from a :class:`PoolHealthSnapshot` when given."""
    hist = obs.registry.get("pool_worker_batch_seconds")
    profiles: list[WorkerProfile] = []
    if hist is None or not hasattr(hist, "_series"):
        return profiles
    for key in sorted(hist._series, key=lambda item: int(item[1])):
        pool_label, worker = key
        if pool_label != pool:
            continue
        state = hist._series[key]
        index = int(worker)
        respawns = 0
        if health is not None and index < len(health.respawn_counts):
            respawns = health.respawn_counts[index]
        profiles.append(
            WorkerProfile(
                worker=index,
                batches=state.count,
                p50_ms=hist.quantile(0.50, pool=pool_label, worker=worker) * 1e3,
                p99_ms=hist.quantile(0.99, pool=pool_label, worker=worker) * 1e3,
                respawns=respawns,
            )
        )
    return profiles


def run_obs_bench(
    packets: int = 10_000,
    flows: int = 256,
    shards: int = 4,
    corpus_apps: int = 6,
    seed: int = 7,
    flow_cache_size: int = 0,
    batches: int = 16,
    rounds: int = 3,
    sample_every: int = 32,
) -> ObsBenchResult:
    """Bound instrumentation overhead on the pool-backed batched replay.

    All three variants process the identical burst sequence through
    identically-configured pool-backed ``ShardedEnforcer`` instances
    (``flow_cache_size=0`` keeps real per-packet work on the path, as
    in :func:`~repro.experiments.fleet.run_shard_backend_comparison`).
    Rounds interleave the variants so drift penalizes them equally, and
    each variant's wall is the median over rounds.
    """
    if packets < 1:
        raise ValueError("the replay needs at least one packet")
    if packets < batches:
        raise ValueError("the replay needs at least one packet per batch")
    if shards < 1:
        raise ValueError("need at least one enforcer shard")
    if rounds < 1:
        raise ValueError("need at least one timing round")
    database = build_signature_database(corpus_apps=corpus_apps, seed=seed)
    replay = build_replay(database.entries(), packets=packets, flows=flows, seed=seed)
    bursts = [burst for burst in split_into_bursts(replay, batches) if burst]
    policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-bench")
    kwargs = dict(
        database=database,
        policy=policy,
        num_shards=shards,
        keep_records=False,
        flow_cache_size=flow_cache_size,
    )

    plain = ShardedEnforcer(backend="pool", **kwargs)
    nulled = ShardedEnforcer(backend="pool", **kwargs)
    nulled.attach_obs(RuntimeObservability(NULL_REGISTRY, sample_every=sample_every))
    obs = RuntimeObservability(sample_every=sample_every)
    instrumented = ShardedEnforcer(backend="pool", **kwargs)
    instrumented.attach_obs(obs)
    variants = [plain, nulled, instrumented]

    warmup = replay[: min(64, len(replay))]
    for enforcer in variants:
        enforcer.process_batch_timed(warmup, backend="sequential")

    pipelined = plain.backend == "pool"
    walls: list[list[float]] = [[], [], []]
    verdict_runs: list[list] = [[], [], []]
    for _ in range(rounds):
        for index, enforcer in enumerate(variants):
            verdicts, wall = _run_bursts(enforcer, bursts, pipelined)
            walls[index].append(wall)
            verdict_runs[index] = verdicts

    health = instrumented.pool_health()
    profiles = worker_profiles(obs, SHARD_POOL, health)
    stage_seconds = obs.stage_breakdown(SHARD_POOL)
    enforcer_hist = obs.registry.get("enforcer_stage_seconds")
    samples: dict[str, int] = {}
    if enforcer_hist is not None and hasattr(enforcer_hist, "_series"):
        for key, state in enforcer_hist._series.items():
            if state.count:
                samples[key[0]] = state.count
    for enforcer in variants:
        enforcer.close()

    return ObsBenchResult(
        packets=len(replay),
        shards=shards,
        cpus=available_cpus(),
        batches=len(bursts),
        rounds=rounds,
        sample_every=sample_every,
        backend=plain.backend,
        uninstrumented_wall_s=median(walls[0]),
        null_wall_s=median(walls[1]),
        instrumented_wall_s=median(walls[2]),
        verdicts_match=verdict_runs[0] == verdict_runs[1] == verdict_runs[2],
        stage_seconds=stage_seconds,
        enforcer_samples=samples,
        workers=profiles,
    )


@dataclass
class ObsProfile:
    """Everything one profiled replay produced: frames + exports."""

    packets: int
    shards: int
    batches: int
    backend: str
    frames: list = field(default_factory=list)
    events: list = field(default_factory=list)
    prometheus: str = ""
    jsonl: str = ""
    degraded: bool = False

    def final_frame(self) -> str:
        return self.frames[-1] if self.frames else "(no frames captured)"


def run_obs_profile(
    packets: int = 4_000,
    flows: int = 128,
    shards: int = 4,
    corpus_apps: int = 6,
    seed: int = 7,
    batches: int = 8,
    sample_every: int = 32,
    frames: int = 4,
) -> ObsProfile:
    """Replay once instrumented and capture live profiler frames.

    ``frames`` caps how many ``top``-style snapshots are rendered (one
    after every ``ceil(batches / frames)``-th burst plus a final one);
    the closing frame folds the cumulative enforcer stats and pool
    health gauges into the registry before export, so the Prometheus
    and JSONL text carry the full picture.
    """
    if frames < 1:
        raise ValueError("need at least one profiler frame")
    if packets < batches:
        raise ValueError("the replay needs at least one packet per batch")
    database = build_signature_database(corpus_apps=corpus_apps, seed=seed)
    replay = build_replay(database.entries(), packets=packets, flows=flows, seed=seed)
    bursts = [burst for burst in split_into_bursts(replay, batches) if burst]
    policy = Policy.deny_libraries(DEFAULT_DENY_LIBRARIES, name="obs-profile")

    obs = RuntimeObservability(sample_every=sample_every)
    enforcer = ShardedEnforcer(
        database=database,
        policy=policy,
        num_shards=shards,
        keep_records=False,
        backend="pool",
    )
    enforcer.attach_obs(obs)
    monitor = PoolHealthMonitor(HealthThresholds(), source="obs-cli")
    degraded = enforcer.backend != "pool"

    profile = ObsProfile(
        packets=len(replay),
        shards=shards,
        batches=len(bursts),
        backend=enforcer.backend,
        degraded=degraded,
    )
    every = max(1, -(-len(bursts) // frames))
    for index, burst in enumerate(bursts):
        if degraded:
            enforcer.process_batch_timed(burst)
        else:
            enforcer.collect_batch(enforcer.submit_batch(burst))
        if (index + 1) % every == 0 or index == len(bursts) - 1:
            health = enforcer.pool_health()
            if health is not None:
                monitor.check(health, degraded=degraded)
            profile.frames.append(
                render_top(
                    obs,
                    SHARD_POOL,
                    health=health,
                    events=monitor.events,
                    title=f"obs profile [{index + 1}/{len(bursts)}]",
                    degraded=degraded,
                )
            )

    record_enforcer_stats(
        obs.registry, enforcer.aggregate_stats(), source="obs-profile"
    )
    health = enforcer.pool_health()
    if health is not None:
        record_pool_health(obs.registry, health)
    profile.events = list(monitor.events)
    profile.prometheus = to_prometheus(obs.registry)
    profile.jsonl = to_jsonl(obs.registry)
    enforcer.close()
    return profile
