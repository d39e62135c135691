"""Observability overhead bench and the live profiler driver.

The runtime observability layer (:mod:`repro.obs`) promises two things
the rest of the repo depends on: instrumentation must not change what
the policy decides, and it must stay cheap enough to leave attached in
production.  :func:`run_obs_bench` pins both — three in-process sharded
enforcers process the identical batched replay:

* **uninstrumented** — no observability attached (the baseline);
* **null registry**  — the full instrumented code path with every
  observation a no-op (the "is it attached" branch cost);
* **instrumented**   — a live :class:`~repro.obs.RuntimeObservability`
  sampling per-stage enforcer latency into its registry.

Walls are medians over ``rounds`` interleaved repetitions; verdicts
must be identical across all three variants.  The instrumented run
additionally yields the sampled per-stage breakdown (extract, decode,
eval, ...) — the numbers ``BENCH_obs.json`` archives and CI gates on.

:func:`run_obs_profile` drives the same instrumented replay for the
``obs`` CLI subcommand: it captures a ``top``-style frame after each
burst plus final Prometheus/JSONL exports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from statistics import median

from repro.core.policy import Policy
from repro.experiments.benchmeta import available_cpus
from repro.experiments.common import format_table, split_into_bursts
from repro.experiments.gateway_throughput import (
    DEFAULT_DENY_LIBRARIES,
    build_replay,
    build_signature_database,
)
from repro.netstack.sharding import ShardedEnforcer
from repro.obs import (
    NULL_REGISTRY,
    RuntimeObservability,
    record_enforcer_stats,
    render_top,
    to_jsonl,
    to_prometheus,
)


@dataclass
class ObsBenchResult:
    """Instrumentation overhead plus the latency profile it bought."""

    packets: int
    shards: int
    cpus: int
    batches: int
    rounds: int
    sample_every: int
    uninstrumented_wall_s: float
    null_wall_s: float
    instrumented_wall_s: float
    verdicts_match: bool
    #: Total sampled seconds per enforcer stage over the instrumented run.
    stage_seconds: dict = field(default_factory=dict)
    #: Sampled enforcer stage observation counts (proof sampling ran).
    enforcer_samples: dict = field(default_factory=dict)

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
        """Cost of live sampled metrics vs no instrumentation."""
        return self._overhead_pct(self.instrumented_wall_s)

    def to_dict(self) -> dict:
        return {
            "packets": self.packets,
            "shards": self.shards,
            "cpus": self.cpus,
            "batches": self.batches,
            "rounds": self.rounds,
            "sample_every": self.sample_every,
            "uninstrumented_wall_s": self.uninstrumented_wall_s,
            "null_wall_s": self.null_wall_s,
            "instrumented_wall_s": self.instrumented_wall_s,
            "null_overhead_pct": self.null_overhead_pct,
            "instrumented_overhead_pct": self.instrumented_overhead_pct,
            "verdicts_match": self.verdicts_match,
            "stage_seconds": dict(self.stage_seconds),
            "enforcer_samples": dict(self.enforcer_samples),
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
            f"{self.shards} shards, {self.cpus} cpu(s), in-process, "
            f"sampling 1/{self.sample_every}:",
            table,
        ]
        if self.stage_seconds:
            parts = [
                f"{stage} {total * 1e3:.2f} ms/{self.enforcer_samples[stage]} samples"
                for stage, total in self.stage_seconds.items()
            ]
            lines.append("sampled enforcer stages: " + " | ".join(parts))
        lines.append(f"verdict-identical across all variants: {self.verdicts_match}")
        return "\n".join(lines)


def _run_bursts(enforcer, bursts):
    """One replay pass; returns (verdicts, wall-clock seconds)."""
    started = time.perf_counter()
    batches = [enforcer.process_batch_timed(burst) for burst in bursts]
    wall = time.perf_counter() - started
    verdicts = [verdict for batch in batches for verdict, _ in batch.results]
    return verdicts, wall


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
    """Bound instrumentation overhead on the in-process batched replay.

    All three variants process the identical burst sequence through
    identically-configured ``ShardedEnforcer`` instances
    (``flow_cache_size=0`` keeps a full decode and evaluation on every
    packet, so the sampled path reaches every stage it can).
    Rounds interleave the variants so drift penalizes them equally, and
    each round starts with the next variant, so no variant always runs
    first or last; each variant's wall is the median over rounds.
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

    plain = ShardedEnforcer(**kwargs)
    nulled = ShardedEnforcer(**kwargs)
    nulled.attach_obs(RuntimeObservability(NULL_REGISTRY, sample_every=sample_every))
    obs = RuntimeObservability(sample_every=sample_every)
    instrumented = ShardedEnforcer(**kwargs)
    instrumented.attach_obs(obs)
    variants = [plain, nulled, instrumented]

    warmup = replay[: min(64, len(replay))]
    for enforcer in variants:
        enforcer.process_batch_timed(warmup)

    walls: list[list[float]] = [[], [], []]
    verdict_runs: list[list] = [[], [], []]
    for round_index in range(rounds):
        for offset in range(len(variants)):
            index = (round_index + offset) % len(variants)
            verdicts, wall = _run_bursts(variants[index], bursts)
            walls[index].append(wall)
            verdict_runs[index] = verdicts

    breakdown = obs.stage_breakdown()
    return ObsBenchResult(
        packets=len(replay),
        shards=shards,
        cpus=available_cpus(),
        batches=len(bursts),
        rounds=rounds,
        sample_every=sample_every,
        uninstrumented_wall_s=median(walls[0]),
        null_wall_s=median(walls[1]),
        instrumented_wall_s=median(walls[2]),
        verdicts_match=verdict_runs[0] == verdict_runs[1] == verdict_runs[2],
        stage_seconds={stage: seconds for stage, (_, seconds) in breakdown.items()},
        enforcer_samples={stage: samples for stage, (samples, _) in breakdown.items()},
    )


@dataclass
class ObsProfile:
    """Everything one profiled replay produced: frames + exports."""

    packets: int
    shards: int
    batches: int
    frames: list = field(default_factory=list)
    prometheus: str = ""
    jsonl: str = ""

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
    the cumulative enforcer stats are folded into the registry before
    export, so the Prometheus and JSONL text carry the full picture.
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
        database=database, policy=policy, num_shards=shards, keep_records=False
    )
    enforcer.attach_obs(obs)

    profile = ObsProfile(packets=len(replay), shards=shards, batches=len(bursts))
    every = max(1, -(-len(bursts) // frames))
    for index, burst in enumerate(bursts):
        enforcer.process_batch_timed(burst)
        if (index + 1) % every == 0 or index == len(bursts) - 1:
            profile.frames.append(
                render_top(
                    obs,
                    title=f"obs profile [{index + 1}/{len(bursts)}]",
                    stats=enforcer.aggregate_stats(),
                )
            )

    record_enforcer_stats(obs.registry, enforcer.aggregate_stats(), source="obs-profile")
    profile.prometheus = to_prometheus(obs.registry)
    profile.jsonl = to_jsonl(obs.registry)
    return profile
